"""Deterministic enumeration and local search over binary patterns.

Exhaustive searches enumerate bitstrings in lexicographic order (bit 1 is
the most significant), evaluate fixed-size chunks, and reduce with
first-maximum tie-breaking, so the winning pattern is the lexicographically
smallest maximizer and the result does not depend on the number of worker
threads (``WEAVELAB_THREADS``).  :func:`maximize` is the one driver: it
demotes an exhaustive search above its cap to the heuristic one, and both
modes read the same row function, so their values agree bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

DEFAULT_EXHAUSTIVE_CAP = 2 ** 22
CHUNK_BUDGET = 2 ** 17  # float cells per chunk of an exhaustive table


@dataclass(frozen=True)
class SearchMode:
    """Exhaustive enumeration or seeded local search with restarts."""

    kind: str
    restarts: int = 32

    def __post_init__(self):
        if self.kind not in ("exhaustive", "heuristic"):
            raise InputError(f"unknown search mode {self.kind!r}")
        if self.restarts < 0:
            raise InputError("restarts must be nonnegative")


EXHAUSTIVE = SearchMode("exhaustive")


def heuristic(restarts: int = SearchMode.restarts) -> SearchMode:
    return SearchMode("heuristic", restarts)


def worker_count() -> int:
    """Worker cap from WEAVELAB_THREADS (default 1)."""
    raw = os.environ.get("WEAVELAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"WEAVELAB_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def bit_rows(ms: np.ndarray, n_bits: int) -> np.ndarray:
    """Boolean (len(ms), n_bits) matrix of the patterns' bits, MSB first."""
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.uint64)
    return ((ms[:, None].astype(np.uint64) >> shifts) & 1).astype(bool)


def bits_of_index(m: int, n_bits: int) -> tuple[int, ...]:
    return tuple(int(b) for b in bit_rows(np.array([m]), n_bits)[0])


def index_of_bits(bits) -> int:
    m = 0
    for b in bits:
        m = (m << 1) | int(b)
    return m


def chunk_size_for(n_bits: int, cell: int) -> int:
    """Fixed chunk size for a given problem shape.

    Depends only on the instance (never on the worker count) so chunk
    contents, and hence floating-point results, are schedule-independent.
    """
    per_row = max(1, n_bits * cell)
    return max(1, min(1024, CHUNK_BUDGET // per_row))


def exhaustive_table(n_bits: int, rows_of: Callable[[np.ndarray], np.ndarray],
                     columns: int = 1, chunk: int = 1024) -> np.ndarray:
    """Evaluate rows_of over all 2**n_bits patterns, ``chunk`` consecutive
    indices at a time.

    Returns the stacked (2**n_bits, columns) table (or a flat array when
    ``columns == 1``).  rows_of must be a pure function of its indices.
    """
    total = 1 << n_bits
    out = np.empty((total, columns), dtype=np.float64)
    spans = [(m0, min(m0 + chunk, total)) for m0 in range(0, total, chunk)]

    def run(span):
        m0, m1 = span
        rows = np.asarray(rows_of(np.arange(m0, m1, dtype=np.uint64)), dtype=np.float64)
        out[m0:m1] = rows.reshape(m1 - m0, columns)

    w = worker_count()
    if w <= 1 or len(spans) <= 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=w) as ex:
            list(ex.map(run, spans))
    return out[:, 0] if columns == 1 else out


def first_argmax(values: np.ndarray) -> int:
    """Index of the maximum; ties resolve to the smallest index.

    With lexicographic pattern enumeration this is the lexicographically
    smallest maximizer.  NaNs are rejected upstream; +inf is allowed.
    """
    return int(np.argmax(values))


def hill_climb(n_bits: int, value_of: Callable[[int], float], restarts: int,
               seed: int, extra_starts: tuple[int, ...] = ()) -> int:
    """Single-bit-flip hill climbing; returns the best pattern index found.

    Starts from the all-zeros and all-ones patterns, any ``extra_starts``,
    and ``restarts`` seeded random patterns.  Ties among the climbs' end
    points prefer the smaller index.  ``value_of`` should be memoized.
    """
    total = 1 << n_bits
    rng = np.random.default_rng(seed)
    starts = [0, total - 1]
    starts.extend(extra_starts)
    for _ in range(restarts):
        starts.append(int(rng.integers(0, total)))
    best_v, best_m = -np.inf, 0
    for start in starts:
        cur = start
        cur_v = value_of(cur)
        improved = True
        while improved:
            improved = False
            for bit in range(n_bits):
                neigh = cur ^ (1 << (n_bits - 1 - bit))
                nv = value_of(neigh)
                if nv > cur_v:
                    cur, cur_v = neigh, nv
                    improved = True
        if cur_v > best_v or (cur_v == best_v and cur < best_m):
            best_v, best_m = cur_v, cur
    return best_m


def greedy_add(n_bits: int, value_of: Callable[[int], float]) -> int:
    """Greedy subset growth from the empty set; returns the pattern index
    where no added bit improves.  Used to seed local search."""
    cur = 0
    cur_v = value_of(0)
    while True:
        best_gain_m, best_gain_v = None, cur_v
        for bit in range(n_bits):
            mask = 1 << (n_bits - 1 - bit)
            if cur & mask:
                continue
            cand = cur | mask
            cv = value_of(cand)
            if cv > best_gain_v:
                best_gain_v, best_gain_m = cv, cand
        if best_gain_m is None:
            return cur
        cur, cur_v = best_gain_m, best_gain_v


def maximize(n_bits: int, rows_of: Callable[[np.ndarray], np.ndarray], mode: SearchMode,
             exhaustive_cap: int, seed: int, cell: int, columns: int = 1,
             greedy: bool = False) -> tuple[SearchMode, int, Sequence[int], np.ndarray]:
    """Maximize the largest entry of a pattern's row over all n_bits patterns.

    ``rows_of`` maps a uint64 array of pattern indices to their rows, flat
    when ``columns == 1``; ``cell`` (floats per bit term) sizes the chunks.
    Exhaustive mode tabulates every row, but above ``exhaustive_cap``
    patterns it is demoted to ``heuristic(mode.restarts)``, which
    hill-climbs (seeded by greedy growth when ``greedy``) and evaluates
    each pattern once.  Returns ``(mode_used, best, ms, rows)``: the
    evaluated indices in increasing order, their rows, and the position of
    the winner in both.
    """
    if mode.kind == "exhaustive" and (1 << n_bits) > exhaustive_cap:
        mode = heuristic(mode.restarts)
    if mode.kind == "exhaustive":
        rows = exhaustive_table(n_bits, rows_of, columns, chunk_size_for(n_bits, cell))
        values = rows if columns == 1 else rows.max(axis=1)
        return mode, first_argmax(values), range(1 << n_bits), rows

    memo: dict[int, tuple[float, np.ndarray]] = {}

    def value_of(m: int) -> float:
        if m not in memo:
            row = rows_of(np.array([m], dtype=np.uint64))[0]
            memo[m] = (float(row.max()) if columns > 1 else float(row), row)
        return memo[m][0]

    extra = (greedy_add(n_bits, value_of),) if greedy else ()
    best_m = hill_climb(n_bits, value_of, mode.restarts, seed, extra)
    ms = sorted(memo)
    return mode, ms.index(best_m), ms, np.array([memo[m][1] for m in ms])
