"""Deterministic enumeration and local search over binary patterns.

:func:`pattern_table` is the one loop over chunks of patterns, for
exhaustive searches, perturbation certificates and the six-way check.  It
grades sorted pattern indices (all 2**n in lexicographic order, bit 1 the
most significant, or a sample) in chunks fixed by the instance, on up to
``WEAVELAB_THREADS`` threads, and callers reduce with first-index
tie-breaking (``np.argmax``): the winner is the lexicographically smallest
maximizer, for any thread count.  :func:`maximize` is the one place where a
search is demoted, from exhaustive above its cap to heuristic; both modes
read the same row function, so their values agree bit for bit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

DEFAULT_EXHAUSTIVE_CAP = 2 ** 22
# Floats that one chunk of an exhaustive table may hold at once.  Chunks are
# sized per pattern row (``chunk_size_for``), because no array of a chunk
# grows with the number of bits, only with what each pattern's row holds.  A
# pattern-sum row holds CELLS_PER_SUM d x d cells: the two pattern-sum levels
# and the third stack of a ``frames.ChunkEvaluator`` workspace, and the inverse.
CHUNK_BUDGET = 2 ** 17
CELLS_PER_SUM = 4
_worker = threading.local()  # ``busy`` in the driver's own worker threads


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
    """Worker cap from WEAVELAB_THREADS (default 1); InputError unless it is
    an integer of at least 1."""
    raw = os.environ.get("WEAVELAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"WEAVELAB_THREADS must be an integer of at least 1, got {raw!r}")
    return n


def bit_rows(ms: np.ndarray, n_bits: int) -> np.ndarray:
    """Boolean (len(ms), n_bits) matrix of the patterns' bits, MSB first."""
    octets = np.asarray(ms, dtype=">u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1)[:, 64 - n_bits:].view(bool)


def bits_of_index(m: int, n_bits: int) -> tuple[int, ...]:
    return tuple(int(b) for b in bit_rows(np.array([m]), n_bits)[0])


def index_of_bits(bits) -> int:
    m = 0
    for b in bits:
        m = (m << 1) | int(b)
    return m


def chunk_size_for(row_cells: int) -> int:
    """Patterns per chunk when one pattern's row holds ``row_cells`` floats:
    ``CHUNK_BUDGET // row_cells``, at least 1 and at most 1024.

    Pattern-sum tables pass ``CELLS_PER_SUM * d * d``, so a d x d chunk
    holds 2**15 // d**2 patterns; ``unc_conditions`` passes n**3.  Depends
    only on the instance (never on the worker count) so chunk contents, and
    hence floating-point results, are schedule-independent.
    """
    return max(1, min(1024, CHUNK_BUDGET // row_cells))


def pattern_table(ms: Sequence[int], rows_of: Callable[[np.ndarray], np.ndarray],
                  row_cells: int, columns: int = 1) -> np.ndarray:
    """Evaluate rows_of over the pattern indices ``ms`` in increasing order,
    ``chunk_size_for(row_cells)`` consecutive entries at a time.

    ``ms`` is ``range(1 << n_bits)`` for a full table, whose chunks are built
    by ``np.arange`` (no index array of the whole range), or a sorted list.
    Returns the (len(ms), columns) table (a flat array when ``columns ==
    1``).  rows_of maps a uint64 array of indices to their rows and must be a
    pure function of them.  A table that a row function builds (the sign
    tables of a six-way chunk's C_u) runs in its worker thread alone, so
    thread pools never nest.
    """
    chunk = chunk_size_for(row_cells)
    out = np.empty((len(ms), columns), dtype=np.float64)
    spans = [(lo, min(lo + chunk, len(ms))) for lo in range(0, len(ms), chunk)]

    def run(span):
        lo, hi = span
        idx = np.arange(lo, hi, dtype=np.uint64) if isinstance(ms, range) \
            else np.asarray(ms[lo:hi], dtype=np.uint64)
        out[lo:hi] = np.asarray(rows_of(idx), dtype=np.float64).reshape(hi - lo, columns)

    w = 1 if getattr(_worker, "busy", False) else worker_count()
    if w <= 1 or len(spans) <= 1:
        for span in spans:
            run(span)
    else:
        # imported here, as only threaded tables need it: concurrent.futures,
        # with the logging it loads, adds milliseconds to the package's import
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(w, initializer=setattr, initargs=(_worker, "busy", True)) as ex:
            list(ex.map(run, spans))
    return out[:, 0] if columns == 1 else out


def hill_climb(n_bits: int, value_of: Callable[[int], float], restarts: int,
               seed: int, extra_starts: tuple[int, ...] = ()) -> int:
    """Single-bit-flip hill climbing; returns the best pattern index found.

    Starts from the all-zeros and all-ones patterns, any ``extra_starts``,
    and ``restarts`` seeded random patterns.  Ties among the climbs' end
    points prefer the smaller index.  ``value_of`` should be memoized.
    A negative seed raises InputError.
    """
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed!r}")
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
    when ``columns == 1``; ``cell``, the floats of one pattern's sum, sizes
    the chunks at ``CELLS_PER_SUM`` such cells per pattern.
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
        rows = pattern_table(range(1 << n_bits), rows_of, CELLS_PER_SUM * cell, columns)
        values = rows if columns == 1 else rows.max(axis=1)
        return mode, int(np.argmax(values)), range(1 << n_bits), rows

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
