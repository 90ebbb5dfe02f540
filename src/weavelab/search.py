"""Deterministic enumeration and local search over binary patterns.

Exhaustive searches enumerate bitstrings in lexicographic order (bit 1 is
the most significant), evaluate fixed-size chunks, and reduce with
first-maximum tie-breaking, so the winning pattern is the lexicographically
smallest maximizer and the result does not depend on the number of worker
threads (``WEAVELAB_THREADS``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import InputError

DEFAULT_EXHAUSTIVE_CAP = 2 ** 22
CHUNK_BUDGET = 2 ** 17  # float cells per chunk of an exhaustive table


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


def exhaustive_table(n_bits: int, chunk_fn: Callable[[int, int], np.ndarray],
                     columns: int = 1, chunk: int = 1024) -> np.ndarray:
    """Evaluate chunk_fn(m0, m1) over all 2**n_bits patterns.

    Returns the stacked (2**n_bits, columns) table (or a flat array when
    ``columns == 1``).  chunk_fn must be a pure function of its span.
    """
    total = 1 << n_bits
    out = np.empty((total, columns), dtype=np.float64)
    spans = [(m0, min(m0 + chunk, total)) for m0 in range(0, total, chunk)]

    def run(span):
        m0, m1 = span
        rows = np.asarray(chunk_fn(m0, m1), dtype=np.float64)
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
               seed: int, extra_starts: tuple[int, ...] = ()) -> tuple[float, int, dict[int, float]]:
    """Single-bit-flip hill climbing; returns (best value, best index, cache).

    Starts from the all-zeros and all-ones patterns, any ``extra_starts``,
    and ``restarts`` seeded random patterns.  Ties prefer the smaller index.
    """
    total = 1 << n_bits
    rng = np.random.default_rng(seed)
    starts = [0, total - 1]
    starts.extend(extra_starts)
    for _ in range(restarts):
        starts.append(int(rng.integers(0, total)))
    cache: dict[int, float] = {}

    def val(m: int) -> float:
        if m not in cache:
            cache[m] = float(value_of(m))
        return cache[m]

    best_v, best_m = -np.inf, 0
    for start in starts:
        cur = start
        cur_v = val(cur)
        improved = True
        while improved:
            improved = False
            for bit in range(n_bits):
                neigh = cur ^ (1 << (n_bits - 1 - bit))
                nv = val(neigh)
                if nv > cur_v:
                    cur, cur_v = neigh, nv
                    improved = True
        if cur_v > best_v or (cur_v == best_v and cur < best_m):
            best_v, best_m = cur_v, cur
    return best_v, best_m, cache


def greedy_add(n_bits: int, value_of: Callable[[int], float],
               cache: dict[int, float] | None = None) -> tuple[float, int]:
    """Greedy subset growth from the empty set; used to seed local search."""
    cache = cache if cache is not None else {}

    def val(m: int) -> float:
        if m not in cache:
            cache[m] = float(value_of(m))
        return cache[m]

    cur = 0
    cur_v = val(0)
    while True:
        best_gain_m, best_gain_v = None, cur_v
        for bit in range(n_bits):
            mask = 1 << (n_bits - 1 - bit)
            if cur & mask:
                continue
            cand = cur | mask
            cv = val(cand)
            if cv > best_gain_v:
                best_gain_v, best_gain_m = cv, cand
        if best_gain_m is None:
            return cur_v, cur
        cur, cur_v = best_gain_m, best_gain_v
