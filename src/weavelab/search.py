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
:func:`bound` is the one reduce of a column of (lo, hi) brackets.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .normed import Bound

DEFAULT_EXHAUSTIVE_CAP = 2 ** 22
# Floats that one chunk of an exhaustive table may hold at once.  Chunks are
# sized per pattern row (``chunk_size_for``), because no array of a chunk
# grows with the number of bits, only with what each pattern's row holds.  A
# pattern-sum row holds CELLS_PER_SUM d x d cells: the two pattern-sum levels
# and the third stack of a ``frames.ChunkEvaluator`` workspace, and the inverse.
CHUNK_BUDGET = 2 ** 17
CELLS_PER_SUM = 4
_worker = threading.local()  # ``busy`` in pattern_table's worker threads and heuristic searches


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


class Values(dict):
    """Pattern index -> value of each pattern that one search has graded;
    ``grade`` maps a sorted list of distinct indices to their values."""

    def __init__(self, grade: Callable[[list[int]], Sequence[float]]):
        super().__init__()
        self.grade = grade

    def fill(self, ms):
        """Grade the indices of ``ms`` not held, as one batch."""
        new = sorted(set(ms).difference(self))
        self.update(zip(new, self.grade(new)))


def _climb(n_bits: int, cur: int):
    """One climb from ``cur``: sent the value of each index it yields, it returns (end, value)."""
    cur_v = yield cur
    improved = True
    while improved:
        improved = False
        for bit in range(n_bits):
            neigh = cur ^ (1 << (n_bits - 1 - bit))
            nv = yield neigh
            if nv > cur_v:
                cur, cur_v = neigh, nv
                improved = True
    return cur, cur_v


def hill_climb(n_bits: int, values: Values, restarts: int, seed: int,
               extra_starts: tuple[int, ...] = ()) -> int:
    """Single-bit-flip hill climbing; returns the best pattern index found.

    Starts from the all-zeros and all-ones patterns, any ``extra_starts``,
    and ``restarts`` seeded random patterns, all in lockstep: a request
    that ``values`` holds is answered at once, and each round grades the
    others as one ``values.fill``.  A value depends on its index alone, so
    each climb steps as it would alone and the graded set is that of one
    climb after another.  Ties among the end points prefer the smaller
    index.  A negative seed raises InputError.
    """
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed!r}")
    total = 1 << n_bits
    rng = np.random.default_rng(seed)
    starts = [0, total - 1, *extra_starts]
    for _ in range(restarts):  # unsigned draws only where int64 cannot hold 2**64
        starts.append(int(rng.integers(0, total, dtype=np.uint64 if n_bits == 64 else np.int64)))
    climbs = [_climb(n_bits, start) for start in starts]
    asks, ends = {k: next(climb) for k, climb in enumerate(climbs)}, [None] * len(climbs)
    while asks:
        values.fill(asks.values())
        for k, m in list(asks.items()):
            try:
                while m in values:
                    m = climbs[k].send(values[m])
                asks[k] = m
            except StopIteration as end:
                ends[k] = end.value
                del asks[k]
    best_v, best_m = -np.inf, 0
    for cur, cur_v in ends:
        if cur_v > best_v or (cur_v == best_v and cur < best_m):
            best_v, best_m = cur_v, cur
    return best_m


def greedy_add(n_bits: int, values: Values) -> int:
    """Greedy subset growth from the empty set; returns the pattern index
    where no added bit improves, grading each step's candidates as one
    ``values.fill``.  Used to seed local search."""
    values.fill([0])
    cur, cur_v = 0, values[0]
    while True:
        cands = [cur | 1 << bit for bit in reversed(range(n_bits)) if not cur >> bit & 1]
        values.fill(cands)
        gains = [(cv, cand) for cand in cands if (cv := values[cand]) > cur_v]
        if not gains:
            return cur
        cur_v, cur = max(gains, key=lambda gain: gain[0])  # the first of equal gains


def bound(lo: np.ndarray, hi: np.ndarray, complete: bool, at: int | None = None) -> Bound:
    """The Bound of a column of (lo, hi) brackets: the largest lo, witnessed
    by its first position or by ``at``, and the largest hi (NaN if one is) when
    ``complete`` (every pattern was graded), else +inf."""
    at = int(lo.argmax()) if at is None else at
    return Bound(float(lo[at]), hi=float(hi.max()) if complete else np.inf, witness=at)


def maximize(n_bits: int, rows_of: Callable[[np.ndarray], np.ndarray], mode: SearchMode,
             exhaustive_cap: int, seed: int, cell: int, columns: int = 1,
             greedy: bool = False) -> tuple[SearchMode, Bound, Sequence[int], np.ndarray]:
    """Maximize the largest lo of a pattern's row over all n_bits patterns.

    ``rows_of`` maps a uint64 array of pattern indices to their rows, a
    (lo, hi) pair for each of ``columns`` quantities; ``cell``, the floats
    of one pattern's sum, sizes the chunks at ``CELLS_PER_SUM`` such cells
    per pattern.  Exhaustive mode tabulates every row, but above
    ``exhaustive_cap`` patterns it is demoted to ``heuristic(mode.restarts)``,
    which hill-climbs (seeded by greedy growth when ``greedy``) and evaluates
    each pattern once, a round at a time: one ``pattern_table`` on the
    calling thread (a pool per round of a few chunks costs more than it
    saves).  Returns ``(mode_used, best, ms, rows)``: the evaluated indices
    in increasing order, their rows, and the ``bound`` of the row maxima at
    the winner's position in both.  More than 64 bits raise InputError.
    """
    if n_bits > 64:
        raise InputError(f"patterns of {n_bits} bits; at most 64 are supported")
    if mode.kind == "exhaustive" and (1 << n_bits) > exhaustive_cap:
        mode = heuristic(mode.restarts)
    if mode.kind == "exhaustive":
        ms, best = range(1 << n_bits), None
        rows = pattern_table(ms, rows_of, CELLS_PER_SUM * cell, 2 * columns)
    else:
        memo: dict[int, np.ndarray] = {}

        def grade(ms: list[int]) -> list[float]:
            rows = pattern_table(ms, rows_of, CELLS_PER_SUM * cell, 2 * columns)
            memo.update(zip(ms, rows))
            return rows[:, 0::2].max(axis=1).tolist()

        values, busy = Values(grade), getattr(_worker, "busy", False)
        _worker.busy = True
        try:
            extra = (greedy_add(n_bits, values),) if greedy else ()
            best_m = hill_climb(n_bits, values, mode.restarts, seed, extra)
        finally:
            _worker.busy = busy
        ms = sorted(memo)
        best, rows = ms.index(best_m), np.array([memo[m] for m in ms])
    return (mode, bound(rows[:, 0::2].max(axis=1), rows[:, 1::2], mode.kind == "exhaustive", best),
            ms, rows)
