"""Deterministic enumeration and local search over binary patterns.

:func:`pattern_table` is the one loop over chunks of patterns, for
exhaustive searches, perturbation certificates and the six-way check.  It
grades sorted pattern indices (all 2**n in lexicographic order, bit 1 the
most significant, or a sample) in chunks fixed by the instance, on the
calling thread, and callers reduce with first-index tie-breaking
(``np.argmax``): the winner is the lexicographically smallest maximizer.
:func:`maximize` is the one place where a search is demoted, from
exhaustive above its ``SearchMode.cap`` to heuristic; both modes read the
same row function, so their values agree bit for bit.
:func:`bound` is the one reduce of a column of (lo, hi) brackets.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SearchMode:
    """Exhaustive enumeration (heuristic above ``cap`` patterns) or seeded local search."""

    kind: str
    restarts: int = 32
    cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.kind not in ("exhaustive", "heuristic"):
            raise InputError(f"unknown search mode {self.kind!r}")
        if self.restarts < 0:
            raise InputError("restarts must be nonnegative")


EXHAUSTIVE = SearchMode("exhaustive")


def heuristic(restarts: int = SearchMode.restarts) -> SearchMode:
    return SearchMode("heuristic", restarts)


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


def chunk_size_for(floats: int) -> int:
    """Patterns per chunk when one pattern's row holds that many ``floats``:
    ``CHUNK_BUDGET // floats``, at least 1 and at most 1024.

    A ``frames.ChunkEvaluator`` over d x d sums takes ``CELLS_PER_SUM * d *
    d``, so its chunk holds 2**15 // d**2 patterns; ``unc_conditions`` passes
    n**3.  Depends only on the instance, so chunk contents, and hence
    floating-point results, are fixed by it.
    """
    return max(1, min(1024, CHUNK_BUDGET // floats))


def pattern_table(ms: Sequence[int], rows_of: Callable[[np.ndarray], np.ndarray],
                  chunk: int) -> np.ndarray:
    """Evaluate rows_of over the nonempty pattern indices ``ms`` in
    increasing order, ``chunk`` consecutive entries at a time.

    ``ms`` is ``range(1 << n_bits)`` for a full table, whose chunks are built
    by ``np.arange`` (no index array of the whole range), or a sorted list.
    rows_of maps a uint64 array of indices to their rows, one per index; it
    must be a pure function of them, and it runs on the calling thread, one
    chunk after another.  Returns the float table of the rows, shaped as
    they are.
    """
    out = None
    for lo in range(0, len(ms), chunk):
        hi = min(lo + chunk, len(ms))
        idx = np.arange(lo, hi, dtype=np.uint64) if isinstance(ms, range) \
            else np.asarray(ms[lo:hi], dtype=np.uint64)
        rows = rows_of(idx)
        if out is None:
            out = np.empty((len(ms),) + np.shape(rows)[1:])
        out[lo:hi] = rows
    return out


class Values(dict):
    """Pattern index -> value of each pattern that one search has graded;
    ``grade`` maps a sorted nonempty list of distinct indices to their values."""

    def __init__(self, grade: Callable[[list[int]], Sequence[float]]):
        super().__init__()
        self.grade = grade

    def fill(self, ms):
        """Grade the indices of ``ms`` not held, as one batch (none when all are)."""
        new = sorted(set(ms).difference(self))
        if new:
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
             seed: int, chunk: int,
             greedy: bool = False) -> tuple[SearchMode, Bound, Sequence[int], np.ndarray]:
    """Maximize the largest lo of a pattern's row over all n_bits patterns.

    ``rows_of`` maps a uint64 array of pattern indices to their rows, a
    (lo, hi) pair for each of its quantities, ``chunk`` indices at a time.
    Exhaustive mode tabulates every row, but above ``mode.cap`` patterns it
    is demoted to ``heuristic(mode.restarts)``, which hill-climbs (seeded by
    greedy growth when ``greedy``) and evaluates each pattern once, a round
    at a time: one ``pattern_table`` per round.  Returns ``(mode_used, best,
    ms, rows)``: the evaluated indices in increasing order, their rows, and
    the ``bound`` of the row maxima at the winner's position in both.  More
    than 64 bits raise InputError.
    """
    if n_bits > 64:
        raise InputError(f"patterns of {n_bits} bits; at most 64 are supported")
    if mode.kind == "exhaustive" and (1 << n_bits) > mode.cap:
        mode = heuristic(mode.restarts)
    if mode.kind == "exhaustive":
        ms, best = range(1 << n_bits), None
        rows = pattern_table(ms, rows_of, chunk)
    else:
        memo: dict[int, np.ndarray] = {}

        def grade(ms: list[int]) -> list[float]:
            rows = pattern_table(ms, rows_of, chunk)
            memo.update(zip(ms, rows))
            return rows[:, 0::2].max(axis=1).tolist()

        values = Values(grade)
        extra = (greedy_add(n_bits, values),) if greedy else ()
        best_m = hill_climb(n_bits, values, mode.restarts, seed, extra)
        ms = sorted(memo)
        best, rows = ms.index(best_m), np.array([memo[m] for m in ms])
    return (mode, bound(rows[:, 0::2].max(axis=1), rows[:, 1::2], mode.kind == "exhaustive", best),
            ms, rows)
