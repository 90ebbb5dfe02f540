"""Weaving two frame systems by binary patterns.

Provides the woven system, partial operators over intervals and subsets,
the exhaustive/heuristic worst-pattern search, and the finite-scale tail,
uniform-bound, and lower-bound diagnostics.

Index conventions: pattern bit i (0-based position i of ``bits``) selects
the system for pair i+1; interval and subset indices are 1-based and
inclusive, matching the reports.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import search
from .errors import InputError
from .normed import Bound, Exactness, _as_vector, batch_vector_norms
from .frames import (ChunkEvaluator, FrameSystem, batch_biorthogonals, outer_stack,
                     projection_norms, subset_sum)
from .search import EXHAUSTIVE, SearchMode

DEFAULT_BLOW_UP = 1e8
LOG_CAP = 4096
PROFILE_CAP = 2 ** 20
PROFILE_SAMPLES = 256  # local patterns drawn per interval above PROFILE_CAP
PROFILE_SEED = 0


@dataclass(frozen=True)
class WeavePattern:
    """A binary pattern sigma in {0,1}^n selecting a system per index."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1 or any(b not in (0, 1) for b in self.bits):
            raise InputError("pattern bits must be a nonempty 0/1 sequence")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "%d" * len(self.bits) % self.bits

    @staticmethod
    def from_string(text: str) -> "WeavePattern":
        if not text or any(c not in "01" for c in text):
            raise InputError(f"bad pattern string {text!r}")
        return WeavePattern(tuple(int(c) for c in text))

    @staticmethod
    def from_index(m: int, n: int) -> "WeavePattern":
        return WeavePattern(search.bits_of_index(m, n))

    @property
    def index(self) -> int:
        return search.index_of_bits(self.bits)

    def complement(self) -> "WeavePattern":
        return WeavePattern(tuple(1 - b for b in self.bits))

    @staticmethod
    def zeros(n: int) -> "WeavePattern":
        return WeavePattern((0,) * n)

    @staticmethod
    def ones(n: int) -> "WeavePattern":
        return WeavePattern((1,) * n)

    @staticmethod
    def alternating(n: int) -> "WeavePattern":
        """sigma(i) = i mod 2 with 1-based i, i.e. 1, 0, 1, 0, ..."""
        return WeavePattern(tuple(i % 2 for i in range(1, n + 1)))


@dataclass(frozen=True)
class IntervalOperatorQuery:
    """An interval [lo, hi] (1-based, inclusive) together with a pattern."""

    pattern: WeavePattern
    lo: int
    hi: int

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi <= self.pattern.n):
            raise InputError(f"interval [{self.lo}, {self.hi}] out of range "
                             f"for n = {self.pattern.n}")


@dataclass(frozen=True, eq=False)
class WeaveSearchResult:
    """Worst pattern found, its constants, and the woven/not-woven verdict."""

    worst_pattern: WeavePattern
    worst_constant: float
    s_norm: float
    s_inv_norm: float
    mode: SearchMode
    exactness: Exactness
    verdict: str  # "woven" | "not_woven"
    witness: WeavePattern | None
    per_pattern_log: list[tuple[str, float, float]] | None
    patterns_evaluated: int


def _require_compatible(f0: FrameSystem, f1: FrameSystem):
    if f0.space != f1.space:
        raise InputError("systems live on different spaces")
    if f0.n != f1.n:
        raise InputError(f"systems have different lengths ({f0.n} vs {f1.n})")


def weave(f0: FrameSystem, f1: FrameSystem, pattern: WeavePattern) -> FrameSystem:
    """The woven system: pair i comes from f1 when bit i is 1, else f0."""
    _require_compatible(f0, f1)
    if pattern.n != f0.n:
        raise InputError(f"pattern of length {pattern.n} for systems of length {f0.n}")
    sel = np.array(pattern.bits, dtype=bool)[:, None]
    vectors = np.where(sel, f1.vectors, f0.vectors)
    functionals = np.where(sel, f1.functionals, f0.functionals)
    return FrameSystem(f0.space, vectors, functionals,
                       label=f"weave[{pattern}]({f0.label}|{f1.label})")


def partial_operator_subset(f0: FrameSystem, f1: FrameSystem, pattern: WeavePattern,
                            indices) -> "np.ndarray":
    """Matrix of sum_{j in Gamma} x_j^(sigma) f_j^(sigma)T, Gamma 1-based.

    The subset variant is only meaningful for unconditional systems; the
    interval form is the one backed by convergence at infinite scale.
    """
    woven = weave(f0, f1, pattern)
    return subset_sum(outer_stack(woven.vectors, woven.functionals), indices)


def partial_operator(f0: FrameSystem, f1: FrameSystem,
                     query: IntervalOperatorQuery) -> np.ndarray:
    """Partial frame operator over the query's interval."""
    return partial_operator_subset(f0, f1, query.pattern,
                                   range(query.lo, query.hi + 1))


def worst_weaving(f0: FrameSystem, f1: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                  blow_up_threshold: float = DEFAULT_BLOW_UP,
                  exhaustive_cap: int = search.DEFAULT_EXHAUSTIVE_CAP,
                  seed: int = 0, log_all_patterns: bool = False) -> WeaveSearchResult:
    """Search for the pattern maximizing max(||S_sigma||, ||S_sigma^-1||).

    Exhaustive mode grades every pattern (demoted to heuristic above
    ``exhaustive_cap``); heuristic mode hill-climbs with restarts from the
    two trivial patterns and random starts.  The verdict is ``not_woven``
    when any evaluated weaving fails inversion or exceeds
    ``blow_up_threshold``; heuristic "woven" verdicts are best-effort and
    the constant is then a lower bound.  ``blow_up_threshold`` must be
    finite and positive.  ``log_all_patterns`` logs every pattern evaluated,
    in index order.
    """
    _require_compatible(f0, f1)
    if not 0 < blow_up_threshold < np.inf:
        raise InputError(f"blow_up_threshold must be finite and positive, "
                         f"got {blow_up_threshold!r}")
    n = f0.n
    if log_all_patterns and (1 << n) > LOG_CAP:
        raise InputError(f"per-pattern log limited to 2^n <= {LOG_CAP}")
    mode_used, worst, ms, rows = search.maximize(n, ChunkEvaluator.weavings(f0, f1).constants,
                                                 mode, exhaustive_cap, seed,
                                                 f0.space.dim ** 2, columns=2)
    offenders = np.flatnonzero(rows[:, 0::2].max(axis=1) > blow_up_threshold)  # by the lo
    witness = ms[offenders[0]] if offenders.size else None
    s_norm, s_inv = rows[worst.witness, 0::2].tolist()
    return WeaveSearchResult(
        worst_pattern=WeavePattern.from_index(ms[worst.witness], n),
        worst_constant=max(s_norm, s_inv),
        s_norm=s_norm,
        s_inv_norm=s_inv,
        mode=mode_used,
        exactness=worst.exactness,
        verdict="not_woven" if witness is not None else "woven",
        witness=WeavePattern.from_index(witness, n) if witness is not None else None,
        per_pattern_log=[(str(WeavePattern.from_index(m, n)), a, b) for m, (a, b)
                         in zip(ms, rows[:, 0::2].tolist())] if log_all_patterns else None,
        patterns_evaluated=len(ms))


def tail_profile(f0: FrameSystem, f1: FrameSystem, x, start_index: int) -> float:
    """Worst ||P_{sigma,[m,k]} x|| over intervals start_index <= m <= k <= n
    and all local bit choices on the interval (exhaustive).  InputError for
    an ``x`` that is not a real, finite point of the space."""
    _require_compatible(f0, f1)
    n = f0.n
    if not 1 <= start_index <= n:
        raise InputError(f"start index {start_index} out of range 1..{n}")
    if 2 ** (n - start_index + 1) > PROFILE_CAP:
        raise InputError("tail profile window too large for exhaustive enumeration")
    x = _as_vector(x)
    if x.size != f0.space.dim:
        raise InputError(f"point of length {x.size} in a dim-{f0.space.dim} space")
    t0 = (f0.functionals @ x)[:, None] * f0.vectors  # f_j^0(x) x_j^0 per row
    t1 = (f1.functionals @ x)[:, None] * f1.vectors
    kind = f0.space.norm
    best = 0.0
    for m in range(start_index, n + 1):
        sums = np.zeros((1, f0.space.dim))
        for k in range(m, n + 1):
            sums = np.concatenate([sums + t0[k - 1], sums + t1[k - 1]])
            best = max(best, float(batch_vector_norms(sums, kind).max()))
    return best


def uniform_bound_profile(f0: FrameSystem, f1: FrameSystem) -> Bound:
    """The finite-scale uniform bound D: the worst ||P_{sigma,[m,k]}|| over
    all intervals and local patterns.

    Each interval is one ``search.pattern_table`` of its local patterns: all
    within ``PROFILE_CAP`` total evaluations, else a sample (hi = +inf).
    """
    _require_compatible(f0, f1)
    n = f0.n
    weavings = ChunkEvaluator.weavings(f0, f1)
    total = sum(2 ** (n - m + 2) for m in range(1, n + 1))
    exhaustive = total <= PROFILE_CAP
    rng = np.random.default_rng(PROFILE_SEED)
    tops = []  # per interval, its largest lo and hi
    for m, k in itertools.combinations_with_replacement(range(1, n + 1), 2):  # [m, k]
        local = 2 ** (k - m + 1)
        if exhaustive:
            ms = range(local)
        else:
            picks = {0, local - 1}
            while len(picks) < min(local, PROFILE_SAMPLES):
                picks.add(int(rng.integers(0, local)))
            ms = sorted(picks)
        tops.append(search.pattern_table(
            ms, functools.partial(weavings.norms, bits=slice(m - 1, k)),
            search.CELLS_PER_SUM * f0.space.dim ** 2, columns=2).max(axis=0))
    best = search.bound(*np.transpose(tops), exhaustive)
    return Bound(best.value, hi=best.hi)


def lower_bound_profile(f0: FrameSystem, f1: FrameSystem) -> float:
    """The best uniform delta with ||S_sigma x|| >= delta ||x|| for all sigma:
    min over patterns of 1/||S_sigma^-1||, zero when any weaving is singular."""
    _require_compatible(f0, f1)
    if (1 << f0.n) > search.DEFAULT_EXHAUSTIVE_CAP:
        raise InputError("lower bound profile requires exhaustive enumeration")
    table = search.pattern_table(range(1 << f0.n), ChunkEvaluator.weavings(f0, f1).constants,
                                 search.CELLS_PER_SUM * f0.space.dim ** 2, columns=4)
    return 1.0 / float(table[:, 2].max())  # 1/inf = 0.0 where a weaving is singular


def weaving_basis_constants(f0: FrameSystem, f1: FrameSystem) -> tuple[bool, float]:
    """(every weaving is a basis, worst basis constant over the weavings that are).

    A row function on ``search.pattern_table`` grades all 2^n weavings of
    the vectors into (is a basis, basis constant) rows, a chunk at a time:
    one ``batch_biorthogonals`` and one ``projection_norms`` table, so each
    row holds the bits ``biorthogonals`` and ``basis_constant`` give for
    that weaving alone.  A dependent weaving (refused by
    ``batch_biorthogonals``) clears the first flag and is left out of the
    maximum.
    """
    _require_compatible(f0, f1)
    n = f0.n

    def rows_of(ms: np.ndarray) -> np.ndarray:
        vectors = np.where(search.bit_rows(ms, n)[:, :, None], f1.vectors, f0.vectors)
        duals, refused = batch_biorthogonals(vectors)
        rows = np.ones((len(ms), 2))
        rows[list(refused)] = 0.0
        basis = rows[:, 0] == 1.0
        rows[basis, 1] = projection_norms(vectors[basis], duals[basis],
                                          f0.space.norm)[0].max(axis=1)
        return rows

    table = search.pattern_table(range(1 << n), rows_of,
                                 search.CELLS_PER_SUM * f0.space.dim ** 2, columns=2)
    return bool(table[:, 0].all()), float(table[:, 1].max())


def sample_patterns(n: int, count: int, seed: int) -> list[int]:
    """Sorted pattern indices for sampled checks over n bits.

    Always holds all zeros, all ones, the alternating pattern and its
    complement, then seeded uniform draws until min(count, 2^n) distinct
    patterns are picked.  A negative seed, or n above 64, raises InputError.
    """
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed!r}")
    if n > 64:
        raise InputError(f"patterns of {n} bits; at most 64 are supported")
    rng = np.random.default_rng(seed)
    alt = WeavePattern.alternating(n)
    picks = {0, (1 << n) - 1, alt.index, alt.complement().index}
    while len(picks) < min(count, 1 << n):  # unsigned draws only where int64 cannot hold 2**64
        picks.add(int(rng.integers(0, 1 << n, dtype=np.uint64 if n == 64 else np.int64)))
    return sorted(picks)
