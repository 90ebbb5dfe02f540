"""Weaving two frame systems by binary patterns.

Provides the woven system, partial operators over intervals and subsets,
the exhaustive/heuristic worst-pattern search, and the finite-scale tail,
uniform-bound, and lower-bound diagnostics.

Index conventions: pattern bit i (0-based position i of ``bits``) selects
the system for pair i+1; interval and subset indices are 1-based and
inclusive, matching the reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import search
from .errors import InputError, NotABasis
from .normed import Exactness, batch_invert, batch_opnorm_values, batch_vector_norms
from .frames import (ConstantEstimate, FrameSystem, basis_constant, biorthogonals,
                     outer_stack, pattern_sums)
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
        return "".join(str(b) for b in self.bits)

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


def _selected_stack(f0: FrameSystem, f1: FrameSystem, pattern: WeavePattern) -> np.ndarray:
    sel = np.array(pattern.bits, dtype=bool)[:, None, None]
    return np.where(sel, outer_stack(f1.vectors, f1.functionals),
                    outer_stack(f0.vectors, f0.functionals))


def partial_operator_subset(f0: FrameSystem, f1: FrameSystem, pattern: WeavePattern,
                            indices) -> "np.ndarray":
    """Matrix of sum_{j in Gamma} x_j^(sigma) f_j^(sigma)T, Gamma 1-based.

    The subset variant is only meaningful for unconditional systems; the
    interval form is the one backed by convergence at infinite scale.
    """
    _require_compatible(f0, f1)
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 1 or idx[-1] > f0.n):
        raise InputError(f"subset indices out of range 1..{f0.n}")
    d = f0.space.dim
    if not idx:
        return np.zeros((d, d))
    stack = _selected_stack(f0, f1, pattern)
    return np.add.reduce(stack[[i - 1 for i in idx]], axis=0)


def partial_operator(f0: FrameSystem, f1: FrameSystem,
                     query: IntervalOperatorQuery) -> np.ndarray:
    """Partial frame operator over the query's interval."""
    return partial_operator_subset(f0, f1, query.pattern,
                                   range(query.lo, query.hi + 1))


def _weaving_rows(f0: FrameSystem, f1: FrameSystem):
    """Row function: pattern indices -> (len, 2) rows of
    (||S_sigma||, ||S_sigma^-1|| or +inf).

    A chunk is graded in one pass: its pattern sums, one ``batch_invert``
    (which refuses non-finite sums and inverses) and the stacked operator
    norms, so every row holds the bits ``frame_constants`` gives for that
    weaving alone.
    """
    kind = f0.space.norm
    o0 = outer_stack(f0.vectors, f0.functionals)
    o1 = outer_stack(f1.vectors, f1.functionals)

    def rows_of(ms: np.ndarray) -> np.ndarray:
        sums = pattern_sums(o1, o0, ms)
        inv = batch_invert(sums)
        rows = np.full((len(ms), 2), np.inf)
        rows[:, 0] = batch_opnorm_values(sums, kind, kind)
        rows[inv.accepted, 1] = batch_opnorm_values(inv.inverses[inv.accepted], kind, kind)
        return rows

    return rows_of


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
    the constant is then a lower bound.  ``log_all_patterns`` logs every
    pattern evaluated, in index order.
    """
    _require_compatible(f0, f1)
    n = f0.n
    if log_all_patterns and (1 << n) > LOG_CAP:
        raise InputError(f"per-pattern log limited to 2^n <= {LOG_CAP}")
    mode_used, best, ms, rows = search.maximize(n, _weaving_rows(f0, f1), mode,
                                                exhaustive_cap, seed, f0.space.dim ** 2,
                                                columns=2)
    offenders = np.flatnonzero(np.maximum(rows[:, 0], rows[:, 1]) > blow_up_threshold)
    witness = ms[offenders[0]] if offenders.size else None
    s_norm, s_inv = float(rows[best, 0]), float(rows[best, 1])
    exact = mode_used.kind == "exhaustive" and f0.space.norm.is_exact_kind
    return WeaveSearchResult(
        worst_pattern=WeavePattern.from_index(ms[best], n),
        worst_constant=max(s_norm, s_inv),
        s_norm=s_norm,
        s_inv_norm=s_inv,
        mode=mode_used,
        exactness=Exactness.EXACT if exact else Exactness.LOWER_BOUND,
        verdict="not_woven" if witness is not None else "woven",
        witness=WeavePattern.from_index(witness, n) if witness is not None else None,
        per_pattern_log=[(str(WeavePattern.from_index(m, n)), float(a), float(b))
                         for m, (a, b) in zip(ms, rows)] if log_all_patterns else None,
        patterns_evaluated=len(ms))


def tail_profile(f0: FrameSystem, f1: FrameSystem, x, start_index: int) -> float:
    """Worst ||P_{sigma,[m,k]} x|| over intervals start_index <= m <= k <= n
    and all local bit choices on the interval (exhaustive)."""
    _require_compatible(f0, f1)
    n = f0.n
    if not 1 <= start_index <= n:
        raise InputError(f"start index {start_index} out of range 1..{n}")
    if 2 ** (n - start_index + 1) > PROFILE_CAP:
        raise InputError("tail profile window too large for exhaustive enumeration")
    x = np.asarray(x, dtype=np.float64)
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


def uniform_bound_profile(f0: FrameSystem, f1: FrameSystem) -> ConstantEstimate:
    """The finite-scale uniform bound D: the worst ||P_{sigma,[m,k]}|| over
    all intervals and local patterns.

    Exhaustive within ``PROFILE_CAP`` total evaluations; beyond that each
    interval is sampled and the result is flagged as a lower bound.
    """
    _require_compatible(f0, f1)
    n, d = f0.n, f0.space.dim
    kind = f0.space.norm
    o0 = outer_stack(f0.vectors, f0.functionals)
    o1 = outer_stack(f1.vectors, f1.functionals)
    total = sum(2 ** (n - m + 2) for m in range(1, n + 1))
    exhaustive = total <= PROFILE_CAP
    rng = np.random.default_rng(PROFILE_SEED)
    best = 0.0
    for m in range(1, n + 1):
        if exhaustive:
            mats = np.zeros((1, d, d))
            for k in range(m, n + 1):
                mats = np.concatenate([mats + o0[k - 1], mats + o1[k - 1]])
                best = max(best, float(batch_opnorm_values(mats, kind, kind).max()))
        else:
            for k in range(m, n + 1):
                width = k - m + 1
                n_samp = min(2 ** width, PROFILE_SAMPLES)
                picks = {0, 2 ** width - 1}
                while len(picks) < n_samp:
                    picks.add(int(rng.integers(0, 2 ** width)))
                mats = pattern_sums(o1[m - 1:k], o0[m - 1:k],
                                    np.array(sorted(picks), dtype=np.uint64))
                best = max(best, float(batch_opnorm_values(mats, kind, kind).max()))
    exact = exhaustive and kind.is_exact_kind
    return ConstantEstimate(best, Exactness.EXACT if exact else Exactness.LOWER_BOUND)


def lower_bound_profile(f0: FrameSystem, f1: FrameSystem) -> float:
    """The best uniform delta with ||S_sigma x|| >= delta ||x|| for all sigma:
    min over patterns of 1/||S_sigma^-1||, zero when any weaving is singular."""
    _require_compatible(f0, f1)
    if (1 << f0.n) > search.DEFAULT_EXHAUSTIVE_CAP:
        raise InputError("lower bound profile requires exhaustive enumeration")
    _, _, _, table = search.maximize(f0.n, _weaving_rows(f0, f1), EXHAUSTIVE,
                                     search.DEFAULT_EXHAUSTIVE_CAP, 0, f0.space.dim ** 2,
                                     columns=2)
    worst_inv = float(table[:, 1].max())
    if not np.isfinite(worst_inv):
        return 0.0
    return 1.0 / worst_inv


def weaving_basis_constants(f0: FrameSystem, f1: FrameSystem) -> tuple[bool, float]:
    """(every weaving is a basis, worst basis constant over the weavings that are).

    Enumerates all 2^n weavings of the vectors; a dependent weaving
    (NotABasis) clears the first flag and is left out of the maximum.
    """
    _require_compatible(f0, f1)
    n = f0.n
    all_bases, worst = True, 0.0
    for bits in search.bit_rows(np.arange(1 << n, dtype=np.uint64), n):
        vectors = np.where(bits[:, None], f1.vectors, f0.vectors)
        try:
            duals = biorthogonals(vectors)
        except NotABasis:
            all_bases = False
            continue
        worst = max(worst, basis_constant(vectors, f0.space, duals).value)
    return all_bases, worst


def sample_patterns(n: int, count: int, seed: int) -> list[int]:
    """Sorted pattern indices for sampled checks over n bits.

    Always holds all zeros, all ones, the alternating pattern and its
    complement, then seeded uniform draws until min(count, 2^n) distinct
    patterns are picked.
    """
    rng = np.random.default_rng(seed)
    alt = WeavePattern.alternating(n)
    picks = {0, (1 << n) - 1, alt.index, alt.complement().index}
    while len(picks) < min(count, 1 << n):
        picks.add(int(rng.integers(0, 1 << n)))
    return sorted(picks)
