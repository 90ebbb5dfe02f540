"""Perturbation checkers: the small-perturbation basis lemma, the operator
perturbation theorem for suppression-unconditional frames, and the pairwise
perturbation theorem.

Each checker measures the theorem's left-hand side against its strict
threshold and, when the budget is satisfied, certifies the conclusion
exhaustively over weaving patterns at desk scale (sampled above the
exhaustive cap, flagged accordingly).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import search
from .errors import InputError, NotABasis, NotAFrame
from .normed import (Bound, DenseOperator, Exactness, dual_norm, operator_norm, real_array,
                     vector_norm)
from .frames import (EXHAUSTIVE, ChunkEvaluator, FrameSystem, _frame_inverse, biorthogonals,
                     check_approximate_frame, equivalence_constants, suppression_constant)
from .weaving import (WeavePattern, WeaveSearchResult, sample_patterns,
                      weaving_basis_constants, worst_weaving)

CERT_SLACK = 1e-9
EXHAUSTIVE_CERT_CAP = 12  # bits; beyond this, certificates sample patterns
CONDITIONAL_CS_WARNING = 100.0


@dataclass(frozen=True)
class PerturbationBudget:
    """A theorem's measured left-hand side against its strict threshold."""

    kind: str  # "basis_sum" | "operator_deviation" | "pair_sum"
    bound: float
    actual: float

    @property
    def satisfied(self) -> bool:
        return self.actual < self.bound


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """Per-pattern conclusion checks for a satisfied perturbation budget."""

    holds: bool
    bound: float
    max_residual: float
    patterns_checked: int
    exhaustive: bool
    failures: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class BasisPerturbationReport:
    budget: PerturbationBudget
    is_basis: bool | None
    equivalence: tuple[float, float] | None
    all_weavings_bases: bool | None
    max_weaving_basis_constant: float | None


@dataclass(frozen=True, eq=False)
class OperatorPerturbationReport:
    budget: PerturbationBudget
    suppression: Bound
    worst: WeaveSearchResult | None
    certificate: BoundCertificate | None


@dataclass(frozen=True, eq=False)
class PairPerturbationReport:
    budget: PerturbationBudget
    s_inv_norm: float
    worst: WeaveSearchResult | None
    certificate: BoundCertificate | None


def basis_perturbation_check(basis0: FrameSystem, candidate) -> BasisPerturbationReport:
    """Small perturbation lemma: sum_j ||x_j - y_j|| ||x*_j|| < 1.

    ``basis0`` must be a basis paired with its biorthogonal functionals;
    ``candidate`` is a vector array or a system on the same space.
    On a satisfied budget the candidate is checked to be an equivalent
    basis and the pair is woven as bases (every weaving independent with a
    finite basis constant), exhaustively.
    """
    if basis0.n != basis0.space.dim:
        raise InputError("basis perturbation needs a square basis system")
    try:
        biorthogonals(basis0.vectors)
    except NotABasis as exc:
        raise InputError(f"basis0 is not a basis: {exc}") from None
    if getattr(candidate, "space", basis0.space) != basis0.space:
        raise InputError("systems are incompatible")
    cand = real_array(getattr(candidate, "vectors", candidate), "candidate vectors")
    if cand.shape != basis0.vectors.shape:
        raise InputError("candidate vectors have the wrong shape")
    kind = basis0.space.norm
    actual = float(sum(
        vector_norm(basis0.vectors[j] - cand[j], kind) * dual_norm(basis0.functionals[j], kind)
        for j in range(basis0.n)))
    budget = PerturbationBudget("basis_sum", 1.0, actual)
    if not budget.satisfied:
        return BasisPerturbationReport(budget, None, None, None, None)
    try:
        cand_duals = biorthogonals(cand)
    except NotABasis:
        return BasisPerturbationReport(budget, False, None, False, None)
    equivalence = equivalence_constants(basis0.vectors, cand, basis0.space)
    f1 = FrameSystem(basis0.space, cand, cand_duals, label="perturbed")
    all_bases, worst_c = weaving_basis_constants(basis0, f1)
    return BasisPerturbationReport(budget, True, equivalence, all_bases, worst_c)


def _certify_residuals(f0: FrameSystem, f1: FrameSystem, s_inv: np.ndarray,
                       bound: float, seed: int) -> BoundCertificate:
    """Check ||Id - S_sigma S^-1|| <= bound and invertibility per pattern.

    ``ChunkEvaluator.residuals`` grades the patterns (all up to
    ``EXHAUSTIVE_CERT_CAP`` bits, else a seeded sample) on
    ``search.pattern_table`` into (residual, passed) rows.  It lists the
    first 16 failures in index order.
    """
    n = f0.n
    exhaustive = n <= EXHAUSTIVE_CERT_CAP
    ms = range(1 << n) if exhaustive else sample_patterns(n, 512, seed)
    rows_of = functools.partial(ChunkEvaluator.weavings(f0, f1).residuals, x=s_inv,
                                limit=bound + CERT_SLACK)
    table = search.pattern_table(ms, rows_of, search.CELLS_PER_SUM * f0.space.dim ** 2,
                                 columns=2)
    failed = np.flatnonzero(table[:, 1] == 0)[:16]
    return BoundCertificate(holds=failed.size == 0, bound=bound,
                            max_residual=max(0.0, float(table[:, 0].max())),
                            patterns_checked=len(ms), exhaustive=exhaustive,
                            failures=tuple(str(WeavePattern.from_index(ms[i], n))
                                           for i in failed))


def operator_perturbation_check(system: FrameSystem, op,
                                mode=EXHAUSTIVE, seed: int = 0) -> OperatorPerturbationReport:
    """Operator perturbation: ||Id - T|| < 1/C_s certifies (T x_i, f_i) woven.

    Requires an exactly computed suppression constant; warns when C_s is so
    large the theorem is vacuous in practice.  On a satisfied budget, every
    weaving of the original with the pushed-forward system is certified
    invertible with ||Id - S_sigma S^-1|| <= C_s ||Id - T|| (+1e-9 slack).
    """
    t_entries = np.asarray(getattr(op, "entries", op), dtype=np.float64)
    d = system.space.dim
    if t_entries.shape != (d, d):
        raise InputError(f"perturbing operator must be {d}x{d}")
    c_s = suppression_constant(system, mode, seed=seed)
    if c_s.exactness is not Exactness.EXACT:
        raise InputError("operator perturbation needs an exact suppression "
                         "constant (exhaustive mode over an exact norm)")
    if c_s.value > CONDITIONAL_CS_WARNING:
        warnings.warn(f"suppression constant {c_s.value:.3g} is large; the "
                      "operator perturbation bound is vacuous in practice",
                      stacklevel=2)
    space = system.space
    deviation = operator_norm(
        DenseOperator.on_space(np.eye(d) - t_entries, space)).value
    budget = PerturbationBudget("operator_deviation", 1.0 / c_s.value, deviation)
    pushed = FrameSystem(space, (t_entries @ system.vectors.T).T,
                         system.functionals, label=f"T({system.label})")
    if not budget.satisfied:
        return OperatorPerturbationReport(budget, c_s, None, None)
    worst = worst_weaving(system, pushed, mode, seed=seed)
    s_inv = _frame_inverse(system)
    cert = _certify_residuals(system, pushed, s_inv, bound=c_s.value * deviation, seed=seed)
    return OperatorPerturbationReport(budget, c_s, worst, cert)


def pair_perturbation_check(f0: FrameSystem, f1: FrameSystem,
                            mode=EXHAUSTIVE, seed: int = 0) -> PairPerturbationReport:
    """Pairwise perturbation: the mixed sum below 1/||S^-1|| certifies weaving.

    actual = sum_i (||f_i^0 - f_i^1|| ||x_i^0|| + ||x_i^0 - x_i^1|| ||f_i^1||),
    measured with dual norms on the functionals.  On success every weaving's
    frame operator T_sigma satisfies ||Id - T_sigma S^-1|| <= actual ||S^-1||
    and is invertible (checked by explicit inversion).
    """
    if f0.space != f1.space or f0.n != f1.n:
        raise InputError("systems are incompatible")
    report = check_approximate_frame(f0)
    if report.verdict != "frame":
        raise NotAFrame("the reference system is not an approximate frame")
    kind = f0.space.norm
    actual = 0.0
    for i in range(f0.n):
        actual += dual_norm(f0.functionals[i] - f1.functionals[i], kind) \
            * vector_norm(f0.vectors[i], kind)
        actual += vector_norm(f0.vectors[i] - f1.vectors[i], kind) \
            * dual_norm(f1.functionals[i], kind)
    s_inv_norm = report.s_inv_norm.value
    budget = PerturbationBudget("pair_sum", 1.0 / s_inv_norm, float(actual))
    if not budget.satisfied:
        return PairPerturbationReport(budget, s_inv_norm, None, None)
    worst = worst_weaving(f0, f1, mode, seed=seed)
    s_inv = _frame_inverse(f0)
    cert = _certify_residuals(f0, f1, s_inv, bound=actual * s_inv_norm, seed=seed)
    return PairPerturbationReport(budget, s_inv_norm, worst, cert)
