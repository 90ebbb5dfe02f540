"""Frame systems over normed truncations.

A :class:`FrameSystem` holds n (vector, functional) pairs over a
:class:`~weavelab.normed.NormedSpace`.  This module computes the frame
operator, the approximate-frame verdict, biorthogonal functionals, basis
constants, suppression and sign unconditionality constants, square
functions, and equivalence constants between bases.

Subset and sign searches share one canonical evaluation path (select rows
of a precomputed outer-product stack, pairwise-sum, take a norm), so
exhaustive tables, heuristic probes, and reported winners are bit-for-bit
consistent with each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import search
from .errors import InputError, NotABasis, NotAFrame, NotInvertible
from .normed import (DEFAULT_COND_CAP, DenseOperator, Exactness, NormedSpace,
                     OpNormResult, batch_opnorm_values, invert, operator_norm)
from .search import EXHAUSTIVE, SearchMode, heuristic  # heuristic is re-exported

BIORTHOGONAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ConstantEstimate:
    """A computed constant, its provenance, and the witness attaining it."""

    value: float
    exactness: Exactness
    witness: tuple | None = None


@dataclass(frozen=True, eq=False)
class Basis:
    """A (candidate) basis: d vectors over a d-dimensional space."""

    space: NormedSpace
    vectors: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise InputError("basis vectors must form a (n, dim) array")
        if v.shape[1] != self.space.dim:
            raise InputError(f"vectors of length {v.shape[1]} in a dim-{self.space.dim} space")
        if not np.all(np.isfinite(v)):
            raise InputError("basis vectors must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class FrameSystem:
    """n (vector, functional) pairs over a space; functionals live in the dual."""

    space: NormedSpace
    vectors: np.ndarray
    functionals: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.float64)
        f = np.array(self.functionals, dtype=np.float64)
        if v.ndim != 2 or f.ndim != 2:
            raise InputError("vectors and functionals must be (n, dim) arrays")
        if v.shape != f.shape:
            raise InputError(f"vectors {v.shape} and functionals {f.shape} differ in shape")
        if v.shape[0] < 1:
            raise InputError("a frame system needs at least one pair")
        if v.shape[1] != self.space.dim:
            raise InputError(f"pairs of length {v.shape[1]} in a dim-{self.space.dim} space")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(f))):
            raise InputError("frame system entries must be finite")
        v.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "functionals", f)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def scaled_functionals(self, factor: float) -> "FrameSystem":
        return FrameSystem(self.space, self.vectors, factor * self.functionals,
                           label=self.label)


@dataclass(frozen=True, eq=False)
class ConstantReport:
    """Constants of one system: frame bounds plus optional refinements."""

    s_norm: OpNormResult | None
    s_inv_norm: OpNormResult | None
    c_frame: float
    verdict: str  # "frame" | "not_a_frame"
    c_suppression: ConstantEstimate | None = None
    c_unconditional: ConstantEstimate | None = None
    basis_constant: ConstantEstimate | None = None


def outer_stack(vectors: np.ndarray, functionals: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of rank-one terms x_i f_i^T."""
    return vectors[:, :, None] * functionals[:, None, :]


def frame_operator(system: FrameSystem) -> DenseOperator:
    """S = sum_i x_i f_i^T; the identity for a basis with its biorthogonals."""
    s = np.add.reduce(outer_stack(system.vectors, system.functionals), axis=0)
    return DenseOperator.on_space(s, system.space)


def frame_constants(entries: np.ndarray, space: NormedSpace
                    ) -> tuple[OpNormResult, OpNormResult | None, float]:
    """(||S||, ||S^-1|| or None, frame constant) for an operator matrix.

    Its norms and inverse come from the kernels the weaving tables run on
    whole chunks (``batch_opnorm_values``, ``batch_invert``), so a direct
    verdict and a weaving table agree exactly.
    """
    op = DenseOperator.on_space(entries, space)
    s_norm = operator_norm(op)
    try:
        inv = invert(op)
    except NotInvertible:
        return s_norm, None, np.inf
    s_inv_norm = operator_norm(inv)
    return s_norm, s_inv_norm, max(s_norm.value, s_inv_norm.value)


def check_approximate_frame(system: FrameSystem) -> ConstantReport:
    """Compute ||S|| and ||S^-1||; NotAFrame is a verdict, not an exception."""
    s_norm, s_inv_norm, c = frame_constants(frame_operator(system).entries,
                                            system.space)
    verdict = "frame" if np.isfinite(c) else "not_a_frame"
    return ConstantReport(s_norm, s_inv_norm, c, verdict)


def biorthogonals(vectors: np.ndarray) -> np.ndarray:
    """Rows of the inverse basis matrix: duals with x*_j(x_k) = delta_jk.

    ``vectors`` holds the basis as rows.  Raises NotABasis for non-square
    or dependent input (residual above ``BIORTHOGONAL_TOL`` after refinement).
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise NotABasis(f"need a square vector family, got shape {v.shape}")
    b = v.T  # columns are the basis vectors
    cond = np.linalg.cond(b)
    if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
        raise NotABasis(f"vectors are dependent (condition number {cond:.3e})")
    eye = np.eye(b.shape[0])
    try:
        duals = np.linalg.solve(b, eye)
    except np.linalg.LinAlgError as exc:
        raise NotABasis(str(exc)) from None
    res = np.inf
    for _ in range(5):
        r = eye - duals @ b
        res = float(np.abs(r).max())
        if res <= BIORTHOGONAL_TOL:
            break
        duals = duals + r @ duals
    if res > BIORTHOGONAL_TOL:
        raise NotABasis(f"biorthogonality residual {res:.3e} above {BIORTHOGONAL_TOL:.1e}")
    return duals


def basis_constant(vectors: np.ndarray, space: NormedSpace,
                   duals: np.ndarray | None = None) -> ConstantEstimate:
    """max_n ||P_n|| over the partial-sum projections P_n of a basis."""
    v = np.asarray(vectors, dtype=np.float64)
    if duals is None:
        duals = biorthogonals(v)
    outers = outer_stack(v, duals)
    prefixes = np.cumsum(outers, axis=0)
    values = batch_opnorm_values(prefixes, space.norm, space.norm)
    k = search.first_argmax(values)
    exact = Exactness.EXACT if space.norm.is_exact_kind else Exactness.LOWER_BOUND
    return ConstantEstimate(float(values[k]), exact, witness=(k + 1,))


def pattern_sums(on: np.ndarray, off: np.ndarray | float, ms: np.ndarray) -> np.ndarray:
    """Per pattern index in ``ms``: the sum over i of ``on[i]`` where bit i
    is set and ``off[i]`` where it is not (bit 0 is the most significant).

    ``on`` is an (n, d, d) stack; ``off`` is a stack of the same shape or a
    scalar.  Weaving tables and probes, subset and sign sums, and
    perturbation certificates all build their operators here, so
    exhaustive tables and single-pattern probes agree bit for bit.
    """
    bits = search.bit_rows(ms, on.shape[0])
    return np.add.reduce(np.where(bits[:, :, None, None], on, off), axis=1)


def _frame_inverse(system: FrameSystem) -> np.ndarray:
    """S^-1 entries; NotAFrame when S is not invertible."""
    try:
        return invert(frame_operator(system)).entries
    except NotInvertible as exc:
        raise NotAFrame(f"frame operator not invertible: {exc}") from None


def _max_norm_over_patterns(g: np.ndarray, signed: bool, kind, mode: SearchMode,
                            exhaustive_cap: int, seed: int) -> ConstantEstimate:
    """Max of ||sum of the selected rows of g|| over bit patterns.

    Subset patterns drop the unselected rows; signed patterns negate them
    and report the witness as +-1 signs.  Subset local search is seeded by
    greedy growth.
    """
    n, d = g.shape[0], g.shape[1]
    off = -g if signed else 0.0
    mode_used, best, ms, values = search.maximize(
        n, lambda idx: batch_opnorm_values(pattern_sums(g, off, idx), kind, kind),
        mode, exhaustive_cap, seed, d * d, greedy=not signed)
    exact = mode_used.kind == "exhaustive" and kind.is_exact_kind
    bits = search.bits_of_index(ms[best], n)
    return ConstantEstimate(float(values[best]),
                            Exactness.EXACT if exact else Exactness.LOWER_BOUND,
                            witness=tuple(1 if b else -1 for b in bits) if signed else bits)


def suppression_constant(system: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                         exhaustive_cap: int = search.DEFAULT_EXHAUSTIVE_CAP,
                         seed: int = 0) -> ConstantEstimate:
    """C_s: the worst ||P_Gamma S^-1|| over index subsets Gamma.

    Exhaustive mode enumerates all 2^n subsets (forced to heuristic above
    ``exhaustive_cap``); heuristic mode runs greedy growth plus single-flip
    local search and reports a lower bound.
    """
    g = outer_stack(system.vectors, system.functionals) @ _frame_inverse(system)
    return _max_norm_over_patterns(g, False, system.space.norm, mode,
                                   exhaustive_cap, seed)


def unconditional_constant(system: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                           exhaustive_cap: int = search.DEFAULT_EXHAUSTIVE_CAP,
                           seed: int = 0) -> ConstantEstimate:
    """C_u: the worst ||(sum_i eps_i x_i f_i^T) S^-1|| over signs eps."""
    return signed_ratio_constant(outer_stack(system.vectors, system.functionals),
                                 _frame_inverse(system), system.space.norm,
                                 mode, exhaustive_cap, seed)


def signed_ratio_constant(stack: np.ndarray, s_inv_entries: np.ndarray, kind,
                          mode: SearchMode = EXHAUSTIVE,
                          exhaustive_cap: int = search.DEFAULT_EXHAUSTIVE_CAP,
                          seed: int = 0) -> ConstantEstimate:
    """C_u against an externally supplied inverse (stack @ s_inv terms)."""
    return _max_norm_over_patterns(stack @ s_inv_entries, True, kind, mode,
                                   exhaustive_cap, seed)


def square_function(vectors: np.ndarray, coeffs, lattice_vectors: np.ndarray,
                    lattice_duals: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise square function against a 1-unconditional lattice basis.

    Expands (sum_i |a_i x_i|^2)^(1/2) in the lattice coordinates
    u*_j(x_i) and re-synthesizes along the lattice basis u_j.
    """
    v = np.asarray(vectors, dtype=np.float64)
    a = np.asarray(coeffs, dtype=np.float64)
    if v.ndim != 2 or a.ndim != 1 or v.shape[0] != a.size:
        raise InputError("need one coefficient per vector")
    u = np.asarray(lattice_vectors, dtype=np.float64)
    if lattice_duals is None:
        lattice_duals = biorthogonals(u)
    coords = v @ np.asarray(lattice_duals, dtype=np.float64).T  # (n, d): u*_j(x_i)
    s = np.sqrt(((a[:, None] * coords) ** 2).sum(axis=0))
    return s @ u


def equivalence_constants(basis0: np.ndarray, basis1: np.ndarray,
                          space: NormedSpace) -> tuple[float, float]:
    """Optimal (c, C) with c||sum a_j x_j|| <= ||sum a_j y_j|| <= C||sum a_j x_j||.

    The change-of-basis map is linear, so both constants are operator norms:
    C = ||X1 X0^-1|| and c = 1/||X0 X1^-1|| (exact for l1/l2/linf).
    """
    x0 = np.asarray(basis0, dtype=np.float64).T
    x1 = np.asarray(basis1, dtype=np.float64).T
    try:
        x0_inv = invert(DenseOperator.on_space(x0, space)).entries
        x1_inv = invert(DenseOperator.on_space(x1, space)).entries
    except NotInvertible as exc:
        raise NotABasis(str(exc)) from None
    upper = operator_norm(DenseOperator.on_space(x1 @ x0_inv, space)).value
    lower = 1.0 / operator_norm(DenseOperator.on_space(x0 @ x1_inv, space)).value
    return lower, upper


def frame_report(system: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                 exhaustive_cap: int = search.DEFAULT_EXHAUSTIVE_CAP,
                 seed: int = 0) -> ConstantReport:
    """Full constant report: frame bounds, C_s, C_u, and basis constant."""
    base = check_approximate_frame(system)
    if base.verdict != "frame":
        return base
    c_s = suppression_constant(system, mode, exhaustive_cap, seed)
    c_u = unconditional_constant(system, mode, exhaustive_cap, seed)
    basis_c = None
    if system.n == system.space.dim:
        try:
            basis_c = basis_constant(system.vectors, system.space)
        except NotABasis:
            basis_c = None
    return ConstantReport(base.s_norm, base.s_inv_norm, base.c_frame, base.verdict,
                          c_suppression=c_s, c_unconditional=c_u,
                          basis_constant=basis_c)
