"""Subspace geometry: basis projections, restricted inverses, subspace
distances, oblique and direct-sum projections, and the six-way woven
unconditional-basis checker.

Restricted inverses, the six-way (vi) and subspace distances all reduce to
one restricted norm, sup_c ||Dc|| / ||Bc||, taken by ``_lift_norms`` as a
(lo, hi) bracket: a closed form in l2, a finite enumeration in l1 and linf
(exact up to ``ENUMERATION_CAP`` blocks), and a ratio-ascent lower bound
(hi = +inf) otherwise.  A distance is 1/max(||P_A||, ||P_B||) for the
projections of A + B onto each subspace along the other, its bracket the
reciprocal of theirs.  The six-way (v) is the larger of the same two
norms, so 1/d(X1, Y2) up to the rounding of that reciprocal.  Lifts are
taken in stacks (``_batch_lift``, ``_direct_sums``) and spans tested for
independence in stacks (``_dependent``); a restricted inverse, a subspace
and a distance are stacks of one, and the six-way grades a chunk of
patterns a span dimension at a time, a column per condition.  Only
``distance_to_span`` loads scipy.optimize.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DistanceZero, InputError, NotAFrame, NotInvertible
from .normed import (DEFAULT_COND_CAP, L2, Bound, DenseOperator, Exactness,
                     NormedSpace, NormKind, _as_vector, _mat_vecs, batch_invert,
                     batch_norming_vectors, batch_vector_norms, require_finite,
                     vector_norm)
from .frames import (FrameSystem, _max_norms_over_patterns, outer_stack, subset_sum,
                     unconditional_constant)
from .search import SearchMode, bit_rows, bound, chunk_size_for, pattern_table
from .weaving import WeavePattern, _woven_bases, sample_patterns

DEFAULT_UNC_THRESHOLD = 4.0
INNER_SEARCH = SearchMode("exhaustive", 16, 2 ** 12)  # every C_u's; heuristic(16) above the cap
EXHAUSTIVE_SCOPE_BITS = 16  # above it, exhaustive scope falls back to sampled
PER_SIGMA_CAP = 4096  # per-pattern flags are kept up to this many patterns
RANGE_RESIDUAL_TOL = 1e-8
INDEPENDENCE_TOL = 1e-10
ENUMERATION_CAP = 2 ** 7  # k-row blocks per lift; above it the ascent is faster, and is used
RATIO_STARTS = 64  # candidate coefficients scanned per restricted inverse (at least)
RATIO_CLIMBS = 4  # climbs from the best candidates
RATIO_STEPS = 60  # steps per climb
_ASCENT_SEED = 11
_DEPENDENT = "generators are linearly dependent within tolerance"


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """``g`` (rows, or a stack of them) with each row scaled by a power of
    two (exactly) to a largest entry in [1/2, 1); a zero row stays zero."""
    return np.ldexp(g, -np.frexp(np.abs(g).max(axis=-1))[1][..., None])


def _dependent(gens: np.ndarray) -> np.ndarray:
    """Which generator families of an (m, k, dim) stack are linearly
    dependent within ``INDEPENDENCE_TOL``, tested on the rows scaled by
    ``_unit_rows``: one stacked SVD, none when k > dim (all are)."""
    m, k, dim = gens.shape
    if k > dim:
        return np.ones(m, dtype=bool)
    svals = np.linalg.svd(_unit_rows(gens), compute_uv=False)
    return svals[:, -1] <= INDEPENDENCE_TOL * np.maximum(1.0, svals[:, 0])


@dataclass(frozen=True, eq=False)
class SpannedSubspace:
    """The span of independent generator rows inside a normed space.

    Independence is tested on the rows scaled by ``_unit_rows``, so a scale
    gap between rows, or rows far below unit scale, never reads as
    dependence; the generators are stored unscaled.  The lifts built on
    them (``restricted_inverse``, ``oblique_projection``) solve by least
    squares on the unscaled generators, so there a gap near 1/eps between
    row scales reads as a singular restriction (NotInvertible).
    """

    space: NormedSpace
    generators: np.ndarray
    label: str = ""

    def __post_init__(self):
        g = np.array(self.generators, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] < 1:
            raise InputError("generators must form a nonempty (k, dim) array")
        if g.shape[1] != self.space.dim:
            raise InputError(f"generators of length {g.shape[1]} in a "
                             f"dim-{self.space.dim} space")
        require_finite(g, "generators")
        if _dependent(g[None])[0]:
            raise InputError(_DEPENDENT)
        g.flags.writeable = False
        object.__setattr__(self, "generators", g)

    @property
    def dim(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectionPair:
    """Two basis projections onto the same index set of two bases."""

    p: DenseOperator
    q: DenseOperator

    def __post_init__(self):
        for name, op in (("P", self.p), ("Q", self.q)):
            r = np.abs(op.entries @ op.entries - op.entries).max()
            if r > 1e-10:
                raise InputError(f"{name} is not idempotent (residual {r:.3e})")


def projection_pair(f0: FrameSystem, f1: FrameSystem, indices) -> ProjectionPair:
    """The two basis projections onto the same (1-based) index set."""
    return ProjectionPair(basis_projection(f0, indices),
                          basis_projection(f1, indices))


def basis_projection(system: FrameSystem, indices) -> DenseOperator:
    """P_Gamma = sum_{i in Gamma} x_i x*_i^T for 1-based Gamma; satisfies
    P_Gamma + P_complement = I (exactly in exact arithmetic)."""
    return DenseOperator.on_space(
        subset_sum(outer_stack(system.vectors, system.functionals), indices), system.space)


@dataclass(frozen=True, eq=False)
class RestrictedInverse:
    """The inverse of M restricted between two subspaces.

    ``coefficients`` maps codomain generator coordinates to domain ones;
    ``ambient`` is the d x d lift acting on vectors in the codomain span.
    """

    coefficients: np.ndarray
    ambient: np.ndarray
    norm: Bound


@functools.lru_cache(maxsize=16)
def _ratio_starts(k: int) -> np.ndarray:
    """The ratio ascent's candidate coefficients: all ones, the sign patterns
    with a leading +1 (for 2 <= k <= 7), the basis vectors, then seeded draws."""
    cands = [np.ones(k)]
    if 2 <= k <= 7:
        for signs in itertools.product((1.0, -1.0), repeat=k - 1):
            cands.append(np.array((1.0,) + signs))
    cands.extend(np.eye(k))
    rng = np.random.default_rng(_ASCENT_SEED)
    while len(cands) < RATIO_STARTS:
        v = rng.standard_normal(k)
        if np.any(v):
            cands.append(v)
    cmat = np.array(cands)
    cmat.flags.writeable = False
    return cmat


def batch_ratio_ascent(numers: np.ndarray, gens: np.ndarray, kind: NormKind) -> np.ndarray:
    """Lower bounds for sup_c ||N_i c|| / ||G_i^T c||, one per pair of a stack.

    ``numers`` is an (m, d, k) stack of N_i and ``gens`` an (m, k, d) stack
    of generator rows G_i.  Each pair scans the candidate coefficients of
    ``_ratio_starts(k)`` (one gemm per matrix) and climbs from its four best
    candidates by a projected subgradient step: the step starts at 0.25 and
    halves on a rejected move, and a climb stops below a step of 1e-8, on a
    zero norm or after ``RATIO_STEPS`` steps.  The value is the best scanned
    ratio folded with each climb's in candidate order.  Every climb of the
    stack advances in lockstep, one gemv per climb and product, so a value
    does not depend on the other pairs of the stack or on its place in it.
    Its last bits do depend on the memory layout of ``numers`` and
    ``gens``: numpy's ``matmul`` picks BLAS or its own loop by strides.  A
    pair whose climb meets a non-finite vector gets NaN.
    """
    m, d, k = numers.shape
    cmat = _ratio_starts(k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num_norms = batch_vector_norms(
            np.matmul(cmat, numers.transpose(0, 2, 1)).reshape(-1, d), kind)
        den_norms = batch_vector_norms(np.matmul(cmat, gens).reshape(-1, d), kind)
        ratios = np.where(den_norms > 0, num_norms / den_norms, -np.inf).reshape(m, len(cmat))
    order = np.argsort(-ratios, axis=1)
    best = ratios[np.arange(m), order[:, 0]]
    owner = np.repeat(np.arange(m), RATIO_CLIMBS)
    c = cmat[order[:, :RATIO_CLIMBS].ravel()]
    c = c / batch_vector_norms(c, L2)[:, None]
    nv = _mat_vecs(numers[owner], c)
    dv = _mat_vecs(gens[owner].transpose(0, 2, 1), c)
    n_n, n_d = batch_vector_norms(nv, kind), batch_vector_norms(dv, kind)
    climbs = n_d != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cur = n_n / n_d  # read only where a climb starts
    step = np.full(len(c), 0.25)
    failed = np.zeros(m, dtype=bool)
    dual = kind.dual()
    live = np.flatnonzero(climbs)
    for _ in range(RATIO_STEPS):
        live = live[(n_n[live] != 0.0) & (n_d[live] != 0.0)]
        finite = np.isfinite(nv[live]).all(axis=1) & np.isfinite(dv[live]).all(axis=1)
        failed[owner[live[~finite]]] = True
        live = live[finite]
        if not live.size:
            break
        a_n, a_g = numers[owner[live]], gens[owner[live]]
        g = (_mat_vecs(a_n.transpose(0, 2, 1), batch_norming_vectors(nv[live], dual))
             / n_n[live, None]
             - _mat_vecs(a_g, batch_norming_vectors(dv[live], dual)) / n_d[live, None])
        c_new = c[live] + step[live, None] * g
        nrm = batch_vector_norms(c_new, L2)
        moved = nrm != 0.0
        live, a_n, a_g = live[moved], a_n[moved], a_g[moved]
        c_new = c_new[moved] / nrm[moved, None]
        nv_new = _mat_vecs(a_n, c_new)
        dv_new = _mat_vecs(a_g.transpose(0, 2, 1), c_new)
        n_n_new, n_d_new = batch_vector_norms(nv_new, kind), batch_vector_norms(dv_new, kind)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = (n_d_new > 0) & (n_n_new / n_d_new > cur[live])
        acc = live[up]
        c[acc], nv[acc], dv[acc] = c_new[up], nv_new[up], dv_new[up]
        n_n[acc], n_d[acc] = n_n_new[up], n_d_new[up]
        cur[acc] = n_n[acc] / n_d[acc]
        step[live[~up]] *= 0.5
        live = live[up | (step[live] >= 1e-8)]
    cur, climbs = cur.reshape(m, RATIO_CLIMBS), climbs.reshape(m, RATIO_CLIMBS)
    for j in range(RATIO_CLIMBS):  # best = max(best, cur) in candidate order
        best = np.where(climbs[:, j] & (cur[:, j] > best), cur[:, j], best)
    best[failed] = np.nan
    return best


class _Lift(NamedTuple):
    """A stack of matrices M_i restricted from span(A_i) onto span(B_i),
    where M_i A_i = B_i C_i for the generator columns A_i and B_i, before
    any norm is taken."""

    coefficients: np.ndarray  # (m, k, k): C^-1
    d1: np.ndarray  # (m, d, k): A C^-1
    generators: np.ndarray  # (m, k, d): the rows of B

    @property
    def ambient(self) -> np.ndarray:
        """A C^-1 B^+ per lift, acting on vectors in span(B): one stacked
        ``pinv``, taken on each read."""
        return self.d1 @ np.linalg.pinv(self.generators.transpose(0, 2, 1))


def _batch_lift(mats: np.ndarray, domain_gens: np.ndarray, codomain_gens: np.ndarray
                ) -> tuple[_Lift, dict[int, Exception]]:
    """Invert each M_i of an (m, d, d) stack restricted from the span of the
    (m, k, d) rows ``domain_gens[i]`` onto that of ``codomain_gens[i]``,
    without norms: (lifts, refused).

    ``refused`` maps the position of each refused lift to the error that
    ``restricted_inverse`` raises for it, the first that applies: M_i does
    not map the domain into the codomain span (InputError), C_i is singular
    within ``DEFAULT_COND_CAP`` (NotInvertible), A C^-1 is not finite
    (InputError).  A refused lift's entries are zeros.  The range product,
    ``cond``, ``inv`` and A C^-1 are each one stacked call, and
    ``lstsq``, which takes no stacks, one call per lift: the LAPACK calls of
    a stack of one, so no lift depends on the stack it sits in.
    """
    a = domain_gens.transpose(0, 2, 1)
    b = codomain_gens.transpose(0, 2, 1)
    ma = mats @ a
    coeff = np.empty((len(ma), a.shape[2], a.shape[2]))
    for i, (bi, mai) in enumerate(zip(b, ma)):
        coeff[i] = np.linalg.lstsq(bi, mai, rcond=None)[0]
    off_range = (np.abs(b @ coeff - ma).max(axis=(1, 2))
                 > RANGE_RESIDUAL_TOL * (1.0 + np.abs(ma).max(axis=(1, 2))))
    live = np.flatnonzero(~off_range)
    capped = np.zeros(len(ma), dtype=bool)
    capped[live] = np.linalg.cond(coeff[live]) > DEFAULT_COND_CAP  # +inf where singular
    inv = np.zeros_like(coeff)
    ok = ~(off_range | capped)
    inv[ok] = np.linalg.inv(coeff[ok])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d1 = a @ inv
    refused = {}
    for i in np.flatnonzero(~(ok & np.isfinite(d1).all(axis=(1, 2)))).tolist():
        if off_range[i]:
            refused[i] = InputError("operator does not map the domain into the codomain span")
        elif capped[i]:
            refused[i] = NotInvertible("restricted operator is singular within the condition cap")
        else:
            refused[i] = InputError("restricted inverse has non-finite entries")
        inv[i] = d1[i] = 0.0
    return _Lift(inv, d1, codomain_gens), refused


def _lift_norms(d1s: np.ndarray, gens: np.ndarray, kind: NormKind
                ) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) brackets of sup_c ||D_i c|| / ||G_i^T c|| for (m, d, k) lifts
    D_i and (m, k, d) codomain generators G_i.

    k = 1 and l2 are closed forms.  l1 and linf enumerate the C(d, k)
    k-row blocks B_R of B = G^T when there are at most ``ENUMERATION_CAP``:
    - l1: ||Dc||_1 peaks at a vertex of {c : ||Bc||_1 <= 1}, the null line
      of k - 1 rows of B, and column j of B_R^-1 spans that of R minus j;
    - linf: row D_j has norm min{||l||_1 : B^T l = D_j^T} (Hahn-Banach), an
      LP with a basic optimum, so the min over R of ||B_R^-T D_j^T||_1.
    These are exact, lo and hi one array.  Otherwise ``batch_ratio_ascent``
    gives lo and hi is +inf.  A NaN lo, never exact, marks a value whose
    candidates or climbs were not finite.
    """
    m, d, k = d1s.shape
    if k == 1:
        values = batch_vector_norms(d1s[:, :, 0], kind) / batch_vector_norms(gens[:, 0], kind)
        return values, values
    if kind.tag == "l2":  # the largest singular value of D R^-1, for G^T = QR
        r = np.linalg.qr(gens.transpose(0, 2, 1))[1]
        values = np.linalg.svd(d1s @ np.linalg.inv(r), compute_uv=False)[:, 0]
        return values, values
    if kind.tag not in ("l1", "linf") or math.comb(d, k) > ENUMERATION_CAP:
        return batch_ratio_ascent(d1s, gens, kind), np.full(m, np.inf)
    bmat = gens.transpose(0, 2, 1)
    rows = bmat[:, list(itertools.combinations(range(d), k))]  # the B_R
    ok = np.linalg.det(rows) != 0
    rows[~ok] = np.eye(k)  # stands in for a singular B_R, whose candidates are dropped
    inv = np.linalg.inv(rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind.tag == "l1":  # ||D c|| and ||B c|| for each column c of each B_R^-1
            num, den = (np.abs(np.matmul(x[:, None], inv)).sum(axis=2) for x in (d1s, bmat))
            values = np.where(ok[..., None], num / den, -np.inf).max(axis=(1, 2))
        else:  # ||B_R^-T D_j^T||_1 for each row j of D
            duals = np.abs(np.matmul(d1s[:, None], inv)).sum(axis=3)
            values = np.fmin.reduce(np.where(ok[..., None], duals, np.inf), axis=1).max(axis=1)
    return values, values


def restricted_inverse(m: DenseOperator, domain: SpannedSubspace,
                       codomain: SpannedSubspace) -> RestrictedInverse:
    """Invert M restricted from ``domain`` onto ``codomain``.

    The inverse norm is measured in the ambient norm between the subspace
    spans by ``_lift_norms``: exact for l1, linf and l2 up to
    ``ENUMERATION_CAP`` blocks and for one-dimensional restrictions,
    otherwise a ratio-ascent lower bound.
    """
    if domain.dim != codomain.dim:
        raise InputError("restricted inversion needs equal subspace dimensions")
    if domain.space != codomain.space:
        raise InputError("subspaces live in different spaces")
    lift, refused = _batch_lift(m.entries[None], domain.generators[None],
                                codomain.generators[None])
    if refused:
        raise refused[0]
    lo, hi = _lift_norms(lift.d1, lift.generators, domain.space.norm)
    if np.isnan(lo[0]):
        raise InputError("vector has non-finite entries")
    return RestrictedInverse(lift.coefficients[0], lift.ambient[0],
                             Bound(float(lo[0]), hi=float(hi[0])))


def oblique_projection(p: DenseOperator, z: SpannedSubspace) -> DenseOperator:
    """(P|_Z)^-1 P: the projection onto Z along ker P, lifted to the space."""
    zm = z.generators.T
    g = p.entries @ zm
    if np.linalg.cond(g) > DEFAULT_COND_CAP:  # +inf where singular
        raise NotInvertible("projection restricted to the subspace is singular")
    w, *_ = np.linalg.lstsq(g, p.entries, rcond=None)
    scale = 1.0 + np.abs(p.entries).max()
    if np.abs(g @ w - p.entries).max() > RANGE_RESIDUAL_TOL * scale:
        raise NotInvertible("restriction does not reach the projection's range")
    r = zm @ w
    if np.abs(r @ r - r).max() > 1e-7 * (1.0 + np.abs(r).max()):
        raise NotInvertible("oblique projection failed the idempotency check")
    return DenseOperator(r, p.domain_norm, p.codomain_norm)


def direct_sum_projection(p: DenseOperator, q: DenseOperator,
                          x1: SpannedSubspace, y2: SpannedSubspace) -> DenseOperator:
    """(Q|_X1)^-1 Q + ((I-P)|_Y2)^-1 (I-P); the identity when X = X1 + Y2.

    Raises DistanceZero when X1 and Y2 intersect within tolerance, and
    NotInvertible when a required restriction is singular.
    """
    for name, op in (("P", p), ("Q", q)):
        if np.abs(op.entries @ op.entries - op.entries).max() > 1e-8:
            raise InputError(f"{name} is not a projection")
    if _direct_sum(x1, y2) is None:
        raise DistanceZero("the two subspaces intersect within tolerance")
    eye = DenseOperator.identity(NormedSpace(p.rows, p.codomain_norm))
    r1 = oblique_projection(q, x1)
    r2 = oblique_projection(eye - p, y2)
    return r1 + r2


# ---------------------------------------------------------------------------
# subspace distance


def distance_to_span(x, sub: SpannedSubspace) -> float:
    """min_t ||x - B t|| for a finite point x of the space (InputError
    otherwise): least squares in l2, a HiGHS LP optimum within the solver's
    tolerance in l1/linf, and in lp an L-BFGS-B value, only an upper bound."""
    x = _as_vector(x)
    if x.size != sub.space.dim:
        raise InputError(f"point of length {x.size} in a dim-{sub.space.dim} space")
    return _convex_distance(x, sub.generators.T, sub.space.norm)


def _convex_distance(x: np.ndarray, bcols: np.ndarray, kind) -> float:
    d, k = bcols.shape
    if kind.tag == "l2":
        t, *_ = np.linalg.lstsq(bcols, x, rcond=None)
        return vector_norm(x - bcols @ t, kind)
    from scipy import optimize  # imported on first use: it dominates `import weavelab`
    if kind.tag == "l1":
        c = np.concatenate([np.zeros(k), np.ones(d)])
        a_ub = np.block([[bcols, -np.eye(d)], [-bcols, -np.eye(d)]])
        b_ub = np.concatenate([x, -x])
        bounds = [(None, None)] * k + [(0.0, None)] * d
    elif kind.tag == "linf":
        c = np.concatenate([np.zeros(k), [1.0]])
        ones = np.ones((d, 1))
        a_ub = np.block([[bcols, -ones], [-bcols, -ones]])
        b_ub = np.concatenate([x, -x])
        bounds = [(None, None)] * k + [(0.0, None)]
    else:
        p = kind.p

        def fun(t):
            r = x - bcols @ t
            return float((np.abs(r) ** p).sum())

        def jac(t):
            r = x - bcols @ t
            return -p * bcols.T @ (np.sign(r) * np.abs(r) ** (p - 1.0))

        t0, *_ = np.linalg.lstsq(bcols, x, rcond=None)
        res = optimize.minimize(fun, t0, jac=jac, method="L-BFGS-B")
        return float(max(res.fun, 0.0) ** (1.0 / p))
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise InputError(f"inner distance LP failed: {res.message}")
    return float(res.fun)


def _direct_sums(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the generator rows A_i and B_i of an (m, ka, d) and an (m, kb, d)
    stack, the two lifts whose restricted norms are ||P_A|| and ||P_B|| on
    A + B, as (m, 2, d, k) D and (m, 2, k, d) G stacks for ``_lift_norms``:
    D = [A^T 0] and [0 B^T] over G = [A; B], its rows scaled by
    ``_unit_rows``.  Also the mask of the pairs whose [A; B] is independent
    within ``INDEPENDENCE_TOL`` (one ``_dependent`` test); the others
    intersect (as they do when ka + kb exceeds d), and their lifts are not to
    be read."""
    g = _unit_rows(np.concatenate([a, b], axis=1))
    gt = g.transpose(0, 2, 1)
    in_a = np.arange(g.shape[1]) < a.shape[1]
    return np.stack([gt * in_a, gt * ~in_a], axis=1), np.stack([g, g], axis=1), ~_dependent(g)


def _direct_sum(a: SpannedSubspace, b: SpannedSubspace
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """``_direct_sums`` of one pair of subspaces: its (D, G) stacks, or None
    when A and B intersect within tolerance."""
    if a.space != b.space:
        raise InputError("subspaces live in different spaces")
    d1s, gens, independent = _direct_sums(a.generators[None], b.generators[None])
    return (d1s[0], gens[0]) if independent[0] else None


def subspace_distance(a: SpannedSubspace, b: SpannedSubspace) -> Bound:
    """d(A, B) = inf ||x - y|| over unit x in either subspace, y in the other.

    On W = A + B it is 1/max(||P_A||, ||P_B||), where P_A projects onto A
    along B: restricted norms on W of the lifts of ``_direct_sum``, from
    ``_lift_norms``, the distance bracket [1/max hi, 1/max lo].  So it is exact
    for l1, linf and l2 up to ``ENUMERATION_CAP`` blocks, otherwise an upper
    bound over [0, value].  It is exactly 0 when A and B intersect.
    """
    lifts = _direct_sum(a, b)
    if lifts is None:
        return Bound(0.0)
    lo, hi = _lift_norms(*lifts, a.space.norm)
    if np.isnan(lo).any():
        raise InputError("vector has non-finite entries")
    return Bound(1.0 / float(lo.max()), lo=1.0 / float(hi.max()))


# ---------------------------------------------------------------------------
# the six-way woven unconditional-basis checker


@dataclass(frozen=True, eq=False)
class ConditionOutcome:
    """Verdict of one condition: extremal constant over the tested patterns."""

    holds: bool
    constant: float
    witness: WeavePattern | None
    exactness: Exactness


@dataclass(frozen=True, eq=False)
class UncVerdict:
    """Per-condition outcomes for the six woven-unconditionality conditions."""

    conditions: dict
    agree: bool
    per_sigma: dict | None
    max_st_residual: float
    max_ts_residual: float
    scope_used: str
    patterns_checked: int
    threshold: float
    base_unconditional: tuple[float, float]

    def holds_all(self) -> bool:
        return all(c.holds for c in self.conditions.values() if c is not None)


_ALL_CONDITIONS = ("i", "ii", "iii", "iv", "v", "vi")
_SIGMA_ORDER = ("i", "ii", "iv", "iii", "v", "vi")  # columns, and per_sigma's key order


def _check_biorthogonal(system: FrameSystem, name: str):
    gram = system.functionals @ system.vectors.T
    res = np.abs(gram - np.eye(system.n)).max()
    if res > 1e-8:
        raise InputError(f"{name} functionals are not biorthogonal "
                         f"(residual {res:.3e}); pass the basis with its duals")


def _scope_patterns(n: int, scope: str, samples: int, seed: int) -> tuple[range | list[int], str]:
    if scope not in ("exhaustive", "sampled"):
        raise InputError(f"unknown scope {scope!r}")
    if samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples!r}")
    if scope == "exhaustive" and n <= EXHAUSTIVE_SCOPE_BITS:
        return range(1 << n), "exhaustive"
    return sample_patterns(n, samples + 4, seed), "sampled"


def _c_u_column(stacks: np.ndarray, mats: np.ndarray, kind: NormKind,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of C_u per pattern of a chunk: the C_u of its (n, d, d) stack
    of ``stacks`` against the guarded inverse of its matrix of ``mats``, from
    one ``batch_invert`` and the shared sign tables of
    ``_max_norms_over_patterns`` under ``INNER_SEARCH``; +inf twice where
    the inverse is refused."""
    inv = batch_invert(mats)
    # a refused inverse is zeros, so its stack's table reads 0 and is dropped
    brackets, _ = _max_norms_over_patterns(stacks, inv.inverses, True, kind, INNER_SEARCH, seed)
    brackets[~inv.accepted] = np.inf
    return brackets.T


def _woven_c_u(f0, f1, bits: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of C_u of the woven basis of each pattern of a chunk (the
    boolean rows ``bits``), with its duals from ``weaving._woven_bases``:
    the (i), (ii) and (iv) constant.  +inf twice where the weaving is not
    a basis."""
    vectors, duals, basis = _woven_bases(f0, f1, bits)
    lo, hi = np.full((2, len(bits)), np.inf)
    woven = outer_stack(vectors[basis], duals[basis])
    lo[basis], hi[basis] = _c_u_column(woven, np.add.reduce(woven, axis=1), f0.space.norm, seed)
    return lo, hi


def _larger_norms(d1s: np.ndarray, gens: np.ndarray, kind: NormKind
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the larger of each pair's two restricted norms, for
    (m, 2, d, k) lifts and (m, 2, k, d) codomain generators, from one
    ``_lift_norms`` call; lo = +inf and hi = NaN where a lo is NaN."""
    m, _, d, k = d1s.shape
    lo, hi = (v.reshape(m, 2) for v in _lift_norms(d1s.reshape(-1, d, k),
                                                   gens.reshape(-1, k, d), kind))
    nan = np.isnan(lo).any(axis=1)
    return np.where(nan, np.inf, lo.max(axis=1)), np.where(nan, np.nan, hi.max(axis=1))


def _chunk_rows(f0, f1, stacks, bits: np.ndarray, wanted, seed: int) -> np.ndarray:
    """The six-way rows of a chunk of patterns, the boolean rows ``bits``:
    the (lo, hi) bracket of the constant of each condition of ``wanted`` in
    ``_SIGMA_ORDER`` (+inf twice for a refused inversion), then (iii)'s
    residuals st and ts, NaN where (iii) is not wanted or a lift it reads is
    refused.  ``stacks`` are the two bases' ``outer_stack``s.
    The lifts are r_p = (P|Y1)^-1, r_q = (Q|X1)^-1, r_ip = ((I-P)|Y2)^-1 and
    r_iq = ((I-Q)|X2)^-1, where X1, Y1 (X2, Y2) span f0, f1 at the 0-bits
    (1-bits); (iii) reads all four.  (v) and (vi) are each the larger of two
    restricted norms (``_larger_norms``): ||P_X1|| and ||P_Y2|| on
    X1 + Y2 = X, which is 1/d(X1, Y2), and those of r_p and r_q.  Their
    columns start at their defaults: (v) is 1 where one side is {0} and +inf
    where X1 and Y2 intersect, (vi) 0 where there are no 0-bits and +inf
    elsewhere, which stays where r_p or r_q is refused.
    Patterns are lifted a span dimension (their count of 0-bits) at a time:
    one ``_dependent`` test per span read, one ``_batch_lift`` per lift
    kind, (iii)'s terms as stacked products, one ``_direct_sums`` for (v)
    and one ``_larger_norms`` for (vi), each bit for bit a stack of one.
    (v)'s lifts, all of dimension n, are selected from each group's
    ``_direct_sums`` and graded in one call per chunk, whatever else is
    wanted; they keep that stack's memory layout, on which the ratio
    ascent's last bits depend.  A span that is dependent, or a P or Q that
    is not finite, raises InputError at the first pattern, in chunk order,
    that reads it, as ``SpannedSubspace`` and ``require_finite`` do.
    """
    m, n = bits.shape
    kind = f0.space.norm
    lifts = "iii" in wanted or "vi" in wanted  # r_p and r_q; (iii) also r_ip and r_iq
    zeros = n - np.count_nonzero(bits, axis=1)
    p = q = None
    if lifts:  # every lift reads both basis projections
        p, q = np.empty((m, n, n)), np.empty((m, n, n))
    bad = np.zeros(m, dtype=bool)  # a span it reads is dependent, or P or Q is not finite
    groups = []
    for k in sorted(set(zeros.tolist())):
        idx = np.flatnonzero(zeros == k)
        off, on = (np.nonzero(b)[1].reshape(len(idx), -1) for b in (~bits[idx], bits[idx]))
        x1, y1, x2, y2 = f0.vectors[off], f1.vectors[off], f0.vectors[on], f1.vectors[on]
        mixed = "v" in wanted and 0 < k < n
        for gens, read in ((x1, k and (lifts or mixed)), (y1, k and lifts),
                           (x2, k < n and "iii" in wanted),
                           (y2, k < n and ("iii" in wanted or mixed))):
            if read:
                bad[idx] |= _dependent(gens)
        if lifts:
            p[idx], q[idx] = (np.add.reduce(stack[off], axis=1) for stack in stacks)
        groups.append((k, idx, x1, y1, x2, y2, mixed))
    if lifts:
        bad |= ~(np.isfinite(p).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2)))
    if bad.any():
        j = int(np.argmax(bad))
        if lifts:
            require_finite(np.array((p[j], q[j])))
        raise InputError(_DEPENDENT)

    rows = np.full((m, 2 * len(wanted) + 2), np.nan)
    column = {c: 2 * j for j, c in enumerate(wanted)}

    def put(c, lo, hi=None, at=slice(None)):  # hi = lo by default
        rows[at, column[c]], rows[at, column[c] + 1] = lo, lo if hi is None else hi

    sums = []  # (v)'s lifts where X1 and Y2 are independent: (D, G, positions)
    if "v" in wanted:
        put("v", np.where((0 < zeros) & (zeros < n), np.inf, 1.0))
    if "vi" in wanted:
        put("vi", np.where(zeros, np.inf, 0.0))
    eye = np.eye(n)
    if "iii" in wanted:
        s = p + (eye - q)
    for k, idx, x1, y1, x2, y2, mixed in groups:
        if lifts and k:
            r_q, refused_q = _batch_lift(q[idx], x1, y1)
            r_p, refused_p = _batch_lift(p[idx], y1, x1)
            refused_pq = np.isin(np.arange(len(idx)), [*refused_p, *refused_q])
        if "iii" in wanted:  # T = r_p r_q Q + r_iq r_ip (I - P), a term 0 where its side is {0}
            terms, refused = np.zeros((2, len(idx), n, n)), np.zeros(len(idx), dtype=bool)
            if k:
                terms[0] = r_p.ambient @ r_q.ambient @ q[idx]
                refused |= refused_pq
            if k < n:
                i_p = eye - p[idx]
                r_ip, refused_ip = _batch_lift(i_p, y2, x2)
                r_iq, refused_iq = _batch_lift(eye - q[idx], x2, y2)
                terms[1] = r_iq.ambient @ r_ip.ambient @ i_p
                refused |= np.isin(np.arange(len(idx)), [*refused_ip, *refused_iq])
            t_mat, s_k = terms[0] + terms[1], s[idx]
            rows[idx, -2] = np.where(refused, np.nan, np.abs(s_k @ t_mat - eye).max(axis=(1, 2)))
            rows[idx, -1] = np.where(refused, np.nan, np.abs(t_mat @ s_k - eye).max(axis=(1, 2)))
        if mixed:
            d1s, gens, independent = _direct_sums(x1, y2)
            if independent.any():
                sums.append((d1s[independent], gens[independent], idx[independent]))
        if "vi" in wanted and k and not refused_pq.all():
            live = ~refused_pq
            put("vi", *_larger_norms(np.stack([r_p.d1, r_q.d1], axis=1)[live],
                                     np.stack([r_p.generators, r_q.generators], axis=1)[live],
                                     kind), idx[live])
    woven = [c for c in ("i", "ii", "iv") if c in wanted]
    if woven:
        c_u = _woven_c_u(f0, f1, bits, seed)
        for c in woven:
            put(c, *c_u)
    if "iii" in wanted:
        put("iii", *_c_u_column(np.where(bits[:, :, None, None], stacks[1], stacks[0]),
                                s, kind, seed))
    if sums:
        d1s, gens, at = (np.concatenate(x) for x in zip(*sums))
        put("v", *_larger_norms(d1s, gens, kind), at)
    return rows


def unc_conditions(f0: FrameSystem, f1: FrameSystem, scope: str = "exhaustive",
                   samples: int = 512, threshold: float = DEFAULT_UNC_THRESHOLD,
                   seed: int = 0, conditions=_ALL_CONDITIONS) -> UncVerdict:
    """Check the six equivalent characterizations of woven unconditional bases.

    Both inputs must be bases paired with their biorthogonal functionals.
    ``conditions`` is a collection of names from ``i`` to ``vi`` (a bare
    string is one name); an unknown name raises InputError.
    Per pattern, each condition reports a constant and *fails* when that
    constant exceeds ``threshold``, which must be finite and positive
    (InputError otherwise); (v)'s constant is the larger restricted norm of
    the lifts ``subspace_distance`` takes, bit for bit, so 1/d(X1, Y2) up to
    the rounding of that reciprocal.
    ``_chunk_rows``, a row function on ``search.pattern_table``, grades each
    chunk of patterns, its C_u, spans and lifts in stacks, into a row per
    pattern: the (lo, hi) bracket of the constant for each wanted condition
    in ``per_sigma``'s order (i, ii, iv, iii, v, vi), then the (iii)
    residuals.  The constant is lo.  A condition's witness is its first
    failing pattern, otherwise its first maximizer, and its label is that of
    the ``search.bound`` of its column, whose hi is finite only under
    exhaustive scope.  Each C_u, the bases' own and the chunk's, searches by
    ``INNER_SEARCH``, which ``search.maximize`` demotes to heuristic(16)
    above ``INNER_SEARCH.cap`` patterns.
    Exhaustive scope enumerates all patterns up to ``EXHAUSTIVE_SCOPE_BITS``
    bits; above that a seeded sample of ``samples`` draws (InputError when
    negative) plus the alternating and constant patterns is used.
    """
    if f0.space != f1.space or f0.n != f1.n:
        raise InputError("bases are incompatible")
    if f0.n != f0.space.dim:
        raise InputError("woven-basis conditions need n = dim (bases of the space)")
    if not 0 < threshold < np.inf:
        raise InputError(f"threshold must be finite and positive, got {threshold!r}")
    _check_biorthogonal(f0, "first basis")
    _check_biorthogonal(f1, "second basis")
    if isinstance(conditions, str):
        conditions = (conditions,)
    unknown = [c for c in conditions if c not in _ALL_CONDITIONS]
    if unknown:
        raise InputError(f"unknown conditions {', '.join(map(repr, unknown))} "
                         f"(expected some of {', '.join(_ALL_CONDITIONS)})")
    wanted = tuple(c for c in _SIGMA_ORDER if c in conditions)
    if not wanted:
        raise InputError("no conditions selected")
    n = f0.n
    ms, scope_used = _scope_patterns(n, scope, samples, seed)
    base0, base1 = (unconditional_constant(f, INNER_SEARCH, seed).value for f in (f0, f1))
    if not (np.isfinite(base0) and np.isfinite(base1)):
        raise NotAFrame("input bases must have finite unconditional constants")

    stacks = (outer_stack(f0.vectors, f0.functionals), outer_stack(f1.vectors, f1.functionals))

    table = pattern_table(
        ms, lambda part: _chunk_rows(f0, f1, stacks, bit_rows(part, n), wanted, seed),
        chunk_size_for(n * n * n))
    lo, hi = table[:, :-2:2], table[:, 1:-2:2]
    flags = lo <= threshold
    max_st, max_ts = (float(np.max(r[np.isfinite(r)], initial=0.0)) for r in table[:, -2:].T)
    outcomes = dict.fromkeys(_ALL_CONDITIONS)
    for j, c in enumerate(wanted):
        worst = bound(lo[:, j], hi[:, j], scope_used == "exhaustive")
        fails = np.flatnonzero(~flags[:, j])
        at = fails[0] if fails.size else worst.witness
        outcomes[c] = ConditionOutcome(holds=fails.size == 0, constant=worst.value,
                                       exactness=worst.exactness,
                                       witness=WeavePattern.from_index(ms[at], n))
    per_sigma = {str(WeavePattern.from_index(m, n)): dict(zip(wanted, row))
                 for m, row in zip(ms, flags.tolist())} if len(ms) <= PER_SIGMA_CAP else None
    return UncVerdict(conditions=outcomes, agree=bool((flags == flags[:, :1]).all()),
                      per_sigma=per_sigma, max_st_residual=max_st, max_ts_residual=max_ts,
                      scope_used=scope_used, patterns_checked=len(ms),
                      threshold=threshold, base_unconditional=(base0, base1))
