"""Subspace geometry: basis projections, restricted inverses, subspace
distances, oblique and direct-sum projections, and the six-way woven
unconditional-basis checker.

Distances in l2 are exact (principal angles).  In other norms the distance
is bracketed: multi-start minimization of the convex inner problem gives a
certified upper bound, and ambient oblique projections that fix one
subspace and annihilate the other give a certified lower bound
1/||R|| (exact operator norms for l1/linf).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (DistanceZero, InputError, NotABasis, NotAFrame,
                     NotInvertible)
from .normed import (DEFAULT_COND_CAP, DenseOperator, Exactness, NormedSpace,
                     batch_vector_norms, invert, norming_vector,
                     operator_norm, vector_norm)
from .frames import (EXHAUSTIVE, ConstantEstimate, FrameSystem,
                     biorthogonals, heuristic, outer_stack,
                     signed_ratio_constant, unconditional_constant)
from .weaving import WeavePattern, sample_patterns, weave

DEFAULT_UNC_THRESHOLD = 4.0
INNER_EXHAUSTIVE_CAP = 2 ** 12  # patterns; above it inner C_u is heuristic(16)
EXHAUSTIVE_SCOPE_BITS = 16  # above it, exhaustive scope falls back to sampled
PER_SIGMA_CAP = 4096  # per-pattern flags are kept up to this many patterns
RANGE_RESIDUAL_TOL = 1e-8
INDEPENDENCE_TOL = 1e-10
_ASCENT_SEED = 11


@dataclass(frozen=True, eq=False)
class SpannedSubspace:
    """The span of independent generator rows inside a normed space."""

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
        if not np.all(np.isfinite(g)):
            raise InputError("generators must be finite")
        svals = np.linalg.svd(g, compute_uv=False)
        if svals[-1] <= INDEPENDENCE_TOL * max(1.0, svals[0]):
            raise InputError("generators are linearly dependent within tolerance")
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
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 1 or idx[-1] > system.n):
        raise InputError(f"projection indices out of range 1..{system.n}")
    d = system.space.dim
    if not idx:
        return DenseOperator.on_space(np.zeros((d, d)), system.space)
    stack = outer_stack(system.vectors, system.functionals)
    return DenseOperator.on_space(
        np.add.reduce(stack[[i - 1 for i in idx]], axis=0), system.space)


@dataclass(frozen=True, eq=False)
class RestrictedInverse:
    """The inverse of M restricted between two subspaces.

    ``coefficients`` maps codomain generator coordinates to domain ones;
    ``ambient`` is the d x d lift acting on vectors in the codomain span.
    """

    coefficients: np.ndarray
    ambient: np.ndarray
    norm: ConstantEstimate


def _norming(z: np.ndarray, kind) -> np.ndarray:
    # subgradient selection of ||.|| at z in the predual pairing
    if kind.tag == "linf":
        out = np.zeros_like(z)
        j = int(np.argmax(np.abs(z)))
        out[j] = 1.0 if z[j] >= 0 else -1.0
        return out
    if kind.tag == "l1":
        return np.where(z >= 0, 1.0, -1.0)
    return norming_vector(z, kind.dual())


def _ratio_ascent(numer: np.ndarray, denom: np.ndarray, kind, starts: int = 64,
                  iters: int = 60) -> float:
    """Lower bound for sup_c ||numer c|| / ||denom c|| by multi-start ascent."""
    k = numer.shape[1]
    cands = [np.ones(k)]
    if 2 <= k <= 7:
        for signs in itertools.product((1.0, -1.0), repeat=k - 1):
            cands.append(np.array((1.0,) + signs))
    cands.extend(np.eye(k))
    rng = np.random.default_rng(_ASCENT_SEED)
    while len(cands) < starts:
        v = rng.standard_normal(k)
        if np.any(v):
            cands.append(v)
    cmat = np.array(cands)
    num_norms = batch_vector_norms(cmat @ numer.T, kind)
    den_norms = batch_vector_norms(cmat @ denom.T, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den_norms > 0, num_norms / den_norms, -np.inf)
    order = np.argsort(-ratios)
    best = float(ratios[order[0]])
    for idx in order[:4]:
        c = cmat[idx] / np.linalg.norm(cmat[idx])
        nv = numer @ c
        dv = denom @ c
        n_n = batch_vector_norms(nv[None], kind)[0]
        n_d = batch_vector_norms(dv[None], kind)[0]
        if n_d == 0.0:
            continue
        cur = n_n / n_d
        step = 0.25
        for _ in range(iters):
            if n_n == 0.0 or n_d == 0.0:
                break
            g = (numer.T @ _norming(nv, kind) / n_n
                 - denom.T @ _norming(dv, kind) / n_d)
            c_new = c + step * g
            nrm = np.linalg.norm(c_new)
            if nrm == 0.0:
                break
            c_new /= nrm
            nv_new = numer @ c_new
            dv_new = denom @ c_new
            n_n_new = batch_vector_norms(nv_new[None], kind)[0]
            n_d_new = batch_vector_norms(dv_new[None], kind)[0]
            if n_d_new > 0 and n_n_new / n_d_new > cur:
                c, nv, dv, n_n, n_d = c_new, nv_new, dv_new, n_n_new, n_d_new
                cur = n_n / n_d
            else:
                step *= 0.5
                if step < 1e-8:
                    break
        best = max(best, cur)
    return float(best)


def restricted_inverse(m: DenseOperator, domain: SpannedSubspace,
                       codomain: SpannedSubspace) -> RestrictedInverse:
    """Invert M restricted from ``domain`` onto ``codomain``.

    The inverse norm is measured in the ambient norm between the subspace
    spans: exact for l2 or one-dimensional restrictions, otherwise a
    multi-start lower bound.
    """
    if domain.dim != codomain.dim:
        raise InputError("restricted inversion needs equal subspace dimensions")
    if domain.space != codomain.space:
        raise InputError("subspaces live in different spaces")
    a = domain.generators.T
    b = codomain.generators.T
    ma = m.entries @ a
    coeff, *_ = np.linalg.lstsq(b, ma, rcond=None)
    scale = 1.0 + np.abs(ma).max()
    if np.abs(b @ coeff - ma).max() > RANGE_RESIDUAL_TOL * scale:
        raise InputError("operator does not map the domain into the codomain span")
    svals = np.linalg.svd(coeff, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > DEFAULT_COND_CAP:
        raise NotInvertible("restricted operator is singular within the condition cap")
    inv_coeff = np.linalg.inv(coeff)
    d1 = a @ inv_coeff
    kind = domain.space.norm
    if domain.dim == 1:
        value = vector_norm(d1[:, 0], kind) / vector_norm(b[:, 0], kind)
        est = ConstantEstimate(float(value), Exactness.EXACT)
    elif kind.tag == "l2":
        r = np.linalg.qr(b)[1]
        value = np.linalg.svd(d1 @ np.linalg.inv(r), compute_uv=False)[0]
        est = ConstantEstimate(float(value), Exactness.EXACT)
    else:
        est = ConstantEstimate(_ratio_ascent(d1, b, kind), Exactness.LOWER_BOUND)
    ambient = d1 @ np.linalg.pinv(b)
    return RestrictedInverse(inv_coeff, ambient, est)


def oblique_projection(p: DenseOperator, z: SpannedSubspace) -> DenseOperator:
    """(P|_Z)^-1 P: the projection onto Z along ker P, lifted to the space."""
    zm = z.generators.T
    g = p.entries @ zm
    svals = np.linalg.svd(g, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > DEFAULT_COND_CAP:
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
    stacked = np.vstack([x1.generators, y2.generators])
    svals = np.linalg.svd(stacked, compute_uv=False)
    if len(svals) < stacked.shape[0] or svals[-1] <= INDEPENDENCE_TOL * max(1.0, svals[0]):
        raise DistanceZero("the two subspaces intersect within tolerance")
    eye = DenseOperator.identity(NormedSpace(p.rows, p.codomain_norm))
    r1 = oblique_projection(q, x1)
    r2 = oblique_projection(eye - p, y2)
    return r1 + r2


# ---------------------------------------------------------------------------
# subspace distance


@dataclass(frozen=True, eq=False)
class SubspaceDistance:
    """A distance value with provenance and an optional certified lower bound."""

    value: float
    exactness: Exactness
    lower_bound: float | None = None


def distance_to_span(x, sub: SpannedSubspace) -> float:
    """Exact distance from the point x to the subspace (convex problem)."""
    x = np.asarray(x, dtype=np.float64)
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


def _directional_distance(a: SpannedSubspace, b: SpannedSubspace, effort: int,
                          seed: int) -> tuple[float, Exactness]:
    """min over unit x in span(a) of dist(x, span(b)); exact when dim(a) = 1."""
    kind = a.space.norm
    bcols = b.generators.T
    rows = a.generators
    k = a.dim
    if k == 1:
        x = rows[0] / vector_norm(rows[0], kind)
        return _convex_distance(x, bcols, kind), Exactness.EXACT

    def objective(c):
        x = rows.T @ c
        nrm = vector_norm(x, kind)
        if nrm <= 1e-14:
            return 2.0 * np.abs(rows).sum()
        return _convex_distance(x / nrm, bcols, kind)

    from scipy import optimize

    starts = [np.ones(k)]
    starts.extend(np.eye(k))
    rng = np.random.default_rng(seed)
    for _ in range(effort):
        starts.append(rng.standard_normal(k))
    best = np.inf
    for c0 in starts:
        res = optimize.minimize(objective, c0, method="Nelder-Mead",
                                options={"maxiter": 200 * k,
                                         "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, float(res.fun), objective(c0))
    return best, Exactness.UPPER_BOUND


def _candidate_upper_distance(a: SpannedSubspace, b: SpannedSubspace,
                              effort: int, seed: int) -> float:
    """Cheap certified upper bound on d(A, B): the inner convex distance at a
    few candidate unit vectors from each side (no outer optimization)."""
    best = np.inf
    rng = np.random.default_rng(seed)
    for src, dst in ((a, b), (b, a)):
        rows = src.generators
        k = rows.shape[0]
        cands = [np.ones(k)]
        cands.extend(np.eye(k))
        cands.append(np.arange(1, k + 1, dtype=np.float64))
        for _ in range(effort):
            cands.append(rng.standard_normal(k))
        bcols = dst.generators.T
        kind = src.space.norm
        for c in cands:
            x = rows.T @ c
            nrm = vector_norm(x, kind)
            if nrm <= 1e-14:
                continue
            best = min(best, _convex_distance(x / nrm, bcols, kind))
    return float(best)


def _validated_witness_bound(r: np.ndarray, fixed: SpannedSubspace,
                             killed: SpannedSubspace) -> float:
    """1/||R|| for an ambient R with R|_fixed = id and R(killed) = 0."""
    space = fixed.space
    fix_res = np.abs(r @ fixed.generators.T - fixed.generators.T).max()
    kill_res = np.abs(r @ killed.generators.T).max()
    scale = 1.0 + np.abs(fixed.generators).max() + np.abs(killed.generators).max()
    if max(fix_res, kill_res) > RANGE_RESIDUAL_TOL * scale:
        raise InputError("witness projection does not fix/annihilate the subspaces")
    norm = operator_norm(DenseOperator.on_space(r, space))
    if norm.exactness is not Exactness.EXACT:
        # a lower bound on ||R|| cannot certify 1/||R||; report conservatively
        return 0.0
    return 1.0 / norm.value if norm.value > 0 else np.inf


def subspace_distance(a: SpannedSubspace, b: SpannedSubspace, effort: int = 8,
                      seed: int = 0,
                      witness_projections: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> SubspaceDistance:
    """d(A, B) = inf ||x - y|| over unit x in either subspace, y in the other.

    Exact via principal angles for l2.  Otherwise the value is a multi-start
    upper bound; when ``witness_projections = (R_a, R_b)`` is supplied (R_a
    fixes A and kills B, R_b the reverse) a certified lower bound
    min(1/||R_a||, 1/||R_b||) is reported alongside.
    """
    if a.space != b.space:
        raise InputError("subspaces live in different spaces")
    if a.space.norm.tag == "l2":
        qa = np.linalg.qr(a.generators.T)[0]
        qb = np.linalg.qr(b.generators.T)[0]
        top = float(np.linalg.svd(qa.T @ qb, compute_uv=False).max())
        value = float(np.sqrt(max(0.0, 1.0 - min(top, 1.0) ** 2)))
        return SubspaceDistance(value, Exactness.EXACT, lower_bound=value)
    ab, ex_ab = _directional_distance(a, b, effort, seed)
    ba, ex_ba = _directional_distance(b, a, effort, seed + 1)
    value = min(ab, ba)
    exact = Exactness.EXACT if (ex_ab is Exactness.EXACT and ex_ba is Exactness.EXACT) \
        else Exactness.UPPER_BOUND
    lower = None
    if witness_projections is not None:
        r_a, r_b = witness_projections
        lower = min(_validated_witness_bound(np.asarray(r_a, dtype=np.float64), a, b),
                    _validated_witness_bound(np.asarray(r_b, dtype=np.float64), b, a))
    return SubspaceDistance(value, exact, lower_bound=lower)


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


def _check_biorthogonal(system: FrameSystem, name: str):
    gram = system.functionals @ system.vectors.T
    res = np.abs(gram - np.eye(system.n)).max()
    if res > 1e-8:
        raise InputError(f"{name} functionals are not biorthogonal "
                         f"(residual {res:.3e}); pass the basis with its duals")


def _scope_patterns(n: int, scope: str, samples: int, seed: int) -> tuple[list[int], str]:
    if scope not in ("exhaustive", "sampled"):
        raise InputError(f"unknown scope {scope!r}")
    if scope == "exhaustive" and n <= EXHAUSTIVE_SCOPE_BITS:
        return list(range(1 << n)), "exhaustive"
    return sample_patterns(n, samples + 4, seed), "sampled"


def _sigma_cases(f0, f1, m, inner_mode, threshold, wanted, seed):
    """Evaluate the six conditions at one pattern; returns (flags, metrics, st, ts)."""
    n = f0.n
    space = f0.space
    pattern = WeavePattern.from_index(m, n)
    z = [i + 1 for i, bit in enumerate(pattern.bits) if bit == 0]
    o = [i + 1 for i, bit in enumerate(pattern.bits) if bit == 1]
    flags: dict[str, bool] = {}
    metrics: dict[str, float] = {}
    st = ts = np.nan

    need_basis = any(c in wanted for c in ("i", "ii", "iv"))
    need_frame = "iii" in wanted
    need_dist = "v" in wanted
    need_restr = "vi" in wanted or need_frame

    if need_basis:
        woven = weave(f0, f1, pattern)
        try:
            fresh = biorthogonals(woven.vectors)
            cu = unconditional_constant(FrameSystem(space, woven.vectors, fresh),
                                        inner_mode, seed=seed).value
        except (NotABasis, NotAFrame):
            cu = np.inf
        for key in ("i", "ii", "iv"):
            if key in wanted:
                flags[key] = bool(np.isfinite(cu) and cu <= threshold)
                metrics[key] = cu

    # shared split data
    p_op = basis_projection(f0, z)
    q_op = basis_projection(f1, z)
    eye = DenseOperator.identity(space)

    def sub(system, idx, tag):
        return SpannedSubspace(space, system.vectors[[i - 1 for i in idx]],
                               label=tag)

    r_p = r_q = r_ip = r_iq = None
    if need_restr or need_dist:
        if z:
            x1 = sub(f0, z, "x0|sigma=0")
            y1 = sub(f1, z, "x1|sigma=0")
            try:
                r_q = restricted_inverse(q_op, x1, y1)
            except (NotInvertible, InputError):
                r_q = None
            try:
                r_p = restricted_inverse(p_op, y1, x1)
            except (NotInvertible, InputError):
                r_p = None
        if o:
            x2 = sub(f0, o, "x0|sigma=1")
            y2 = sub(f1, o, "x1|sigma=1")
            try:
                r_ip = restricted_inverse(eye - p_op, y2, x2)
            except (NotInvertible, InputError):
                r_ip = None
            try:
                r_iq = restricted_inverse(eye - q_op, x2, y2)
            except (NotInvertible, InputError):
                r_iq = None

    if need_frame:
        s_op = p_op + (eye - q_op)
        woven = weave(f0, f1, pattern)
        try:
            s_inv = invert(s_op)
            cu_frame = signed_ratio_constant(
                outer_stack(woven.vectors, woven.functionals), s_inv.entries,
                space.norm, inner_mode, seed=seed).value
        except NotInvertible:
            cu_frame = np.inf
        term1 = term2 = np.zeros((space.dim, space.dim))
        t_ok = True
        if z:
            if r_p is None or r_q is None:
                t_ok = False
            else:
                term1 = r_p.ambient @ r_q.ambient @ q_op.entries
        if o:
            if r_ip is None or r_iq is None:
                t_ok = False
            else:
                term2 = r_iq.ambient @ r_ip.ambient @ (eye - p_op).entries
        if t_ok:
            t_mat = term1 + term2
            st = float(np.abs(s_op.entries @ t_mat - np.eye(space.dim)).max())
            ts = float(np.abs(t_mat @ s_op.entries - np.eye(space.dim)).max())
        flags["iii"] = bool(np.isfinite(cu_frame) and cu_frame <= threshold)
        metrics["iii"] = cu_frame

    if need_dist:
        if not z or not o:
            flags["v"] = True
            metrics["v"] = 1.0
        else:
            if r_q is None or r_ip is None:
                # a singular restriction certifies a nontrivial intersection
                flags["v"] = False
                metrics["v"] = np.inf
            else:
                x1 = sub(f0, z, "x0|sigma=0")
                y2 = sub(f1, o, "x1|sigma=1")
                r0 = r_q.ambient @ q_op.entries
                r1 = r_ip.ambient @ (eye - p_op).entries
                lower = min(
                    _validated_witness_bound(r0, x1, y2),
                    _validated_witness_bound(r1, y2, x1))
                if lower >= 1.0 / threshold:
                    flags["v"] = True
                    metrics["v"] = 1.0 / lower
                else:
                    upper = _candidate_upper_distance(x1, y2, effort=4, seed=seed)
                    flags["v"] = False
                    metrics["v"] = 1.0 / upper if upper > 0 else np.inf

    if "vi" in wanted:
        if not z:
            flags["vi"] = True
            metrics["vi"] = 0.0
        elif r_p is None or r_q is None:
            flags["vi"] = False
            metrics["vi"] = np.inf
        else:
            e_val = max(r_p.norm.value, r_q.norm.value)
            flags["vi"] = bool(e_val <= threshold)
            metrics["vi"] = e_val

    return flags, metrics, st, ts


def unc_conditions(f0: FrameSystem, f1: FrameSystem, scope: str = "exhaustive",
                   samples: int = 512, threshold: float = DEFAULT_UNC_THRESHOLD,
                   seed: int = 0, conditions=_ALL_CONDITIONS) -> UncVerdict:
    """Check the six equivalent characterizations of woven unconditional bases.

    Both inputs must be bases paired with their biorthogonal functionals.
    Per pattern, each condition reports a constant; a condition *fails* at a
    pattern when its constant exceeds ``threshold`` (or an operator is
    genuinely singular).  Exhaustive scope enumerates all patterns up to
    ``EXHAUSTIVE_SCOPE_BITS`` bits; above that a seeded sample plus the
    alternating and constant patterns is used.
    """
    if f0.space != f1.space or f0.n != f1.n:
        raise InputError("bases are incompatible")
    if f0.n != f0.space.dim:
        raise InputError("woven-basis conditions need n = dim (bases of the space)")
    _check_biorthogonal(f0, "first basis")
    _check_biorthogonal(f1, "second basis")
    wanted = tuple(c for c in _ALL_CONDITIONS if c in conditions)
    if not wanted:
        raise InputError("no conditions selected")
    n = f0.n
    inner_mode = EXHAUSTIVE if (1 << n) <= INNER_EXHAUSTIVE_CAP else heuristic(16)
    base0 = unconditional_constant(f0, inner_mode, seed=seed).value
    base1 = unconditional_constant(f1, inner_mode, seed=seed).value
    if not (np.isfinite(base0) and np.isfinite(base1)):
        raise NotAFrame("input bases must have finite unconditional constants")

    ms, scope_used = _scope_patterns(n, scope, samples, seed)
    per_sigma = {} if len(ms) <= PER_SIGMA_CAP else None
    worst: dict[str, tuple[float, int]] = {c: (-np.inf, ms[0]) for c in wanted}
    first_fail: dict[str, int | None] = {c: None for c in wanted}
    agree = True
    max_st = max_ts = 0.0
    for m in ms:
        flags, metrics, st, ts = _sigma_cases(f0, f1, m, inner_mode, threshold, wanted, seed)
        if np.isfinite(st):
            max_st = max(max_st, st)
        if np.isfinite(ts):
            max_ts = max(max_ts, ts)
        values = [flags[c] for c in wanted]
        if any(v != values[0] for v in values):
            agree = False
        for c in wanted:
            if metrics[c] > worst[c][0]:
                worst[c] = (metrics[c], m)
            if not flags[c] and first_fail[c] is None:
                first_fail[c] = m
        if per_sigma is not None:
            per_sigma[str(WeavePattern.from_index(m, n))] = dict(flags)

    exact = Exactness.EXACT if (scope_used == "exhaustive"
                                and f0.space.norm.is_exact_kind
                                and inner_mode.kind == "exhaustive") \
        else Exactness.LOWER_BOUND
    outcomes = {}
    for c in _ALL_CONDITIONS:
        if c not in wanted:
            outcomes[c] = None
            continue
        fail_m = first_fail[c]
        value, arg_m = worst[c]
        witness_m = fail_m if fail_m is not None else arg_m
        outcomes[c] = ConditionOutcome(
            holds=fail_m is None,
            constant=float(value),
            witness=WeavePattern.from_index(witness_m, n),
            exactness=exact)
    return UncVerdict(conditions=outcomes, agree=agree, per_sigma=per_sigma,
                      max_st_residual=max_st, max_ts_residual=max_ts,
                      scope_used=scope_used, patterns_checked=len(ms),
                      threshold=threshold, base_unconditional=(base0, base1))
