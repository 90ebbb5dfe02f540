"""ell_p norms, dual norms, dense operators, operator norms, and guarded
inversion on finite sequence-space truncations.

Vectors are 1-d float64 arrays and an operator with matrix ``A`` maps ``x``
to ``A @ x``.  ``c0`` is represented by the sup norm, which is isometric on
finite truncations.  Operator norms are exact (with an attaining witness)
for l1 -> l1, l2 -> l2 and linf -> linf; every other combination is
estimated by multi-start duality ascent and flagged as a lower bound.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInvertible

DEFAULT_COND_CAP = 1e12
INVERT_RESIDUAL_TOL = 1e-9
ASCENT_STARTS = 64
ASCENT_MAX_STEPS = 100

_UNIT_ROUNDOFF = 2.0 ** -53  # of float64
_CLEAR_FRO = DEFAULT_COND_CAP / 200  # largest ||A||_F ||X||_F a residual certificate clears
_ASCENT_SEED = 7  # fixed: operator_norm must be a pure function of its input
_ASCENT_CELLS = 1 << 16  # matrix entries gathered per lockstep chunk of climbs


class Exactness(enum.Enum):
    """Provenance of a computed value."""

    EXACT = "exact"
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True, eq=False)
class Bound:
    """A reported value, the certified bracket [lo, hi] around the true one,
    and what attains ``value`` (a vector, a pattern or an index) if known.

    ``lo`` and ``hi`` default to ``value``: ``Bound(v)`` is exact,
    ``Bound(v, hi=np.inf)`` a lower bound and ``Bound(v, lo=0.0)`` an upper
    bound.  The bracket is not checked against ``value``: rounding in an
    inner solver can leave the two a few ulps apart.
    """

    value: float
    lo: float | None = None
    hi: float | None = None
    witness: object = None

    def __post_init__(self):
        if self.lo is None:
            object.__setattr__(self, "lo", self.value)
        if self.hi is None:
            object.__setattr__(self, "hi", self.value)

    @property
    def exactness(self) -> Exactness:
        """EXACT when the bracket is a point, else the end ``value`` sits at."""
        if self.lo == self.hi:
            return Exactness.EXACT
        return Exactness.LOWER_BOUND if self.value == self.lo else Exactness.UPPER_BOUND


@dataclass(frozen=True)
class NormKind:
    """An ell_p norm tag: ``l1``, ``l2``, ``linf``, or ``lp`` with 1 < p < oo.

    ``lp`` is reserved for generic exponents; p = 2 canonicalizes to ``l2``.
    """

    tag: str
    p: float | None = None

    def __post_init__(self):
        if self.tag not in ("l1", "l2", "linf", "lp"):
            raise InputError(f"unknown norm tag {self.tag!r}")
        if self.tag == "lp":
            if self.p is None or not np.isfinite(self.p) or self.p <= 1.0:
                raise InputError("lp norms require a finite exponent p > 1")
            if self.p == 2.0:
                raise InputError("use the l2 tag for p = 2")
        elif self.p is not None:
            raise InputError(f"norm {self.tag!r} takes no exponent")

    @staticmethod
    def parse(text: str) -> "NormKind":
        """Parse ``"l1" | "l2" | "linf" | "lp:<p>"``."""
        text = text.strip().lower()
        if text == "l1":
            return L1
        if text == "l2":
            return L2
        if text == "linf":
            return LINF
        if text.startswith("lp:"):
            try:
                p = float(text[3:])
            except ValueError:
                raise InputError(f"bad lp exponent in {text!r}") from None
            return lp(p)
        raise InputError(f"unknown norm {text!r} (expected l1|l2|linf|lp:<p>)")

    def format(self) -> str:
        if self.tag == "lp":
            return f"lp:{self.p!r}"
        return self.tag

    @property
    def exponent(self) -> float:
        return {"l1": 1.0, "l2": 2.0, "linf": np.inf, "lp": self.p}[self.tag]

    @property
    def is_exact_kind(self) -> bool:
        """True when exact operator norms are available (l1, l2, linf)."""
        return self.tag in ("l1", "l2", "linf")

    def dual(self) -> "NormKind":
        if self.tag == "l1":
            return LINF
        if self.tag == "linf":
            return L1
        if self.tag == "l2":
            return L2
        q = self.p / (self.p - 1.0)
        return lp(q)


L1 = NormKind("l1")
L2 = NormKind("l2")
LINF = NormKind("linf")


def lp(p: float) -> NormKind:
    """The ell_p norm for 1 < p < oo (p = 2 gives ``L2``, p = inf ``LINF``)."""
    p = float(p)
    if p == 2.0:
        return L2
    if np.isinf(p):
        return LINF
    return NormKind("lp", p)


@dataclass(frozen=True)
class NormedSpace:
    """A finite truncation of a sequence space with a chosen norm."""

    dim: int
    norm: NormKind

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("space dimension must be >= 1")

    def dual(self) -> "NormedSpace":
        return NormedSpace(self.dim, self.norm.dual())


def _require_finite_vectors(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise InputError("vector has non-finite entries")


def _as_vector(v) -> np.ndarray:
    a = real_array(v, "vector entries")
    if a.ndim != 1:
        raise InputError(f"expected a vector, got shape {a.shape}")
    _require_finite_vectors(a)
    return a


def vector_norm(v, kind: NormKind) -> float:
    """The ell_p norm of ``v`` under ``kind``; zero iff v = 0."""
    a = _as_vector(v)
    if not a.size:
        return 0.0
    return float(batch_vector_norms(a[None], kind)[0])


def dual_norm(f, kind: NormKind) -> float:
    """Norm of the functional ``f`` on a space normed by ``kind``.

    Satisfies |<f, x>| <= dual_norm(f) * vector_norm(x), with equality
    attained by ``norming_vector(f, kind)``.
    """
    return vector_norm(f, kind.dual())


def norming_vector(z, kind: NormKind) -> np.ndarray:
    """A unit vector (in ``kind``) maximizing <z, x>; e_1 when z = 0."""
    return batch_norming_vectors(_as_vector(z)[None], kind)[0]


def batch_norming_vectors(rows: np.ndarray, kind: NormKind) -> np.ndarray:
    """``norming_vector`` of each row of a finite (m, d) array, bit for bit."""
    if kind.tag == "l1":  # a zero row picks +e_1 here
        i, j = np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)
        out = np.zeros(rows.shape)
        out[i, j] = np.where(rows[i, j] >= 0, 1.0, -1.0)
        return out
    zero = ~np.any(rows, axis=1)
    if kind.tag == "linf":
        out = np.where(rows >= 0, 1.0, -1.0)
    else:
        big = np.abs(rows).max(axis=1)
        zs = rows / np.where(zero, 1.0, big)[:, None]  # prescale so powers neither under- nor overflow
        if kind.tag == "l2":
            w = zs
        else:
            w = np.sign(zs) * np.abs(zs) ** (kind.dual().exponent - 1.0)
        out = w / np.where(zero, 1.0, batch_vector_norms(w, kind))[:, None]
    if zero.any():
        out[zero] = np.eye(1, rows.shape[1])
    return out


def require_finite(a: np.ndarray, what: str = "operator entries") -> None:
    """Refuse entries (of one matrix or a stack) that are not all finite,
    with an InputError that names them as ``what``."""
    if not np.isfinite(a).all():
        raise InputError(f"{what} must be finite")


def real_array(a, what: str, copy: bool = False) -> np.ndarray:
    """``a`` as a float64 array, a new one when ``copy``.  Complex entries
    are refused with an InputError that names them as ``what``: the cast
    would drop their imaginary parts."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise InputError(f"{what} must be real, got complex entries")
    return np.array(a, dtype=np.float64) if copy else a.astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense real matrix with the norms of its domain and codomain."""

    entries: np.ndarray
    domain_norm: NormKind
    codomain_norm: NormKind

    def __post_init__(self):
        a = real_array(self.entries, "operator entries", copy=True)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise InputError(f"operator entries must be a 2-d matrix, got shape {a.shape}")
        require_finite(a)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def apply(self, v) -> np.ndarray:
        v = _as_vector(v)
        if v.size != self.cols:
            raise InputError(f"operator of width {self.cols} applied to vector of length {v.size}")
        return self.entries @ v

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if not isinstance(other, DenseOperator):
            return NotImplemented
        if self.domain_norm != other.codomain_norm or self.cols != other.rows:
            raise InputError("operator composition with incompatible middle space")
        return DenseOperator(self.entries @ other.entries, other.domain_norm, self.codomain_norm)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        if not isinstance(other, DenseOperator):
            return NotImplemented
        self._require_same_spaces(other)
        return DenseOperator(self.entries + other.entries, self.domain_norm, self.codomain_norm)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        if not isinstance(other, DenseOperator):
            return NotImplemented
        self._require_same_spaces(other)
        return DenseOperator(self.entries - other.entries, self.domain_norm, self.codomain_norm)

    def _require_same_spaces(self, other: "DenseOperator"):
        if (self.entries.shape != other.entries.shape
                or self.domain_norm != other.domain_norm
                or self.codomain_norm != other.codomain_norm):
            raise InputError("operators live on different spaces")

    @staticmethod
    def on_space(entries, space: NormedSpace) -> "DenseOperator":
        return DenseOperator(entries, space.norm, space.norm)

    @staticmethod
    def identity(space: NormedSpace) -> "DenseOperator":
        return DenseOperator(np.eye(space.dim), space.norm, space.norm)


def batch_vector_norms(rows: np.ndarray, kind: NormKind) -> np.ndarray:
    """``vector_norm`` of each row of a (m, d) array, bit for bit."""
    if kind.tag == "l1":
        return np.abs(rows).sum(axis=1)
    if kind.tag == "linf":
        return np.abs(rows).max(axis=1)
    if kind.tag == "l2":  # one BLAS dot per row, as np.linalg.norm takes for one vector
        return np.sqrt(_row_dots(rows, rows))
    # generic lp, each row scaled by its largest entry against overflow
    big = np.abs(rows).max(axis=1)
    sums = (np.abs(rows / np.where(big > 0.0, big, 1.0)[:, None]) ** kind.p).sum(axis=1)
    # scalar powers: numpy's array power may round the root differently
    return big * np.array([s ** (1.0 / kind.p) for s in sums.tolist()])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> per row, as the one BLAS dot ``a_i @ b_i`` takes."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def batch_opnorm_values(mats: np.ndarray, domain: NormKind,
                        codomain: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) operator norms of a (m, r, c) stack: exact for the three
    same-kind cases (lo is hi), else ``batch_ascent`` lower bounds and +inf.
    For a single matrix this is the same code path as ``operator_norm``, so
    repeated evaluations are bit-for-bit reproducible."""
    return _opnorm_values(mats, domain, codomain, None)[:2]


def _opnorm_values(mats: np.ndarray, domain: NormKind, codomain: NormKind,
                   scratch: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``batch_opnorm_values`` and the ascent's witnesses (None where the
    norms are exact), with l1/linf's |entries| written into ``scratch`` (a
    C-contiguous stack of ``mats``' shape, or None for a new one)."""
    if domain != codomain or not domain.is_exact_kind:
        values, witnesses = batch_ascent(mats, domain, codomain)
        return values, np.full(len(values), np.inf), witnesses
    if domain.tag == "l2":
        values = np.linalg.svd(mats, compute_uv=False)[..., 0]
    else:
        values = np.abs(mats, out=scratch).sum(axis=1 if domain.tag == "l1" else 2).max(axis=1)
    return values, values, None


@functools.lru_cache(maxsize=64)
def _ascent_starts(d_in: int, domain: NormKind) -> np.ndarray:
    """The ascent's unit starting vectors: basis vectors, then seeded draws."""
    seeds = list(np.eye(d_in)[:ASCENT_STARTS])
    rng = np.random.default_rng(_ASCENT_SEED)
    while len(seeds) < ASCENT_STARTS:
        v = rng.standard_normal(d_in)
        if np.any(v):
            seeds.append(v)
    starts = np.array([s / vector_norm(s, domain) for s in seeds])
    starts.flags.writeable = False
    return starts


def _mat_vecs(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mats[i] @ vecs[i]`` per row, one BLAS gemv each (a gemm may round differently).

    Overflow is not warned about: the ascent refuses non-finite products.
    """
    with np.errstate(over="ignore"):
        return np.matmul(mats, vecs[..., None])[..., 0]


def batch_ascent(mats: np.ndarray, domain: NormKind,
                 codomain: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """Multi-start duality ascent on ||Mx|| / ||x|| for a (m, r, c) stack.

    Returns (values, witnesses), lower bounds with an attaining unit vector
    per matrix.  Every (matrix, start) climb alternates norming vectors of
    ``M x`` and ``M^T g`` while the value grows by more than a relative
    1e-14, for at most ``ASCENT_MAX_STEPS`` steps; the climbs advance in
    lockstep, in chunks of whole matrices of about ``_ASCENT_CELLS`` gathered
    entries.  Each matrix keeps its first largest start.  A climb meets the
    same arithmetic whatever stack it sits in, so each value and witness is
    the one this returns for its matrix alone.  Raises InputError when a
    vector of a climb is not finite.
    """
    m, r, c = mats.shape
    starts, dual = _ascent_starts(c, domain), codomain.dual()
    n_s = len(starts)
    values = np.zeros(m)
    witnesses = np.empty((m, c))
    per = max(1, _ASCENT_CELLS // (r * c * n_s))  # whole matrices per chunk
    for lo in range(0, m, per):
        hi = min(lo + per, m)
        owner = np.repeat(np.arange(lo, hi), n_s)
        x = np.tile(starts, (hi - lo, 1))
        y = _mat_vecs(mats[owner], x)
        _require_finite_vectors(y)
        val = batch_vector_norms(y, codomain)
        live = np.arange(len(owner))
        for _ in range(ASCENT_MAX_STEPS):
            a = mats[owner[live]]
            g = batch_norming_vectors(y[live], dual)
            z = _mat_vecs(a.transpose(0, 2, 1), g)
            _require_finite_vectors(z)
            x_new = batch_norming_vectors(z, domain)
            y_new = _mat_vecs(a, x_new)
            _require_finite_vectors(y_new)
            val_new = batch_vector_norms(y_new, codomain)
            up = val_new > val[live] * (1.0 + 1e-14)
            live = live[up]
            if not live.size:
                break
            x[live], y[live], val[live] = x_new[up], y_new[up], val_new[up]
        best = val.reshape(-1, n_s).argmax(axis=1)
        values[lo:hi] = val.reshape(-1, n_s).max(axis=1)
        witnesses[lo:hi] = x.reshape(-1, n_s, c)[np.arange(hi - lo), best]
    return values, witnesses


def operator_norm(M: DenseOperator) -> Bound:
    """The operator norm of ``M`` between its domain and codomain norms.

    l1 -> l1 is the maximum column absolute sum (witness e_j), linf -> linf
    the maximum row absolute sum (witness the row's sign pattern), l2 -> l2
    the top singular value (witness the right singular vector); anything
    else is a multi-start ascent lower bound, bracketed as in ``batch_opnorm_values``.
    """
    a = M.entries
    lo, hi, witnesses = _opnorm_values(a[None], M.domain_norm, M.codomain_norm, None)
    if witnesses is not None:
        witness = witnesses[0]
    elif M.domain_norm.tag == "l1":
        witness = np.zeros(M.cols)
        witness[int(np.argmax(np.abs(a).sum(axis=0)))] = 1.0
    elif M.domain_norm.tag == "linf":
        witness = np.where(a[int(np.argmax(np.abs(a).sum(axis=1)))] >= 0, 1.0, -1.0)
    else:
        witness = np.linalg.svd(a)[2][0]
    return Bound(float(lo[0]), hi=float(hi[0]), witness=witness)


@dataclass(frozen=True, eq=False)
class BatchInverse:
    """Guarded inverses of an (m, d, d) stack, one verdict per matrix.

    ``cond`` is numpy's 2-norm condition number where ``condition_capped``
    took it, and NaN for the matrices its residual certificate cleared
    (their condition number is at most ``DEFAULT_COND_CAP``/100); a matrix
    is refused by the cap exactly where ``cond > DEFAULT_COND_CAP``.
    ``residual`` is the max-norm residual ``|I - A X|`` (or ``|I - X A|``)
    of the refined inverse, NaN where no inverse counts (condition cap
    exceeded or ``solve`` failed).  ``inverses`` holds zeros where
    ``accepted`` is false.  ``solve_errors`` maps the index of each
    uncapped matrix ``solve`` refused to LAPACK's message.
    """

    inverses: np.ndarray
    accepted: np.ndarray
    cond: np.ndarray
    residual: np.ndarray
    solve_errors: dict[int, str]

    def reason(self, i: int) -> str | None:
        """Why matrix ``i`` was rejected (``invert``'s message), None if accepted."""
        if self.accepted[i]:
            return None
        if self.cond[i] > DEFAULT_COND_CAP:
            return f"condition number {self.cond[i]:.3e} exceeds cap {DEFAULT_COND_CAP:.1e}"
        if i in self.solve_errors:
            return self.solve_errors[i]
        return f"inversion residual {self.residual[i]:.3e} above {INVERT_RESIDUAL_TOL:.1e}"


def condition_capped(mats: np.ndarray, fro2: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """The condition numbers that decide ``cond(A) > DEFAULT_COND_CAP`` for
    each matrix of an (m, d, d) stack, with an SVD only where a residual
    certificate cannot decide it: NaN for each matrix the certificate
    cleared, numpy's ``cond`` (+inf when singular) for the rest.

    ``fro2`` holds ||A||_F^2 ||X||_F^2 for an approximate inverse X of each
    matrix, and ``residual`` the max-norm of its residual, ``I - A X`` or
    ``I - X A`` (NaN where there is none).  q = d (res + gamma_{d+1} (1 +
    ||A||_F ||X||_F)) bounds the 2-norm of the exact residual, rounding of
    the computed one included, and q <= 1/2 gives kappa_2(A) <= 2 ||A||_F
    ||X||_F (Higham 2002, section 3.5 and ch. 14).  A matrix with q <= 1/2
    and ||A||_F ||X||_F at most ``DEFAULT_COND_CAP``/200 is cleared: its
    kappa_2 is at most ``DEFAULT_COND_CAP``/100, and LAPACK's singular
    values are off by at most p(d) eps sigma_1, which keeps numpy's
    ``cond`` below the cap too.  Every other matrix gets ``np.linalg.cond``,
    so ``cond > DEFAULT_COND_CAP`` is the plain cap test's verdict.  A
    matrix that is not finite is never cleared, and raises InputError before
    any SVD is taken.
    """
    cleared = (fro2 <= _CLEAR_FRO ** 2) & (residual <= _clear_residual(mats.shape[-1]))
    cond = np.full(len(mats), np.nan)
    if not cleared.all():
        require_finite(mats)  # a non-finite matrix is never cleared
        cond[~cleared] = np.linalg.cond(mats[~cleared])
    return cond


def _clear_residual(d: int) -> float:
    """The largest residual whose q is at most 1/2 for every ||A||_F ||X||_F
    up to ``_CLEAR_FRO``, at dimension d."""
    gamma = (d + 1) * _UNIT_ROUNDOFF / (1.0 - (d + 1) * _UNIT_ROUNDOFF)  # Higham's gamma_{d+1}
    return 0.5 / d - gamma * (1.0 + _CLEAR_FRO)


def _all_at_most(values: np.ndarray, limit: float) -> bool:
    """Whether every entry of a 1-d array is at most ``limit`` (none is NaN),
    by a scalar test on an array of one."""
    if len(values) == 1:
        return bool(values[0] <= limit)
    return bool(values.max(initial=-np.inf) <= limit)


@functools.lru_cache(maxsize=64)
def _identity(d: int) -> np.ndarray:
    """The read-only d x d identity, built once per d: the kernels that
    invert one small matrix per call would otherwise spend a tenth of it
    on ``np.eye``."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _solve_identity(a: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """(A^-1 per matrix by LU solve, {position: message} of the ones it refused).

    One singular pivot makes the stacked ``inv`` (``gesv`` on the identity)
    raise for the whole stack, so the stack is then solved matrix by matrix
    (the same LAPACK call each).
    """
    try:
        return np.linalg.inv(a), {}
    except np.linalg.LinAlgError:
        x, errors = np.zeros_like(a), {}
        for i, mat in enumerate(a):
            try:
                x[i] = np.linalg.inv(mat)
            except np.linalg.LinAlgError as exc:
                errors[i] = str(exc)
        return x, errors


def batch_invert(mats: np.ndarray) -> BatchInverse:
    """Guarded inversion of every matrix of an (m, d, d) stack.

    A matrix is accepted when its condition number is finite and at most
    ``DEFAULT_COND_CAP``, ``solve`` succeeds, and Newton refinement (up to
    four steps, tracked per matrix) brings the max-norm residual to
    ``INVERT_RESIDUAL_TOL``.  The stack is solved first, and
    ``condition_capped`` decides the cap from each solution's residual,
    with an SVD only of the matrices that residual cannot clear; only the
    matrices under the cap are refined.  So each verdict and message is the
    one of testing ``np.linalg.cond`` first.  When a zero pivot refuses the
    stacked solve, every matrix waits for the cap unsolved (so each gets an
    SVD), and those under it are solved then.  Each matrix meets the same
    LAPACK calls and the same refinement steps whatever stack it sits in,
    so its inverse is bit-for-bit the one ``invert`` returns for it alone.
    Raises InputError when an entry of the stack, or of an accepted
    inverse, is not finite.
    """
    return _batch_invert(mats, np.empty(np.shape(mats)), np.empty(np.shape(mats)))


def _batch_invert(mats: np.ndarray, r: np.ndarray, t: np.ndarray, left: bool = False,
                  tol: float = INVERT_RESIDUAL_TOL) -> BatchInverse:
    """``batch_invert``, with the stack's residuals written into ``r`` and
    its products and |residuals| into ``t``: C-contiguous stacks of
    ``mats``' shape that overlap neither ``mats`` nor each other.  ``left``
    takes the residual I - X A and the Newton step X <- X + (I - X A) X for
    I - A X and X <- X + X (I - A X), and ``tol`` is the residual an inverse
    must reach.  On the left an X that overflows (a NaN residual) refuses
    its matrix; on the right it is accepted and refused as input.  Only
    ``solve``'s result, and the steps of the matrices that need refining or
    solving one by one, are new arrays; the inverses are that result itself
    when every matrix is accepted.

    The all-cleared exit, which every accepted one-matrix call and nearly
    every table chunk takes, costs one ``inv``, one product and residual
    with its max, the two Frobenius products and one test: the certificate
    clears every matrix, and no residual needs a Newton step."""
    eye = _identity(mats.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # above the cap, X may overflow
        try:
            x, stacked = np.linalg.inv(mats), True
        except np.linalg.LinAlgError:  # a zero pivot refuses the stacked solve
            x, stacked = np.zeros_like(mats), False
            residual = np.full(len(mats), np.nan)
        else:
            np.subtract(eye, np.matmul(x, mats, out=t) if left else np.matmul(mats, x, out=t),
                        out=r)
            residual = np.abs(r, out=t).max(axis=(1, 2))
        fro2 = np.einsum("mij,mij->m", mats, mats) * np.einsum("mij,mij->m", x, x)
        # the all-cleared exit
        if (_all_at_most(fro2, _CLEAR_FRO ** 2)
                and _all_at_most(residual, min(tol, _clear_residual(mats.shape[-1])))):
            return BatchInverse(x, residual <= tol, np.full(len(mats), np.nan), residual, {})
        cond = condition_capped(mats, fro2, residual)

        def residuals(idx):  # the residuals into r, and their max-norms, for idx
            r[idx] = eye - (x[idx] @ mats[idx] if left else mats[idx] @ x[idx])
            return np.abs(r[idx]).max(axis=(1, 2))

        solved = np.full(len(mats), stacked)
        capped = cond > DEFAULT_COND_CAP
        errors = {}
        late = np.flatnonzero(~solved & ~capped)
        if late.size:  # the stacked solve was refused: solve those under the cap
            x[late], errors = _solve_identity(mats[late])
            errors = {int(late[i]): msg for i, msg in errors.items()}
            solved[late] = True
            solved[list(errors)] = False
            residual[late] = residuals(late)
            residual[list(errors)] = np.nan
        live = np.flatnonzero(solved & ~capped)
        for _ in range(4):  # Newton steps
            live = live[~(residual[live] <= tol)]
            if not live.size:
                break
            x[live] = x[live] + (r[live] @ x[live] if left else x[live] @ r[live])
            residual[live] = residuals(live)
    residual[capped] = np.nan
    # the residual is NaN where capped or unsolved, and where X overflowed: on
    # the left that refuses the matrix, on the right require_finite refuses it
    accepted = residual <= tol if left else solved & ~capped & ~(residual > tol)
    inverses = x if accepted.all() else np.where(accepted[:, None, None], x, 0.0)
    require_finite(inverses)
    return BatchInverse(inverses, accepted, cond, residual, errors)


def invert(M: DenseOperator) -> DenseOperator:
    """Guarded inversion: M^-1 with max-norm residual at most 1e-9.

    A batch of one through ``batch_invert``.  Raises NotInvertible when the
    condition number exceeds ``DEFAULT_COND_CAP`` (numpy's ``cond``, taken
    only when the residual certificate of ``condition_capped`` cannot clear
    the matrix), ``solve`` fails, or Newton refinement cannot reach the
    residual tolerance.  The inverse maps the codomain back to the domain,
    so the norm tags swap.
    """
    if M.rows != M.cols:
        raise InputError(f"cannot invert a {M.rows}x{M.cols} operator")
    batch = batch_invert(M.entries[None])
    if not batch.accepted[0]:
        raise NotInvertible(batch.reason(0))
    return DenseOperator(batch.inverses[0], M.codomain_norm, M.domain_norm)
