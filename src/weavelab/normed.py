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
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInvertible

DEFAULT_COND_CAP = 1e12
INVERT_RESIDUAL_TOL = 1e-9
ASCENT_STARTS = 64

_ASCENT_SEED = 7  # fixed: operator_norm must be a pure function of its input


class Exactness(enum.Enum):
    """Provenance of a computed value."""

    EXACT = "exact"
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"


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


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise InputError(f"expected a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("vector has non-finite entries")
    return a


def vector_norm(v, kind: NormKind) -> float:
    """The ell_p norm of ``v`` under ``kind``; zero iff v = 0."""
    a = _as_vector(v)
    if kind.tag == "l1":
        return float(np.abs(a).sum())
    if kind.tag == "linf":
        return float(np.abs(a).max()) if a.size else 0.0
    if kind.tag == "l2":
        return float(np.linalg.norm(a))
    # generic lp, with overflow guard
    m = float(np.abs(a).max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float((np.abs(a / m) ** kind.p).sum() ** (1.0 / kind.p))


def dual_norm(f, kind: NormKind) -> float:
    """Norm of the functional ``f`` on a space normed by ``kind``.

    Satisfies |<f, x>| <= dual_norm(f) * vector_norm(x), with equality
    attained by ``norming_vector(f, kind)``.
    """
    return vector_norm(f, kind.dual())


def norming_vector(z, kind: NormKind) -> np.ndarray:
    """A unit vector (in ``kind``) maximizing <z, x>; e_1 when z = 0."""
    z = _as_vector(z)
    d = z.size
    if not np.any(z):
        e = np.zeros(d)
        e[0] = 1.0
        return e
    if kind.tag == "l1":
        j = int(np.argmax(np.abs(z)))
        e = np.zeros(d)
        e[j] = 1.0 if z[j] >= 0 else -1.0
        return e
    if kind.tag == "linf":
        return np.where(z >= 0, 1.0, -1.0)
    scale = np.abs(z).max()  # prescale so powers neither under- nor overflow
    if kind.tag == "l2":
        w = z / scale
        return w / np.linalg.norm(w)
    q = kind.dual().exponent
    zs = z / scale
    w = np.sign(zs) * np.abs(zs) ** (q - 1.0)
    return w / vector_norm(w, kind)


def require_finite(a: np.ndarray) -> None:
    """Refuse operator entries (one matrix or a stack) that are not all finite."""
    if not np.all(np.isfinite(a)):
        raise InputError("operator entries must be finite")


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense real matrix with the norms of its domain and codomain."""

    entries: np.ndarray
    domain_norm: NormKind
    codomain_norm: NormKind

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.float64)
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


@dataclass(frozen=True, eq=False)
class OpNormResult:
    """An operator norm value with its provenance and an attaining witness."""

    value: float
    exactness: Exactness
    witness: np.ndarray


def batch_vector_norms(rows: np.ndarray, kind: NormKind) -> np.ndarray:
    """Norms of each row of a (m, d) array."""
    if kind.tag == "l1":
        return np.abs(rows).sum(axis=1)
    if kind.tag == "linf":
        return np.abs(rows).max(axis=1)
    if kind.tag == "l2":
        return np.linalg.norm(rows, axis=1)
    return np.array([vector_norm(r, kind) for r in rows])


def batch_opnorm_values(mats: np.ndarray, domain: NormKind, codomain: NormKind) -> np.ndarray:
    """Operator norm values for a (m, r, c) stack of matrices.

    Exact for the three same-kind cases, multi-start ascent lower bounds
    otherwise.  For a single matrix this is the same code path as
    ``operator_norm``, so repeated evaluations are bit-for-bit reproducible.
    """
    if domain == codomain:
        if domain.tag == "l1":
            return np.abs(mats).sum(axis=1).max(axis=1)
        if domain.tag == "linf":
            return np.abs(mats).sum(axis=2).max(axis=1)
        if domain.tag == "l2":
            return np.linalg.svd(mats, compute_uv=False)[..., 0]
    return np.array([_ascent(m, domain, codomain)[0] for m in mats])


def _ascent(entries: np.ndarray, domain: NormKind, codomain: NormKind,
            max_iter: int = 100) -> tuple[float, np.ndarray]:
    """Multi-start duality ascent on ||Mx|| / ||x||; returns (value, witness)."""
    d_in = entries.shape[1]
    seeds = []
    for j in range(min(d_in, ASCENT_STARTS)):
        e = np.zeros(d_in)
        e[j] = 1.0
        seeds.append(e)
    rng = np.random.default_rng(_ASCENT_SEED)
    while len(seeds) < ASCENT_STARTS:
        v = rng.standard_normal(d_in)
        if np.any(v):
            seeds.append(v)
    best_val = 0.0
    best_x = seeds[0]
    for s in seeds:
        x = s / vector_norm(s, domain)
        val = vector_norm(entries @ x, codomain)
        for _ in range(max_iter):
            y = entries @ x
            g = norming_vector(y, codomain.dual())
            x_new = norming_vector(entries.T @ g, domain)
            val_new = vector_norm(entries @ x_new, codomain)
            if not val_new > val * (1.0 + 1e-14):
                break
            x, val = x_new, val_new
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


def operator_norm(M: DenseOperator) -> OpNormResult:
    """The operator norm of ``M`` between its domain and codomain norms.

    l1 -> l1 is the maximum column absolute sum (witness e_j), linf -> linf
    the maximum row absolute sum (witness the row's sign pattern), l2 -> l2
    the top singular value (witness the right singular vector); anything
    else is a multi-start ascent lower bound.
    """
    a = M.entries
    if M.domain_norm == M.codomain_norm and M.domain_norm.is_exact_kind:
        kind = M.domain_norm
        value = float(batch_opnorm_values(a[None], kind, kind)[0])
        if kind.tag == "l1":
            j = int(np.argmax(np.abs(a).sum(axis=0)))
            witness = np.zeros(M.cols)
            witness[j] = 1.0
        elif kind.tag == "linf":
            i = int(np.argmax(np.abs(a).sum(axis=1)))
            witness = np.where(a[i] >= 0, 1.0, -1.0)
        else:
            witness = np.linalg.svd(a)[2][0]
        return OpNormResult(value, Exactness.EXACT, witness)
    value, witness = _ascent(a, M.domain_norm, M.codomain_norm)
    return OpNormResult(float(value), Exactness.LOWER_BOUND, witness)


@dataclass(frozen=True, eq=False)
class BatchInverse:
    """Guarded inverses of an (m, d, d) stack, one verdict per matrix.

    ``cond`` is each matrix's 2-norm condition number.  ``residual`` is the
    max-norm residual ``|I - A X|`` of the refined inverse, NaN where no
    inverse was computed (condition cap exceeded or ``solve`` failed).
    ``inverses`` holds zeros where ``accepted`` is false.  ``solve_errors``
    maps the index of each matrix ``solve`` refused to LAPACK's message.
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
        cond = self.cond[i]
        if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
            return f"condition number {cond:.3e} exceeds cap {DEFAULT_COND_CAP:.1e}"
        if i in self.solve_errors:
            return self.solve_errors[i]
        return f"inversion residual {self.residual[i]:.3e} above {INVERT_RESIDUAL_TOL:.1e}"


def _solve_identity(a: np.ndarray, eye: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """(A^-1 per matrix by LU solve, {position: message} of the ones it refused).

    One singular pivot makes the stacked solve raise for the whole stack, so
    the stack is then solved matrix by matrix (the same LAPACK call each).
    """
    try:
        return np.linalg.solve(a, eye), {}
    except np.linalg.LinAlgError:
        x = np.zeros_like(a)
        errors = {}
        for i, mat in enumerate(a):
            try:
                x[i] = np.linalg.solve(mat, eye)
            except np.linalg.LinAlgError as exc:
                errors[i] = str(exc)
        return x, errors


def batch_invert(mats: np.ndarray) -> BatchInverse:
    """Guarded inversion of every matrix of an (m, d, d) stack.

    A matrix is accepted when its condition number is finite and at most
    ``DEFAULT_COND_CAP``, ``solve`` succeeds, and Newton refinement (up to
    five steps, tracked per matrix) brings the max-norm residual to
    ``INVERT_RESIDUAL_TOL``.  Each matrix meets the same LAPACK calls and
    the same refinement steps whatever stack it sits in, so its inverse
    is bit-for-bit the one ``invert`` returns for it alone.  Raises
    InputError when an entry of the stack, or of an accepted inverse, is
    not finite.
    """
    require_finite(mats)
    m, d = mats.shape[0], mats.shape[-1]
    inverses = np.zeros_like(mats)
    accepted = np.zeros(m, dtype=bool)
    residual = np.full(m, np.nan)
    solve_errors = {}
    cond = np.linalg.cond(mats)
    idx = np.flatnonzero(np.isfinite(cond) & (cond <= DEFAULT_COND_CAP))
    eye = np.eye(d)
    if idx.size:
        a = mats[idx]
        x, errors = _solve_identity(a, eye)
        solve_errors = {int(idx[i]): msg for i, msg in errors.items()}
        solved = np.ones(len(idx), dtype=bool)
        solved[list(errors)] = False
        a, x, idx = a[solved], x[solved], idx[solved]
        res = np.full(len(idx), np.inf)
        live = np.arange(len(idx))
        for _ in range(5):
            r = eye - a[live] @ x[live]
            res[live] = np.abs(r).max(axis=(1, 2))
            step = ~(res[live] <= INVERT_RESIDUAL_TOL)
            live, r = live[step], r[step]
            if not live.size:
                break
            x[live] = x[live] + x[live] @ r
        keep = ~(res > INVERT_RESIDUAL_TOL)  # as in a scalar loop, NaN is not above
        inverses[idx[keep]] = x[keep]
        accepted[idx] = keep
        residual[idx] = res
    require_finite(inverses)
    return BatchInverse(inverses, accepted, cond, residual, solve_errors)


def invert(M: DenseOperator) -> DenseOperator:
    """Guarded inversion: M^-1 with max-norm residual at most 1e-9.

    A batch of one through ``batch_invert``.  Raises NotInvertible when the
    condition number exceeds ``DEFAULT_COND_CAP``, ``solve`` fails, or
    Newton refinement cannot reach the residual tolerance.  The inverse
    maps the codomain back to the domain, so the norm tags swap.
    """
    if M.rows != M.cols:
        raise InputError(f"cannot invert a {M.rows}x{M.cols} operator")
    batch = batch_invert(M.entries[None])
    if not batch.accepted[0]:
        raise NotInvertible(batch.reason(0))
    return DenseOperator(batch.inverses[0], M.codomain_norm, M.domain_norm)
