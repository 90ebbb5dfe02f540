"""Frame systems over normed truncations.

A :class:`FrameSystem` holds n (vector, functional) pairs over a
:class:`~weavelab.normed.NormedSpace`.  This module computes the frame
operator, the approximate-frame verdict, biorthogonal functionals, basis
constants, suppression and sign unconditionality constants, square
functions, and equivalence constants between bases.

Subset and sign searches share one canonical evaluation path (gather rows
of a precomputed table of outer products, pairwise-sum, take a norm), so
exhaustive tables, heuristic probes, and reported winners are bit-for-bit
consistent with each other.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import search
from .errors import InputError, NotABasis, NotAFrame, NotInvertible
from .normed import (DEFAULT_COND_CAP, BatchInverse, Bound, DenseOperator, NormedSpace,
                     _batch_invert, _identity, _opnorm_values, batch_opnorm_values, invert,
                     operator_norm, real_array, require_finite)
from .search import EXHAUSTIVE, SearchMode, heuristic  # heuristic is re-exported

BIORTHOGONAL_TOL = 1e-10
LEVEL_CELLS = 2 ** 13  # floats of plain summing that cost about one pattern_sums level


@dataclass(frozen=True, eq=False)
class Basis:
    """A (candidate) basis: d vectors over a d-dimensional space."""

    space: NormedSpace
    vectors: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = real_array(self.vectors, "basis vectors", copy=True)
        if v.ndim != 2 or v.shape[0] < 1:
            raise InputError("basis vectors must form a (n, dim) array")
        if v.shape[1] != self.space.dim:
            raise InputError(f"vectors of length {v.shape[1]} in a dim-{self.space.dim} space")
        require_finite(v, "basis vectors")
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
        v = real_array(self.vectors, "frame system entries")
        f = real_array(self.functionals, "frame system entries")
        if v.ndim != 2 or f.ndim != 2:
            raise InputError("vectors and functionals must be (n, dim) arrays")
        if v.shape != f.shape:
            raise InputError(f"vectors {v.shape} and functionals {f.shape} differ in shape")
        if v.shape[0] < 1:
            raise InputError("a frame system needs at least one pair")
        if v.shape[1] != self.space.dim:
            raise InputError(f"pairs of length {v.shape[1]} in a dim-{self.space.dim} space")
        pairs = np.empty((2,) + v.shape)  # copies of both, checked and frozen as one array
        pairs[0], pairs[1] = v, f
        require_finite(pairs, "frame system entries")
        pairs.flags.writeable = False
        object.__setattr__(self, "vectors", pairs[0])
        object.__setattr__(self, "functionals", pairs[1])

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def scaled_functionals(self, factor: float) -> "FrameSystem":
        return FrameSystem(self.space, self.vectors, factor * self.functionals,
                           label=self.label)


@dataclass(frozen=True, eq=False)
class ConstantReport:
    """Constants of one system: frame bounds plus optional refinements."""

    s_norm: Bound | None
    s_inv_norm: Bound | None
    c_frame: float
    verdict: str  # "frame" | "not_a_frame"
    c_suppression: Bound | None = None
    c_unconditional: Bound | None = None
    basis_constant: Bound | None = None


def outer_stack(vectors: np.ndarray, functionals: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of rank-one terms x_i f_i^T, or an (m, n, d, d) stack
    of them for (m, n, d) stacks of pairs; InputError if a term overflows."""
    with np.errstate(over="ignore"):
        stack = vectors[..., :, None] * functionals[..., None, :]
    require_finite(stack)
    return stack


def subset_sum(stack: np.ndarray, indices) -> np.ndarray:
    """sum_{i in Gamma} stack[i - 1] over the distinct 1-based indices of
    Gamma, in increasing order; zeros for the empty set.  InputError for an
    index that is not a whole number or is out of range."""
    indices = list(indices)
    if not all(isinstance(i, numbers.Integral) or isinstance(i, numbers.Real)
               and float(i).is_integer() for i in indices):
        raise InputError(f"indices must be whole numbers, got {indices!r}")
    idx = np.array(sorted(set(int(i) for i in indices)), dtype=np.intp)
    if idx.size and (idx[0] < 1 or idx[-1] > len(stack)):
        raise InputError(f"indices out of range 1..{len(stack)}")
    return np.add.reduce(stack[idx - 1], axis=0)


def frame_operator(system: FrameSystem) -> DenseOperator:
    """S = sum_i x_i f_i^T; the identity for a basis with its biorthogonals."""
    s = np.add.reduce(outer_stack(system.vectors, system.functionals), axis=0)
    return DenseOperator.on_space(s, system.space)


def frame_constants(entries: np.ndarray, space: NormedSpace
                    ) -> tuple[Bound, Bound | None, float]:
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

    ``vectors`` holds the basis as rows.  Raises InputError for an entry
    that is complex or not finite, and NotABasis for input that is not one
    square family of at least one vector, for a basis matrix over the
    condition cap, when ``solve`` fails, or for a residual that is not at
    most ``BIORTHOGONAL_TOL`` after up to four Newton steps, checked in that
    order.  A stack of one through ``batch_biorthogonals``'s kernel call.
    """
    inv = _left_inverses(_families(vectors, 2)[None])
    if not inv.accepted[0]:
        raise NotABasis(_refusal(inv, 0))
    return inv.inverses[0]


def batch_biorthogonals(vectors: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """``biorthogonals`` of each basis of an (m, d, d) stack of vector rows:
    (duals, refused), where ``refused`` maps the position of each family that
    ``biorthogonals`` refuses to its NotABasis message, and its duals are
    zeros.

    The duals are the left inverses X of the basis matrices B (the vectors
    as columns) under ``batch_invert``'s guard, with the residual I - X B
    and ``BIORTHOGONAL_TOL``, so each family's duals and message are bit for
    bit the ones ``biorthogonals`` gives it, whatever stack it sits in.
    """
    inv = _left_inverses(_families(vectors, 3))
    if inv.accepted.all():
        return inv.inverses, {}
    return inv.inverses, {i: _refusal(inv, i) for i in np.flatnonzero(~inv.accepted).tolist()}


def _families(vectors, ndim: int) -> np.ndarray:
    """``vectors`` as float64 square families of at least one vector, one
    (ndim 2) or a stack (ndim 3); InputError for complex entries, NotABasis
    for any other shape."""
    v = real_array(vectors, "basis vectors")
    if v.ndim != ndim or v.shape[-1] != v.shape[-2] or not v.shape[-1]:
        shape = v.shape[1:] if v.ndim == ndim == 3 else v.shape
        raise NotABasis(f"need a square vector family, got shape {shape}")
    return v


def _left_inverses(families: np.ndarray) -> BatchInverse:
    """The kernel call of ``batch_biorthogonals`` on an (m, d, d) stack of
    vector rows.  The kernel finds entries that are not finite only where
    some family is not cleared (no such family is), and they are refused as
    basis vectors."""
    b = families.transpose(0, 2, 1)  # columns are the basis vectors
    try:
        return _batch_invert(b, np.empty(b.shape), np.empty(b.shape), left=True,
                             tol=BIORTHOGONAL_TOL)
    except InputError:
        raise InputError("basis vectors must be finite") from None


def _refusal(inv: BatchInverse, i: int) -> str:
    """The NotABasis message of the refused family ``i``."""
    if inv.cond[i] > DEFAULT_COND_CAP:
        return f"vectors are dependent (condition number {inv.cond[i]:.3e})"
    if i in inv.solve_errors:
        return inv.solve_errors[i]
    # also a NaN residual, from duals that overflow
    return f"biorthogonality residual {inv.residual[i]:.3e} above {BIORTHOGONAL_TOL:.1e}"


def basis_constant(vectors: np.ndarray, space: NormedSpace,
                   duals: np.ndarray | None = None) -> Bound:
    """max_n ||P_n|| over the partial-sum projections P_n of a basis.

    InputError, before any arithmetic, for vectors that are not rows of
    length ``space.dim`` or duals of another shape than the vectors, and
    for complex entries."""
    v = real_array(vectors, "basis vectors")
    if v.ndim != 2 or v.shape[1] != space.dim:
        raise InputError(f"basis vectors of shape {v.shape} in a dim-{space.dim} space")
    if duals is None:
        duals = biorthogonals(v)
    else:
        duals = real_array(duals, "duals")
        if duals.shape != v.shape:
            raise InputError(f"duals of shape {duals.shape} for basis vectors of shape {v.shape}")
    lo, hi = projection_norms(v[None], duals[None], space.norm)
    k = int(lo[0].argmax())  # every projection is graded: search.bound's rule, inline
    return Bound(float(lo[0, k]), hi=float(hi[0].max()), witness=(k + 1,))


def projection_norms(vectors: np.ndarray, duals: np.ndarray,
                     kind) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) (m, n) tables of ||P_k||, k = 1..n, for the partial-sum
    projections of each basis of an (m, n, d) stack of vectors with their
    duals.  InputError when a term x_k f_k^T is not finite; a sum of finite
    terms that overflows reads +inf, without a warning."""
    with np.errstate(over="ignore"):  # outer_stack's terms inline: it would enter a second one
        terms = vectors[..., :, None] * duals[..., None, :]
        require_finite(terms)
        prefixes = np.add.accumulate(terms, axis=1)
    d = prefixes.shape[-1]
    lo, hi = batch_opnorm_values(prefixes.reshape(-1, d, d), kind, kind)
    return lo.reshape(prefixes.shape[:2]), hi.reshape(prefixes.shape[:2])


def pattern_sums(on: np.ndarray, off: np.ndarray | float, ms: np.ndarray) -> np.ndarray:
    """Per pattern index in ``ms``: the sum over i of ``on[i]`` where bit i
    is set and ``off[i]`` where it is not (bit 0 is the most significant).

    ``on`` is an (n, r, c) stack (d x d operators, or several laid side by
    side as (n, p d, d)); ``off`` is a stack of the same shape or a scalar.
    Weaving tables and probes, subset and sign sums, and perturbation
    certificates all build their operators here, so exhaustive tables and
    single-pattern probes agree bit for bit.

    Each sum is 0.0 + term 0 + term 1 + ..., left to right, as
    ``np.add.reduce`` takes it over an outer axis.  Indices next to each
    other in ``ms`` share leading bits, so the terms of the top bits are
    reduced once per distinct prefix, and each later level adds one term
    to the partial sums of the distinct bit prefixes it extends: about two
    d x d additions per index of a run of consecutive ones instead of n.
    Every sum still gets the same additions in the same order, so it is
    bit for bit the plain reduce; a single index, or a chunk too small to
    pay for the levels' numpy calls, is exactly that reduce.  Any order of
    ``ms`` gives the same sums; ascending order shares the most.
    """
    terms = np.empty((len(on), 2) + on.shape[1:])
    terms[:, 0], terms[:, 1] = off, on
    return _pattern_sums(terms, ms, None)


def _gather(table: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``np.take`` of the rows ``idx`` of ``table``, into the front of the
    C-contiguous ``buf`` where they fit (the indices are in range, so "clip"
    writes there straight)."""
    size = idx.size * table[0].size
    out = buf.reshape(-1)[:size].reshape(idx.shape + table.shape[1:]) if size <= buf.size else None
    return np.take(table, idx, axis=0, out=out, mode="clip")


def _pattern_sums(terms: np.ndarray, ms: np.ndarray,
                  levels: list[np.ndarray] | None) -> np.ndarray:
    """``pattern_sums`` of an (n, 2, r, c) table, ``terms[i, b]`` the term
    of bit i = b, its levels gathered into ``levels``: two C-contiguous
    stacks of at least ``len(ms)`` cells (None for new ones) that take
    turns, so that the first holds the sums on return.  Terms are gathered
    by their bits into the second level where they fit, never selected."""
    n, cells = terms.shape[0], terms[0, 0].size
    bits = search.bit_rows(ms, n)
    if levels is None:
        levels = [np.empty((len(ms),) + terms.shape[2:]) for _ in range(2)]
    # Only the last levels are built, and none above the bits that every
    # index shares (all n of a single index): each built level halves the
    # floats, about len(ms) n cells, that the reduce above it sums, and is
    # worth its numpy calls while that saves LEVEL_CELLS floats.  numpy sums
    # the terms of a 1 x 1 cell pairwise, not left to right, so there every
    # sum stays one reduce.
    shared = n - int(np.bitwise_or.reduce(ms ^ ms[:1])).bit_length()
    depth = max(0, (len(bits) * n * cells // LEVEL_CELLS).bit_length() - 1)
    start = n if cells == 1 else max(0, shared, n - depth)
    # term i of a pattern is row 2 i + bit i of the flat (2 n, r, c) table
    flat = terms.reshape((2 * n,) + terms.shape[2:])
    heads = slice(None)  # every index, where no level is built
    if start < n:  # the bit where each index first leaves the one before (0 for a repeat)
        split = np.full(len(bits), -1)
        split[1:] = (bits[1:] != bits[:-1]).argmax(axis=1)
        heads = np.flatnonzero(split < start)  # the first index of each distinct start-bit prefix
    top = bits[heads, :start] + np.arange(0, 2 * start, 2)
    sums = levels[0][:len(top)]
    if cells == 1 or top.size * cells <= max(levels[1].size, search.CHUNK_BUDGET):
        np.add.reduce(_gather(flat, top, levels[1]), axis=1, out=sums)
    else:  # too large to gather: add term by term, from 0.0 as the reduce (-0.0 sums to +0.0)
        sums[...] = 0.0
        for i in range(start):
            np.add(sums, _gather(flat, top[:, i], levels[1]), out=sums)
    for j in range(start, n):
        children = np.flatnonzero(split <= j)
        sums = np.take(sums, np.searchsorted(heads, children, side="right") - 1, axis=0,
                       out=levels[1][:len(children)], mode="clip")
        levels.reverse()
        # each index takes its term, gathered into the free level
        np.add(sums, np.take(terms[j], bits[children, j], axis=0,
                             out=levels[1][:len(children)], mode="clip"), out=sums)
        heads = children
    return sums


class ChunkEvaluator:
    """The one row function of every pattern-sum table: it grades a chunk of
    pattern indices by their ``_pattern_sums`` over one (n, 2, r, c) table,
    the only copy of the terms, under the norm ``kind``, into the columns a
    caller asks for (``norms``, ``constants``, ``residuals``), the first two
    a (lo, hi) pair per quantity.

    The evaluator builds one workspace at its first chunk and keeps it to
    its end: the two pattern-sum levels that take turns and a third stack,
    each of ``search.chunk_size_for`` sums (at most 2^n).  The gathered
    terms, the pattern-sum levels, ``batch_invert``'s residuals and the
    l1/linf norms' temporaries are written into it, so a table does not
    free and regrow its working set on every chunk, and a climb's round
    allocates no stack of its terms.  Every value is bit for bit the one
    the kernels give the pattern alone.
    """

    def __init__(self, terms: np.ndarray, kind):
        self.terms = terms
        self.kind = kind
        self.rows = min(search.chunk_size_for(search.CELLS_PER_SUM * terms[0, 0].size),
                        1 << len(terms))
        self.workspace: tuple[list[np.ndarray], np.ndarray] | None = None  # (levels, spare)
        # cached for good, so taken before any workspace: first taken in a
        # chunk, it would sit above the workspace in the heap and keep the
        # heap from shrinking once the table is done
        self.eye = _identity(terms.shape[-1])

    @staticmethod
    def weavings(f0: FrameSystem, f1: FrameSystem) -> "ChunkEvaluator":
        """The evaluator of the frame operators S_sigma of the weavings of f0
        (bit 0) and f1 (bit 1), each ``outer_stack`` multiplied into its table."""
        terms = np.empty((f0.n, 2, f0.space.dim, f0.space.dim))
        with np.errstate(over="ignore"):
            for k, f in enumerate((f0, f1)):
                np.multiply(f.vectors[:, :, None], f.functionals[:, None, :], out=terms[:, k])
        require_finite(terms)
        return ChunkEvaluator(terms, f0.space.norm)

    def _sums(self, ms: np.ndarray, bits: slice = slice(None)):
        """(sums over the ``bits`` of the table, two free stacks of as many cells)."""
        if self.workspace is None:
            cell = (self.rows,) + self.terms.shape[2:]
            self.workspace = [np.empty(cell) for _ in range(2)], np.empty(cell)
        levels, spare = self.workspace
        sums = _pattern_sums(self.terms[bits], ms, levels)
        return sums, levels[1][:len(ms)], spare[:len(ms)]

    def _norms(self, mats: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _opnorm_values(mats, self.kind, self.kind, scratch)[:2]

    def norms(self, ms: np.ndarray, bits: slice = slice(None)) -> np.ndarray:
        """One row per pattern: the (lo, hi) pair of ||S_sigma|| for each
        d x d block of its sum over the ``bits`` of the table, in order."""
        sums, scratch, _ = self._sums(ms, bits)
        d = sums.shape[-1]
        return np.column_stack(self._norms(sums.reshape(-1, d, d),
                                           scratch.reshape(-1, d, d))).reshape(len(ms), -1)

    def constants(self, ms: np.ndarray) -> np.ndarray:
        """(len(ms), 4) rows: (lo, hi) of ||S_sigma||, then of ||S_sigma^-1||,
        +inf twice where ``batch_invert`` refuses S_sigma."""
        sums, r, t = self._sums(ms)
        inv = _batch_invert(sums, r, t)
        rows = np.full((len(ms), 4), np.inf)
        rows[:, 0], rows[:, 1] = self._norms(sums, t)
        inverses = inv.inverses if inv.accepted.all() else inv.inverses[inv.accepted]
        rows[inv.accepted, 2], rows[inv.accepted, 3] = self._norms(inverses, t[:len(inverses)])
        return rows

    def residuals(self, ms: np.ndarray, x: np.ndarray, limit: float) -> np.ndarray:
        """(len(ms), 2) rows of (||I - S_sigma X||, 1.0 where that is at most
        ``limit`` and ``batch_invert`` accepts S_sigma, else 0.0).  InputError
        when a residual is not finite."""
        sums, r, t = self._sums(ms)
        gap = np.subtract(self.eye, np.matmul(sums, x, out=t), out=r)
        require_finite(gap)
        res = self._norms(gap, t)[0]  # lo only: a certificate's residual is no bracket yet
        ok = res <= limit
        k = int(ok.sum())
        ok[ok] = _batch_invert(sums if k == len(ms) else sums[ok], r[:k], t[:k]).accepted
        return np.column_stack((res, ok))


def _frame_inverse(system: FrameSystem) -> np.ndarray:
    """S^-1 entries; NotAFrame when S is not invertible."""
    try:
        return invert(frame_operator(system)).entries
    except NotInvertible as exc:
        raise NotAFrame(f"frame operator not invertible: {exc}") from None


def _max_norms_over_patterns(stacks: np.ndarray, inverses: np.ndarray, signed: bool, kind,
                             mode: SearchMode, seed: int) -> tuple[np.ndarray, list[int]]:
    """Max of ||sum of the selected rows of g|| over bit patterns, for each
    g = stacks[j] @ inverses[j] of an (m, n, d, d) stack and an (m, d, d)
    stack: ((m, 2) rows of each one's (lo, hi), the index of each one's
    maximizing pattern).

    Subset patterns drop the unselected rows and signed patterns negate
    them; subset local search is seeded by greedy growth.  The first g is
    searched alone by ``search.maximize``.  If that stays exhaustive, the
    others share full tables, as many as ``search.CHUNK_BUDGET`` holds
    whole: laid side by side as one (n, p d, d) stack, whose pattern sums
    are each g's own bit for bit, since addition is elementwise.  A demoted
    search climbs one value, so there every g is searched alone.  An empty
    stack (m = 0, a chunk with no woven basis) searches nothing.
    """
    m, n, d = stacks.shape[:3]
    brackets, witnesses = np.empty((m, 2)), []

    def evaluator(lo: int, p: int) -> ChunkEvaluator:
        terms = np.empty((n, 2, p, d, d))  # g laid side by side as on_i, -g or 0 as off_i
        np.matmul(stacks[lo:lo + p], inverses[lo:lo + p, None],
                  out=terms[:, 1].transpose(1, 0, 2, 3))
        terms[:, 0] = 0.0
        if signed:
            np.negative(terms[:, 1], out=terms[:, 0])
        return ChunkEvaluator(terms.reshape(n, 2, p * d, d), kind)

    def alone(j: int) -> SearchMode:
        table = evaluator(j, 1)
        mode_used, best, ms, _ = search.maximize(n, table.norms, mode, seed, table.rows,
                                                 greedy=not signed)
        brackets[j] = best.value, best.hi
        witnesses.append(ms[best.witness])
        return mode_used

    if m and alone(0).kind == "exhaustive":  # each column pair's bound, all at once
        width = search.chunk_size_for(search.CELLS_PER_SUM * d * d << n)
        for lo in range(1, m, width):
            p = min(width, m - lo)
            table = evaluator(lo, p)
            rows = search.pattern_table(range(1 << n), table.norms, table.rows)
            brackets[lo:lo + p] = rows.max(axis=0).reshape(p, 2)
            witnesses += rows[:, 0::2].argmax(axis=0).tolist()
    else:
        for j in range(1, m):
            alone(j)
    return brackets, witnesses


def _max_norm_over_patterns(system: FrameSystem, signed: bool, mode: SearchMode,
                            seed: int) -> Bound:
    """``_max_norms_over_patterns`` of g = x_i f_i^T S^-1 for one system, as
    a Bound whose witness is the maximizing pattern's bits, or +-1 signs
    when ``signed``."""
    brackets, witnesses = _max_norms_over_patterns(
        outer_stack(system.vectors, system.functionals)[None], _frame_inverse(system)[None],
        signed, system.space.norm, mode, seed)
    bits = search.bits_of_index(witnesses[0], system.n)
    return Bound(float(brackets[0, 0]), hi=float(brackets[0, 1]),
                 witness=tuple(1 if b else -1 for b in bits) if signed else bits)


def suppression_constant(system: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                         seed: int = 0) -> Bound:
    """C_s: the worst ||P_Gamma S^-1|| over index subsets Gamma.

    Exhaustive mode enumerates all 2^n subsets (forced to heuristic above
    ``mode.cap``); heuristic mode runs greedy growth plus single-flip local
    search and reports a lower bound.
    """
    return _max_norm_over_patterns(system, False, mode, seed)


def unconditional_constant(system: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                           seed: int = 0) -> Bound:
    """C_u: the worst ||(sum_i eps_i x_i f_i^T) S^-1|| over signs eps."""
    return _max_norm_over_patterns(system, True, mode, seed)


def square_function(vectors: np.ndarray, coeffs, lattice_vectors: np.ndarray,
                    lattice_duals: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise square function against a 1-unconditional lattice basis.

    Expands (sum_i |a_i x_i|^2)^(1/2) in the lattice coordinates
    u*_j(x_i) and re-synthesizes along the lattice basis u_j.  InputError
    for complex entries.
    """
    v = real_array(vectors, "vectors")
    a = real_array(coeffs, "coefficients")
    if v.ndim != 2 or a.ndim != 1 or v.shape[0] != a.size:
        raise InputError("need one coefficient per vector")
    u = real_array(lattice_vectors, "lattice vectors")
    if lattice_duals is None:
        lattice_duals = biorthogonals(u)
    coords = v @ real_array(lattice_duals, "lattice duals").T  # (n, d): u*_j(x_i)
    s = np.sqrt(((a[:, None] * coords) ** 2).sum(axis=0))
    return s @ u


def equivalence_constants(basis0: np.ndarray, basis1: np.ndarray,
                          space: NormedSpace) -> tuple[float, float]:
    """Optimal (c, C) with c||sum a_j x_j|| <= ||sum a_j y_j|| <= C||sum a_j x_j||.

    The change-of-basis map is linear, so both constants are operator norms:
    C = ||X1 X0^-1|| and c = 1/||X0 X1^-1|| (exact for l1/l2/linf).
    InputError for complex entries.
    """
    x0 = real_array(basis0, "basis vectors").T
    x1 = real_array(basis1, "basis vectors").T
    try:
        x0_inv = invert(DenseOperator.on_space(x0, space)).entries
        x1_inv = invert(DenseOperator.on_space(x1, space)).entries
    except NotInvertible as exc:
        raise NotABasis(str(exc)) from None
    upper = operator_norm(DenseOperator.on_space(x1 @ x0_inv, space)).value
    lower = 1.0 / operator_norm(DenseOperator.on_space(x0 @ x1_inv, space)).value
    return lower, upper


def frame_report(system: FrameSystem, mode: SearchMode = EXHAUSTIVE,
                 seed: int = 0) -> ConstantReport:
    """Full constant report: frame bounds, C_s, C_u, and basis constant."""
    base = check_approximate_frame(system)
    if base.verdict != "frame":
        return base
    c_s = suppression_constant(system, mode, seed)
    c_u = unconditional_constant(system, mode, seed)
    basis_c = None
    if system.n == system.space.dim:
        try:
            basis_c = basis_constant(system.vectors, system.space)
        except NotABasis:
            basis_c = None
    return ConstantReport(base.s_norm, base.s_inv_norm, base.c_frame, base.verdict,
                          c_suppression=c_s, c_unconditional=c_u,
                          basis_constant=basis_c)
