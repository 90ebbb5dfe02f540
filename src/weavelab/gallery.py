"""Parameterized generators for the named systems and counterexample pairs,
at any truncation dimension, plus pipeline reports that reproduce the
qualitative phenomena at desk scale.

All generated bases are integer-valued (biorthogonals are dyadic), so the
algebraic identities they satisfy are exact in floating point.  c0 families
are emitted over the sup norm, which is isometric at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotABasis
from .normed import L1, LINF, NormedSpace
from .frames import (EXHAUSTIVE, Basis, FrameSystem, basis_constant,
                     biorthogonals, suppression_constant,
                     unconditional_constant)
from .weaving import WeavePattern, weave, weaving_basis_constants, worst_weaving
from .subspaces import SpannedSubspace, distance_to_span

GALLERY_NAMES = (
    "standard-l1", "standard-c0", "summing-c0", "difference-l1",
    "blockpair-a0", "blockpair-a1", "blockpair-a0-verbatim",
    "subspace-b0", "subspace-b1", "alternating",
)

_ALIASES = {"summing": "summing-c0", "standard": "standard-l1",
            "difference": "difference-l1"}


@dataclass(frozen=True)
class GallerySpec:
    """A gallery family name plus truncation dimension."""

    name: str
    dim: int
    as_frame: bool = True

    def __post_init__(self):
        name = _ALIASES.get(self.name, self.name)
        if name not in GALLERY_NAMES:
            raise InputError(f"unknown gallery name {self.name!r}; "
                             f"choose from {', '.join(GALLERY_NAMES)}")
        object.__setattr__(self, "name", name)
        if self.dim < 1:
            raise InputError("gallery dimension must be >= 1")


def _standard(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.eye(d), np.eye(d)


def _summing(d: int) -> tuple[np.ndarray, np.ndarray]:
    v = np.tril(np.ones((d, d)))
    f = np.eye(d)
    for j in range(d - 1):
        f[j, j + 1] = -1.0
    return v, f


def _difference(d: int) -> tuple[np.ndarray, np.ndarray]:
    v = np.eye(d)
    for n in range(1, d):
        v[n, n - 1] = -1.0
    f = np.triu(np.ones((d, d)))
    return v, f


def _blockpair_a0(d: int) -> tuple[np.ndarray, np.ndarray]:
    # odd slots carry e_{2n-1}, even slots the differences e_{2n} - e_{2n-1};
    # the published odd-slot formula (e_n) repeats vectors and is kept as the
    # separate verbatim family below.
    v = np.zeros((d, d))
    f = np.zeros((d, d))
    for i in range(1, d + 1):
        if i % 2 == 1:
            v[i - 1, i - 1] = 1.0
            f[i - 1, i - 1] = 1.0
            if i + 1 <= d:
                f[i - 1, i] = 1.0
        else:
            v[i - 1, i - 1] = 1.0
            v[i - 1, i - 2] = -1.0
            f[i - 1, i - 1] = 1.0
    return v, f


def _blockpair_a0_verbatim(d: int) -> np.ndarray:
    # x_{2n-1} = e_n, x_{2n} = e_{2n} - e_{2n-1}: dependent for d >= 4
    v = np.zeros((d, d))
    for i in range(1, d + 1):
        if i % 2 == 1:
            n = (i + 1) // 2
            v[i - 1, n - 1] = 1.0
        else:
            v[i - 1, i - 1] = 1.0
            v[i - 1, i - 2] = -1.0
    return v


def _blockpair_a1(d: int) -> tuple[np.ndarray, np.ndarray]:
    v = np.zeros((d, d))
    f = np.zeros((d, d))
    v[0, 0] = 1.0
    f[0, 0] = 1.0
    for i in range(2, d + 1):
        if i % 2 == 0:
            v[i - 1, i - 1] = 1.0
            f[i - 1, i - 1] = 1.0
            if i + 1 <= d:
                f[i - 1, i] = 1.0
        else:
            v[i - 1, i - 1] = 1.0
            v[i - 1, i - 2] = -1.0
            f[i - 1, i - 1] = 1.0
    return v, f


def _subspace_b0(d: int) -> tuple[np.ndarray, np.ndarray]:
    if d % 2 != 0:
        raise InputError("subspace-b0 needs an even dimension (2x2 blocks)")
    v = np.zeros((d, d))
    f = np.zeros((d, d))
    for n in range(1, d // 2 + 1):
        a, b = 2 * n - 2, 2 * n - 1
        v[a, a], v[a, b] = 1.0, 1.0    # e_{2n-1} + e_{2n}
        v[b, a], v[b, b] = 1.0, -1.0   # e_{2n-1} - e_{2n}
        f[a, a], f[a, b] = 0.5, 0.5
        f[b, a], f[b, b] = 0.5, -0.5
    return v, f


def _subspace_b1(d: int) -> tuple[np.ndarray, np.ndarray]:
    # x_1 = e_1, then blocks e_{2n} +/- e_{2n+1}; a trailing block that would
    # leave the truncation ends with its natural first vector e_d.
    v = np.zeros((d, d))
    f = np.zeros((d, d))
    v[0, 0] = 1.0
    f[0, 0] = 1.0
    for i in range(2, d + 1):
        n = i // 2
        if i % 2 == 0:
            v[i - 1, 2 * n - 1] = 1.0
            if 2 * n < d:
                v[i - 1, 2 * n] = 1.0
        else:
            v[i - 1, 2 * n - 1] = 1.0
            v[i - 1, 2 * n] = -1.0
    for i in range(2, d + 1):
        n = i // 2
        if i % 2 == 0:
            if 2 * n < d:
                f[i - 1, 2 * n - 1], f[i - 1, 2 * n] = 0.5, 0.5
            else:
                f[i - 1, 2 * n - 1] = 1.0
        else:
            f[i - 1, 2 * n - 1], f[i - 1, 2 * n] = 0.5, -0.5
    return v, f


def generate(spec: GallerySpec):
    """Build the named family at dimension ``spec.dim``.

    Returns a FrameSystem (with exact analytic biorthogonals) when
    ``as_frame`` is set, a bare Basis otherwise; ``alternating`` returns the
    WeavePattern with bit i = i mod 2 (1-based).
    """
    d = spec.dim
    name = spec.name
    if name == "alternating":
        return WeavePattern.alternating(d)
    if name == "blockpair-a0-verbatim":
        if spec.as_frame:
            raise NotABasis("the verbatim block family is rank-deficient for "
                            "d >= 4 and has no biorthogonal functionals")
        space = NormedSpace(d, L1)
        return Basis(space, _blockpair_a0_verbatim(d), label=name)
    builders = {
        "standard-l1": (L1, _standard),
        "standard-c0": (LINF, _standard),
        "summing-c0": (LINF, _summing),
        "difference-l1": (L1, _difference),
        "blockpair-a0": (L1, _blockpair_a0),
        "blockpair-a1": (L1, _blockpair_a1),
        "subspace-b0": (L1, _subspace_b0),
        "subspace-b1": (L1, _subspace_b1),
    }
    norm, build = builders[name]
    space = NormedSpace(d, norm)
    vectors, functionals = build(d)
    if spec.as_frame:
        return FrameSystem(space, vectors, functionals, label=f"{name}[d={d}]")
    return Basis(space, vectors, label=f"{name}[d={d}]")


def verbatim_block_rank(d: int) -> int:
    """Rank of the published (repeating) odd-slot block family."""
    return int(np.linalg.matrix_rank(_blockpair_a0_verbatim(d)))


# ---------------------------------------------------------------------------
# pipeline reports

REPRODUCIBLE = ("bases-not-frames-c0", "bases-not-frames-l1",
                "alternating-conditional", "alternating-subspace")


@dataclass(frozen=True, eq=False)
class BasesNotFramesReport:
    """Woven as bases (bounded constants) but not as frames (growth in d)."""

    pair: tuple[str, str]
    dims: tuple[int, ...]
    frame_worst_constants: tuple[float, ...]
    max_weaving_basis_constants: tuple[float, ...]
    basis_constants: tuple[tuple[float, float], ...]
    all_weavings_bases: bool

    @property
    def frame_constants_grow(self) -> bool:
        return self.frame_worst_constants[-1] > self.frame_worst_constants[0]


@dataclass(frozen=True, eq=False)
class AlternatingConditionalReport:
    """Two unconditional block bases whose alternating weaving is conditional."""

    dims: tuple[int, ...]
    base0_unconditional: tuple[float, ...]
    base1_unconditional: tuple[float, ...]
    weaving_unconditional: tuple[float, ...]
    weaving_is_difference_basis: bool


@dataclass(frozen=True, eq=False)
class AlternatingSubspaceReport:
    """All weavings basic, yet the alternating weave loses the first coordinate."""

    check_dim: int
    all_weavings_independent: bool
    max_weaving_basis_constant: float
    even_dims: tuple[int, ...]
    first_coordinate_distances: tuple[float, ...]
    odd_truncation_lengths: tuple[int, ...]
    odd_truncation_ambient_dims: tuple[int, ...]


def _pair_systems(kind: str, d: int) -> tuple[FrameSystem, FrameSystem]:
    if kind == "c0":
        return (generate(GallerySpec("standard-c0", d)),
                generate(GallerySpec("summing-c0", d)))
    return (generate(GallerySpec("standard-l1", d)),
            generate(GallerySpec("difference-l1", d)))


def reproduce(name: str, dims=tuple(range(2, 13)), basis_check_cap: int = 10,
              workers: int | None = None):
    """Run the pipeline behind one of the named phenomena and report it."""
    if name in ("bases-not-frames-c0", "bases-not-frames-l1"):
        kind = "c0" if name.endswith("c0") else "l1"
        frame_worst = []
        basis_worst = []
        per_basis = []
        all_bases = True
        for d in dims:
            f0, f1 = _pair_systems(kind, d)
            frame_worst.append(worst_weaving(f0, f1, workers=workers).worst_constant)
            if d <= basis_check_cap:
                ok, wb = weaving_basis_constants(f0, f1)
                all_bases = all_bases and ok
                basis_worst.append(wb if ok else np.inf)
            else:
                basis_worst.append(np.nan)
            per_basis.append((basis_constant(f0.vectors, f0.space, f0.functionals).value,
                              basis_constant(f1.vectors, f1.space, f1.functionals).value))
        pair = ("standard-c0", "summing-c0") if kind == "c0" else ("standard-l1", "difference-l1")
        return BasesNotFramesReport(pair, tuple(dims), tuple(frame_worst),
                                    tuple(basis_worst), tuple(per_basis), all_bases)

    if name == "alternating-conditional":
        used_dims = tuple(d for d in dims if d >= 2)
        b0u, b1u, wu = [], [], []
        matches = True
        for d in used_dims:
            a0 = generate(GallerySpec("blockpair-a0", d))
            a1 = generate(GallerySpec("blockpair-a1", d))
            b0u.append(unconditional_constant(a0).value)
            b1u.append(unconditional_constant(a1).value)
            pattern = WeavePattern.alternating(d)
            woven = weave(a0, a1, pattern)
            diff = generate(GallerySpec("difference-l1", d))
            if not np.array_equal(np.abs(woven.vectors), np.abs(diff.vectors)):
                matches = False
            duals = biorthogonals(woven.vectors)
            wu.append(unconditional_constant(
                FrameSystem(a0.space, woven.vectors, duals)).value)
        return AlternatingConditionalReport(used_dims, tuple(b0u), tuple(b1u),
                                            tuple(wu), matches)

    if name == "alternating-subspace":
        check_dim = 8
        b0 = generate(GallerySpec("subspace-b0", check_dim))
        b1 = generate(GallerySpec("subspace-b1", check_dim))
        independent, worst = weaving_basis_constants(b0, b1)
        even_dims = tuple(d for d in dims if d % 2 == 0 and d >= 4)
        distances = []
        odd_lengths = []
        odd_ambient = []
        for d in even_dims:
            s0 = generate(GallerySpec("subspace-b0", d))
            s1 = generate(GallerySpec("subspace-b1", d))
            # the published witness picks system 0 at odd indices
            pattern = WeavePattern.alternating(d).complement()
            woven = weave(s0, s1, pattern)
            chain = SpannedSubspace(s0.space, woven.vectors[:d - 1],
                                    label="alternating-weave-span")
            e1 = np.zeros(d)
            e1[0] = 1.0
            distances.append(distance_to_span(e1, chain))
            odd_lengths.append(d - 1)
            odd_ambient.append(d)
        return AlternatingSubspaceReport(check_dim, independent, worst, even_dims,
                                         tuple(distances), tuple(odd_lengths),
                                         tuple(odd_ambient))

    raise InputError(f"unknown reproduction {name!r}; choose from "
                     f"{', '.join(REPRODUCIBLE)}")


def proposition_weaving_floor(d: int) -> tuple[float, float]:
    """(worst weaving constant, suppression floor) for standard vs summing.

    The woven pair of a 1-suppression system with a system of suppression
    constant D and frame constant C cannot be woven better than D/C - C, so
    at C = 1 the worst constant must reach at least D - 1.
    """
    std = generate(GallerySpec("standard-c0", d))
    summing = generate(GallerySpec("summing-c0", d))
    d_s = suppression_constant(summing, EXHAUSTIVE).value
    worst = worst_weaving(std, summing).worst_constant
    return worst, d_s - 1.0
