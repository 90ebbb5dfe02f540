#!/usr/bin/env python3
"""A fixed battery of weavelab values, printed bit for bit.

Runs a fixed list of instances through the library and prints one line
per value, label or verdict, every float as ``float.hex``, then one line
``sha256 <digest>`` over the lines before it.  The instances cover weaving
tables and their logs (also over several chunks, with exactly singular and
with near-cap weavings, and in l2), ``lower_bound_profile``,
``uniform_bound_profile`` (exhaustive, also over several chunks, and
sampled), ``weaving_basis_constants`` (also with dependent weavings), C_s
and C_u (exhaustive and heuristic), both perturbation certificates
(exhaustive, also over several chunks, and sampled), six-way outcomes with
``per_sigma`` and the per-pattern row table behind them (also with dependent
weavings, sampled at d = 13, where the inner C_u is heuristic, and lp pairs
checked for (v) alone, with (vi) and for all six), restricted inverses (also
each of their refusals), subspace distances and the subset operators.
A change meant to keep every value compares the digest of two checkouts, and
of one checkout under different ``WEAVELAB_THREADS``:

    PYTHONPATH=src python scripts/value_battery.py | tail -1

``--sections`` prints instead one sha256 per two-level label section of the
value lines (``l1.d3``, ``standard-c0|summing-c0.d4``, ``certificate.pair``,
...), in the order they first appear, then the total digest: the lines of
``tests/golden/value_battery.sha256``, which the test suite compares under
``WEAVELAB_THREADS`` 1 and 2.  A change that moves values regenerates it

    PYTHONPATH=src python scripts/value_battery.py --sections > tests/golden/value_battery.sha256

and names the sections that moved and why.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import sys

import numpy as np

from weavelab import subspaces
from weavelab import (DenseOperator, FrameSystem, GallerySpec, NormKind,
                      NormedSpace, SpannedSubspace, WeavelabError, WeavePattern,
                      basis_projection, biorthogonals, distance_to_span, generate,
                      heuristic, lower_bound_profile, operator_perturbation_check,
                      pair_perturbation_check, partial_operator_subset,
                      restricted_inverse, subspace_distance, suppression_constant,
                      tail_profile, unc_conditions, unconditional_constant,
                      uniform_bound_profile, worst_weaving)
from weavelab.weaving import weaving_basis_constants


def _leaves(path: str, obj):
    """(path, text) for every leaf of a result, floats as ``float.hex``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, WeavePattern):
        for field in dataclasses.fields(obj):
            yield from _leaves(f"{path}.{field.name}", getattr(obj, field.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(f"{path}[{key}]", value)
    elif isinstance(obj, (list, tuple, np.ndarray)) and any(
            isinstance(x, (float, np.floating, list, tuple, np.ndarray)) for x in obj):
        for i, value in enumerate(obj):
            yield from _leaves(f"{path}[{i}]", value)
    elif isinstance(obj, (float, np.floating)):
        yield path, float(obj).hex()
    elif isinstance(obj, enum.Enum):
        yield path, obj.name
    else:
        yield path, str(obj)


class Battery:
    def __init__(self):
        self.lines: list[str] = []

    def emit(self, label: str, call, *args, **kwargs):
        """Record a line for every leaf of ``call(*args, **kwargs)``, or the
        error it raises."""
        try:
            leaves = list(_leaves(label, call(*args, **kwargs)))
        except WeavelabError as exc:
            leaves = [(label, f"raises {type(exc).__name__}: {exc}")]
        self.lines += [f"{path} {text}" for path, text in leaves]


def section_digests(lines: list[str]) -> list[str]:
    """``<sha256>  <section>`` for each two-level label section of the value
    lines, in the order they first appear, then ``<sha256>  total``, the
    digest over every line that the battery prints last.  A line's section
    is the first two dot-separated parts of its path, index brackets cut."""
    sections = {}
    total = hashlib.sha256()
    for line in lines:
        data = line.encode() + b"\n"
        name = ".".join(line.split(" ", 1)[0].split("[", 1)[0].split(".")[:2])
        sections.setdefault(name, hashlib.sha256()).update(data)
        total.update(data)
    return ([f"{digest.hexdigest()}  {name}" for name, digest in sections.items()]
            + [f"{total.hexdigest()}  total"])


def _six_way(b: Battery, label: str, *args, **kwargs):
    """``emit`` of ``unc_conditions``, then of the per-pattern row table it
    builds: the (lo, hi) bracket per condition, then the (iii) residuals."""
    real, tables = subspaces.pattern_table, []

    def recording(*a, **k):
        tables.append(real(*a, **k))
        return tables[-1]

    subspaces.pattern_table = recording
    try:
        b.emit(label, unc_conditions, *args, **kwargs)
    finally:
        subspaces.pattern_table = real
    for table in tables:
        b.emit(f"{label}.rows", lambda: table)


def _gallery(name: str, d: int) -> FrameSystem:
    return generate(GallerySpec(name, d))


def _random_pair(rng, norm: str, d: int, n: int, eps: float) -> tuple[FrameSystem, FrameSystem]:
    """A random frame of n pairs in dimension d (a basis with its duals when
    n = d) and a perturbation of it of relative size ``eps``."""
    space = NormedSpace(d, NormKind.parse(norm))
    v0 = np.eye(d) + 0.3 * rng.standard_normal((d, d)) if n == d else rng.standard_normal((n, d))
    v1 = v0 + eps * rng.standard_normal(v0.shape)
    if n == d:
        return (FrameSystem(space, v0, biorthogonals(v0)),
                FrameSystem(space, v1, biorthogonals(v1)))
    f0 = rng.standard_normal((n, d)) / n
    f1 = f0 + eps * rng.standard_normal(f0.shape)
    return FrameSystem(space, v0, f0), FrameSystem(space, v1, f1)


def _weaving(b: Battery, tag: str, f0: FrameSystem, f1: FrameSystem, log: bool = True):
    b.emit(f"{tag}.table", worst_weaving, f0, f1, log_all_patterns=log)
    b.emit(f"{tag}.heuristic", worst_weaving, f0, f1, heuristic(2), seed=3)
    b.emit(f"{tag}.lower_bound_profile", lower_bound_profile, f0, f1)
    b.emit(f"{tag}.uniform_bound_profile", uniform_bound_profile, f0, f1)
    b.emit(f"{tag}.tail_profile", tail_profile, f0, f1, np.linspace(1.0, 2.0, f0.space.dim), 1)
    b.emit(f"{tag}.subset", partial_operator_subset, f0, f1,
           WeavePattern.alternating(f0.n), range(1, f0.n + 1, 2))
    b.emit(f"{tag}.projection", basis_projection, f1, [1, f0.n])


def _constants(b: Battery, tag: str, system: FrameSystem):
    b.emit(f"{tag}.c_s", suppression_constant, system)
    b.emit(f"{tag}.c_u", unconditional_constant, system)
    b.emit(f"{tag}.c_s.heuristic", suppression_constant, system, heuristic(2), seed=5)
    b.emit(f"{tag}.c_u.heuristic", unconditional_constant, system, heuristic(2), seed=5)


def _subspaces(b: Battery, rng, norm: str, d: int):
    space = NormedSpace(d, NormKind.parse(norm))
    m = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    for k in sorted({1, 2, 3, d // 2}):
        a = rng.standard_normal((k, d))
        mix = np.eye(k) + 0.5 * rng.standard_normal((k, k))
        dom = SpannedSubspace(space, a)
        cod = SpannedSubspace(space, mix @ (m @ a.T).T)
        b.emit(f"{norm}.d{d}.k{k}.restricted_inverse", restricted_inverse,
               DenseOperator.on_space(m, space), dom, cod)
        other = SpannedSubspace(space, rng.standard_normal((d - k, d)))
        b.emit(f"{norm}.d{d}.k{k}.subspace_distance", subspace_distance, dom, other)
        b.emit(f"{norm}.d{d}.k{k}.distance_to_span", distance_to_span,
               rng.standard_normal(d), dom)


def _refusals(b: Battery):
    """Restricted inverses in l1 at d = 3 that are refused, and one just
    inside the condition cap: M A outside the codomain span, a C that is
    singular, just past the cap or across a 1e22 gap between generator
    scales, A C^-1 that overflows, and unequal dimensions."""
    space = NormedSpace(3, NormKind.parse("l1"))
    e = np.eye(3)
    gap = [[1e-11, 0.0, 0.0], [0.0, 1e11, 1.0]]
    big = 1e10 * np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25]])
    for tag, m, dom, cod in (("range", e, e[:1], e[1:2]),
                             ("cap.singular", np.diag([1.0, 0.0, 0.0]), e[1:2], e[:1]),
                             ("cap.past", np.diag([1e-13, 1.0, 1.0]), e[:2], e[:2]),
                             ("cap.inside", np.diag([1e-11, 1.0, 1.0]), e[:2], e[:2]),
                             ("cap.scale_gap", e, gap, gap),
                             ("entries", 1e-300 * e, big, big),
                             ("dimensions", e, e[:2], e[:1])):
        b.emit(f"l1.d3.lift.{tag}.restricted_inverse", restricted_inverse,
               DenseOperator.on_space(m, space), SpannedSubspace(space, dom),
               SpannedSubspace(space, cod))


def _multi_chunk(b: Battery):
    """Weaving tables and certificates over several chunks of
    ``search.chunk_size_for`` patterns (327 at d = 10, 270 at d = 11), each
    chunk graded by one ``weavelab.frames.ChunkEvaluator``."""
    rng = np.random.default_rng(2211)
    # 2,048 patterns: seven chunks of 270 and a last one of 158
    _weaving(b, "standard-c0|summing-c0.d11", _gallery("standard-c0", 11),
             _gallery("summing-c0", 11))
    # x_1 of the second system is zero: half the weavings are exactly
    # singular, and the chunks that hold them refuse the stacked solve
    std10, sum10 = _gallery("standard-c0", 10), _gallery("summing-c0", 10)
    vectors = sum10.vectors.copy()
    vectors[0] = 0.0
    zeroed = FrameSystem(sum10.space, vectors, sum10.functionals)
    b.emit("c0.d10.zeroed.table", worst_weaving, std10, zeroed, log_all_patterns=True)
    b.emit("c0.d10.zeroed.lower_bound_profile", lower_bound_profile, std10, zeroed)
    # x_10 of the second system is x_9 of the first moved by 1e-7: half the
    # weavings have condition numbers near 1e8 and take Newton steps
    space = NormedSpace(10, NormKind.parse("l1"))
    v0 = np.eye(10) + 0.3 * rng.standard_normal((10, 10))
    f0 = FrameSystem(space, v0, biorthogonals(v0))
    v1 = v0.copy()
    v1[-1] = v0[-2] + 1e-7 * rng.standard_normal(10)
    b.emit("l1.d10.near_cap.table", worst_weaving, f0,
           FrameSystem(space, v1, f0.functionals), log_all_patterns=True)
    f0, f1 = _random_pair(rng, "l2", 10, 10, 0.2)
    b.emit("l2.d10.table", worst_weaving, f0, f1, log_all_patterns=True)
    b.emit("l2.d10.lower_bound_profile", lower_bound_profile, f0, f1)
    std10 = _gallery("standard-l1", 10)
    near10 = FrameSystem(std10.space, std10.vectors + 0.002 * rng.standard_normal((10, 10)),
                         std10.functionals)
    b.emit("certificate.pair.d10", pair_perturbation_check, std10, near10)
    b.emit("certificate.operator.d10", operator_perturbation_check, std10,
           np.eye(10) + 0.005 * rng.standard_normal((10, 10)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sections", action="store_true",
                        help="print one digest per label section and the total instead")
    args = parser.parse_args()
    b = Battery()
    rng = np.random.default_rng(20151)
    for a, c in (("standard-c0", "summing-c0"), ("standard-l1", "difference-l1")):
        for d in range(2, 9):
            _weaving(b, f"{a}|{c}.d{d}", _gallery(a, d), _gallery(c, d), log=d <= 6)
            if d >= 4:
                b.emit(f"{a}|{c}.d{d}.weaving_basis_constants", weaving_basis_constants,
                       _gallery(a, d), _gallery(c, d))
        _constants(b, f"{c}.d6", _gallery(c, 6))
    for norm in ("l1", "l2", "linf", "lp:3"):
        for d, n in ((1, 10), (3, 3), (3, 6), (5, 5)):
            f0, f1 = _random_pair(rng, norm, d, n, 0.2)
            _weaving(b, f"{norm}.d{d}.n{n}", f0, f1, log=n <= 6)
            _constants(b, f"{norm}.d{d}.n{n}", f1)
        _subspaces(b, rng, norm, 5)
    _subspaces(b, rng, "l1", 10)
    f0, f1 = _random_pair(rng, "linf", 2, 19, 0.3)
    b.emit("linf.d2.n19.uniform_bound_profile.sampled", uniform_bound_profile, f0, f1)
    # exhaustive, with 5 chunks of 910 patterns on the interval [1, 12]
    f0, f1 = _random_pair(rng, "l1", 6, 12, 0.2)
    b.emit("l1.d6.n12.uniform_bound_profile", uniform_bound_profile, f0, f1)
    # x_1 of the second basis is e_2: every weaving that takes x_1 from it and
    # x_2 from the first repeats e_2
    std6 = _gallery("standard-l1", 6)
    v1 = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    v1[0] = np.eye(6)[1]
    dependent = FrameSystem(std6.space, v1, biorthogonals(v1))
    b.emit("l1.d6.dependent.weaving_basis_constants", weaving_basis_constants, std6, dependent)
    # the same weavings in the six-way check: chunks with members that are no basis
    _six_way(b, "l1.d6.dependent.six_way", std6, dependent)

    b.emit("biorthogonals.tiny", biorthogonals, 1e-308 * np.eye(3))
    b.emit("biorthogonals.dependent", biorthogonals, np.ones((3, 3)))
    b.emit("biorthogonals.near_cap", biorthogonals, np.diag([1.0, 1.0, 3e-13]))

    std4 = _gallery("standard-l1", 4)
    near4 = FrameSystem(std4.space, std4.vectors + 0.02 * rng.standard_normal((4, 4)),
                        std4.functionals)
    b.emit("certificate.pair.d4", pair_perturbation_check, std4, near4)
    b.emit("certificate.operator.d4", operator_perturbation_check, std4,
           np.eye(4) + 0.05 * rng.standard_normal((4, 4)))
    std13 = _gallery("standard-c0", 13)
    near13 = FrameSystem(std13.space, std13.vectors + 0.002 * rng.standard_normal((13, 13)),
                         std13.functionals)
    b.emit("certificate.pair.d13.sampled", pair_perturbation_check, std13, near13, seed=4)
    b.emit("certificate.operator.d13.sampled", operator_perturbation_check, std13,
           np.eye(13) + 0.001 * rng.standard_normal((13, 13)), seed=4)

    for d in (4, 5):
        _six_way(b, f"blockpair.d{d}.six_way", _gallery("blockpair-a0", d),
                 _gallery("blockpair-a1", d))
    _six_way(b, "blockpair.d5.sampled.six_way", _gallery("blockpair-a0", 5),
             _gallery("blockpair-a1", 5), scope="sampled", samples=6, seed=2)
    # 2^13 sign patterns: search.maximize demotes the inner C_u to heuristic(16)
    _six_way(b, "blockpair.d13.sampled.six_way", _gallery("blockpair-a0", 13),
             _gallery("blockpair-a1", 13), scope="sampled", samples=4, seed=3)
    _six_way(b, "subspace.d4.six_way", _gallery("subspace-b0", 4), _gallery("subspace-b1", 4))
    _six_way(b, "c0.d4.six_way", _gallery("standard-c0", 4), _gallery("summing-c0", 4),
             threshold=2.0)
    for norm, d in (("l1", 5), ("linf", 4), ("l2", 4), ("lp:3", 3)):
        f0, f1 = _random_pair(rng, norm, d, d, 0.1)
        _six_way(b, f"{norm}.d{d}.six_way", f0, f1, threshold=1.5)
    # in lp, (v)'s values must not depend on which other conditions are asked for
    for norm in ("lp:3", "lp:1.5"):
        f0, f1 = _random_pair(rng, norm, 4, 4, 0.2)
        for conditions in (("v",), ("v", "vi"), ("i", "ii", "iii", "iv", "v", "vi")):
            _six_way(b, f"{norm}.d4.six_way.{'+'.join(conditions)}", f0, f1,
                     conditions=conditions)
    _refusals(b)
    _multi_chunk(b)
    digests = section_digests(b.lines)
    if args.sections:
        print("\n".join(digests))
    else:
        print("\n".join(b.lines))
        print(f"sha256 {digests[-1].split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
