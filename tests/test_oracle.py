"""The norm, weaving and subspace layers against the exact rational oracle
(``tests/oracle.py``).

Inputs are exact in binary: the integer gallery pairs, the dyadic golden
inputs, unimodular integer bases and small dyadic generators.  Every value
the package labels exact must match the oracle to 1e-12 relative, and a
heuristic bracket must hold it.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
from weavelab import (L1, LINF, DenseOperator, Exactness, FrameSystem, GallerySpec,
                      NormedSpace, SpannedSubspace, WeavePattern, distance_to_span,
                      frame_operator, generate, heuristic, operator_norm, restricted_inverse,
                      subspace_distance, suppression_constant, unc_conditions,
                      unconditional_constant, weave, worst_weaving)
from weavelab.fileio import load_system

INPUTS = Path(__file__).parent / "golden" / "inputs"


GALLERY_PAIRS = [("standard-c0", "summing-c0"), ("standard-l1", "difference-l1")]


def _rows(system):
    return system.vectors.tolist(), system.functionals.tolist()


def _assert_point(bound, value):
    """An exact bracket: lo == hi == the oracle value to 1e-12 relative."""
    assert bound.lo == bound.hi == pytest.approx(float(value), rel=1e-12, abs=0)


def _assert_holds(bound, value):
    """A bracket that holds the oracle value, up to the rounding of lo."""
    assert bound.lo <= float(value) * (1 + 1e-12) and float(value) <= bound.hi


@pytest.mark.parametrize("pair", GALLERY_PAIRS, ids=["c0", "l1"])
def test_gallery_brackets_hold_the_oracle_values(pair):
    for d in range(2, 6):
        f0, f1 = (generate(GallerySpec(name, d)) for name in pair)
        norm = f0.space.norm.tag
        for m in range(1 << d):  # every weaving's frame operator norm
            s = frame_operator(weave(f0, f1, WeavePattern.from_index(m, d)))
            _assert_point(operator_norm(s), oracle.operator_norm(oracle.matrix(s.entries), norm))
        value, pattern = oracle.worst_weaving(*_rows(f0), *_rows(f1), norm)
        exact, climbed = worst_weaving(f0, f1), worst_weaving(f0, f1, heuristic(2), seed=1)
        # a worst weaving's bracket is [constant, constant] when exact, else [constant, inf]
        assert exact.exactness is Exactness.EXACT and str(exact.worst_pattern) == pattern
        assert exact.worst_constant == pytest.approx(float(value), rel=1e-12, abs=0)
        assert climbed.exactness is Exactness.LOWER_BOUND
        assert climbed.worst_constant <= float(value) * (1 + 1e-12)
        for system in (f0, f1):
            for signed, constant in ((False, suppression_constant),
                                     (True, unconditional_constant)):
                value = oracle.pattern_constant(*_rows(system), norm, signed)
                _assert_point(constant(system), value)
                _assert_holds(constant(system, heuristic(2), seed=1), value)


@pytest.mark.parametrize("name", ["perturbed-l1-d4", "perturbed-c0-d4", "perturbed-c0-d13"])
def test_golden_functionals_are_the_exact_inverse(name):
    payload = json.loads((INPUTS / f"{name}.json").read_text())
    inv = oracle.inverse(oracle.matrix(payload["vectors"]))
    assert oracle.transpose(inv) == oracle.matrix(payload["functionals"])


@pytest.mark.parametrize("gallery, name, value, witness", [
    ("standard-c0", "perturbed-c0-d4", Fraction(521, 512), "0100"),
    ("standard-l1", "perturbed-l1-d4", Fraction(9, 8), "0010"),
])
def test_vi_matches_the_oracle_on_the_golden_inputs(gallery, name, value, witness):
    f0 = generate(GallerySpec(gallery, 4))
    f1 = load_system(str(INPUTS / f"{name}.json"))
    norm = f1.space.norm.tag
    got = oracle.worst_vi(f0.vectors.tolist(), f0.functionals.tolist(),
                          f1.vectors.tolist(), f1.functionals.tolist(), norm)
    assert got == (value, witness)
    outcome = unc_conditions(f0, f1, conditions=("vi",)).conditions["vi"]
    assert outcome.exactness is Exactness.EXACT
    assert outcome.constant == pytest.approx(float(value), rel=1e-12)
    assert str(outcome.witness) == witness


def _unimodular(rng, d, steps=8):
    """A product of elementary integer matrices: its inverse is integer too."""
    v = np.eye(d)
    for _ in range(steps):
        i, j = rng.choice(d, size=2, replace=False)
        v[i] += rng.choice((-1, 1)) * v[j]
    return v


@pytest.mark.parametrize("kind", [L1, LINF], ids=["l1", "linf"])
def test_vi_matches_the_oracle_on_unimodular_pairs(kind):
    rng = np.random.default_rng(4)
    for d in (3, 4, 5):
        sp = NormedSpace(d, kind)
        v0, v1 = _unimodular(rng, d), _unimodular(rng, d)
        f0, f1 = (FrameSystem(sp, v, np.round(np.linalg.inv(v).T)) for v in (v0, v1))
        value, _ = oracle.worst_vi(v0.tolist(), f0.functionals.tolist(), v1.tolist(),
                                   f1.functionals.tolist(), kind.tag)
        outcome = unc_conditions(f0, f1, conditions=("vi",)).conditions["vi"]
        assert outcome.exactness is Exactness.EXACT
        assert outcome.constant == pytest.approx(float(value), rel=1e-12)


def _dyadic(rng, k, d):
    while True:
        rows = rng.integers(-4, 5, size=(k, d)) / 4
        if np.linalg.matrix_rank(rows) == k:
            return rows


@pytest.mark.parametrize("kind", [L1, LINF], ids=["l1", "linf"])
def test_subspace_distance_matches_the_oracle(kind):
    rng = np.random.default_rng(12)
    pairs = [([[1, 0, 0, 0]], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])]
    for d in (4, 5, 6):
        for ka, kb in ((1, 1), (2, 1), (2, 2), (2, d - 2), (3, d - 3)):
            pairs.append((_dyadic(rng, ka, d), _dyadic(rng, kb, d)))
    for a_rows, b_rows in pairs:
        d = len(a_rows[0])
        sp = NormedSpace(d, kind)
        expected = oracle.projection_distance(np.asarray(a_rows).tolist(),
                                              np.asarray(b_rows).tolist(), kind.tag)
        got = subspace_distance(SpannedSubspace(sp, a_rows), SpannedSubspace(sp, b_rows))
        assert got.exactness is Exactness.EXACT
        assert got.value == pytest.approx(float(expected), rel=1e-12, abs=0)


def test_distance_to_span_linf_matches_the_oracle():
    # dist(x, Y) = ||x|| / ||P_x||, where P_x projects span(x) + Y onto
    # span(x) along Y: the lift x e_1^T over B = [x Y^T]; distance_to_span
    # is a HiGHS LP optimum, so it matches to within the solver's tolerance
    rng = np.random.default_rng(5)
    for d, k in ((3, 1), (4, 2), (5, 2), (5, 4), (6, 3)):
        while True:
            rows = rng.integers(-3, 4, (k + 1, d))
            if np.linalg.matrix_rank(rows) == k + 1:
                break
        bmat = oracle.matrix(rows.T.tolist())
        lift = [[row[0]] + [Fraction(0)] * k for row in bmat]
        expected = Fraction(int(np.abs(rows[0]).max())) / oracle.restricted_norm(lift, bmat,
                                                                                 "linf")
        got = distance_to_span(rows[0].astype(float),
                               SpannedSubspace(NormedSpace(d, LINF), rows[1:]))
        assert got == pytest.approx(float(expected), rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("kind", [L1, LINF], ids=["l1", "linf"])
def test_restricted_inverse_matches_the_oracle(kind):
    # M maps span(A) onto span(MA), so the inverse norm is sup ||Ac|| / ||MAc||
    rng = np.random.default_rng(7)
    for d, k in ((4, 2), (5, 2), (5, 3), (6, 4)):
        m = np.round(4 * rng.standard_normal((d, d))) / 4 + 2 * np.eye(d)
        sp = NormedSpace(d, kind)
        sub = SpannedSubspace(sp, _dyadic(rng, k, d))
        image = SpannedSubspace(sp, (m @ sub.generators.T).T)
        got = restricted_inverse(DenseOperator.on_space(m, sp), sub, image).norm
        expected = oracle.restricted_norm(oracle.matrix(sub.generators.T.tolist()),
                                          oracle.matrix(image.generators.T.tolist()),
                                          kind.tag)
        assert got.exactness is Exactness.EXACT
        assert got.value == pytest.approx(float(expected), rel=1e-12, abs=0)


def test_v_matches_the_oracle_at_its_threshold():
    # at 10100 d(X1, Y2) is exactly 1/4, on the threshold, so (v) holds there
    # and fails at 10101; every pattern's flag must be the oracle's
    f0, f1 = (generate(GallerySpec(name, 5)) for name in ("blockpair-a0", "blockpair-a1"))
    verdict = unc_conditions(f0, f1, conditions=("v",))
    for pattern, flags in verdict.per_sigma.items():
        one = np.array([b == "1" for b in pattern])
        if one.all() or not one.any():
            continue
        dist = oracle.projection_distance(f0.vectors[~one].tolist(),
                                          f1.vectors[one].tolist(), "l1")
        assert flags["v"] == (1 / dist <= verdict.threshold), pattern
    assert oracle.projection_distance(f0.vectors[[1, 3, 4]].tolist(),
                                      f1.vectors[[0, 2]].tolist(), "l1") == Fraction(1, 4)
    assert oracle.projection_distance(f0.vectors[[1, 3]].tolist(),
                                      f1.vectors[[0, 2, 4]].tolist(), "l1") == Fraction(1, 5)
    assert verdict.per_sigma["10100"]["v"] and not verdict.per_sigma["10101"]["v"]
    assert str(verdict.conditions["v"].witness) == "10101"
