"""Every reported constant is a ``Bound`` whose exactness is read off its
bracket: exact iff lo == hi, a lower bound when the value is lo, an upper
bound when it is hi.  The labels of weaving searches and six-way conditions
are the ``exactness`` of the one reduce of their (lo, hi) columns."""

import numpy as np
import pytest

from weavelab import (EXHAUSTIVE, L1, L2, LINF, Bound, DenseOperator, Exactness,
                      FrameSystem, GallerySpec, NormedSpace, SpannedSubspace, basis_constant,
                      generate, heuristic, lp, operator_norm, restricted_inverse,
                      subspace_distance, suppression_constant, unc_conditions,
                      unconditional_constant, uniform_bound_profile, worst_weaving)
from weavelab import subspaces, weaving

EXACT, LOWER, UPPER = Exactness.EXACT, Exactness.LOWER_BOUND, Exactness.UPPER_BOUND


def _opnorm(kind):
    a = np.eye(5) + 0.4 * np.random.default_rng(5).standard_normal((5, 5))
    return lambda: operator_norm(DenseOperator(a, kind, kind))


def _gallery(name, d):
    return generate(GallerySpec(name, d))


def _uniform_bound(sampled):
    def build():
        with pytest.MonkeyPatch.context() as mp:
            if sampled:
                mp.setattr(weaving, "PROFILE_CAP", 64)
            return uniform_bound_profile(_gallery("standard-c0", 6),
                                         _gallery("summing-c0", 6))
    return build


def _restricted(kind, k, capped=False):
    rng = np.random.default_rng(3)
    sp = NormedSpace(5, kind)
    m = DenseOperator.on_space(rng.standard_normal((5, 5)) + 3 * np.eye(5), sp)
    sub = SpannedSubspace(sp, rng.standard_normal((k, 5)))
    image = SpannedSubspace(sp, (m.entries @ sub.generators.T).T)

    def build():
        with pytest.MonkeyPatch.context() as mp:
            if capped:
                mp.setattr(subspaces, "ENUMERATION_CAP", 0)
            return restricted_inverse(m, sub, image).norm
    return build


def _distance(kind):
    sp = NormedSpace(5, kind)
    a = SpannedSubspace(sp, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    b = SpannedSubspace(sp, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    return lambda: subspace_distance(a, b)


def _closed_distance():
    sp = NormedSpace(4, L1)
    a = SpannedSubspace(sp, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = SpannedSubspace(sp, [[0, 0, 1, 0], [0, 0, 0, 1]])
    return subspace_distance(a, b)


def _one_dimensional_distance():
    sp = NormedSpace(4, L1)
    return subspace_distance(SpannedSubspace(sp, [[1, 0.5, 0, 0]]),
                             SpannedSubspace(sp, [[0, 1, 0, 0.25]]))


CASES = {
    "opnorm-l1": (_opnorm(L1), EXACT),
    "opnorm-l2": (_opnorm(L2), EXACT),
    "opnorm-linf": (_opnorm(LINF), EXACT),
    "opnorm-lp3": (_opnorm(lp(3.0)), LOWER),
    "basis-constant": (lambda: basis_constant(_gallery("summing-c0", 5).vectors,
                                              NormedSpace(5, LINF)), EXACT),
    "cs-exhaustive": (lambda: suppression_constant(_gallery("difference-l1", 4)), EXACT),
    "cu-exhaustive": (lambda: unconditional_constant(_gallery("difference-l1", 4)), EXACT),
    "cs-heuristic": (lambda: suppression_constant(_gallery("difference-l1", 4),
                                                  heuristic(4)), LOWER),
    "cu-heuristic": (lambda: unconditional_constant(_gallery("difference-l1", 4),
                                                    heuristic(4)), LOWER),
    "uniform-exhaustive": (_uniform_bound(False), EXACT),
    "uniform-sampled": (_uniform_bound(True), LOWER),
    "restricted-k1": (_restricted(L1, 1), EXACT),
    "restricted-l2": (_restricted(L2, 2), EXACT),
    "restricted-l1": (_restricted(L1, 2), EXACT),
    "restricted-linf": (_restricted(LINF, 3), EXACT),
    "restricted-l1-capped": (_restricted(L1, 2, capped=True), LOWER),
    "restricted-lp3": (_restricted(lp(3.0), 2), LOWER),
    "distance-l2": (_distance(L2), EXACT),
    "distance-l1-k1": (_one_dimensional_distance, EXACT),
    "distance-l1": (_distance(L1), EXACT),
    "distance-l1-closed": (_closed_distance, EXACT),
    "distance-lp3": (_distance(lp(3.0)), UPPER),
}


@pytest.mark.parametrize("case", list(CASES))
def test_exactness_is_read_off_the_bracket(case):
    build, expected = CASES[case]
    bound = build()
    assert isinstance(bound, Bound)
    assert bound.lo <= bound.value <= bound.hi
    assert bound.exactness is expected
    assert (bound.lo == bound.hi) == (expected is EXACT)
    if expected is LOWER:
        assert bound.hi == np.inf
    if expected is UPPER:
        assert bound.lo == 0.0
    if case in ("distance-l1", "distance-l1-closed"):
        assert bound.value == 1.0


def test_bound_defaults_and_labels():
    assert Bound(2.0).exactness is EXACT
    assert (Bound(2.0).lo, Bound(2.0).hi) == (2.0, 2.0)
    assert Bound(2.0, hi=np.inf).exactness is LOWER
    assert Bound(2.0, lo=0.0).exactness is UPPER


def _c0_pair(d, kind=LINF, zeroed=False):
    """standard-c0 and summing-c0 in the norm ``kind``; with x_1 of the
    second system zeroed when ``zeroed``, so half the weavings are singular."""
    f0, f1 = _gallery("standard-c0", d), _gallery("summing-c0", d)
    vectors = f1.vectors.copy()
    if zeroed:
        vectors[0] = 0.0
    space = NormedSpace(d, kind)
    return (FrameSystem(space, f0.vectors, f0.functionals),
            FrameSystem(space, vectors, f1.functionals))


def _six_way_vi(capped):
    def build():
        with pytest.MonkeyPatch.context() as mp:
            if capped:  # every lift of two or more dimensions is a ratio ascent
                mp.setattr(subspaces, "ENUMERATION_CAP", 0)
            return unc_conditions(_gallery("blockpair-a0", 4), _gallery("blockpair-a1", 4),
                                  conditions=("vi",)).conditions["vi"]
    return build


LABELS = {
    "worst-linf-exhaustive": (lambda: worst_weaving(*_c0_pair(6)), EXACT),
    "worst-lp3-exhaustive": (lambda: worst_weaving(*_c0_pair(6, lp(3.0))), LOWER),
    "worst-heuristic": (lambda: worst_weaving(*_c0_pair(6), heuristic(2)), LOWER),
    "worst-demoted": (lambda: worst_weaving(*_c0_pair(6), exhaustive_cap=8), LOWER),
    "six-way-l1": (_six_way_vi(False), EXACT),
    "six-way-l1-ascent": (_six_way_vi(True), LOWER),
}


@pytest.mark.parametrize("case", list(LABELS))
def test_search_and_condition_labels_are_read_off_one_bracket(case):
    build, expected = LABELS[case]
    result = build()
    assert result.exactness is expected
    # finite, so no label here comes from an infinite worst
    assert np.isfinite(result.worst_constant if case.startswith("worst") else result.constant)


def test_an_infinite_worst_reads_exact_on_every_path():
    # a singular weaving makes the largest lo +inf, and the bracket [inf, inf]
    # is a point however many patterns were graded: exhaustive, heuristic and
    # lp tables agree on the label
    for kind, mode in ((LINF, EXHAUSTIVE), (LINF, heuristic(2)), (lp(3.0), EXHAUSTIVE)):
        result = worst_weaving(*_c0_pair(5, kind, zeroed=True), mode)
        assert result.worst_constant == np.inf and result.exactness is EXACT
        assert result.verdict == "not_woven"
