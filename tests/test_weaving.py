import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weavelab import (L1, LINF, Exactness, FrameSystem, InputError,
                      IntervalOperatorQuery, NormedSpace, NotABasis,
                      WeavePattern, basis_constant, biorthogonals,
                      check_approximate_frame, frame_operator, heuristic,
                      lower_bound_profile, partial_operator,
                      pair_perturbation_check, partial_operator_subset, search,
                      suppression_constant, tail_profile,
                      unconditional_constant, uniform_bound_profile, weave,
                      worst_weaving)
from weavelab.perturb import _certify_residuals
from weavelab.weaving import sample_patterns, weaving_basis_constants
from conftest import random_frame_system
from test_frames import standard_system, summing_system


def test_pattern_basics():
    p = WeavePattern.from_string("0110")
    assert p.bits == (0, 1, 1, 0)
    assert str(p.complement()) == "1001"
    assert WeavePattern.alternating(5).bits == (1, 0, 1, 0, 1)
    assert WeavePattern.from_index(p.index, 4) == p
    with pytest.raises(InputError):
        WeavePattern((0, 2))
    with pytest.raises(InputError):
        IntervalOperatorQuery(p, 2, 5)


def test_weave_trivial_patterns():
    std = standard_system(3, LINF)
    summing = summing_system(3)
    zero = weave(std, summing, WeavePattern.zeros(3))
    assert np.array_equal(zero.vectors, std.vectors)
    one = weave(std, summing, WeavePattern.ones(3))
    assert np.array_equal(one.vectors, summing.vectors)
    same = weave(std, std, WeavePattern.from_string("010"))
    assert np.array_equal(same.vectors, std.vectors)
    assert np.array_equal(same.functionals, std.functionals)


def test_partial_operator_examples():
    std = standard_system(2, LINF)
    summing = summing_system(2)
    q = IntervalOperatorQuery(WeavePattern.from_string("10"), 1, 1)
    assert np.array_equal(partial_operator(std, summing, q), [[1, -1], [0, 0]])
    assert np.array_equal(
        partial_operator_subset(std, summing, WeavePattern.from_string("10"), []),
        np.zeros((2, 2)))


def test_partial_operator_full_matches_frame_operator(rng):
    f0 = random_frame_system(rng, 5, L1)
    f1 = random_frame_system(rng, 5, L1)
    for _ in range(10):
        pattern = WeavePattern.from_index(int(rng.integers(0, 32)), 5)
        full = partial_operator(f0, f1, IntervalOperatorQuery(pattern, 1, 5))
        woven = frame_operator(weave(f0, f1, pattern)).entries
        assert np.array_equal(full, woven)


def test_interval_additivity_exact_on_integers():
    std = standard_system(4, LINF)
    summing = summing_system(4)
    pattern = WeavePattern.from_string("1010")
    whole = partial_operator(std, summing, IntervalOperatorQuery(pattern, 1, 4))
    for mid in (1, 2, 3):
        left = partial_operator(std, summing, IntervalOperatorQuery(pattern, 1, mid))
        right = partial_operator(std, summing, IntervalOperatorQuery(pattern, mid + 1, 4))
        assert np.array_equal(whole, left + right)


def test_interval_additivity_float(rng):
    f0 = random_frame_system(rng, 5, L1)
    f1 = random_frame_system(rng, 5, L1)
    pattern = WeavePattern.from_string("01101")
    whole = partial_operator(f0, f1, IntervalOperatorQuery(pattern, 1, 5))
    left = partial_operator(f0, f1, IntervalOperatorQuery(pattern, 1, 2))
    right = partial_operator(f0, f1, IntervalOperatorQuery(pattern, 3, 5))
    assert np.abs(whole - (left + right)).max() <= 1e-12 * (1 + np.abs(whole).max())


def test_worst_weaving_self_consistency_exact(rng):
    for norm in (L1, LINF):
        for _ in range(5):
            system = random_frame_system(rng, 5, norm)
            res = worst_weaving(system, system)
            rep = check_approximate_frame(system)
            assert res.worst_constant == rep.c_frame
            assert res.verdict == "woven"


def test_worst_weaving_frozen_and_growth():
    std = standard_system(2, LINF)
    summing = summing_system(2)
    res = worst_weaving(std, summing)
    assert res.worst_constant == 2.0
    assert res.exactness is Exactness.EXACT
    table = []
    for d in range(2, 7):
        table.append(worst_weaving(standard_system(d, LINF), summing_system(d)).worst_constant)
    assert table == [2.0, 4.0, 4.0, 5.0, 6.0]
    assert table[-1] > table[0]


def test_worst_weaving_pattern_symmetry(rng):
    f0 = random_frame_system(rng, 5, L1)
    f1 = random_frame_system(rng, 5, L1)
    fwd = worst_weaving(f0, f1)
    rev = worst_weaving(f1, f0)
    assert fwd.worst_constant == rev.worst_constant


def test_worst_weaving_not_woven_witness():
    sp = NormedSpace(3, L1)
    f0 = standard_system(3)
    broken = np.eye(3)
    broken[0] = 0.0
    f1 = FrameSystem(sp, broken, np.eye(3))
    res = worst_weaving(f0, f1)
    assert res.verdict == "not_woven"
    assert res.witness is not None
    assert res.witness.bits[0] == 1  # any singular weaving selects the zero vector
    assert res.worst_constant == np.inf


def test_worst_weaving_log_and_heuristic(rng):
    std = standard_system(3, LINF)
    summing = summing_system(3)
    res = worst_weaving(std, summing, log_all_patterns=True)
    assert len(res.per_pattern_log) == 8
    assert res.per_pattern_log[0][0] == "000"
    heur = worst_weaving(std, summing, heuristic(8), seed=1)
    assert heur.worst_constant <= res.worst_constant
    assert heur.worst_constant == res.worst_constant
    assert heur.exactness is Exactness.LOWER_BOUND


def test_heuristic_log_holds_the_evaluated_patterns():
    std = standard_system(4, LINF)
    summing = summing_system(4)
    exhaustive = {p: (a, b) for p, a, b in
                  worst_weaving(std, summing, log_all_patterns=True).per_pattern_log}
    heur = worst_weaving(std, summing, heuristic(2), log_all_patterns=True)
    log = heur.per_pattern_log
    assert 0 < heur.patterns_evaluated < 16
    assert len(log) == heur.patterns_evaluated
    assert [p for p, _, _ in log] == sorted(p for p, _, _ in log)
    for p, a, b in log:
        assert (a, b) == exhaustive[p]  # one evaluation path: bit for bit


def test_exhaustive_results_do_not_depend_on_thread_count(rng, monkeypatch):
    f0 = random_frame_system(rng, 10, LINF)
    f1 = random_frame_system(rng, 10, LINF)
    assert search.chunk_size_for(10, 10 * 10) < 2 ** 10  # several chunks to share
    seen = []
    for threads in ("1", "3"):
        monkeypatch.setenv("WEAVELAB_THREADS", threads)
        res = worst_weaving(f0, f1, log_all_patterns=True)
        c_s = suppression_constant(f1)
        c_u = unconditional_constant(f1)
        seen.append((str(res.worst_pattern), res.worst_constant, res.per_pattern_log,
                     c_s.value, c_s.witness, c_u.value, c_u.witness))
    assert seen[0] == seen[1]


def test_tail_profile_examples():
    std = standard_system(4, LINF)
    summing = summing_system(4)
    assert tail_profile(std, summing, np.zeros(4), 1) == 0.0
    assert tail_profile(std, std, np.eye(4)[3], 4) == 1.0
    assert tail_profile(std, summing, np.eye(4)[0], 2) == 0.0


def test_tail_profile_matches_direct_enumeration(rng):
    f0 = random_frame_system(rng, 5, L1)
    f1 = random_frame_system(rng, 5, L1)
    x = rng.standard_normal(5)
    start = 2
    got = tail_profile(f0, f1, x, start)
    best = 0.0
    for m in range(start, 6):
        for k in range(m, 6):
            width = k - m + 1
            for bits in itertools.product([0, 1], repeat=width):
                total = np.zeros(5)
                for offset, b in enumerate(bits):
                    j = m + offset - 1
                    sys_ = f1 if b else f0
                    total = total + sys_.functionals[j] @ x * sys_.vectors[j]
                best = max(best, np.abs(total).sum())
    assert got == pytest.approx(best, rel=1e-12)


def test_uniform_bound_profile():
    std = standard_system(3)
    assert uniform_bound_profile(std, std).value == 1.0
    std_inf = standard_system(2, LINF)
    summing = summing_system(2)
    est = uniform_bound_profile(std_inf, summing)
    assert est.value == 2.0
    assert est.exactness is Exactness.EXACT
    doubled = uniform_bound_profile(std_inf.scaled_functionals(2.0),
                                    summing.scaled_functionals(2.0))
    assert doubled.value == 4.0


def test_lower_bound_profile():
    std = standard_system(3)
    assert lower_bound_profile(std, std) == 1.0
    std_inf = standard_system(2, LINF)
    assert lower_bound_profile(std_inf, summing_system(2)) == 0.5
    broken = np.eye(3)
    broken[0] = 0.0
    f1 = FrameSystem(NormedSpace(3, L1), broken, np.eye(3))
    assert lower_bound_profile(standard_system(3), f1) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_pattern_sums_are_refused():
    # each term x_i f_i^T is 1e320: finite vectors, non-finite operators
    huge = FrameSystem(NormedSpace(3, LINF), 1e160 * np.eye(3), 1e160 * np.eye(3))
    std = standard_system(3, LINF)
    for mode in (None, heuristic(2)):
        with pytest.raises(InputError, match="operator entries must be finite"):
            worst_weaving(std, huge, **({"mode": mode} if mode else {}))
    with pytest.raises(InputError, match="operator entries must be finite"):
        lower_bound_profile(std, huge)
    with pytest.raises(InputError, match="operator entries must be finite"):
        check_approximate_frame(huge)


def test_overflowing_inverses_are_refused():
    # every weaving is 1e-320 * I: condition number 1, inverse 1e320 * I
    tiny = FrameSystem(NormedSpace(3, LINF), 1e-160 * np.eye(3), 1e-160 * np.eye(3))
    for mode in (None, heuristic(2)):
        with pytest.raises(InputError, match="operator entries must be finite"):
            worst_weaving(tiny, tiny, **({"mode": mode} if mode else {}))
    with pytest.raises(InputError, match="operator entries must be finite"):
        check_approximate_frame(tiny)
    with pytest.raises(InputError, match="operator entries must be finite"):
        pair_perturbation_check(tiny, tiny)
    # a certificate that reaches the inversion of such a weaving
    with pytest.raises(InputError, match="operator entries must be finite"):
        _certify_residuals(tiny, tiny, np.zeros((3, 3)), bound=2.0, seed=0)


def test_incompatible_systems_rejected():
    with pytest.raises(InputError):
        weave(standard_system(2), standard_system(3), WeavePattern.zeros(2))
    with pytest.raises(InputError):
        worst_weaving(standard_system(2), standard_system(2, LINF))


@given(st.integers(0, 31), st.integers(1, 4))
def test_partial_interval_splits_agree(pattern_index, split):
    std = standard_system(5, LINF)
    summing = summing_system(5)
    pattern = WeavePattern.from_index(pattern_index, 5)
    whole = partial_operator(std, summing, IntervalOperatorQuery(pattern, 1, 5))
    left = partial_operator(std, summing, IntervalOperatorQuery(pattern, 1, split))
    right = partial_operator(std, summing, IntervalOperatorQuery(pattern, split + 1, 5))
    assert np.array_equal(whole, left + right)  # integer entries: exact


@given(st.lists(st.integers(0, 1), min_size=2, max_size=6))
def test_weave_then_complement_swaps_systems(bits):
    d = len(bits)
    std = standard_system(d, LINF)
    summing = summing_system(d)
    pattern = WeavePattern(tuple(bits))
    fwd = weave(std, summing, pattern)
    rev = weave(summing, std, pattern.complement())
    assert np.array_equal(fwd.vectors, rev.vectors)
    assert np.array_equal(fwd.functionals, rev.functionals)


def test_log_cap_checked_before_enumerating(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was enumerated before the log cap check")

    monkeypatch.setattr(search, "exhaustive_table", no_table)
    std = standard_system(13, LINF)
    with pytest.raises(InputError):
        worst_weaving(std, summing_system(13), log_all_patterns=True)


def test_weaving_basis_constants_skips_dependent_weavings():
    # x_1 of the second system is e_2, so any weaving taking x_1 from it and
    # x_2 from the standard basis repeats e_2
    f0 = standard_system(3, LINF)
    v1 = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    f1 = FrameSystem(f0.space, v1, biorthogonals(v1))
    all_bases, worst = weaving_basis_constants(f0, f1)
    expected = []
    for m in range(8):
        woven = weave(f0, f1, WeavePattern.from_index(m, 3))
        try:
            duals = biorthogonals(woven.vectors)
        except NotABasis:
            continue
        expected.append(basis_constant(woven.vectors, f0.space, duals).value)
    assert not all_bases
    assert 0 < len(expected) < 8
    assert worst == max(expected) > 1.0


def test_sample_patterns_anchors_and_count():
    picks = sample_patterns(9, 40, seed=3)
    assert picks == sorted(set(picks))
    assert len(picks) == 40
    alternating = WeavePattern.alternating(9)
    assert {0, 2 ** 9 - 1, alternating.index,
            alternating.complement().index} <= set(picks)
    assert sample_patterns(3, 40, seed=3) == list(range(8))
    assert sample_patterns(9, 40, seed=3) == picks
