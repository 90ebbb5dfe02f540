import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weavelab import (L1, L2, LINF, Exactness, FrameSystem, GallerySpec,
                      InputError, IntervalOperatorQuery, NormedSpace, NotABasis,
                      WeavePattern, basis_constant, biorthogonals,
                      check_approximate_frame, frame_operator, generate, heuristic, lp,
                      lower_bound_profile, partial_operator,
                      pair_perturbation_check, partial_operator_subset, search,
                      suppression_constant, tail_profile,
                      unc_conditions, unconditional_constant,
                      uniform_bound_profile, weave, worst_weaving)
from weavelab import frames, subspaces
from weavelab.frames import frame_constants, outer_stack
from weavelab.normed import batch_opnorm_values
from weavelab.perturb import EXHAUSTIVE_CERT_CAP, _certify_residuals
from weavelab.weaving import sample_patterns, weaving_basis_constants
from conftest import random_basis, random_basis_system, random_frame_system
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


def test_weave_equals_the_system_built_from_wheres(rng):
    # vectors, functionals, label and read-only flags, pattern by pattern
    pairs = [(generate(GallerySpec("standard-c0", 6)), generate(GallerySpec("summing-c0", 6))),
             (random_frame_system(rng, 6, L1), random_frame_system(rng, 6, L1))]
    for f0, f1 in pairs:
        for m in range(1 << 6):
            pattern = WeavePattern.from_index(m, 6)
            woven = weave(f0, f1, pattern)
            sel = np.array(pattern.bits, dtype=bool)[:, None]
            bits = "".join(str(b) for b in pattern.bits)
            ref = FrameSystem(f0.space, np.where(sel, f1.vectors, f0.vectors),
                              np.where(sel, f1.functionals, f0.functionals),
                              label=f"weave[{bits}]({f0.label}|{f1.label})")
            assert woven.space == ref.space and woven.label == ref.label
            for got, want in ((woven.vectors, ref.vectors),
                              (woven.functionals, ref.functionals)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable and not want.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 0] = 1.0


def test_partial_operator_examples():
    std = standard_system(2, LINF)
    summing = summing_system(2)
    q = IntervalOperatorQuery(WeavePattern.from_string("10"), 1, 1)
    assert np.array_equal(partial_operator(std, summing, q), [[1, -1], [0, 0]])
    assert np.array_equal(
        partial_operator_subset(std, summing, WeavePattern.from_string("10"), []),
        np.zeros((2, 2)))
    with pytest.raises(InputError, match="out of range"):
        partial_operator_subset(std, summing, WeavePattern.from_string("10"), [3])


def test_partial_operator_subset_refuses_a_pattern_of_another_length():
    # a one-bit pattern would otherwise broadcast over every pair
    std, summing = standard_system(3, LINF), summing_system(3)
    for bits in ("1", "11"):
        with pytest.raises(InputError, match="pattern of length"):
            partial_operator_subset(std, summing, WeavePattern.from_string(bits), [1, 2, 3])


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


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
def test_worst_weaving_refuses_a_threshold_that_is_not_finite_and_positive(threshold):
    # inf would pass the singular weavings here, nan every pattern
    broken = np.eye(3)
    broken[0] = 0.0
    f1 = FrameSystem(NormedSpace(3, L1), broken, np.eye(3))
    with pytest.raises(InputError, match="finite and positive"):
        worst_weaving(standard_system(3), f1, blow_up_threshold=threshold)


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


def _basis_constants_one_by_one(f0, f1):
    """Reference: the per-weaving loop that ``weaving_basis_constants`` ran
    before it became a row function on ``search.pattern_table``."""
    n = f0.n
    all_bases, worst = True, 0.0
    for bits in search.bit_rows(np.arange(1 << n, dtype=np.uint64), n):
        vectors = np.where(bits[:, None], f1.vectors, f0.vectors)
        try:
            duals = biorthogonals(vectors)
        except NotABasis:
            all_bases = False
            continue
        worst = max(worst, basis_constant(vectors, f0.space, duals).value)
    return all_bases, worst


def test_exhaustive_results_do_not_depend_on_thread_count(rng, monkeypatch):
    f0 = random_frame_system(rng, 10, LINF)
    f1 = random_frame_system(rng, 10, LINF)
    assert search.chunk_size_for(4 * 10 * 10) < 2 ** 10  # several chunks to share
    s_inv = np.linalg.inv(frame_operator(f0).entries)
    g0, g1 = (random_frame_system(rng, EXHAUSTIVE_CERT_CAP + 1, LINF) for _ in range(2))
    g_inv = np.linalg.inv(frame_operator(g0).entries)
    # bases near each other, so that the six-way flags are mixed; 3 chunks at d = 9
    v0 = random_basis(rng, 9)
    v1 = v0 + 0.03 * rng.standard_normal((9, 9))
    b0, b1 = (FrameSystem(NormedSpace(9, L1), v, biorthogonals(v)) for v in (v0, v1))
    assert search.chunk_size_for(9 ** 3) < 2 ** 9
    # the c0 gallery pair, and a pair whose weavings that take x_1 from the
    # second system and x_2 from the first repeat e_2
    c0_pair = (generate(GallerySpec("standard-c0", 10)), generate(GallerySpec("summing-c0", 10)))
    v_dep = random_basis(rng, 8)
    v_dep[0] = np.eye(8)[1]
    dep_pair = (standard_system(8, LINF), FrameSystem(NormedSpace(8, LINF), v_dep,
                                                      biorthogonals(v_dep)))
    basis_pairs = (c0_pair, dep_pair)
    references = [_basis_constants_one_by_one(*pair) for pair in basis_pairs]
    assert references[0][0] and not references[1][0]
    certs = (_certify_residuals(f0, f1, s_inv, bound=1.0, seed=0),
             _certify_residuals(g0, g1, g_inv, bound=1.0, seed=5))
    unc = unc_conditions(b0, b1, threshold=16.0)
    monkeypatch.setattr(search, "CHUNK_BUDGET", 4 * 8 * 8 * 40)  # chunks of 25 and 40 weavings
    assert [weaving_basis_constants(*pair) for pair in basis_pairs] == references
    assert [c.exhaustive for c in certs] == [True, False]
    assert not unc.agree  # the flags differ between conditions or patterns


def test_certificate_lists_the_first_failures_across_chunks():
    # only the first pair differs, so exactly the patterns from 1000000000 on fail
    f0 = standard_system(10)
    v1 = np.eye(10)
    v1[0, 1] = 0.9
    f1 = FrameSystem(f0.space, v1, np.eye(10))
    assert search.chunk_size_for(4 * 10 * 10) < 512  # the failures start past the first chunk
    cert = _certify_residuals(f0, f1, np.eye(10), bound=0.0, seed=0)
    assert not cert.holds and cert.patterns_checked == 1024
    assert cert.failures == tuple(str(WeavePattern.from_index(m, 10)) for m in range(512, 528))


def test_tail_profile_examples():
    std = standard_system(4, LINF)
    summing = summing_system(4)
    assert tail_profile(std, summing, np.zeros(4), 1) == 0.0
    assert tail_profile(std, std, np.eye(4)[3], 4) == 1.0
    assert tail_profile(std, summing, np.eye(4)[0], 2) == 0.0


def test_tail_profile_refuses_a_point_that_is_not_one():
    # a short x raised numpy's ValueError, and a NaN entry read 0.0
    std, diff = (generate(GallerySpec(name, 3)) for name in ("standard-l1", "difference-l1"))
    assert tail_profile(std, diff, [1.0, 1.0, 1.0], 1) == 5.0
    for x, message in (([1.0, 1.0], "^point of length 2 in a dim-3 space$"),
                       ([np.nan, 1.0, 1.0], "non-finite"), ([1.0, np.inf, 1.0], "non-finite"),
                       ([1j, 1.0, 1.0], "must be real")):
        with pytest.raises(InputError, match=message):
            tail_profile(std, diff, x, 1)


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


def _uniform_profile_by_concatenation(f0, f1):
    """Reference: every interval [m, k] grown from [m, k - 1] by one
    concatenation of its sums plus each system's k-th term."""
    d, kind = f0.space.dim, f0.space.norm
    o0 = outer_stack(f0.vectors, f0.functionals)
    o1 = outer_stack(f1.vectors, f1.functionals)
    best = 0.0
    for m in range(1, f0.n + 1):
        mats = np.zeros((1, d, d))
        for k in range(m, f0.n + 1):
            mats = np.concatenate([mats + o0[k - 1], mats + o1[k - 1]])
            best = max(best, float(batch_opnorm_values(mats, kind, kind)[0].max()))
    return best


def test_uniform_bound_profile_matches_a_concatenated_build(rng):
    pairs = [(generate(GallerySpec(a, d)), generate(GallerySpec(b, d)))
             for a, b in (("standard-c0", "summing-c0"), ("standard-l1", "difference-l1"))
             for d in range(2, 13)]
    pairs += [(random_basis_system(rng, d, kind), random_basis_system(rng, d, kind))
              for kind in (L1, L2, LINF, lp(3.0)) for d in (3, 5, 7)]
    for f0, f1 in pairs:
        got = uniform_bound_profile(f0, f1)
        assert got.value.hex() == _uniform_profile_by_concatenation(f0, f1).hex()


def test_uniform_bound_profile_memory_is_bounded_by_the_chunk_budget(rng):
    # the interval [1, 16] has 65,536 local patterns: graded in one call,
    # their 6 x 6 sums alone would take 18 MiB
    sp = NormedSpace(6, L1)
    f0, f1 = (FrameSystem(sp, rng.standard_normal((16, 6)), rng.standard_normal((16, 6)) / 16)
              for _ in range(2))
    tracemalloc.start()
    try:
        uniform_bound_profile(f0, f1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * search.CHUNK_BUDGET  # 4 MiB: a few chunks' floats


def test_uniform_bound_profile_dominates_every_weaving_sum(rng):
    # its interval [1, n] holds every S_sigma of the weaving table, summed
    # in the table's order, also for 1 x 1 sums of eight or more terms
    sp = NormedSpace(1, L1)
    for n in range(8, 13):
        for _ in range(6):
            f0, f1 = (FrameSystem(sp, rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))
                      for _ in range(2))
            table = worst_weaving(f0, f1, log_all_patterns=True).per_pattern_log
            assert uniform_bound_profile(f0, f1).value >= max(s for _, s, _ in table)


def test_lower_bound_profile():
    std = standard_system(3)
    assert lower_bound_profile(std, std) == 1.0
    std_inf = standard_system(2, LINF)
    assert lower_bound_profile(std_inf, summing_system(2)) == 0.5
    broken = np.eye(3)
    broken[0] = 0.0
    f1 = FrameSystem(NormedSpace(3, L1), broken, np.eye(3))
    assert lower_bound_profile(standard_system(3), f1) == 0.0


def test_overflowing_pattern_sums_are_refused():
    # each term x_i f_i^T is 1e320: finite vectors, non-finite operators
    huge = FrameSystem(NormedSpace(3, LINF), 1e160 * np.eye(3), 1e160 * np.eye(3))
    std = standard_system(3, LINF)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # refused before numpy warns
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

    monkeypatch.setattr(search, "pattern_table", no_table)
    std = standard_system(13, LINF)
    with pytest.raises(InputError):
        worst_weaving(std, summing_system(13), log_all_patterns=True)


def test_weaving_basis_constants_refuses_above_the_exhaustive_cap(monkeypatch):
    # as lower_bound_profile does: the table holds a row for each of the 2^n weavings
    monkeypatch.setattr(search, "DEFAULT_EXHAUSTIVE_CAP", 8)
    with pytest.raises(InputError, match="exhaustive enumeration"):
        weaving_basis_constants(standard_system(4, LINF), summing_system(4))


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


def test_negative_seeds_are_refused_where_they_reach_a_generator():
    std, summing = standard_system(4, LINF), summing_system(4)
    calls = (lambda: worst_weaving(std, summing, heuristic(2), seed=-1),
             lambda: suppression_constant(summing, heuristic(2), seed=-1),
             lambda: unc_conditions(std, summing, scope="sampled", seed=-1),
             lambda: sample_patterns(9, 40, seed=-1),
             lambda: search.hill_climb(4, float, 2, seed=-1))
    for call in calls:
        with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
            call()


def _hill_climb_one_at_a_time(n_bits, value_of, restarts, seed, extra_starts=()):
    # the reference: one start climbed after another, one value per request
    total = 1 << n_bits
    rng = np.random.default_rng(seed)
    starts = [0, total - 1]
    starts.extend(extra_starts)
    for _ in range(restarts):
        starts.append(int(rng.integers(0, total)))
    best_v, best_m = -np.inf, 0
    for start in starts:
        cur = start
        cur_v = value_of(cur)
        improved = True
        while improved:
            improved = False
            for bit in range(n_bits):
                neigh = cur ^ (1 << (n_bits - 1 - bit))
                nv = value_of(neigh)
                if nv > cur_v:
                    cur, cur_v = neigh, nv
                    improved = True
        if cur_v > best_v or (cur_v == best_v and cur < best_m):
            best_v, best_m = cur_v, cur
    return best_m


def _greedy_add_one_at_a_time(n_bits, value_of):
    cur = 0
    cur_v = value_of(0)
    while True:
        best_gain_m, best_gain_v = None, cur_v
        for bit in range(n_bits):
            mask = 1 << (n_bits - 1 - bit)
            if cur & mask:
                continue
            cand = cur | mask
            cv = value_of(cand)
            if cv > best_gain_v:
                best_gain_v, best_gain_m = cv, cand
        if best_gain_m is None:
            return cur
        cur, cur_v = best_gain_m, best_gain_v


class _CountingValues(search.Values):
    requests = 0

    def __getitem__(self, m):
        self.requests += 1
        return super().__getitem__(m)


def test_lockstep_climbs_grade_what_one_climb_at_a_time_grades(rng):
    # value tables with few levels (ties everywhere), repeated starts (n = 3
    # with 12 restarts, and extra starts that repeat 0): the same winner,
    # graded set and request count, each index graded once in sorted batches
    for n, restarts, levels in ((3, 12, 2), (5, 6, 3), (8, 8, 4), (10, 32, 1000), (12, 3, 5)):
        table = rng.integers(0, levels, size=1 << n).astype(float)
        picks = (0, int(rng.integers(1 << n)))
        for greedy in (False, True):
            memo, requests = {}, []

            def value_of(m):
                requests.append(m)
                return memo.setdefault(m, table[m])

            extra = ((_greedy_add_one_at_a_time(n, value_of),) if greedy else ()) + picks
            best = _hill_climb_one_at_a_time(n, value_of, restarts, n, extra)
            batches = []

            def grade(ms):
                batches.append(ms)
                return table[ms].tolist()

            values = _CountingValues(grade)
            assert ((search.greedy_add(n, values),) if greedy else ()) + picks == extra
            assert search.hill_climb(n, values, restarts, n, extra) == best
            graded = [m for ms in batches for m in ms]
            assert sorted(graded) == sorted(memo) == sorted(values)
            assert all(ms == sorted(set(ms)) for ms in batches)
            assert values.requests == len(requests)
            assert len(batches) < len(graded) or n == 3


def test_heuristic_rows_match_one_pattern_constants_on_any_thread_count():
    # every round of a d = 32 heuristic(32) search (34 climbs, more than the
    # evaluator's 32 workspace rows) grades its rows on the calling thread,
    # bit for bit as each pattern alone
    f0, f1 = _c0_pair(32)
    alone = frames.ChunkEvaluator.weavings(f0, f1)
    evaluator, callers = frames.ChunkEvaluator.weavings(f0, f1), set()

    def rows_of(ms):
        callers.add(threading.get_ident())
        return evaluator.constants(ms)

    _, worst, ms, rows = search.maximize(32, rows_of, heuristic(32), 0, evaluator.rows)
    best = worst.witness
    assert callers == {threading.get_ident()} and len(ms) == 2086
    for m, row in zip(ms, rows):
        assert row.tobytes() == alone.constants(np.array([m], dtype=np.uint64))[0].tobytes()
    result = worst_weaving(f0, f1, heuristic(32), seed=0)
    assert result.worst_pattern.index == ms[best] and result.patterns_evaluated == len(ms)
    assert result.worst_constant == rows[best, 0::2].max() == worst.value


def test_searches_take_64_bit_patterns_and_refuse_more(rng, capsys):
    space = NormedSpace(2, L1)
    pairs = [FrameSystem(space, rng.standard_normal((64, 2)), rng.standard_normal((64, 2)))
             for _ in range(2)]
    result = worst_weaving(*pairs, heuristic(2), seed=1)
    assert result.worst_pattern.n == 64 and result.patterns_evaluated > 64
    picks = sample_patterns(64, 40, seed=3)
    assert len(picks) == 40 and picks[-1] == 2 ** 64 - 1
    assert search.hill_climb(64, search.Values(lambda ms: [bin(m).count("1") for m in ms]),
                             3, seed=0) == 2 ** 64 - 1
    wide = [FrameSystem(space, rng.standard_normal((65, 2)), rng.standard_normal((65, 2)))
            for _ in range(2)]
    for call in (lambda: worst_weaving(*wide, heuristic(0)),
                 lambda: suppression_constant(wide[0], heuristic(0)),
                 lambda: sample_patterns(65, 40, seed=3)):
        with pytest.raises(InputError, match="patterns of 65 bits; at most 64 are supported"):
            call()
    from weavelab.cli import main
    assert main(["weave-search", "gallery:standard-c0", "gallery:summing-c0", "--dim", "65",
                 "--mode", "heuristic", "--restarts", "0"]) == 1
    assert "at most 64 are supported" in capsys.readouterr().err


def _c0_pair(d: int):
    return generate(GallerySpec("standard-c0", d)), generate(GallerySpec("summing-c0", d))


def test_chunk_evaluator_keeps_one_workspace(monkeypatch):
    # each chunk of a table reads the workspace its evaluator built at the first
    workspaces = {}  # evaluator -> the workspace each of its chunks read
    sums = frames.ChunkEvaluator._sums

    def recording(self, *args, **kwargs):
        out = sums(self, *args, **kwargs)
        workspaces.setdefault(self, []).append(self.workspace)
        return out

    monkeypatch.setattr(frames.ChunkEvaluator, "_sums", recording)
    monkeypatch.setattr(search, "CHUNK_BUDGET", 4 * 6 * 6 * 10)  # chunks of 10 weavings
    f0, f1 = _c0_pair(6)
    tables = (lambda: worst_weaving(f0, f1), lambda: lower_bound_profile(f0, f1),
              lambda: suppression_constant(f1),
              lambda: _certify_residuals(f0, f1, np.eye(6), bound=1.0, seed=0),
              lambda: uniform_bound_profile(f0, f1))
    for table, chunks in zip(tables, (7, 7, 7, 7, 36)):  # the profile: 21 interval tables
        workspaces.clear()
        table()
        # one evaluator; for the profile, one for all 21 interval tables
        (seen,) = workspaces.values()
        assert len(seen) == chunks and all(ws is seen[0] for ws in seen)
        levels, spare = seen[0]
        assert [len(a) for a in (*levels, spare)] == [10] * 3


def test_an_evaluator_holds_its_terms_once(monkeypatch):
    # the weaving table is multiplied in place: no outer-product stack is
    # built beside it (numpy's iterator buffers add about 0.2 MB)
    f0, f1 = _c0_pair(40)
    tracemalloc.start()
    try:
        weavings = frames.ChunkEvaluator.weavings(f0, f1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weavings.terms.shape == (40, 2, 40, 40)
    assert peak < 1.5 * weavings.terms.nbytes
    for side, f in enumerate((f0, f1)):
        assert weavings.terms[:, side].tobytes() == \
            outer_stack(f.vectors, f.functionals).tobytes()
    # C_s and C_u tables: g = x_i f_i^T S^-1 and 0 or -g, in one table
    built = []

    class Recording(frames.ChunkEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(frames, "ChunkEvaluator", Recording)
    for table, signed in ((suppression_constant, False), (unconditional_constant, True)):
        built.clear()
        table(f1)
        (evaluator,) = built
        arrays = [v for v in vars(evaluator).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2 and arrays[1] is evaluator.eye  # the table and the identity
        on, off = evaluator.terms[:, 1], evaluator.terms[:, 0]
        assert off.tobytes() == (-on if signed else np.zeros_like(on)).tobytes()


def test_one_pattern_constants_allocate_no_stack_of_terms():
    # a climb's one-pattern calls gather their terms into the kept
    # workspace: 100 of them at d = 32 never hold n d x d floats at once
    f0, f1 = _c0_pair(32)
    weavings = frames.ChunkEvaluator.weavings(f0, f1)
    patterns = np.random.default_rng(0).integers(0, 1 << 32, size=100, dtype=np.uint64)
    weavings.constants(patterns[:1])  # builds the workspace
    tracemalloc.start()
    try:
        for k in range(len(patterns)):
            weavings.constants(patterns[k:k + 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 32 * 32 * 8


def test_a_round_of_random_patterns_gathers_no_stack_of_terms():
    # ten d = 32 patterns that share no prefix: the top of their sums is
    # added term by term, not gathered (10 x 27 x 32 x 32 floats, 2.2 MB)
    f0, f1 = _c0_pair(32)
    weavings = frames.ChunkEvaluator.weavings(f0, f1)
    patterns = np.sort(np.random.default_rng(1).integers(0, 1 << 32, size=10, dtype=np.uint64))
    weavings.constants(patterns[:1])  # builds the workspace
    tracemalloc.start()
    try:
        weavings.constants(patterns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 32 * 32 * 8


def test_import_leaves_thread_pools_unloaded():
    # the package never imports concurrent.futures or the logging it loads
    code = "import sys, weavelab; print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(frames.__file__).parents[1])),
                          check=True)
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("raw", ["4", "abc"])
def test_tables_run_on_the_calling_thread_whatever_weavelab_threads_reads(monkeypatch, raw):
    # a multi-chunk weaving table, six-way check and uniform profile read the
    # same bytes with the variable set as unset, every row on the caller's thread
    f0, f1 = _c0_pair(10)
    b0, b1 = (generate(GallerySpec(name, 7)) for name in ("blockpair-a0", "blockpair-a1"))
    monkeypatch.setattr(search, "CHUNK_BUDGET", 2 ** 14)  # 26, 3 and up to 26 chunks
    tables = (lambda: worst_weaving(f0, f1, log_all_patterns=True),
              lambda: unc_conditions(b0, b1), lambda: uniform_bound_profile(f0, f1))
    callers = set()
    pattern_table = search.pattern_table

    def recording(ms, rows_of, *args, **kwargs):
        def traced(idx):
            callers.add(threading.get_ident())
            return rows_of(idx)
        return pattern_table(ms, traced, *args, **kwargs)

    monkeypatch.setattr(search, "pattern_table", recording)
    monkeypatch.setattr(subspaces, "pattern_table", recording)
    monkeypatch.delenv("WEAVELAB_THREADS", raising=False)
    unset = [repr(dataclasses.astuple(table())) for table in tables]
    monkeypatch.setenv("WEAVELAB_THREADS", raw)
    assert [repr(dataclasses.astuple(table())) for table in tables] == unset
    assert callers == {threading.get_ident()}
    code = ("import sys; from weavelab import GallerySpec, generate, worst_weaving; "
            "worst_weaving(*(generate(GallerySpec(n, 10)) for n in ('standard-c0', 'summing-c0')));"
            " print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, WEAVELAB_THREADS=raw,
                                   PYTHONPATH=str(Path(frames.__file__).parents[1])),
                          check=True)
    assert proc.stdout.split() == ["False"]


def _rows_one_by_one(f0, f1, log):
    rows = []
    for bits, _, _ in log:
        woven = weave(f0, f1, WeavePattern.from_string(bits))
        s_norm, s_inv, _ = frame_constants(frame_operator(woven).entries, woven.space)
        rows.append((bits, s_norm.value, np.inf if s_inv is None else s_inv.value))
    return rows


def test_table_rows_over_a_partial_last_chunk_match_frame_constants():
    # 2,048 weavings at d = 11: seven chunks of 270 and a last one of 158
    assert search.chunk_size_for(search.CELLS_PER_SUM * 11 * 11) == 270
    f0, f1 = _c0_pair(11)
    log = worst_weaving(f0, f1, log_all_patterns=True).per_pattern_log
    assert len(log) == 2048
    assert log == _rows_one_by_one(f0, f1, log)


def test_tables_with_singular_weavings_in_every_chunk_do_not_depend_on_threads():
    # the last vector of the second system is zero, so every odd pattern's
    # S_sigma is exactly singular: each of the 4 chunks refuses the stacked solve
    pairs = []
    for a, b in (("standard-c0", "summing-c0"), ("standard-l1", "difference-l1")):
        f0, f1 = generate(GallerySpec(a, 10)), generate(GallerySpec(b, 10))
        vectors = f1.vectors.copy()
        vectors[-1] = 0.0
        pairs.append((f0, FrameSystem(f1.space, vectors, f1.functionals)))
    assert search.chunk_size_for(search.CELLS_PER_SUM * 10 * 10) == 327
    for f0, f1 in pairs:
        log = worst_weaving(f0, f1, log_all_patterns=True).per_pattern_log
        assert lower_bound_profile(f0, f1) == 0.0
        assert all(s_inv == np.inf for _, _, s_inv in log[1::2])
        assert log[::97] == _rows_one_by_one(f0, f1, log[::97])
