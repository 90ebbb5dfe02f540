import dataclasses
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import weavelab

from weavelab import (L1, L2, LINF, DenseOperator, DistanceZero, Exactness,
                      FrameSystem, GallerySpec, InputError, NormedSpace,
                      NotABasis, NotAFrame, NotInvertible, SpannedSubspace,
                      WeavePattern, basis_projection, biorthogonals,
                      direct_sum_projection, distance_to_span, generate, heuristic, lp,
                      norming_vector, oblique_projection, partial_operator_subset,
                      projection_pair, restricted_inverse,
                      subspace_distance, unc_conditions, unconditional_constant,
                      vector_norm, weave)
from weavelab import search, subspaces
from weavelab.frames import outer_stack
from weavelab.fileio import load_system
from weavelab.normed import batch_vector_norms
from weavelab.subspaces import batch_ratio_ascent
from conftest import (random_basis, random_basis_system,
                      random_one_unconditional_basis)
from test_frames import standard_system, summing_system


def coordinate_projection(d, indices, norm=L1):
    p = np.zeros((d, d))
    for i in indices:
        p[i, i] = 1.0
    return DenseOperator(p, norm, norm)


# --- basis projections -------------------------------------------------------

def test_basis_projection_examples():
    std = standard_system(3)
    assert np.array_equal(basis_projection(std, range(1, 4)).entries, np.eye(3))
    assert np.array_equal(basis_projection(std, []).entries, np.zeros((3, 3)))
    only1 = basis_projection(std, [1]).entries
    assert np.array_equal(only1, np.outer(np.eye(3)[0], np.eye(3)[0]))
    with pytest.raises(InputError):
        basis_projection(std, [0])


def test_subset_indices_must_be_whole_numbers():
    # 1.7 used to be truncated to the index 1
    std, summing = standard_system(3), summing_system(3)
    for bad in ([1.7], [1, 2.5], [float("nan")], [float("inf")], ["1"]):
        with pytest.raises(InputError, match="whole numbers"):
            basis_projection(std, bad)
    with pytest.raises(InputError, match="whole numbers"):
        projection_pair(std, summing, [0.5])
    with pytest.raises(InputError, match="whole numbers"):
        partial_operator_subset(std, std, WeavePattern.zeros(3), [np.float64(2.2)])
    # a whole number of any numeric type is that index
    assert np.array_equal(basis_projection(std, [1.0, np.int64(3)]).entries,
                          basis_projection(std, [1, 3]).entries)


def test_basis_projection_idempotent_complement_exact_integers():
    summing = summing_system(4)
    for gamma in ([1], [2, 4], [1, 3, 4]):
        complement = [i for i in range(1, 5) if i not in gamma]
        p = basis_projection(summing, gamma).entries
        q = basis_projection(summing, complement).entries
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p + q, np.eye(4))


def test_basis_projection_idempotent_random(rng):
    system = random_basis_system(rng, 6, L1)
    p = basis_projection(system, [1, 4, 5]).entries
    assert np.abs(p @ p - p).max() <= 1e-10


# --- restricted inverses -----------------------------------------------------

def test_restricted_inverse_examples():
    sp = NormedSpace(2, L1)
    span12 = SpannedSubspace(sp, np.eye(2))
    eye = DenseOperator.identity(sp)
    assert restricted_inverse(eye, span12, span12).norm.value == 1.0
    two = DenseOperator.on_space(2 * np.eye(2), sp)
    assert restricted_inverse(two, span12, span12).norm.value == 0.5
    p = coordinate_projection(2, [0])
    got = restricted_inverse(p, SpannedSubspace(sp, [[1, 1]]),
                             SpannedSubspace(sp, [[1, 0]]))
    assert got.norm.value == 2.0
    assert got.norm.exactness is Exactness.EXACT


def test_restricted_inverse_l2_exact(rng):
    sp = NormedSpace(4, L2)
    m = DenseOperator.on_space(rng.standard_normal((4, 4)) + 2 * np.eye(4), sp)
    sub = SpannedSubspace(sp, np.linalg.qr(rng.standard_normal((4, 2)))[0].T)
    image = SpannedSubspace(sp, (m.entries @ sub.generators.T).T)
    got = restricted_inverse(m, sub, image)
    assert got.norm.exactness is Exactness.EXACT
    # the lift really inverts M on the subspace
    x = sub.generators.T @ np.array([0.3, -1.2])
    assert np.abs(got.ambient @ (m.entries @ x) - x).max() <= 1e-10


def test_restricted_inverse_errors():
    sp = NormedSpace(3, L1)
    p = coordinate_projection(3, [0])
    dom = SpannedSubspace(sp, [[0, 1, 0]])
    cod = SpannedSubspace(sp, [[1, 0, 0]])
    with pytest.raises(NotInvertible):
        restricted_inverse(p, dom, cod)  # P kills the domain
    off = SpannedSubspace(sp, [[0, 0, 1]])
    with pytest.raises(InputError):
        restricted_inverse(p, SpannedSubspace(sp, [[1, 1, 0]]), off)


def _reference_norming(z, kind):
    """The per-vector subgradient the lockstep ascent replaced."""
    if kind.tag == "linf":
        out = np.zeros_like(z)
        j = int(np.argmax(np.abs(z)))
        out[j] = 1.0 if z[j] >= 0 else -1.0
        return out
    if kind.tag == "l1":
        return np.where(z >= 0, 1.0, -1.0)
    return norming_vector(z, kind.dual())


def _reference_ratio_ascent(numer, denom, kind, starts=64, iters=60):
    """The one-pair, one-climb-at-a-time loop batch_ratio_ascent replaced."""
    k = numer.shape[1]
    cands = [np.ones(k)]
    if 2 <= k <= 7:
        for signs in itertools.product((1.0, -1.0), repeat=k - 1):
            cands.append(np.array((1.0,) + signs))
    cands.extend(np.eye(k))
    rng = np.random.default_rng(11)
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
            g = (numer.T @ _reference_norming(nv, kind) / n_n
                 - denom.T @ _reference_norming(dv, kind) / n_d)
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


def _ratio_stacks(rng, k):
    """(lifts, generators) for k: random pairs, a zero numerator, a generator
    combination with zero image (one start's denominator is zero) and an
    all-zero generator stack."""
    d = k + 2
    numers = rng.standard_normal((5, d, k))
    gens = rng.standard_normal((5, k, d))
    numers[1] = 0.0
    gens[2, -1] = gens[2, 0] - gens[2, 1] if k > 2 else 0.0
    gens[3] = 0.0
    numers[4] = np.round(8 * numers[4]) / 8  # dyadic, so ratios tie
    gens[4] = np.round(4 * gens[4]) / 4
    return numers, gens


def test_batch_ratio_ascent_matches_the_one_call_loop(rng):
    for kind in (L1, LINF, lp(1.5), lp(3.0)):
        for k in range(2, 9):
            numers, gens = _ratio_stacks(rng, k)
            values = batch_ratio_ascent(numers, gens, kind)
            for numer, g, value in zip(numers, gens, values):
                ref = _reference_ratio_ascent(numer, g.T, kind)
                assert float(value).hex() == ref.hex(), (kind, k)
            assert values[1] == 0.0 and values[3] == -np.inf
    numer = np.array([[-0.3, 0.1, 0.5], [-0.3, -1.0, 0.9], [1.0, 0.6, 0.6], [-0.8, 0.7, -0.3]])
    gens = np.array([[-0.7, -0.3, 0.1, -0.5], [-0.1, 1.3, -1.0, 1.9], [1.9, -1.7, -0.1, 0.3]])
    with np.errstate(over="ignore", invalid="ignore"):
        for kind in (L1, LINF, lp(3.0)):  # the norms overflow, the vectors do not
            assert batch_ratio_ascent(1e308 * numer[None], gens[None], kind)[0] == np.inf
            assert _reference_ratio_ascent(1e308 * numer, gens.T, kind) == np.inf
        for kind in (L1, LINF, lp(3.0)):  # a climb steps to an overflowing N c
            assert np.isnan(batch_ratio_ascent(1.7e308 * numer[None], gens[None], kind)[0])
        with pytest.raises(InputError):  # which the one-call loop refused for lp
            _reference_ratio_ascent(1.7e308 * numer, gens.T, lp(3.0))


def test_batch_ratio_ascent_does_not_depend_on_its_stack(rng):
    numers = rng.standard_normal((7, 5, 3))
    gens = rng.standard_normal((7, 3, 5))
    numers[2] = 0.0
    values = batch_ratio_ascent(numers, gens, lp(3.0))
    order = rng.permutation(7)
    assert batch_ratio_ascent(numers[order], gens[order], lp(3.0)).tobytes() == \
        values[order].tobytes()
    for lo, hi in ((0, 1), (2, 5), (5, 7)):
        assert batch_ratio_ascent(numers[lo:hi], gens[lo:hi], lp(3.0)).tobytes() == \
            values[lo:hi].tobytes()
    assert batch_ratio_ascent(numers[:0], gens[:0], lp(3.0)).shape == (0,)


def test_restricted_inverse_norm_is_the_ascent_of_its_lift(rng):
    # lp has no enumeration, so its norm is the ratio ascent's lower bound;
    # l1 and linf are exact (test_oracle)
    sp = NormedSpace(5, lp(3.0))
    m = DenseOperator.on_space(rng.standard_normal((5, 5)) + 3 * np.eye(5), sp)
    sub = SpannedSubspace(sp, rng.standard_normal((3, 5)))
    image = SpannedSubspace(sp, (m.entries @ sub.generators.T).T)
    got = restricted_inverse(m, sub, image)
    d1 = sub.generators.T @ got.coefficients
    ref = _reference_ratio_ascent(d1, image.generators.T, lp(3.0))
    assert float(got.norm.value).hex() == ref.hex()
    assert got.norm.exactness is Exactness.LOWER_BOUND


def test_lift_norms_closed_forms_match_the_per_pair_forms(rng):
    # k = 1 in every norm, ||D_i|| / ||G_i||, and l2 for k >= 2, the top
    # singular value of D_i R_i^-1 for G_i^T = Q_i R_i, one pair at a time
    for kind in (L1, L2, LINF, lp(3.0)):
        for d in range(1, 9):
            scale = 10.0 ** rng.uniform(-3, 3, (50, 1, 1))
            d1s, gens = scale * rng.standard_normal((50, d, 1)), rng.standard_normal((50, 1, d))
            values, hi = subspaces._lift_norms(d1s, gens, kind)
            ref = [vector_norm(d1[:, 0], kind) / vector_norm(g[0], kind)
                   for d1, g in zip(d1s, gens)]
            assert values.tobytes() == np.array(ref).tobytes() == hi.tobytes()
    for d in range(2, 9):
        for k in range(2, d + 1):
            d1s, gens = rng.standard_normal((15, d, k)), rng.standard_normal((15, k, d))
            values, hi = subspaces._lift_norms(d1s, gens, L2)
            ref = [np.linalg.svd(d1 @ np.linalg.inv(np.linalg.qr(g.T)[1]), compute_uv=False)[0]
                   for d1, g in zip(d1s, gens)]
            assert values.tobytes() == np.array(ref).tobytes() == hi.tobytes()


def _perturbed_pair(rng, d, norm=L1):
    v0 = random_one_unconditional_basis(rng, d, L1)
    v1 = v0 + 0.1 * rng.standard_normal((d, d))
    sp = NormedSpace(d, norm)
    return FrameSystem(sp, v0, biorthogonals(v0)), FrameSystem(sp, v1, biorthogonals(v1))


def test_unc_conditions_vi_is_a_lower_bound_above_the_enumeration_cap(rng, monkeypatch):
    f0, f1 = _perturbed_pair(rng, 5)
    exact = unc_conditions(f0, f1, conditions=("vi",)).conditions["vi"]
    assert exact.exactness is Exactness.EXACT
    monkeypatch.setattr(subspaces, "ENUMERATION_CAP", 0)
    capped = unc_conditions(f0, f1, conditions=("vi",)).conditions["vi"]
    assert capped.exactness is Exactness.LOWER_BOUND
    assert capped.constant <= exact.constant * (1 + 1e-12)
    monkeypatch.setattr(subspaces, "ENUMERATION_CAP", 5)  # only C(5, 2) = C(5, 3) = 10 exceed it
    assert unc_conditions(f0, f1, conditions=("vi",)).conditions["vi"].exactness \
        is Exactness.LOWER_BOUND


def test_unc_conditions_takes_no_norm_that_vi_does_not_read(rng, monkeypatch):
    # (iii) reads the lifts' ambient maps but none of their norms
    f0, f1 = _perturbed_pair(rng, 4)
    expected = unc_conditions(f0, f1, conditions=("iii",))

    def refuse(*args):
        raise AssertionError("_lift_norms called without (vi)")

    monkeypatch.setattr(subspaces, "_lift_norms", refuse)
    got = unc_conditions(f0, f1, conditions=("iii",))
    assert got.per_sigma == expected.per_sigma
    assert got.max_st_residual == expected.max_st_residual
    with pytest.raises(AssertionError, match="without"):
        unc_conditions(f0, f1, conditions=("vi",))


def test_unc_conditions_builds_only_the_lifts_it_reads(rng, monkeypatch):
    # (vi) reads r_p and r_q, named by their domains; (v) reads a subspace
    # distance and builds no lift.  A lift handed to _batch_lift is named by
    # its matrix and domain: r_q of pattern sigma is Q on x0|sigma=0, r_p P
    # on x1|sigma=0, r_ip I - P on x1|sigma=1 and r_iq I - Q on x0|sigma=1.
    # The first basis is 1-unconditional, so I - P of sigma is bit for bit P
    # of its complement, and that r_ip is named by the r_p it equals
    f0, f1 = _perturbed_pair(rng, 4)
    full = unc_conditions(f0, f1)
    stacks = [outer_stack(f.vectors, f.functionals) for f in (f0, f1)]
    names = {}
    for bit in (1, 0):
        for one in map(np.array, itertools.product((False, True), repeat=4)):
            p, q = (np.add.reduce(stack[~one], axis=0) for stack in stacks)
            for side, mat in enumerate((q, p) if bit == 0 else (np.eye(4) - q, np.eye(4) - p)):
                domain = (f0, f1)[side].vectors[one == bit]
                names[mat.tobytes(), domain.tobytes()] = f"x{side}|sigma={bit}"
    real, domains = subspaces._batch_lift, []

    def counting(mats, domain_gens, codomain_gens):
        domains.extend(names[m.tobytes(), g.tobytes()] for m, g in zip(mats, domain_gens))
        return real(mats, domain_gens, codomain_gens)

    monkeypatch.setattr(subspaces, "_batch_lift", counting)
    for key, read, count in (("vi", {"x1|sigma=0", "x0|sigma=0"}, 2 * (2 ** 4 - 1)),
                             ("v", set(), 0)):
        domains.clear()
        got = unc_conditions(f0, f1, conditions=(key,))
        assert set(domains) == read and len(domains) == count, key
        assert got.conditions[key].constant == full.conditions[key].constant
        assert {p: f[key] for p, f in got.per_sigma.items()} == \
            {p: f[key] for p, f in full.per_sigma.items()}


def _lift_alone(m, a_rows, b_rows):
    """One lift taken alone, one numpy call per step: (C^-1, A C^-1,
    A C^-1 B^+), or the (type, message) of the error that refuses it."""
    a, b = a_rows.T, b_rows.T
    ma = m @ a
    coeff, *_ = np.linalg.lstsq(b, ma, rcond=None)
    if np.abs(b @ coeff - ma).max() > subspaces.RANGE_RESIDUAL_TOL * (1.0 + np.abs(ma).max()):
        return InputError, "operator does not map the domain into the codomain span"
    svals = np.linalg.svd(coeff, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > subspaces.DEFAULT_COND_CAP:
        return NotInvertible, "restricted operator is singular within the condition cap"
    inv = np.linalg.inv(coeff)
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = a @ inv
    if not np.all(np.isfinite(d1)):
        return InputError, "restricted inverse has non-finite entries"
    return inv, d1, d1 @ np.linalg.pinv(b)


def test_batch_lift_matches_one_lift_at_a_time(rng):
    d, k = 5, 3
    space = NormedSpace(d, L1)
    e = np.eye(d)
    cases = []  # (M, domain rows, codomain rows)
    for _ in range(4):  # accepted: the codomain spans M A
        m = e + 0.3 * rng.standard_normal((d, d))
        a = rng.standard_normal((k, d))
        cases.append((m, a, (np.eye(k) + 0.5 * rng.standard_normal((k, k))) @ (m @ a.T).T))
    # range residual: M A leaves the codomain span
    cases.append((e, rng.standard_normal((k, d)), rng.standard_normal((k, d))))
    # the condition cap: M kills e1 of the domain, or shrinks it by 1e-13;
    # a shrink by 1e-11 stays under the cap
    cases.append((np.diag([0.0, 1, 1, 1, 1]), e[:3], e[1:4]))
    for shrink in (1e-13, 1e-11):
        cases.append((np.diag([shrink, 1, 1, 1, 1]), e[:3], e[:3]))
    # C^-1 near 1e300 over generators near 1e10: A C^-1 overflows
    big = 1e10 * (e[:3] + 0.1 * rng.standard_normal((k, d)))
    cases.append((1e-300 * e, big, big))
    mats, doms, cods = (np.array(x) for x in zip(*cases))
    lifts, refused = subspaces._batch_lift(mats, doms, cods)
    ambient = lifts.ambient
    kinds = []
    for i, (m, a, b) in enumerate(cases):
        ref = _lift_alone(m, a, b)
        op, dom, cod = DenseOperator.on_space(m, space), SpannedSubspace(space, a), \
            SpannedSubspace(space, b)
        if len(ref) == 2:  # refused, by the same error restricted_inverse raises
            kinds.append(ref[1].split()[-1])
            assert type(refused[i]) is ref[0] and str(refused[i]) == ref[1]
            with pytest.raises(ref[0]) as raised:
                restricted_inverse(op, dom, cod)
            assert type(raised.value) is ref[0] and str(raised.value) == ref[1]
            assert not lifts.coefficients[i].any() and not lifts.d1[i].any()
            continue
        kinds.append("accepted")
        assert i not in refused
        for got, want in zip((lifts.coefficients[i], lifts.d1[i], ambient[i]), ref):
            assert got.tobytes() == want.tobytes()
        alone = restricted_inverse(op, dom, cod)
        assert alone.coefficients.tobytes() == ref[0].tobytes()
        assert alone.ambient.tobytes() == ref[2].tobytes()
    assert kinds == ["accepted"] * 4 + ["span", "cap", "cap", "accepted", "entries"]
    # no lift depends on the stack it sits in
    order = rng.permutation(len(cases))
    shuffled, moved = subspaces._batch_lift(mats[order], doms[order], cods[order])
    assert {int(order[i]): str(x) for i, x in moved.items()} == \
        {i: str(x) for i, x in refused.items()}
    for field in ("coefficients", "d1", "generators"):
        assert getattr(shuffled, field).tobytes() == getattr(lifts, field)[order].tobytes()
    assert shuffled.ambient.tobytes() == ambient[order].tobytes()


def _count_linalg_calls(monkeypatch):
    """Record each np.linalg.svd and np.linalg.pinv call from here on."""
    calls = []
    for name in ("svd", "pinv"):
        def counting(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_unc_conditions_takes_its_svds_a_span_dimension_at_a_time(monkeypatch):
    # one chunk holds all 2^d patterns of the block pair; per span dimension
    # it tests at most four spans and one [X1; Y2], and each of the four
    # lift kinds takes one condition SVD and one pinv, however many patterns
    # share that dimension
    calls = _count_linalg_calls(monkeypatch)
    total = {}
    for d in (5, 7):
        f0, f1 = (generate(GallerySpec(name, d)) for name in ("blockpair-a0", "blockpair-a1"))
        calls.clear()
        unc_conditions(f0, f1)
        assert calls.count("pinv") <= 4 * d and calls.count("svd") <= (4 + 1 + 4) * d, d
        total[d] = len(calls)
    assert total[7] < 2 * total[5]  # four times the patterns


def test_unc_conditions_vi_fails_where_a_climb_is_not_finite(rng, monkeypatch):
    f0, f1 = _perturbed_pair(rng, 4, lp(3.0))

    def not_finite(numers, gens, kind):
        return np.full(len(numers), np.nan)

    monkeypatch.setattr(subspaces, "batch_ratio_ascent", not_finite)
    verdict = unc_conditions(f0, f1, conditions=("vi",))
    assert not verdict.conditions["vi"].holds
    assert verdict.conditions["vi"].constant == np.inf
    assert verdict.conditions["vi"].exactness is Exactness.LOWER_BOUND
    for pattern, flags in verdict.per_sigma.items():
        assert flags["vi"] == (pattern.count("0") < 2), pattern  # k >= 2 climbs


# --- oblique and direct-sum projections --------------------------------------

def test_oblique_projection_examples():
    sp = NormedSpace(2, L1)
    p = coordinate_projection(2, [0])
    z_same = SpannedSubspace(sp, [[1, 0]])
    assert np.array_equal(oblique_projection(p, z_same).entries, p.entries)
    z_diag = SpannedSubspace(sp, [[1, 1]])
    r = oblique_projection(p, z_diag).entries
    assert np.allclose(r, [[1, 0], [1, 0]])
    assert np.abs(r @ r - r).max() <= 1e-12


def test_oblique_projection_idempotent_random(rng):
    for _ in range(20):
        d = 5
        v = random_basis(rng, d, max_cond=20)
        k = int(rng.integers(1, d))
        p = v.T @ np.diag([1.0] * k + [0.0] * (d - k)) @ np.linalg.inv(v.T)
        z = SpannedSubspace(NormedSpace(d, L1),
                            np.linalg.qr(rng.standard_normal((d, k)))[0].T)
        r = oblique_projection(DenseOperator.on_space(p, NormedSpace(d, L1)), z)
        assert np.abs(r.entries @ r.entries - r.entries).max() <= 1e-9


def test_direct_sum_projection_identity_and_violation(rng):
    sp = NormedSpace(2, L1)
    x1 = SpannedSubspace(sp, [[1, 0]])
    y2 = SpannedSubspace(sp, [[0, 1]])
    p = coordinate_projection(2, [0])
    q = coordinate_projection(2, [0])
    assert np.allclose(direct_sum_projection(p, q, x1, y2).entries, np.eye(2))
    with pytest.raises(DistanceZero):
        direct_sum_projection(p, q, x1, SpannedSubspace(sp, [[1, 0]]))


def test_direct_sum_projection_ignores_the_scale_of_generators():
    for norm in (L1, L2):
        sp = NormedSpace(2, norm)
        p = DenseOperator(np.diag([1.0, 0.0]), norm, norm)
        got = direct_sum_projection(p, p, SpannedSubspace(sp, [[1e12, 0]]),
                                    SpannedSubspace(sp, [[0, 1]]))
        assert np.allclose(got.entries, np.eye(2), rtol=0, atol=1e-15)


def test_direct_sum_projection_random(rng):
    d, k = 4, 2
    sp = NormedSpace(d, L1)
    for _ in range(10):
        u = np.linalg.qr(rng.standard_normal((d, d)))[0]
        v = np.linalg.qr(rng.standard_normal((d, d)))[0]
        p = u[:, :k] @ u[:, :k].T  # orthogonal projections are projections too
        q = v[:, :k] @ v[:, :k].T
        x1 = SpannedSubspace(sp, u[:, :k].T)
        y2 = SpannedSubspace(sp, v[:, k:].T)
        r = direct_sum_projection(DenseOperator.on_space(p, sp),
                                  DenseOperator.on_space(q, sp), x1, y2)
        assert np.abs(r.entries - np.eye(d)).max() <= 1e-8


# --- distances ----------------------------------------------------------------

def _bracket(bound):
    return bound.lo, bound.value, bound.hi


def test_distance_to_span_refuses_a_point_that_is_not_a_finite_vector_of_the_space():
    for kind in (L1, LINF, L2, lp(3.0)):
        sub = SpannedSubspace(NormedSpace(4, kind), [[1, 1, 0, 0], [0, 1, 1, 0]])
        for x, message in (([1.0, 0, 0], "point of length 3"),
                           ([1.0, 0, 0, 0, 0], "point of length 5"),
                           ([1.0, 0, np.nan, 0], "non-finite"),
                           ([1.0, 0, 0, np.inf], "non-finite"),
                           (np.eye(4), "expected a vector")):
            with pytest.raises(InputError, match=message):
                distance_to_span(x, sub)


def test_distance_trivial_cases():
    sp = NormedSpace(3, L1)
    a = SpannedSubspace(sp, [[1, 0, 0]])
    b = SpannedSubspace(sp, [[0, 1, 0]])
    assert _bracket(subspace_distance(a, b)) == (1.0,) * 3
    for kind in (L1, LINF, L2, lp(3.0)):  # A meets B: exactly 0, whatever the norm
        sp = NormedSpace(3, kind)
        a = SpannedSubspace(sp, [[1, 0, 0], [0, 1, 0]])
        for b in (a, SpannedSubspace(sp, [[1, 1, 0]]),
                  SpannedSubspace(sp, [[0, 1, 1], [0, 0, 1]])):  # dim A + dim B > 3
            assert _bracket(subspace_distance(a, b)) == (0.0,) * 3


def test_distance_alternating_chain():
    # span(e1) against the chain span: the one-sided distance from e1 is
    # exactly 1 (alternating-sign functional), while the symmetric distance
    # drops to 1/2 via the unit vector (e1 + e4)/2 inside the chain
    sp = NormedSpace(4, L1)
    chain = SpannedSubspace(sp, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    e1 = np.array([1.0, 0, 0, 0])
    assert distance_to_span(e1, chain) == pytest.approx(1.0, abs=1e-9)
    assert _bracket(subspace_distance(SpannedSubspace(sp, [e1]), chain)) == (0.5,) * 3


def test_distance_l2_matches_principal_angles(rng):
    # the sine of the smallest principal angle between A and B
    sp = NormedSpace(5, L2)
    for _ in range(5):
        a = SpannedSubspace(sp, np.linalg.qr(rng.standard_normal((5, 2)))[0].T)
        b = SpannedSubspace(sp, np.linalg.qr(rng.standard_normal((5, 2)))[0].T)
        qa = np.linalg.qr(a.generators.T)[0]
        qb = np.linalg.qr(b.generators.T)[0]
        top = float(np.linalg.svd(qa.T @ qb, compute_uv=False).max())
        got = subspace_distance(a, b)
        assert got.exactness is Exactness.EXACT
        assert got.value == pytest.approx(np.sqrt(1.0 - min(top, 1.0) ** 2), rel=1e-9)


def test_distance_to_span_l2_is_the_residual_off_the_span(rng):
    # the norm of x's component in the orthogonal complement of Y, read off
    # a complete QR of Y's generator columns
    for d, k in ((3, 1), (5, 2), (6, 5), (8, 3)):
        y, x = rng.standard_normal((k, d)), rng.standard_normal(d)
        q = np.linalg.qr(y.T, mode="complete")[0]
        expected = np.linalg.norm(q[:, k:].T @ x)
        got = distance_to_span(x, SpannedSubspace(NormedSpace(d, L2), y))
        assert got == pytest.approx(expected, rel=1e-12)


def test_distance_to_span_lp_lies_in_its_bracket(rng):
    # an f that vanishes on Y gives |f(x)| = |f(x - y)| <= ||f||_q ||x - y||_p,
    # and L-BFGS-B starts from the least-squares point t, so
    # |f(x)| / ||f||_q <= value <= ||x - Y^T t||_p; for k = d - 1 the
    # annihilator is a line and its bound is the distance (Hahn-Banach)
    for p in (1.5, 3.0):
        kind, dual = lp(p), lp(p / (p - 1.0))
        for d, k in ((3, 1), (4, 3), (5, 2), (6, 5)):
            y, x = rng.standard_normal((k, d)), rng.standard_normal(d)
            value = distance_to_span(x, SpannedSubspace(NormedSpace(d, kind), y))
            t, *_ = np.linalg.lstsq(y.T, x, rcond=None)
            assert value <= vector_norm(x - y.T @ t, kind) * (1 + 1e-12)
            for f in np.linalg.svd(y)[2][k:]:  # rows spanning the annihilator of Y
                lower = abs(f @ x) / vector_norm(f, dual)
                assert lower <= value * (1 + 1e-12)
                if k == d - 1:
                    assert value == pytest.approx(lower, rel=1e-3)


def test_distance_between_coordinate_planes_is_exact():
    for kind in (L1, LINF):
        sp = NormedSpace(4, kind)
        a = SpannedSubspace(sp, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = SpannedSubspace(sp, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert _bracket(subspace_distance(a, b)) == (1.0,) * 3


def test_distance_ignores_the_scale_of_generators():
    # a scale gap between A's and B's generators is no intersection
    for kind in (L1, LINF, L2):
        sp = NormedSpace(2, kind)
        a = SpannedSubspace(sp, [[1e12, 0]])
        assert _bracket(subspace_distance(a, SpannedSubspace(sp, [[0, 1]]))) == (1.0,) * 3
    sp = NormedSpace(2, L2)
    got = subspace_distance(SpannedSubspace(sp, [[1e6, 0]]), SpannedSubspace(sp, [[1, 1e-4]]))
    assert got.exactness is Exactness.EXACT
    assert got.value == pytest.approx(1e-4 / np.sqrt(1 + 1e-8), rel=1e-9)


# --- the six-way checker ------------------------------------------------------

def _golden_input(name):
    return load_system(str(Path(__file__).parent / "golden" / "inputs" / name))


@pytest.mark.parametrize("pair", [  # the block pair and two golden check-woven pairs
    lambda: (generate(GallerySpec("blockpair-a0", 5)), generate(GallerySpec("blockpair-a1", 5))),
    lambda: (generate(GallerySpec("standard-l1", 4)), _golden_input("perturbed-l1-d4.json")),
    lambda: (_golden_input("standard-lp3-d4.json"), _golden_input("perturbed-lp3-d4.json")),
])
def test_unc_conditions_i_is_the_worst_c_u_of_the_woven_bases(pair):
    # each weaving W with its fresh biorthogonals as a system of its own,
    # +inf where W is not a basis or its frame operator is not invertible
    f0, f1 = pair()
    worst = 0.0
    for m in range(1 << f0.n):
        w = weave(f0, f1, WeavePattern.from_index(m, f0.n)).vectors
        try:
            value = unconditional_constant(FrameSystem(f0.space, w, biorthogonals(w))).value
        except (NotABasis, NotAFrame):
            value = np.inf
        worst = max(worst, value)
    verdict = unc_conditions(f0, f1, conditions=("i", "ii", "iv"))
    assert {verdict.conditions[c].constant for c in ("i", "ii", "iv")} == {worst}


def test_unc_conditions_identical_standard():
    std = standard_system(4)
    verdict = unc_conditions(std, std)
    assert verdict.agree
    for key, outcome in verdict.conditions.items():
        assert outcome.holds, key
    assert verdict.conditions["ii"].constant == 1.0
    assert verdict.conditions["vi"].constant <= 1.0
    assert verdict.max_st_residual <= 1e-10
    assert verdict.holds_all()


def test_unc_conditions_perturbed_pair(rng):
    d = 4
    v0 = random_one_unconditional_basis(rng, d, L1)
    sp = NormedSpace(d, L1)
    f0 = FrameSystem(sp, v0, biorthogonals(v0))
    v1 = v0 + 0.02 * rng.standard_normal((d, d))
    f1 = FrameSystem(sp, v1, biorthogonals(v1))
    verdict = unc_conditions(f0, f1)
    assert verdict.agree and verdict.holds_all()
    assert verdict.max_st_residual <= 1e-8
    assert verdict.max_ts_residual <= 1e-8
    assert verdict.patterns_checked == 16


def test_unc_conditions_block_pair_joint_failure():
    from weavelab import GallerySpec, generate
    a0 = generate(GallerySpec("blockpair-a0", 6))
    a1 = generate(GallerySpec("blockpair-a1", 6))
    verdict = unc_conditions(a0, a1)
    for key, outcome in verdict.conditions.items():
        assert not outcome.holds, key
    alt = str(WeavePattern.alternating(6))
    assert all(not ok for ok in verdict.per_sigma[alt].values())


def _oracle_v_constant(x, y, axis):
    """max over mixed patterns of the norms of the two projections of
    X = X1 + Y2 (X1 = rows of x at the 0-bits, Y2 = rows of y at the
    1-bits), each along the other, from B = [X1 Y2] and its inverse: the
    largest column (axis 0, l1) or row (axis 1, linf) absolute sum."""
    d = len(x)
    best = 0.0
    for bits in itertools.product((False, True), repeat=d):
        one = np.array(bits)
        if one.all() or not one.any():
            continue
        b = np.hstack([x[~one].T, y[one].T])
        b_inv = np.linalg.inv(b)
        k = d - int(one.sum())
        for proj in (b[:, :k] @ b_inv[:k], b[:, k:] @ b_inv[k:]):
            best = max(best, np.abs(proj).sum(axis=axis).max())
    return best


def test_unc_conditions_v_is_the_exact_projection_norm():
    # d(X1, Y2) = 1/||P_X1|| = 1/||P_Y2|| on X1 + Y2 in any norm, and
    # l1/linf operator norms are exact, so (v) must match the oracle at the
    # failing patterns too, not only where it holds
    v = np.eye(7) + 0.3 * np.random.default_rng(2).standard_normal((7, 7))
    duals = np.linalg.inv(v).T
    for norm, vectors, functionals, axis in ((L1, v, biorthogonals(v), 0),
                                             (LINF, biorthogonals(v), v, 1)):
        sp = NormedSpace(7, norm)
        f0 = FrameSystem(sp, np.eye(7), np.eye(7))
        f1 = FrameSystem(sp, vectors, functionals)
        outcome = unc_conditions(f0, f1, threshold=1.5, conditions=("v",)).conditions["v"]
        oracle = _oracle_v_constant(np.eye(7), v if norm == L1 else duals, axis)
        assert oracle == pytest.approx(7.134162197475071, rel=1e-12)
        assert not outcome.holds
        assert outcome.constant == pytest.approx(oracle, rel=1e-12)


def test_unc_conditions_lp_v_holds_where_the_distance_reaches_the_threshold():
    # lp's (v) is 1/subspace_distance, a lower bound on the constant, so it
    # passes the same rule as the other conditions and the pair can agree
    inputs = Path(__file__).parent / "golden" / "inputs"
    f0, f1 = (load_system(str(inputs / f"{name}-lp3-d4.json"))
              for name in ("standard", "perturbed"))
    verdict = unc_conditions(f0, f1)
    v = verdict.conditions["v"]
    assert v.holds and verdict.agree
    assert v.exactness is Exactness.LOWER_BOUND
    assert str(v.witness) == "0111"
    one = np.array([False, True, True, True])
    dist = subspace_distance(SpannedSubspace(f0.space, f0.vectors[~one]),
                             SpannedSubspace(f0.space, f1.vectors[one]))
    assert v.constant == 1.0 / dist.value


@pytest.mark.parametrize("kind,d", [(lp(3.0), 4), (lp(3.0), 5), (lp(1.5), 4), (lp(1.5), 5),
                                    (L1, 4)],
                         ids=["lp3-d4", "lp3-d5", "lp1.5-d4", "lp1.5-d5", "l1-d4"])
def test_unc_conditions_v_does_not_depend_on_the_other_conditions(kind, d):
    # (v)'s lifts are graded in one stack of their own, so in lp, where the
    # ratio ascent's last bits depend on the stack's layout, asking for
    # (vi) or all six leaves (v)'s outcome unchanged to the bit
    rng = np.random.default_rng(21 + d)
    sp = NormedSpace(d, kind)
    v0 = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    v1 = v0 + 0.2 * rng.standard_normal((d, d))
    f0, f1 = (FrameSystem(sp, v, biorthogonals(v)) for v in (v0, v1))
    seen = []
    for conditions in (("v",), ("v", "vi"), subspaces._ALL_CONDITIONS):
        verdict = unc_conditions(f0, f1, conditions=conditions)
        v = verdict.conditions["v"]
        seen.append((v.constant.hex(), str(v.witness), v.exactness,
                     {p: flags["v"] for p, flags in verdict.per_sigma.items()}))
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_unc_conditions_inner_c_u_is_demoted_by_maximize(rng):
    # 2^13 sign patterns lie above INNER_EXHAUSTIVE_CAP, so the bases' C_u is
    # the heuristic(16) search, bit for bit, and only a lower bound
    assert 2 ** 13 > subspaces.INNER_EXHAUSTIVE_CAP
    v0 = random_basis(rng, 13)
    v1 = v0 + 0.03 * rng.standard_normal((13, 13))
    b0, b1 = (FrameSystem(NormedSpace(13, L1), v, biorthogonals(v)) for v in (v0, v1))
    unc = unc_conditions(b0, b1, scope="sampled", samples=0, seed=3, conditions=("i", "v"))
    expected = [unconditional_constant(b, heuristic(16), seed=3) for b in (b0, b1)]
    assert [c.hex() for c in unc.base_unconditional] == [b.value.hex() for b in expected]
    assert all(b.exactness is Exactness.LOWER_BOUND for b in expected)
    assert unc.conditions["i"].exactness is Exactness.LOWER_BOUND


def test_unc_conditions_subset_and_errors():
    std = standard_system(3)
    verdict = unc_conditions(std, std, conditions=("v", "vi"))
    assert verdict.conditions["i"] is None
    assert verdict.conditions["v"].holds and verdict.conditions["vi"].holds
    bad = FrameSystem(std.space, std.vectors, 2 * np.eye(3))
    with pytest.raises(InputError):
        unc_conditions(std, bad)


@pytest.mark.parametrize("threshold", [0.0, -2.0, np.nan, np.inf])
def test_unc_conditions_refuses_a_threshold_that_is_not_finite_and_positive(threshold):
    std = standard_system(3)
    with pytest.raises(InputError, match="finite and positive"):
        unc_conditions(std, std, threshold=threshold)


def test_unc_conditions_refuses_unknown_names():
    std = standard_system(3)
    with pytest.raises(InputError, match="'vii', 'VI'"):
        unc_conditions(std, std, conditions=("i", "vii", "VI"))
    with pytest.raises(InputError, match="'i,v'"):
        unc_conditions(std, std, conditions="i,v")
    verdict = unc_conditions(std, std, conditions="vi")  # one name, not "v" and "i"
    assert [k for k, o in verdict.conditions.items() if o is not None] == ["vi"]


def test_unc_conditions_sampled_scope():
    std = standard_system(4)
    verdict = unc_conditions(std, std, scope="sampled", samples=6)
    assert verdict.scope_used == "sampled"
    assert verdict.patterns_checked <= 10
    assert verdict.holds_all()
    with pytest.raises(InputError, match="samples must be nonnegative"):
        unc_conditions(std, std, scope="sampled", samples=-3)


def test_unc_conditions_folds_its_columns_across_chunks():
    # only the first vector differs: (v) first fails at 1000000000 and (vi)
    # at 0100000000, both past the first of eight 131-pattern chunks
    f0 = standard_system(10)
    v1 = np.eye(10)
    v1[0, 1] = 0.9
    f1 = FrameSystem(f0.space, v1, biorthogonals(v1))
    assert search.chunk_size_for(10 ** 3) == 131
    verdict = unc_conditions(f0, f1, threshold=1.5, conditions=("v", "vi"))
    flags = verdict.per_sigma  # in index order
    assert len(flags) == 1024
    for c, first in (("v", "1000000000"), ("vi", "0100000000")):
        failing = [p for p, f in flags.items() if not f[c]]
        assert not verdict.conditions[c].holds
        assert str(verdict.conditions[c].witness) == failing[0] == first
    assert len({tuple(f.values()) for f in flags.values()}) > 1
    assert verdict.agree is False


def test_unc_conditions_does_not_depend_on_thread_count(monkeypatch):
    # at d = 7 the 128 patterns make one chunk whose sign tables are shared
    # by 5 patterns each; with a 2^14-float budget they make three chunks,
    # graded in parallel on two threads, and every pattern has its own table
    f0, f1 = (generate(GallerySpec(name, 7)) for name in ("blockpair-a0", "blockpair-a1"))
    verdicts = set()
    for budget, chunk, tables in ((search.CHUNK_BUDGET, 2 ** 7, 5), (2 ** 14, 47, 1)):
        monkeypatch.setattr(search, "CHUNK_BUDGET", budget)
        assert min(search.chunk_size_for(7 ** 3), 2 ** 7) == chunk
        assert search.chunk_size_for(search.CELLS_PER_SUM * 7 * 7 << 7) == tables
        for threads in ("1", "2"):
            monkeypatch.setenv("WEAVELAB_THREADS", threads)
            verdict = unc_conditions(f0, f1)
            assert len(verdict.per_sigma) == 2 ** 7
            verdicts.add(repr(dataclasses.astuple(verdict)))
    assert len(verdicts) == 1


def test_unc_conditions_reads_infinity_exactly_where_a_weaving_is_no_basis():
    # x_1 of the second basis is e_2, so a weaving that takes x_1 from it and
    # x_2 from the standard basis repeats e_2; (i) is +inf, exact, there only
    std = generate(GallerySpec("standard-l1", 6))
    v1 = np.eye(6) + 0.2 * np.random.default_rng(5).standard_normal((6, 6))
    v1[0] = np.eye(6)[1]
    dependent = FrameSystem(std.space, v1, biorthogonals(v1))
    no_basis = set()
    for m in range(1 << 6):
        pattern = WeavePattern.from_index(m, 6)
        try:
            biorthogonals(weave(std, dependent, pattern).vectors)
        except NotABasis:
            no_basis.add(str(pattern))
    assert 0 < len(no_basis) < 1 << 6
    # every finite constant holds below this threshold, so a failure is +inf
    verdict = unc_conditions(std, dependent, threshold=1e300, conditions=("i",))
    assert {p for p, flags in verdict.per_sigma.items() if not flags["i"]} == no_basis
    outcome = verdict.conditions["i"]
    assert outcome.constant == np.inf and outcome.exactness is Exactness.EXACT
    assert str(outcome.witness) == min(no_basis)


def test_unc_conditions_refuses_a_dependent_span_it_reads():
    # x_1 and x_2 of the second basis are 1e-11 apart, so its spans that hold
    # both are dependent within tolerance: (vi) reads one as Y1 at the
    # patterns with both bits 0, (v) as Y2 at the mixed ones with both bits 1,
    # (iii) both, and each refuses the pair as SpannedSubspace does; (i)
    # reads no span
    std = standard_system(4)
    v1 = np.eye(4)
    v1[1] = v1[0] + 1e-11 * np.eye(4)[1]
    near = FrameSystem(std.space, v1, biorthogonals(v1))
    with pytest.raises(InputError, match="linearly dependent"):
        SpannedSubspace(std.space, v1[:2])
    for c in ("iii", "v", "vi"):
        with pytest.raises(InputError, match="linearly dependent"):
            unc_conditions(std, near, conditions=c)
    assert unc_conditions(std, near, conditions="i").conditions["i"].constant > 1e11


def test_spanned_subspace_validation():
    sp = NormedSpace(3, L1)
    with pytest.raises(InputError):
        SpannedSubspace(sp, [[1, 0, 0], [1, 0, 0]])
    with pytest.raises(InputError):
        SpannedSubspace(sp, [[1, 0]])
    with pytest.raises(InputError, match="dependent"):  # more rows than the dimension
        SpannedSubspace(sp, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


def test_independence_is_relative_to_each_generator_row():
    tiny = SpannedSubspace(NormedSpace(2, L1), [[1e-11, 0]])
    assert tiny.generators.tobytes() == np.array([[1e-11, 0.0]]).tobytes()
    with pytest.raises(InputError, match="dependent"):
        SpannedSubspace(NormedSpace(2, L1), [[1e-11, 1e-11], [1e-11, 1e-11]])
    # a perfectly conditioned basis far below (and its duals far above) unit
    # scale, and one whose vectors differ in scale by 1e11
    space = NormedSpace(2, L1)
    f0 = FrameSystem(space, np.eye(2), np.eye(2))
    for vectors, functionals in ((1e-11 * np.eye(2), 1e11 * np.eye(2)),
                                 (np.diag([1.0, 1e-11]), np.diag([1.0, 1e11]))):
        f1 = FrameSystem(space, vectors, functionals)
        for name in ("v", "vi"):
            outcome = unc_conditions(f0, f1, conditions=name).conditions[name]
            assert outcome.holds and outcome.exactness is Exactness.EXACT
            assert outcome.constant == pytest.approx(1.0, rel=1e-12)


def test_restricted_inverse_across_a_scale_gap_between_generator_rows():
    """The lift solves by least squares on the unscaled generators: a gap of
    1e11 between row scales still inverts exactly, one of 1e22 reads as
    singular."""
    space = NormedSpace(3, L1)
    eye = DenseOperator.identity(space)
    gap = SpannedSubspace(space, [[1e-11, 0.0, 0.0], [0.0, 1.0, 0.0]])
    inv = restricted_inverse(eye, gap, gap)
    assert np.allclose(inv.coefficients, np.eye(2), rtol=0, atol=1e-12)
    assert inv.norm.exactness is Exactness.EXACT
    assert inv.norm.value == pytest.approx(1.0, rel=1e-12)
    wide = [[1e-11, 0.0, 0.0], [0.0, 1e11, 1.0]]
    assert np.array_equal(SpannedSubspace(space, wide).generators, wide)
    with pytest.raises(NotInvertible, match="singular within the condition cap"):
        restricted_inverse(eye, SpannedSubspace(space, wide), SpannedSubspace(space, wide))


def test_projection_pair():
    std = standard_system(4)
    summing = summing_system(4)
    pair = projection_pair(std, summing, [1, 3])
    assert np.array_equal(pair.p.entries @ pair.p.entries, pair.p.entries)
    assert np.array_equal(pair.q.entries @ pair.q.entries, pair.q.entries)
    from weavelab.subspaces import ProjectionPair
    shear = DenseOperator.on_space([[1.0, 1.0], [0.0, 1.0]], NormedSpace(2, L1))
    with pytest.raises(InputError):
        ProjectionPair(shear, shear)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the package's import time; subspaces loads it
    # on the first LP or minimization instead
    src = str(Path(weavelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, weavelab; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_six_way_checks_in_exact_norms_leave_scipy_optimize_unloaded():
    # six-way checks, subspace distances and restricted inverses take no LP
    # or minimization in any norm, lp included
    src = str(Path(weavelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from weavelab import (L1, L2, LINF, DenseOperator, FrameSystem, GallerySpec,
                              NormedSpace, SpannedSubspace, biorthogonals, generate,
                              lp, restricted_inverse, subspace_distance,
                              unc_conditions)
        a0 = generate(GallerySpec("blockpair-a0", 5))
        a1 = generate(GallerySpec("blockpair-a1", 5))
        block = unc_conditions(a0, a1)
        v = np.eye(5) + 0.3 * np.random.default_rng(2).standard_normal((5, 5))
        sp = NormedSpace(5, L2)
        l2 = unc_conditions(FrameSystem(sp, np.eye(5), np.eye(5)),
                            FrameSystem(sp, v, biorthogonals(v)), threshold=1.5)
        kinds = (L1, LINF, L2, lp(3.0))
        distances = [subspace_distance(SpannedSubspace(NormedSpace(5, kind), v[:2]),
                                       SpannedSubspace(NormedSpace(5, kind), v[2:4]))
                     for kind in kinds]
        sp = NormedSpace(5, L1)
        sub = SpannedSubspace(sp, v[:3])
        m = DenseOperator.on_space(2 * np.eye(5), sp)
        inverse = restricted_inverse(m, sub, SpannedSubspace(sp, 2 * v[:3]))
        sp = NormedSpace(4, lp(3.0))
        w = np.eye(4) + 0.1 * np.random.default_rng(1).standard_normal((4, 4))
        lp3 = unc_conditions(FrameSystem(sp, np.eye(4), np.eye(4)),
                             FrameSystem(sp, w, biorthogonals(w)))
        print(block.conditions["v"].holds, l2.conditions["v"].holds,
              all(d.value > 0 for d in distances), abs(inverse.norm.value - 0.5) < 1e-12,
              lp3.agree, "scipy.optimize" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == ["False", "False", "True", "True", "True", "False"]


def test_six_way_checks_leave_numpy_ma_unloaded():
    # np.unique loads numpy.ma, which raised the six-way's peak RSS by about
    # 1.5 MB when a chunk grouped its patterns by span dimension with it
    src = str(Path(weavelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = textwrap.dedent("""
        import sys
        from weavelab import GallerySpec, generate, unc_conditions
        unc_conditions(*(generate(GallerySpec(name, 5)) for name in ("blockpair-a0",
                                                                    "blockpair-a1")))
        print("numpy.ma" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
