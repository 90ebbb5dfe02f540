import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weavelab

from weavelab import (L1, L2, DenseOperator, DistanceZero, Exactness,
                      FrameSystem, InputError, NormedSpace, NotInvertible,
                      SpannedSubspace, WeavePattern, basis_projection,
                      biorthogonals, direct_sum_projection, distance_to_span,
                      oblique_projection, restricted_inverse,
                      subspace_distance, unc_conditions)
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

def test_distance_trivial_cases():
    sp = NormedSpace(3, L1)
    a = SpannedSubspace(sp, [[1, 0, 0]])
    b = SpannedSubspace(sp, [[0, 1, 0]])
    res = subspace_distance(a, a)
    assert res.value <= 1e-12
    res = subspace_distance(a, b)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_distance_alternating_chain():
    # span(e1) against the chain span: the one-sided distance from e1 is
    # exactly 1 (alternating-sign functional), while the symmetric distance
    # drops to 1/2 via the unit vector (e1 + e4)/2 inside the chain
    sp = NormedSpace(4, L1)
    chain = SpannedSubspace(sp, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    e1 = np.array([1.0, 0, 0, 0])
    assert distance_to_span(e1, chain) == pytest.approx(1.0, abs=1e-9)
    sym = subspace_distance(SpannedSubspace(sp, [e1]), chain, effort=8)
    assert sym.value <= 0.5 + 1e-7
    assert sym.exactness is Exactness.UPPER_BOUND


def test_distance_l2_exact_vs_multistart(rng):
    sp = NormedSpace(5, L2)
    for _ in range(5):
        a = SpannedSubspace(sp, np.linalg.qr(rng.standard_normal((5, 2)))[0].T)
        b = SpannedSubspace(sp, np.linalg.qr(rng.standard_normal((5, 2)))[0].T)
        exact = subspace_distance(a, b).value
        # cross-validate the approximate path on the same instance
        from weavelab.subspaces import _directional_distance
        est = min(_directional_distance(a, b, 6, 0)[0],
                  _directional_distance(b, a, 6, 1)[0])
        assert est == pytest.approx(exact, abs=1e-6)


def test_distance_witness_lower_bound():
    sp = NormedSpace(4, L1)
    a = SpannedSubspace(sp, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = SpannedSubspace(sp, [[0, 0, 1, 0], [0, 0, 0, 1]])
    r_a = np.diag([1.0, 1.0, 0.0, 0.0])
    r_b = np.diag([0.0, 0.0, 1.0, 1.0])
    res = subspace_distance(a, b, witness_projections=(r_a, r_b))
    assert res.lower_bound == 1.0
    assert res.lower_bound <= res.value + 1e-9


# --- the six-way checker ------------------------------------------------------

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


def test_unc_conditions_subset_and_errors():
    std = standard_system(3)
    verdict = unc_conditions(std, std, conditions=("v", "vi"))
    assert verdict.conditions["i"] is None
    assert verdict.conditions["v"].holds and verdict.conditions["vi"].holds
    bad = FrameSystem(std.space, std.vectors, 2 * np.eye(3))
    with pytest.raises(InputError):
        unc_conditions(std, bad)


def test_unc_conditions_sampled_scope():
    std = standard_system(4)
    verdict = unc_conditions(std, std, scope="sampled", samples=6)
    assert verdict.scope_used == "sampled"
    assert verdict.patterns_checked <= 10
    assert verdict.holds_all()


def test_spanned_subspace_validation():
    sp = NormedSpace(3, L1)
    with pytest.raises(InputError):
        SpannedSubspace(sp, [[1, 0, 0], [1, 0, 0]])
    with pytest.raises(InputError):
        SpannedSubspace(sp, [[1, 0]])


def test_projection_pair():
    from weavelab import projection_pair
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
