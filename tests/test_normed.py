import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weavelab import (L1, L2, LINF, DenseOperator, Exactness, FrameSystem,
                      InputError, NormKind, NormedSpace, NotInvertible,
                      dual_norm, invert, lp, norming_vector, operator_norm,
                      vector_norm)
from weavelab.frames import frame_constants, outer_stack, pattern_sums
from weavelab.normed import DEFAULT_COND_CAP, INVERT_RESIDUAL_TOL, batch_invert
from weavelab.weaving import worst_weaving
from conftest import NORMS, random_frame_system

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
small_vectors = st.lists(finite_floats, min_size=1, max_size=6)
small_matrices = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(finite_floats, min_size=d, max_size=d),
                       min_size=d, max_size=d))


def test_vector_norm_examples():
    assert vector_norm([3, 4], L2) == 5.0
    assert vector_norm([1, -2, 3], L1) == 6.0
    assert vector_norm([1, -2, 3], LINF) == 3.0
    assert vector_norm([0, 0], lp(3)) == 0.0


def test_vector_norm_rejects_nonfinite():
    with pytest.raises(InputError):
        vector_norm([1.0, np.nan], L1)
    with pytest.raises(InputError):
        vector_norm([np.inf, 0.0], L2)


def test_dual_norm_examples():
    assert dual_norm([1, 1], L1) == 1.0  # functional on l1 measured in sup norm
    assert dual_norm([1, 1], LINF) == 2.0
    assert dual_norm([0, 0, 0], L2) == 0.0


def test_norm_kind_duality_and_parsing():
    assert L1.dual() == LINF and LINF.dual() == L1 and L2.dual() == L2
    p = lp(3.0)
    q = p.dual()
    assert q.p == pytest.approx(1.5)
    assert q.dual() == p
    assert NormKind.parse("lp:3.0") == p
    assert NormKind.parse(p.format()) == p
    assert NormKind.parse("lp:2") == L2
    with pytest.raises(InputError):
        NormKind.parse("l7")
    with pytest.raises(InputError):
        lp(1.0)


@given(small_vectors, st.sampled_from([L1, L2, LINF, lp(3.0), lp(1.5)]))
def test_dual_pairing_inequality_and_attainment(f, kind):
    f = np.array(f)
    bound = dual_norm(f, kind)
    x = norming_vector(f, kind)
    assert vector_norm(x, kind) == pytest.approx(1.0, abs=1e-12)
    assert f @ x == pytest.approx(bound, rel=1e-10, abs=1e-12)


def test_dual_norm_extreme_point_equality(rng):
    # exact extreme-point evaluation: +-e_j on the l1 ball, sign vertices on linf
    for _ in range(50):
        f = rng.standard_normal(5)
        assert dual_norm(f, L1) == np.abs(f).max()
        signs = np.where(f >= 0, 1.0, -1.0)
        assert dual_norm(f, LINF) == pytest.approx(f @ signs, rel=1e-14)


def test_operator_norm_identity():
    for kind in NORMS:
        res = operator_norm(DenseOperator(np.eye(3), kind, kind))
        assert res.value == 1.0
        assert res.exactness is Exactness.EXACT


def test_operator_norm_frozen_examples():
    m = [[1, -1], [0, 1]]
    assert operator_norm(DenseOperator(m, L1, L1)).value == 2.0
    assert operator_norm(DenseOperator(m, LINF, LINF)).value == 2.0
    res = operator_norm(DenseOperator(m, L2, L2))
    # golden-ratio spectral norm of the shear
    assert res.value == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)


def test_operator_norm_witness_certifies(rng):
    for kind in NORMS:
        for _ in range(20):
            m = DenseOperator(rng.standard_normal((4, 4)), kind, kind)
            res = operator_norm(m)
            ratio = vector_norm(m.apply(res.witness), kind) / vector_norm(res.witness, kind)
            assert ratio == pytest.approx(res.value, rel=1e-12)


def test_operator_norm_lp_is_lower_bound(rng):
    kind = lp(3.0)
    for _ in range(10):
        m = DenseOperator(rng.standard_normal((4, 4)), kind, kind)
        res = operator_norm(m)
        assert res.exactness is Exactness.LOWER_BOUND
        ratio = vector_norm(m.apply(res.witness), kind) / vector_norm(res.witness, kind)
        assert ratio == pytest.approx(res.value, rel=1e-10)
        # random points do not beat the ascent value
        for _ in range(50):
            x = rng.standard_normal(4)
            assert vector_norm(m.apply(x), kind) <= res.value * vector_norm(x, kind) + 1e-9


@given(small_matrices, small_vectors, st.sampled_from(NORMS))
def test_operator_norm_dominates(m, x, kind):
    m = np.array(m)
    x = np.array(x[:m.shape[1]] + [0.0] * max(0, m.shape[1] - len(x)))
    op = DenseOperator(m, kind, kind)
    value = operator_norm(op).value
    assert vector_norm(m @ x, kind) <= value * vector_norm(x, kind) * (1 + 1e-12) + 1e-12


def test_operator_norm_submultiplicative(rng):
    for kind in NORMS:
        for _ in range(20):
            a = DenseOperator(rng.standard_normal((3, 3)), kind, kind)
            b = DenseOperator(rng.standard_normal((3, 3)), kind, kind)
            nab = operator_norm(a @ b).value
            assert nab <= operator_norm(a).value * operator_norm(b).value * (1 + 1e-12)


def test_invert_examples():
    eye = invert(DenseOperator(np.eye(4), L1, L1))
    assert np.array_equal(eye.entries, np.eye(4))
    tri = invert(DenseOperator([[1, 1], [0, 1]], L1, L1))
    assert np.array_equal(tri.entries, [[1, -1], [0, 1]])
    with pytest.raises(NotInvertible):
        invert(DenseOperator([[1, 1], [1, 1]], L1, L1))


def test_invert_condition_cap():
    m = DenseOperator(np.diag([1.0, 1e-13]), L2, L2)
    with pytest.raises(NotInvertible):
        invert(m)
    # generous cap still trips the residual check or succeeds cleanly
    loose = invert(DenseOperator(np.diag([1.0, 1e-6]), L2, L2))
    assert loose.entries[1, 1] == pytest.approx(1e6)


def test_invert_roundtrip(rng):
    for _ in range(20):
        m = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        op = DenseOperator(m, L1, L1)
        back = invert(invert(op))
        assert np.abs(back.entries - m).max() <= 1e-9


def test_invert_swaps_norm_tags():
    op = DenseOperator(np.eye(2), L1, LINF)
    assert invert(op).domain_norm == LINF
    assert invert(op).codomain_norm == L1


def _reference_invert(a):
    """The one-matrix loop batch_invert replaced: (inverse or None, message)."""
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
        return None, f"condition number {cond:.3e} exceeds cap {DEFAULT_COND_CAP:.1e}"
    eye = np.eye(a.shape[0])
    try:
        x = np.linalg.solve(a, eye)
    except np.linalg.LinAlgError as exc:
        return None, str(exc)
    res = np.inf
    for _ in range(5):
        r = eye - a @ x
        res = float(np.abs(r).max())
        if res <= INVERT_RESIDUAL_TOL:
            break
        x = x + x @ r
    if res > INVERT_RESIDUAL_TOL:
        return None, f"inversion residual {res:.3e} above {INVERT_RESIDUAL_TOL:.1e}"
    return x, None


def _needs_newton(a):
    x = np.linalg.solve(a, np.eye(a.shape[0]))
    return np.abs(np.eye(a.shape[0]) - a @ x).max() > INVERT_RESIDUAL_TOL


def _mixed_stack(rng, d=5):
    """Well-conditioned, exactly singular, above-cap and near-cap matrices."""
    mats = [rng.standard_normal((d, d)) + 3 * np.eye(d) for _ in range(4)]
    mats.append(np.zeros((d, d)))
    mats.append(np.outer(rng.standard_normal(d), rng.standard_normal(d)))
    mats.append(np.diag([1.0] * (d - 1) + [1e-13]))
    for log_cond in (7.5, 7.8, 8.0, 8.2, 9.0, 10.0):
        for scale in (1e-3, 1.0, 1e3):
            u = np.linalg.qr(rng.standard_normal((d, d)))[0]
            v = np.linalg.qr(rng.standard_normal((d, d)))[0]
            mats.append(scale * (u * np.logspace(0, -log_cond, d)) @ v.T)
    return np.array(mats)


def test_batch_invert_matches_the_one_matrix_loop(rng):
    mats = _mixed_stack(rng)
    batch = batch_invert(mats)
    messages = []
    for i, a in enumerate(mats):
        x, message = _reference_invert(a)
        messages.append(message)
        assert batch.accepted[i] == (x is not None)
        assert batch.reason(i) == message
        try:
            single = invert(DenseOperator(a, L1, L1))
        except NotInvertible as exc:
            assert x is None and str(exc) == message
            assert not batch.accepted[i] and not batch.inverses[i].any()
        else:
            assert x is not None
            assert single.entries.tobytes() == x.tobytes() == batch.inverses[i].tobytes()
    # the stack exercises every branch of the guard
    assert "condition number inf exceeds cap 1.0e+12" in messages
    assert "condition number 1.000e+13 exceeds cap 1.0e+12" in messages
    assert any(m and m.startswith("inversion residual") for m in messages)
    assert any(m is None and _needs_newton(a) for a, m in zip(mats, messages))
    assert batch.accepted.sum() == sum(m is None for m in messages)


def test_batch_invert_does_not_depend_on_its_stack(rng):
    mats = _mixed_stack(rng)
    whole = batch_invert(mats)
    for lo, hi in ((0, 1), (3, 9), (5, len(mats))):
        part = batch_invert(mats[lo:hi])
        assert part.inverses.tobytes() == whole.inverses[lo:hi].tobytes()
        assert np.array_equal(part.accepted, whole.accepted[lo:hi])
    empty = batch_invert(np.zeros((0, 3, 3)))
    assert empty.inverses.shape == (0, 3, 3) and not empty.accepted.size


def test_batch_invert_solves_one_by_one_when_a_pivot_fails(rng, monkeypatch):
    mats = np.array([rng.standard_normal((4, 4)) + 3 * np.eye(4) for _ in range(6)])
    clean = batch_invert(mats)
    chosen = mats[2]
    solve = np.linalg.solve

    def failing_solve(a, b):
        if a.ndim == 3:  # a failed pivot anywhere rejects the stacked call
            raise np.linalg.LinAlgError("Singular matrix")
        if np.array_equal(a, chosen):
            raise np.linalg.LinAlgError("pivot 3 is exactly zero")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    batch = batch_invert(mats)
    assert batch.accepted.tolist() == [True, True, False, True, True, True]
    assert batch.reason(2) == "pivot 3 is exactly zero"
    assert not batch.inverses[2].any()
    keep = [0, 1, 3, 4, 5]
    assert batch.inverses[keep].tobytes() == clean.inverses[keep].tobytes()
    with pytest.raises(NotInvertible, match="pivot 3 is exactly zero"):
        invert(DenseOperator(chosen, L1, L1))


def test_batch_invert_refuses_non_finite_entries_and_inverses():
    with pytest.raises(InputError, match="operator entries must be finite"):
        batch_invert(np.array([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]]))
    # cond 1, but the inverse 1e320 * I overflows
    tiny = np.array([np.eye(3), 1e-320 * np.eye(3)])
    with pytest.raises(InputError, match="operator entries must be finite"):
        batch_invert(tiny)
    with pytest.raises(InputError, match="operator entries must be finite"):
        invert(DenseOperator(tiny[1], L1, L1))


def test_frame_constants_equal_the_weaving_table_row(rng):
    for kind in (L1, L2, LINF, lp(3.0)):
        f0 = random_frame_system(rng, 4, kind)
        f1 = random_frame_system(rng, 4, kind)
        if kind == L1:  # a partner with a zero vector: half its weavings are singular
            f1 = FrameSystem(f0.space, np.vstack([np.zeros(4), f1.vectors[1:]]), f1.functionals)
        res = worst_weaving(f0, f1, log_all_patterns=True)
        ms = np.arange(16, dtype=np.uint64)
        sums = pattern_sums(outer_stack(f1.vectors, f1.functionals),
                            outer_stack(f0.vectors, f0.functionals), ms)
        for (pattern, s_norm, s_inv_norm), mat in zip(res.per_pattern_log, sums):
            s, s_inv, _ = frame_constants(mat, f0.space)
            assert s.value == s_norm, pattern
            assert (s_inv.value if s_inv is not None else np.inf) == s_inv_norm, pattern


def test_operator_validation():
    with pytest.raises(InputError):
        DenseOperator([[np.nan, 0], [0, 1]], L1, L1)
    with pytest.raises(InputError):
        DenseOperator(np.eye(2), L1, L1).apply([1, 2, 3])
    a = DenseOperator(np.eye(2), L1, L1)
    b = DenseOperator(np.eye(2), L2, L2)
    with pytest.raises(InputError):
        _ = a @ b


def test_space_dual():
    sp = NormedSpace(4, L1)
    assert sp.dual() == NormedSpace(4, LINF)
    with pytest.raises(InputError):
        NormedSpace(0, L1)
