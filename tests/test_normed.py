import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weavelab import (L1, L2, LINF, DenseOperator, Exactness, FrameSystem,
                      GallerySpec, InputError, NormKind, NormedSpace,
                      NotABasis, NotInvertible, biorthogonals, dual_norm,
                      generate, invert, lp, norming_vector, operator_norm,
                      vector_norm)
from weavelab import frames, normed, search
from weavelab.frames import (BIORTHOGONAL_TOL, ChunkEvaluator, frame_constants, outer_stack,
                             pattern_sums)
from weavelab.normed import (ASCENT_STARTS, DEFAULT_COND_CAP, INVERT_RESIDUAL_TOL,
                             batch_ascent, batch_invert, batch_opnorm_values,
                             batch_vector_norms)
from weavelab.weaving import sample_patterns, worst_weaving
from conftest import NORMS, random_basis, random_frame_system

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


def _reference_vector_norm(a, kind):
    """The one-vector norm the row helpers replaced."""
    if kind.tag == "l1":
        return float(np.abs(a).sum())
    if kind.tag == "linf":
        return float(np.abs(a).max())
    if kind.tag == "l2":
        return float(np.linalg.norm(a))
    m = float(np.abs(a).max())
    if m == 0.0:
        return 0.0
    return m * float((np.abs(a / m) ** kind.p).sum() ** (1.0 / kind.p))


def _reference_norming_vector(z, kind):
    """The one-vector norming vector the row helpers replaced."""
    e = np.zeros(z.size)
    if not np.any(z):
        e[0] = 1.0
        return e
    if kind.tag == "l1":
        j = int(np.argmax(np.abs(z)))
        e[j] = 1.0 if z[j] >= 0 else -1.0
        return e
    if kind.tag == "linf":
        return np.where(z >= 0, 1.0, -1.0)
    zs = z / np.abs(z).max()
    if kind.tag == "l2":
        return zs / np.linalg.norm(zs)
    w = np.sign(zs) * np.abs(zs) ** (kind.dual().exponent - 1.0)
    return w / _reference_vector_norm(w, kind)


def _reference_ascent(entries, domain, codomain):
    """The one-matrix, one-start-at-a-time loop batch_ascent replaced."""
    d_in = entries.shape[1]
    seeds = list(np.eye(d_in)[:ASCENT_STARTS])
    rng = np.random.default_rng(7)
    while len(seeds) < ASCENT_STARTS:
        v = rng.standard_normal(d_in)
        if np.any(v):
            seeds.append(v)
    best_val, best_x = 0.0, seeds[0]
    for s in seeds:
        x = s / _reference_vector_norm(s, domain)
        val = _reference_vector_norm(entries @ x, codomain)
        for _ in range(100):
            g = _reference_norming_vector(entries @ x, codomain.dual())
            x_new = _reference_norming_vector(entries.T @ g, domain)
            val_new = _reference_vector_norm(entries @ x_new, codomain)
            if not val_new > val * (1.0 + 1e-14):
                break
            x, val = x_new, val_new
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


def _ascent_cases(rng):
    """(stack, domain, codomain): lp pairs, mixed pairs, rectangular, zero, wide."""
    square = rng.standard_normal((3, 4, 4)) + 2 * np.eye(4)
    square[1] = 0.0
    dyadic = np.round(8 * rng.standard_normal((2, 3, 3))) / 8
    for p in (1.5, 3.0, 4.0):
        yield square, lp(p), lp(p)
        yield dyadic, lp(p), lp(p)
    yield rng.standard_normal((2, 3, 5)), L1, lp(3.0)
    yield rng.standard_normal((2, 5, 2)), lp(3.0), LINF
    yield rng.standard_normal((2, 4, 3)), L2, lp(4.0)
    yield 1e-3 * rng.standard_normal((1, 2, ASCENT_STARTS + 6)), lp(1.5), lp(1.5)


def test_batch_ascent_matches_the_one_matrix_loop(rng):
    for mats, domain, codomain in _ascent_cases(rng):
        values, witnesses = batch_ascent(mats, domain, codomain)
        lo, hi = batch_opnorm_values(mats, domain, codomain)
        assert values.tobytes() == lo.tobytes() and (hi == np.inf).all()
        for a, value, witness in zip(mats, values, witnesses):
            ref_value, ref_witness = _reference_ascent(a, domain, codomain)
            assert float(value).hex() == float(ref_value).hex()
            assert witness.tobytes() == ref_witness.tobytes()
            single = operator_norm(DenseOperator(a, domain, codomain))
            assert float(single.value).hex() == float(ref_value).hex()
            assert single.witness.tobytes() == ref_witness.tobytes()
        for v in mats.reshape(-1, mats.shape[-1]):
            for kind in (L1, L2, LINF, domain, codomain):
                assert vector_norm(v, kind) == _reference_vector_norm(v, kind)
                assert norming_vector(v, kind).tobytes() == \
                    _reference_norming_vector(v, kind).tobytes()
    zero_values, zero_witnesses = batch_ascent(np.zeros((1, 2, 3)), lp(3.0), lp(3.0))
    assert zero_values.tolist() == [0.0] and zero_witnesses.tolist() == [[1.0, 0.0, 0.0]]


def test_batch_ascent_does_not_depend_on_its_stack(rng, monkeypatch):
    mats = rng.standard_normal((7, 4, 4)) + np.eye(4)
    mats[3] = 0.0
    values, witnesses = batch_ascent(mats, lp(3.0), lp(3.0))
    order = rng.permutation(7)
    shuffled = batch_ascent(mats[order], lp(3.0), lp(3.0))
    assert shuffled[0].tobytes() == values[order].tobytes()
    assert shuffled[1].tobytes() == witnesses[order].tobytes()
    for lo, hi in ((0, 1), (2, 5), (5, 7)):
        part = batch_ascent(mats[lo:hi], lp(3.0), lp(3.0))
        assert part[0].tobytes() == values[lo:hi].tobytes()
        assert part[1].tobytes() == witnesses[lo:hi].tobytes()
    monkeypatch.setattr(normed, "_ASCENT_CELLS", 3 * 16)  # chunks of three climbs
    small = batch_ascent(mats, lp(3.0), lp(3.0))
    assert small[0].tobytes() == values.tobytes()
    assert small[1].tobytes() == witnesses.tobytes()
    empty = batch_ascent(np.zeros((0, 4, 4)), lp(3.0), lp(3.0))
    assert empty[0].shape == (0,) and empty[1].shape == (0, 4)


def test_lp_weaving_table_does_not_depend_on_thread_count(rng, monkeypatch):
    f0 = random_frame_system(rng, 5, lp(3.0))
    f1 = random_frame_system(rng, 5, lp(3.0))
    monkeypatch.setattr(search, "CHUNK_BUDGET", 8 * 4 * 25)  # four chunks of 8 patterns
    logs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("WEAVELAB_THREADS", threads)
        logs.append(worst_weaving(f0, f1, log_all_patterns=True).per_pattern_log)
    assert len(logs[0]) == 32 and logs[0] == logs[1]


def test_lp_row_norms_match_vector_norm(rng):
    rows = rng.standard_normal((20, 6)) * 10.0 ** rng.integers(-200, 200, size=(20, 1))
    rows[4] = 0.0
    for kind in (L1, LINF, lp(1.5), lp(3.0)):
        norms = batch_vector_norms(rows, kind)
        assert [float(n) for n in norms] == [vector_norm(r, kind) for r in rows]
        assert [float(n) for n in norms] == [_reference_vector_norm(r, kind) for r in rows]


def test_row_norms_match_vector_norm_at_every_width(rng):
    for d in range(1, 40):
        rows = rng.standard_normal((50, d))
        for kind in (L1, L2, LINF, lp(3.0)):
            norms = batch_vector_norms(rows, kind)
            assert norms.tobytes() == np.array([vector_norm(r, kind) for r in rows]).tobytes()
        assert batch_vector_norms(rows, L2).tobytes() == \
            np.array([np.linalg.norm(r) for r in rows]).tobytes()


def test_lp_overflow_is_refused_directly_and_in_a_batch():
    huge = 1e308 * np.ones((3, 3))  # finite entries, but M x overflows during the ascent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # refused before numpy warns
        with pytest.raises(InputError, match="vector has non-finite entries"):
            operator_norm(DenseOperator(huge, lp(3.0), lp(3.0)))
        with pytest.raises(InputError, match="vector has non-finite entries"):
            batch_opnorm_values(np.array([np.eye(3), huge]), lp(3.0), lp(3.0))


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


def _fields_match_alone(kernel, mats, refused_stack=False):
    """Check that every BatchInverse field ``kernel`` gives each matrix of
    the stack ``mats`` is bit for bit the field it gives that matrix alone:
    inverses, accepted, cond, residual and solve_errors.  Where a zero pivot
    refuses the stacked solve (``refused_stack``), a matrix that the
    certificate clears alone (NaN cond) has its SVD taken in the stack."""
    whole = kernel(mats)
    for i in range(len(mats)):
        alone = kernel(mats[i:i + 1])
        assert whole.inverses[i].tobytes() == alone.inverses[0].tobytes()
        assert whole.accepted[i] == alone.accepted[0]
        assert whole.residual[i].tobytes() == alone.residual[0].tobytes()
        assert whole.solve_errors.get(i) == alone.solve_errors.get(0)
        if refused_stack and np.isnan(alone.cond[0]):
            assert whole.cond[i] <= DEFAULT_COND_CAP / 100
        else:
            assert whole.cond[i].tobytes() == alone.cond[0].tobytes()
    return whole


def _solvable_stacks(rng):
    """Per dimension, the near-cap battery without its exactly singular
    integer matrices (so the stacked solve goes through), plus a tiny
    1e-308 I, as one stack."""
    return {d: np.concatenate([mats[:45], [1e-308 * np.eye(d)]])
            for d, mats in _near_cap_stacks(rng).items()}


@pytest.mark.parametrize("side", ["right", "left"])
def test_every_kernel_field_of_a_stack_is_the_one_alone(rng, side):
    # the one-matrix calls (invert, biorthogonals) take the same kernel as
    # the tables' chunks, exit included
    if side == "right":
        kernel = batch_invert
    else:
        kernel = frames._left_inverses  # biorthogonals' kernel call, on vector rows
    seen = set()
    for d, mats in _solvable_stacks(rng).items():
        if side == "left":  # duals that overflow are refused on the left
            mats = np.concatenate([mats, [1e-310 * np.eye(d)]])
        batch = _fields_match_alone(kernel, mats)
        cleared, capped = np.isnan(batch.cond), batch.cond > DEFAULT_COND_CAP
        cases = {"cleared": cleared, "accepted after an SVD": ~cleared & batch.accepted,
                 "capped": capped, "refused by the residual": ~batch.accepted & ~capped}
        seen |= {name for name, hit in cases.items() if hit.any()}
    assert seen == {"cleared", "accepted after an SVD", "capped", "refused by the residual"}
    # a zero pivot refuses the stacked solve: every matrix then gets its SVD
    mats = _mixed_stack(rng)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(mats)
    batch = _fields_match_alone(kernel, mats, refused_stack=True)
    assert not np.isnan(batch.cond).any()


def test_batch_invert_solves_one_by_one_when_a_pivot_fails(rng, monkeypatch):
    mats = np.array([rng.standard_normal((4, 4)) + 3 * np.eye(4) for _ in range(6)])
    clean = batch_invert(mats)
    chosen = mats[2]
    inv = np.linalg.inv

    def failing_inv(a):
        if a.ndim == 3:  # a failed pivot anywhere rejects the stacked call
            raise np.linalg.LinAlgError("Singular matrix")
        if np.array_equal(a, chosen):
            raise np.linalg.LinAlgError("pivot 3 is exactly zero")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing_inv)
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


def _reference_biorthogonals(v):
    """The cond-first loop biorthogonals replaced: (duals or None, message)."""
    b = v.T
    cond = np.linalg.cond(b)
    if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
        return None, f"vectors are dependent (condition number {cond:.3e})"
    eye = np.eye(b.shape[0])
    try:
        duals = np.linalg.solve(b, eye)
    except np.linalg.LinAlgError as exc:
        return None, str(exc)
    res = np.inf
    for _ in range(5):
        r = eye - duals @ b
        res = float(np.abs(r).max())
        if res <= BIORTHOGONAL_TOL:
            break
        duals = duals + r @ duals
    if res > BIORTHOGONAL_TOL:
        return None, f"biorthogonality residual {res:.3e} above {BIORTHOGONAL_TOL:.1e}"
    return duals, None


def _near_cap_stacks(rng):
    """Per dimension: condition numbers 1, 1e4 and 1e8 .. 1e14 (a diagonal
    scaling between two random orthogonal matrices, at three scales) and
    exactly singular integer matrices; d = 2 also holds the diag(1e5, 3e-8)
    repro."""
    stacks = {}
    for d in (2, 3, 5, 8):
        mats = []
        for log_cond in (0.0, 4.0, *np.linspace(8.0, 14.0, 13)):
            for scale in (1e-3, 1.0, 1e3):
                u = np.linalg.qr(rng.standard_normal((d, d)))[0]
                v = np.linalg.qr(rng.standard_normal((d, d)))[0]
                mats.append(scale * (u * np.logspace(0, -log_cond, d)) @ v.T)
        for _ in range(6):
            a = rng.integers(-3, 4, (d, d)).astype(float)
            a[-1] = a[0] - 2.0 * a[1] if d > 2 else 3.0 * a[0]
            mats.append(a)
        if d == 2:
            mats.append(np.diag([1e5, 3e-8]))
        stacks[d] = np.array(mats)
    return stacks


def test_batch_invert_near_the_cap_matches_testing_cond_first(rng):
    messages = []
    for mats in _near_cap_stacks(rng).values():
        batch = batch_invert(mats)
        for i, a in enumerate(mats):
            x, message = _reference_invert(a)
            messages.append(message)
            assert batch.accepted[i] == (x is not None)
            assert batch.reason(i) == message
            expected = x if x is not None else np.zeros_like(a)
            assert batch.inverses[i].tobytes() == expected.tobytes()
    assert "condition number 3.333e+12 exceeds cap 1.0e+12" in messages  # the repro
    assert "condition number inf exceeds cap 1.0e+12" in messages
    assert any(m and m.startswith("inversion residual") for m in messages)
    assert 0 < sum(m is None for m in messages) < len(messages)


def test_biorthogonals_near_the_cap_match_testing_cond_first(rng):
    messages = []
    for mats in _near_cap_stacks(rng).values():
        for a in mats:
            duals, message = _reference_biorthogonals(a.T)
            messages.append(message)
            if duals is None:
                with pytest.raises(NotABasis) as exc:
                    biorthogonals(a.T)
                assert str(exc.value) == message
            else:
                assert biorthogonals(a.T).tobytes() == duals.tobytes()
    assert "vectors are dependent (condition number 3.333e+12)" in messages
    assert any(m and m.startswith("biorthogonality residual") for m in messages)
    assert 0 < sum(m is None for m in messages) < len(messages)


def _count_svds(monkeypatch):
    """Count the matrices np.linalg.cond takes from here on."""
    taken = []
    cond = np.linalg.cond

    def counting_cond(x, *args, **kwargs):
        taken.append(int(np.prod(np.shape(x)[:-2])))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    return taken


def test_well_conditioned_inversions_take_no_svd(rng, monkeypatch):
    f0 = generate(GallerySpec("standard-c0", 8))
    f1 = generate(GallerySpec("summing-c0", 8))
    basis = random_basis(rng, 10)
    taken = _count_svds(monkeypatch)
    result = worst_weaving(f0, f1, log_all_patterns=True)
    biorthogonals(basis)
    assert sum(taken) == 0
    assert all(np.isfinite(b) for _, _, b in result.per_pattern_log)
    mats = np.array([rng.standard_normal((5, 5)) + 3 * np.eye(5) for _ in range(8)])
    clear = batch_invert(mats)
    assert sum(taken) == 0 and clear.accepted.all() and np.isnan(clear.cond).all()
    keep = [0, 1, 2, 4, 5, 6, 7]
    u, v = (np.linalg.qr(rng.standard_normal((5, 5)))[0] for _ in range(2))
    # singular in float64 but solve goes through (one SVD), then exactly
    # singular: a zero pivot refuses the stacked solve, so no residual
    # exists and every matrix gets its SVD
    for singular, svds in (((u * np.logspace(0, -20, 5)) @ v.T, 1),
                           (np.outer(np.arange(1.0, 6.0), np.arange(2.0, 7.0)), 8)):
        mats[3] = singular
        taken.clear()
        batch = batch_invert(mats)
        assert sum(taken) == svds
        assert (batch.cond > DEFAULT_COND_CAP).tolist() == [i == 3 for i in range(8)]
        assert batch.accepted.tolist() == [i != 3 for i in range(8)]
        assert batch.reason(3) == _reference_invert(mats[3])[1]
        assert batch.inverses[keep].tobytes() == clear.inverses[keep].tobytes()
        assert batch.residual[keep].tobytes() == clear.residual[keep].tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(mats, np.eye(5))


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


def _plain_pattern_sums(on, off, ms):
    """Every pattern's terms in one array, reduced left to right over its bits."""
    bits = (ms[:, None] >> np.arange(on.shape[0] - 1, -1, -1, dtype=np.uint64)) & 1 == 1
    return np.add.reduce(np.where(bits[:, :, None, None], on, off), axis=1)


def _sparse_stack(rng, n, d, zero):
    stack = rng.standard_normal((n, d, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1, 1))
    stack[rng.random((n, d, d)) < 0.3] = 0.0
    stack[:, 0, 1:] = zero  # the same signed zero in every term
    return stack


def test_pattern_sums_match_the_plain_reduce_bit_for_bit(rng):
    # n != d, and d = 1, whose 1 x 1 cells numpy sums pairwise
    for n, d in ((10, 10), (11, 11), (12, 12), (13, 13), (14, 14), (9, 3), (5, 8), (16, 1)):
        on, g = _sparse_stack(rng, n, d, -0.0), _sparse_stack(rng, n, d, 0.0)
        total = 1 << n
        unaligned = [(0, 777), (max(0, total // 2 - 300), 777), (total - total % 777, 777)]
        aligned = [(0, 256), (total - 256, 256), (total // 2, search.chunk_size_for(4 * d * d))]
        runs = [np.arange(m0, min(m0 + size, total)) for m0, size in unaligned + aligned]
        singles = [np.array([m]) for m in (0, total - 1, int(rng.integers(total)))]
        draws = [np.array(sample_patterns(n, 300, seed)) for seed in (0, 1)]
        for off in (g, 0.0, -g):  # weaving sums, subset sums (C_s), sign sums (C_u)
            for ms in runs + singles + draws:
                ms = ms.astype(np.uint64)
                got = pattern_sums(on, off, ms)
                assert got.tobytes() == _plain_pattern_sums(on, off, ms).tobytes(), (n, d, ms[0])
    whole = np.arange(1 << 10, dtype=np.uint64)
    on, g = _sparse_stack(rng, 10, 4, -0.0), _sparse_stack(rng, 10, 4, 0.0)
    for size in (777, 1):  # every index of a run or one at a time: the same bits
        parts = [pattern_sums(on, -g, whole[m0:m0 + size]) for m0 in range(0, 1 << 10, size)]
        assert np.concatenate(parts).tobytes() == _plain_pattern_sums(on, -g, whole).tobytes()


def test_evaluator_pattern_sums_match_the_plain_reduce_bit_for_bit(rng, monkeypatch):
    # an evaluator's one-pattern route (the climbs' and greedy growth's) and
    # its chunks on two threads, each with its own workspace
    monkeypatch.setenv("WEAVELAB_THREADS", "2")
    for n, d in ((10, 10), (12, 5), (12, 3), (11, 1)):  # 4, 4, 4 and 2 chunks
        on, g = _sparse_stack(rng, n, d, -0.0), _sparse_stack(rng, n, d, 0.0)
        whole = np.arange(1 << n, dtype=np.uint64)
        for off in (g, 0.0, -g):
            terms = np.empty((n, 2, d, d))
            terms[:, 0], terms[:, 1] = off, on
            evaluator = ChunkEvaluator(terms, L1)
            plain = _plain_pattern_sums(on, off, whole)
            for m in [0, (1 << n) - 1] + rng.integers(1 << n, size=40).tolist():
                got = evaluator._sums(whole[m:m + 1])[0]
                assert got.tobytes() == plain[m:m + 1].tobytes(), (n, d, m)
            table = search.pattern_table(
                range(1 << n), lambda ms: evaluator._sums(ms)[0].reshape(len(ms), -1),
                search.CELLS_PER_SUM * d * d, columns=d * d)
            assert table.tobytes() == plain.reshape(1 << n, -1).tobytes(), (n, d)


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
