import itertools
import warnings

import numpy as np
import pytest

from weavelab import (EXHAUSTIVE, L1, L2, LINF, Basis, DenseOperator, Exactness,
                      FrameSystem, InputError, NormedSpace, NotABasis, basis_constant,
                      basis_perturbation_check, biorthogonals, check_approximate_frame,
                      equivalence_constants, frame_operator, heuristic, lp, square_function,
                      suppression_constant, unconditional_constant, vector_norm,
                      worst_weaving)
from weavelab import frames
from weavelab.frames import batch_biorthogonals, projection_norms
from conftest import NORMS, random_basis, random_frame_system
from test_normed import _near_cap_stacks


def summing_system(d):
    v = np.tril(np.ones((d, d)))
    f = np.eye(d)
    for j in range(d - 1):
        f[j, j + 1] = -1.0
    return FrameSystem(NormedSpace(d, LINF), v, f, label="summing")


def standard_system(d, norm=L1):
    return FrameSystem(NormedSpace(d, norm), np.eye(d), np.eye(d), label="standard")


def difference_system(d):
    v = np.eye(d)
    for n in range(1, d):
        v[n, n - 1] = -1.0
    return FrameSystem(NormedSpace(d, L1), v, np.triu(np.ones((d, d))), label="difference")


# --- frame operator ---------------------------------------------------------

def test_frame_operator_biorthogonal_identity():
    assert np.array_equal(frame_operator(standard_system(3)).entries, np.eye(3))
    assert np.array_equal(frame_operator(summing_system(2)).entries, np.eye(2))


def test_frame_operator_scaling():
    sp = NormedSpace(2, L1)
    sys2 = FrameSystem(sp, np.eye(2), 2 * np.eye(2))
    assert np.array_equal(frame_operator(sys2).entries, 2 * np.eye(2))


def test_check_approximate_frame_scaled():
    sp = NormedSpace(4, L1)
    sys3 = FrameSystem(sp, np.eye(4), 3 * np.eye(4))
    rep = check_approximate_frame(sys3)
    assert rep.verdict == "frame"
    assert rep.s_norm.value == 3.0
    assert rep.s_inv_norm.value == pytest.approx(1 / 3, rel=1e-14)
    assert rep.c_frame == 3.0


def test_check_approximate_frame_rank_deficient():
    # chain vectors plus a duplicate: rank < dim forces a singular S
    d = 5
    chain = np.zeros((d, d))
    for i in range(d - 1):
        chain[i, i] = chain[i, i + 1] = 1.0
    chain[d - 1] = chain[0]
    sys_bad = FrameSystem(NormedSpace(d, L1), chain, np.eye(d))
    rep = check_approximate_frame(sys_bad)
    assert rep.verdict == "not_a_frame"
    assert rep.c_frame == np.inf
    assert rep.s_inv_norm is None


# --- biorthogonals ----------------------------------------------------------

def test_biorthogonals_standard_and_frozen():
    assert np.array_equal(biorthogonals(np.eye(4)), np.eye(4))
    diff = difference_system(3)
    assert np.array_equal(biorthogonals(diff.vectors),
                          [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    summing = summing_system(2)
    assert np.array_equal(biorthogonals(summing.vectors), [[1, -1], [0, 1]])


def test_biorthogonals_delta_property(rng):
    for _ in range(20):
        v = random_basis(rng, 6)
        duals = biorthogonals(v)
        assert np.abs(duals @ v.T - np.eye(6)).max() <= 1e-10


def test_biorthogonals_rejects_bad_input():
    with pytest.raises(NotABasis):
        biorthogonals(np.ones((3, 3)))
    with pytest.raises(NotABasis):
        biorthogonals(np.ones((2, 3)))


def test_biorthogonals_refuses_duals_that_overflow():
    # well conditioned, but the inverse of 1e-310 I overflows and leaves a
    # NaN residual; 1e-308 I still inverts
    with pytest.raises(NotABasis, match="residual nan"):
        biorthogonals(1e-310 * np.eye(3))
    tiny = 1e-308 * np.eye(3)
    assert np.abs(biorthogonals(tiny) @ tiny - np.eye(3)).max() <= 1e-10


def test_biorthogonals_refuses_non_finite_vectors():
    # neither numpy's SVD error nor a dependent-family verdict: bad input
    for bad in (np.nan, np.inf, -np.inf):
        v = np.eye(2)
        v[0, 0] = bad
        for call in (lambda: biorthogonals(v),
                     lambda: batch_biorthogonals(np.array([np.eye(2), v])),
                     lambda: basis_constant(v, NormedSpace(2, L1)),
                     lambda: square_function(np.eye(2), [1.0, 1.0], v)):
            with pytest.raises(InputError, match="^basis vectors must be finite$"):
                call()


def _check_stack_against_biorthogonals_alone(families):
    duals, refused = batch_biorthogonals(families)
    for i, v in enumerate(families):
        try:
            alone = biorthogonals(v)
        except NotABasis as exc:
            assert refused[i] == str(exc)
            assert not duals[i].any()
        else:
            assert i not in refused
            assert duals[i].tobytes() == alone.tobytes()
    return refused


def test_batch_biorthogonals_matches_biorthogonals_alone(rng):
    # the near-cap battery (condition numbers 1 .. 1e14 at three scales, and
    # integer families that are dependent), as vector rows
    messages = []
    for mats in _near_cap_stacks(rng).values():
        messages += _check_stack_against_biorthogonals_alone(mats.transpose(0, 2, 1)).values()
    assert "vectors are dependent (condition number 3.333e+12)" in messages
    assert any(m.startswith("biorthogonality residual") for m in messages)
    # one exactly singular family among well-conditioned ones: its zero
    # pivot refuses the stacked solve, so the stack is solved family by family
    families = np.array([random_basis(rng, 5) for _ in range(6)])
    families[3, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(families.transpose(0, 2, 1), np.eye(5))
    refused = _check_stack_against_biorthogonals_alone(families)
    assert list(refused) == [3]
    assert _check_stack_against_biorthogonals_alone(families[:0]) == {}


def test_one_family_calls_equal_the_stacked_kernel_bit_for_bit(rng):
    # the near-cap battery, a family with a zero pivot, tiny families and
    # families whose duals overflow, mixed in one stack of vector rows
    families = [mats.transpose(0, 2, 1) for mats in _near_cap_stacks(rng).values()]
    for d in (2, 3, 5, 8):
        zero_pivot = random_basis(rng, d)
        zero_pivot[:, 0] = 0.0
        families.append(np.array([random_basis(rng, d), zero_pivot, 1e-308 * np.eye(d),
                                  1e-310 * np.eye(d), random_basis(rng, d)]))
    messages = []
    for stack in families:
        messages += _check_stack_against_biorthogonals_alone(stack).values()
    assert "biorthogonality residual nan above 1.0e-10" in messages
    assert "vectors are dependent (condition number inf)" in messages
    assert any(m.startswith("vectors are dependent (condition number 3.") for m in messages)


def test_empty_families_are_not_bases():
    # refused as non-square input is, not by numpy's empty-reduction error
    with pytest.raises(NotABasis, match=r"need a square vector family, got shape \(0, 0\)"):
        biorthogonals(np.zeros((0, 0)))
    with pytest.raises(NotABasis, match=r"need a square vector family, got shape \(0, 0\)"):
        batch_biorthogonals(np.zeros((2, 0, 0)))
    duals, refused = batch_biorthogonals(np.zeros((0, 3, 3)))  # no families is fine
    assert duals.shape == (0, 3, 3) and refused == {}


def test_complex_entries_are_refused():
    # a float64 cast would drop the imaginary parts (biorthogonals(1j I)
    # then read "vectors are dependent")
    space = NormedSpace(2, L1)
    calls = {
        "frame system entries": [lambda: FrameSystem(space, 1j * np.eye(2), np.eye(2)),
                                 lambda: FrameSystem(space, np.eye(2), np.eye(2) + 0j)],
        "basis vectors": [lambda: Basis(space, [[1j, 0.0], [0.0, 1.0]]),
                          lambda: biorthogonals(1j * np.eye(2)),
                          lambda: batch_biorthogonals(1j * np.eye(2)[None]),
                          lambda: basis_constant(1j * np.eye(2), space)],
        "duals": [lambda: basis_constant(np.eye(2), space, 1j * np.eye(2))],
        "operator entries": [lambda: DenseOperator(1j * np.eye(2), L1, L1)],
    }
    for what, group in calls.items():
        for call in group:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no ComplexWarning on the way
                message = f"^{what} must be real, got complex entries$"
                with pytest.raises(InputError, match=message):
                    call()


@pytest.mark.parametrize("what, call", [
    ("vector entries", lambda: vector_norm(np.array([3j, 4.0]), L2)),
    ("vectors", lambda: square_function(1j * np.eye(2), [1.0, 1.0], np.eye(2))),
    ("coefficients", lambda: square_function(np.eye(2), [1j, 1.0], np.eye(2))),
    ("lattice vectors", lambda: square_function(np.eye(2), [1.0, 1.0], 1j * np.eye(2))),
    ("basis vectors", lambda: equivalence_constants(np.eye(2), np.eye(2) + 0.1j,
                                                    NormedSpace(2, L1))),
    ("candidate vectors", lambda: basis_perturbation_check(standard_system(2),
                                                           np.eye(2) + 0.01j)),
], ids=["vector_norm", "square_function", "coefficients", "lattice", "equivalence",
        "candidate"])
def test_complex_entries_are_refused_where_values_are_computed(what, call):
    # each read 4.0, or dropped the imaginary parts, with only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{what} must be real, got complex entries$"):
            call()


# --- basis constant ---------------------------------------------------------

def test_basis_constant_refuses_shapes_that_do_not_fit(monkeypatch):
    def no_arithmetic(*args, **kwargs):
        raise AssertionError("arithmetic before the shape check")

    monkeypatch.setattr(frames, "biorthogonals", no_arithmetic)
    monkeypatch.setattr(frames, "projection_norms", no_arithmetic)
    cases = [(np.eye(4), NormedSpace(3, L1), None, r"vectors of shape \(4, 4\) in a dim-3"),
             (np.eye(3), NormedSpace(4, L1), np.eye(3), r"vectors of shape \(3, 3\) in a dim-4"),
             (np.ones(3), NormedSpace(3, L1), None, r"vectors of shape \(3,\) in a dim-3"),
             (np.eye(3), NormedSpace(3, L1), np.ones((3, 4)), r"duals of shape \(3, 4\) for"),
             (np.eye(3), NormedSpace(3, L1), np.ones((2, 3)), r"duals of shape \(2, 3\) for")]
    for vectors, space, duals, message in cases:
        with pytest.raises(InputError, match=message):
            basis_constant(vectors, space, duals)


def test_basis_constant_is_the_largest_projection_norm(rng):
    for norm in (L1, L2, LINF, lp(3)):
        for d in (1, 3, 6):
            v = random_basis(rng, d)
            duals = biorthogonals(v)
            row = projection_norms(v[None], duals[None], norm)[0][0]
            k = int(np.argmax(row))
            for got in (basis_constant(v, NormedSpace(d, norm), duals),
                        basis_constant(v, NormedSpace(d, norm))):
                assert float(got.value).hex() == float(row[k]).hex()
                assert got.witness == (k + 1,)
    # finite terms whose prefix overflows read +inf, without a warning; a
    # term that overflows is refused
    space = NormedSpace(2, L1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = basis_constant([[1.0, 0.0], [1.0, 0.0]], space, [[1e308, 0.0], [1e308, 0.0]])
    assert got.value == np.inf and got.witness == (2,)
    with pytest.raises(InputError, match="must be finite"):
        basis_constant([[10.0, 0.0], [0.0, 1.0]], space, [[1e308, 0.0], [0.0, 1.0]])



def brute_force_basis_constant(vectors, norm):
    """Independent oracle: evaluate each partial projection on the ball's
    extreme points (columns for l1, sign vertices for linf)."""
    d = vectors.shape[0]
    duals = np.linalg.inv(vectors.T)
    best = 0.0
    for n in range(1, d + 1):
        p = sum(np.outer(vectors[i], duals[i]) for i in range(n))
        if norm == L1:
            value = max(np.abs(p @ e).sum() for e in np.eye(d))
        else:
            value = max(np.abs(p @ np.array(s)).max()
                        for s in itertools.product([1.0, -1.0], repeat=d))
        best = max(best, value)
    return best


def test_basis_constant_standard():
    for norm in NORMS:
        assert basis_constant(np.eye(4), NormedSpace(4, norm)).value == 1.0


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_basis_constant_summing(d):
    summing = summing_system(d)
    oracle = brute_force_basis_constant(summing.vectors, LINF)
    got = basis_constant(summing.vectors, summing.space)
    assert got.value == oracle == 2.0
    assert got.exactness is Exactness.EXACT


@pytest.mark.parametrize("d", [2, 4, 6])
def test_basis_constant_difference(d):
    diff = difference_system(d)
    oracle = brute_force_basis_constant(diff.vectors, L1)
    got = basis_constant(diff.vectors, diff.space)
    # the difference basis is monotone: every partial projection has unit
    # column sums, so the oracle pins the constant at 1
    assert got.value == oracle == 1.0


# --- suppression / unconditional constants ----------------------------------

def brute_force_subset_constant(system, signs=False):
    s = sum(np.outer(system.vectors[i], system.functionals[i])
            for i in range(system.n))
    s_inv = np.linalg.inv(s)
    if system.space.norm == L1:
        def norm_of(m):
            return np.abs(m).sum(axis=0).max()
    else:
        def norm_of(m):
            return np.abs(m).sum(axis=1).max()
    best = 0.0
    choices = [1.0, -1.0] if signs else [1.0, 0.0]
    for coeffs in itertools.product(choices, repeat=system.n):
        m = sum(c * np.outer(system.vectors[i], system.functionals[i])
                for i, c in enumerate(coeffs)) @ s_inv
        best = max(best, norm_of(m))
    return best


def test_suppression_and_unconditional_summing_frozen():
    summing = summing_system(2)
    cs = suppression_constant(summing)
    cu = unconditional_constant(summing)
    assert cs.value == brute_force_subset_constant(summing) == 2.0
    assert cu.value == brute_force_subset_constant(summing, signs=True) == 3.0
    assert cs.exactness is Exactness.EXACT


def test_standard_constants_are_one():
    std = standard_system(4)
    assert suppression_constant(std).value == 1.0
    assert unconditional_constant(std).value == 1.0


def test_one_unconditional_subsets_contractive(rng):
    # diagonal positive systems: every subset value is at most 1
    d = 5
    scales = rng.uniform(0.5, 2.0, d)
    sys1 = FrameSystem(NormedSpace(d, L1), np.diag(scales),
                       np.diag(1.0 / scales))
    assert suppression_constant(sys1).value == 1.0


def test_constant_ordering_random(rng):
    for norm in NORMS:
        for _ in range(5):
            system = random_frame_system(rng, 6, norm)
            cs = suppression_constant(system).value
            cu = unconditional_constant(system).value
            assert 1.0 - 1e-9 <= cs <= cu + 1e-9
            assert cu <= 2 * cs + 1e-9


def test_empty_subset_value_zero_and_full_identity():
    # values at the trivial subsets: empty gives 0 exactly; on an
    # exact-arithmetic system the full subset gives exactly 1
    summing = summing_system(3)
    cs = suppression_constant(summing)
    assert cs.value >= 1.0
    std = standard_system(3)
    assert suppression_constant(std).value == 1.0


def test_scaling_covariance_dyadic(rng):
    system = random_frame_system(rng, 5, L1)
    base = check_approximate_frame(system)
    scaled = check_approximate_frame(system.scaled_functionals(2.0))
    assert scaled.s_norm.value == 2.0 * base.s_norm.value
    assert scaled.s_inv_norm.value == 0.5 * base.s_inv_norm.value
    assert suppression_constant(system).value == \
        suppression_constant(system.scaled_functionals(2.0)).value


def test_heuristic_is_lower_bound_and_agrees(rng):
    for _ in range(10):
        d = int(rng.integers(3, 8))
        system = random_frame_system(rng, d, L1)
        exact = suppression_constant(system, EXHAUSTIVE)
        approx = suppression_constant(system, heuristic(8), seed=3)
        assert approx.value <= exact.value
        assert approx.value == exact.value  # small instances: climb finds the max
        assert approx.exactness is Exactness.LOWER_BOUND
        exact_u = unconditional_constant(system, EXHAUSTIVE)
        approx_u = unconditional_constant(system, heuristic(8), seed=3)
        assert approx_u.value == exact_u.value


def test_exhaustive_demotes_above_cap(rng):
    # above the cap, exhaustive mode is heuristic(32) bit for bit
    system = random_frame_system(rng, 6, L1)
    other = random_frame_system(rng, 6, L1)
    for constant in (suppression_constant, unconditional_constant):
        est = constant(system, EXHAUSTIVE, exhaustive_cap=8, seed=2)
        ref = constant(system, heuristic(32), seed=2)
        assert est.exactness is ref.exactness is Exactness.LOWER_BOUND
        assert (est.value, est.witness) == (ref.value, ref.witness)
    demoted = worst_weaving(system, other, EXHAUSTIVE, exhaustive_cap=8, seed=2,
                            log_all_patterns=True)
    ref = worst_weaving(system, other, heuristic(32), seed=2, log_all_patterns=True)
    assert demoted.mode == ref.mode == heuristic(32)
    assert demoted.per_pattern_log == ref.per_pattern_log
    assert len(ref.per_pattern_log) == ref.patterns_evaluated < 2 ** 6
    for field in ("worst_pattern", "worst_constant", "s_norm", "s_inv_norm", "exactness",
                  "verdict", "witness", "patterns_evaluated"):
        assert getattr(demoted, field) == getattr(ref, field)


# --- square function --------------------------------------------------------

def test_square_function_examples():
    lattice = np.eye(3)
    x1 = np.array([[0.5, -2.0, 1.0]])
    out = square_function(x1, [1.0], lattice)
    assert np.array_equal(out, np.abs(x1[0]))
    basis_rows = np.eye(3)[:2]
    out = square_function(basis_rows, [1.0, 1.0], lattice)
    assert np.array_equal(out, [1.0, 1.0, 0.0])
    repeated = np.array([[1.0, 0, 0], [1.0, 0, 0]])
    out = square_function(repeated, [1.0, 1.0], lattice)
    assert out == pytest.approx([np.sqrt(2), 0.0, 0.0])


# --- equivalence constants ---------------------------------------------------

def test_equivalence_constants():
    sp = NormedSpace(3, L1)
    eye = np.eye(3)
    assert equivalence_constants(eye, eye, sp) == (1.0, 1.0)
    lower, upper = equivalence_constants(eye, 2 * eye, sp)
    assert (lower, upper) == (2.0, 2.0)
    diff = difference_system(3)
    lower, upper = equivalence_constants(eye, diff.vectors, sp)
    assert upper == 2.0
    assert lower == pytest.approx(1 / 3, rel=1e-14)


def test_frame_system_validation():
    from weavelab import InputError
    with pytest.raises(InputError):
        FrameSystem(NormedSpace(2, L1), np.eye(2), np.eye(3))
    with pytest.raises(InputError):
        FrameSystem(NormedSpace(2, L1), [[np.inf, 0], [0, 1]], np.eye(2))
