import numpy as np
import pytest

from weavelab import (FrameSystem, InputError, L1, NormedSpace,
                      basis_perturbation_check, operator_perturbation_check,
                      pair_perturbation_check, perturb, worst_weaving)
from test_frames import standard_system, summing_system


def test_operator_identity_budget_zero():
    std = standard_system(5)
    rep = operator_perturbation_check(std, np.eye(5))
    assert rep.budget.actual == 0.0
    assert rep.budget.satisfied
    assert rep.certificate.holds
    assert rep.certificate.max_residual == 0.0
    assert rep.worst.worst_constant == 1.0


def test_operator_diagonal_certificate():
    std = standard_system(6)
    rep = operator_perturbation_check(std, 0.7 * np.eye(6))
    assert rep.suppression.value == 1.0
    assert rep.budget.actual == pytest.approx(0.3, rel=1e-14)
    assert rep.certificate.holds
    assert rep.certificate.exhaustive
    assert rep.certificate.patterns_checked == 64
    assert rep.certificate.max_residual == pytest.approx(0.3, rel=1e-14)
    assert rep.worst.verdict == "woven"


def test_operator_conditional_refusal_and_growth():
    # a conditional system scaled by 2 blows the budget; the informational
    # weaving search shows the worst constant growing with dimension
    worsts = []
    for d in (4, 6):
        summing = summing_system(d)
        rep = operator_perturbation_check(summing, 2.0 * np.eye(d))
        assert not rep.budget.satisfied
        assert rep.certificate is None and rep.worst is None
        pushed = FrameSystem(summing.space, 2.0 * summing.vectors,
                             summing.functionals)
        worsts.append(worst_weaving(summing, pushed).worst_constant)
    assert worsts[1] > worsts[0] > 2.0


def test_operator_needs_exact_suppression():
    std = standard_system(4)
    from weavelab import heuristic
    with pytest.raises(InputError):
        operator_perturbation_check(std, 0.5 * np.eye(4), mode=heuristic(4))


def test_operator_warns_on_conditional_suppression():
    # two cancelling pairs on a line: S = 1 but the first term alone has
    # norm 150, so C_s = 150 and the theorem's budget is 1/150
    cancelling = FrameSystem(NormedSpace(1, L1), [[1.0], [1.0]],
                             [[150.0], [-149.0]])
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = operator_perturbation_check(cancelling, np.eye(1))
    assert rep.suppression.value == 150.0
    assert any("vacuous" in str(w.message) for w in caught)


def test_pair_identical_and_scaled_functional():
    std = standard_system(6)
    rep = pair_perturbation_check(std, std)
    assert rep.budget.actual == 0.0
    assert rep.certificate.holds and rep.certificate.max_residual == 0.0
    bumped = std.functionals.copy()
    bumped[0] *= 1.1
    f1 = FrameSystem(std.space, std.vectors, bumped)
    rep = pair_perturbation_check(std, f1)
    assert rep.budget.actual == pytest.approx(0.1, rel=1e-12)
    assert rep.budget.satisfied and rep.certificate.holds
    assert rep.certificate.max_residual <= rep.budget.actual * rep.s_inv_norm + 1e-9


def test_pair_far_budget_unsatisfied():
    std = standard_system(4)
    far = FrameSystem(std.space, std.vectors, 5.0 * std.functionals)
    rep = pair_perturbation_check(std, far)
    assert not rep.budget.satisfied
    assert rep.certificate is None


def test_pair_monotone_under_interpolation():
    std = standard_system(4)
    other = FrameSystem(std.space, std.vectors + 0.05, std.functionals * 1.05)
    actuals = []
    for lam in (1.0, 0.5, 0.25, 0.0):
        mix = FrameSystem(std.space,
                          (1 - lam) * std.vectors + lam * other.vectors,
                          (1 - lam) * std.functionals + lam * other.functionals)
        actuals.append(pair_perturbation_check(std, mix).budget.actual)
    assert all(a >= b - 1e-12 for a, b in zip(actuals, actuals[1:]))
    assert actuals[-1] == 0.0


def test_basis_perturbation_examples():
    std = standard_system(5)
    rep = basis_perturbation_check(std, std.vectors)
    assert rep.budget.actual == 0.0
    assert rep.all_weavings_bases
    assert rep.equivalence == (1.0, 1.0)

    bumped = std.vectors.copy()
    bumped[0] = bumped[0] + 0.4 * np.eye(5)[1]
    rep = basis_perturbation_check(std, bumped)
    assert rep.budget.satisfied
    assert rep.is_basis and rep.all_weavings_bases
    lo, hi = rep.equivalence
    assert np.isfinite(lo) and np.isfinite(hi) and lo <= 1.0 <= hi

    rep = basis_perturbation_check(std, -std.vectors)
    assert rep.budget.actual >= 2.0
    assert not rep.budget.satisfied
    assert rep.is_basis is None


def test_pair_check_rejects_non_frame():
    d = 4
    broken = np.eye(d)
    broken[0] = 0.0
    bad = FrameSystem(NormedSpace(d, L1), broken, np.eye(d))
    from weavelab import NotAFrame
    with pytest.raises(NotAFrame):
        pair_perturbation_check(bad, bad)


def test_basis_perturbation_does_not_hide_internal_errors(monkeypatch):
    # only NotABasis means "not a basis"; any other error is a fault and
    # must reach the caller
    def broken(vectors):
        raise TypeError("internal fault")

    monkeypatch.setattr(perturb, "biorthogonals", broken)
    std = standard_system(3)
    with pytest.raises(TypeError):
        basis_perturbation_check(std, std.vectors)
