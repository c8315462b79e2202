import numpy as np
import pytest
import scipy.optimize

from monoreg import (
    BallSampler,
    HilbertVector,
    InvalidConfig,
    LinearMap,
    NoDerivative,
    NonConvergence,
    NonFinite,
    NonlinearOperator,
    OperatorBounds,
    gen_noise,
    phi_psi,
    solve_regularized,
    zero_map,
)
from monoreg.bench import NoiseSpec
from monoreg.discrepancy import _bracket_search
from monoreg.regularized import MAX_NEWTON, MAX_RELAX

from helpers import const_vector, identity_operator


def test_zero_operator():
    w = np.array([0.5, 0.5])
    F = NonlinearOperator(
        lambda u: HilbertVector.zeros(w), lambda u: zero_map(w)
    )
    sol = solve_regularized(F, const_vector(3.0, w), a=0.5, tol=1e-14)
    assert sol.V.values == pytest.approx([6.0, 6.0], abs=1e-13)


def test_identity_operator():
    w = np.array([0.5, 0.5])
    sol = solve_regularized(identity_operator(w), const_vector(2.0, w), a=1.0)
    assert sol.V.values == pytest.approx([1.0, 1.0], abs=1e-12)


def scipy_regularized_oracle(F, f_delta, a):
    """Independent dense solve of F(V) + a V = f_delta via scipy's hybrid
    root finder; shares no code with the in-package damped Newton."""

    def residual(values):
        V = f_delta.with_values(values)
        return (F(V) + a * V - f_delta).values

    result = scipy.optimize.root(
        residual, np.zeros(f_delta.size), method="hybr", tol=1e-13
    )
    assert result.success
    return f_delta.with_values(result.x)


def test_hammerstein_small_shift_approaches_exact_solution(ham50, ham_data):
    prob, F = ham50
    a = 1e-4
    sol = solve_regularized(F, ham_data, a, tol=1e-12)
    one = prob.exact_solution
    assert (sol.V - one).norm() / one.norm() <= 1e-3
    oracle = scipy_regularized_oracle(F, ham_data, a)
    assert (sol.V - oracle).norm() <= 1e-8


def test_warm_start_reaches_same_solution(ham50, ham_data):
    prob, F = ham50
    tol = 1e-12
    cold = solve_regularized(F, ham_data, 0.01, tol=tol)
    warm = solve_regularized(
        F, ham_data, 0.01, tol=tol, warm_start=const_vector(5.0, prob.weights)
    )
    assert (cold.V - warm.V).norm() <= 10 * tol


def test_unreachable_tolerance_reports_nonconvergence(ham50, ham_data):
    from monoreg import NonConvergence

    prob, F = ham50
    with pytest.raises(NonConvergence):
        solve_regularized(F, ham_data, a=0.1, tol=1e-18)


def test_relaxation_fallback_without_derivative():
    w = np.array([0.5, 0.5])
    F = NonlinearOperator(
        lambda u: u.with_values(np.tanh(u.values)), bounds=OperatorBounds(m1=1.0)
    )
    f = const_vector(1.0, w)
    sol = solve_regularized(F, f, a=0.5, tol=1e-10)
    assert (F(sol.V) + 0.5 * sol.V - f).norm() <= 1e-10


def test_a_zero_shift_is_rejected(unit_pair):
    with pytest.raises(InvalidConfig, match="shift a must be positive"):
        solve_regularized(identity_operator(unit_pair), const_vector(1.0, unit_pair),
                          a=0.0)


def test_relaxation_needs_declared_bounds(unit_pair):
    F = NonlinearOperator(lambda u: u)
    with pytest.raises(NoDerivative, match="declared bounds"):
        solve_regularized(F, const_vector(1.0, unit_pair), a=0.5)


def test_relaxation_past_its_budget_reports_nonconvergence(unit_pair):
    # a loose m1 makes the step 1 / (m1 + 2a) too short to converge in
    # MAX_RELAX steps
    F = NonlinearOperator(lambda u: u, bounds=OperatorBounds(m1=1e6))
    with pytest.raises(NonConvergence, match=f"{MAX_RELAX} relaxation steps"):
        solve_regularized(F, const_vector(1.0, unit_pair), a=0.5, tol=1e-12)


def test_newton_past_its_budget_reports_nonconvergence():
    # F(u) = u declaring the derivative 1000 I: each full step removes 2/1001
    # of the defect, so MAX_NEWTON steps leave two thirds of it
    w = np.ones(1)
    wrong = LinearMap.from_matrix(1000.0 * np.eye(1), w)
    F = NonlinearOperator(lambda u: u, lambda u: wrong)
    with pytest.raises(NonConvergence, match=f"no convergence in {MAX_NEWTON} damped Newton"):
        solve_regularized(F, const_vector(1.0, w), a=1.0)


def test_nan_data_raises_non_finite(ham50, ham_data):
    # one NaN in f_delta used to stall the line search and raise
    # NonConvergence, blaming the monotonicity contract
    prob, F = ham50
    values = ham_data.values.copy()
    values[7] = np.nan
    with pytest.raises(NonFinite, match="defect at a = 0.1 is nan"):
        solve_regularized(F, ham_data.with_values(values), a=0.1)
    derivative_free = NonlinearOperator(F.apply, bounds=F.bounds)
    with pytest.raises(NonFinite, match="defect at a = 0.1 is nan"):
        solve_regularized(derivative_free, ham_data.with_values(values), a=0.1)


# ---------------------------------------------------------------- phi / psi


def test_phi_psi_identity_closed_form(unit_pair):
    F = identity_operator(unit_pair)
    f = const_vector(2.0, unit_pair)
    phi, psi = phi_psi(F, f, 1.0)
    assert psi == pytest.approx(1.0, abs=1e-12)
    assert phi == pytest.approx(1.0, abs=1e-12)


def test_phi_stays_below_initial_residual(unit_pair):
    # phi tends to ||F(0) - f_delta|| from below as the shift grows
    F = identity_operator(unit_pair)
    f = const_vector(2.0, unit_pair)
    phi, _ = phi_psi(F, f, 100.0)
    assert phi == pytest.approx(200.0 / 101.0, abs=1e-10)
    assert phi < 2.0


def test_phi_increasing_psi_nonincreasing_on_benchmark(ham50, ham_data):
    prob, F = ham50
    f_delta, _ = gen_noise(ham_data, NoiseSpec(0.01, seed=5))
    grid = np.geomspace(1e-4, 1e2, 20)
    phis, psis = [], []
    warm = None
    for a in grid:
        sol = solve_regularized(F, f_delta, a, tol=1e-12, warm_start=warm)
        warm = sol.V
        psis.append(sol.V.norm())
        phis.append(a * psis[-1])
    phis, psis = np.array(phis), np.array(psis)
    assert np.all(np.diff(phis) > 0)
    assert np.all(np.diff(psis) <= psis[:-1] * 1e-9)


# ----------------------------------------------------------------- brackets


def _solver(F, f_delta, tol=None, shifts=None):
    """The a -> V_a map the bracket search takes; appends each shift to
    `shifts` when given."""
    def solve(a):
        if shifts is not None:
            shifts.append(a)
        return solve_regularized(F, f_delta, a, tol=tol).V

    return solve


def test_bracket_geometric_expansion(unit_pair):
    F = identity_operator(unit_pair)
    f = const_vector(2.0, unit_pair)  # phi(a) = 2a / (1 + a)
    lo, hi = _bracket_search(_solver(F, f), 1.0)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.0)


def test_bracket_grows_past_a_equal_one(unit_pair):
    F = identity_operator(unit_pair)
    f = const_vector(2.0, unit_pair)  # phi(1) = 1 < 1.5 <= phi(4) = 1.6
    shifts = []
    lo, hi = _bracket_search(_solver(F, f, shifts=shifts), 1.5)
    assert (lo, hi) == (2.0, 4.0)
    assert shifts == [1.0, 2.0, 4.0]
    phi_lo, _ = phi_psi(F, f, lo)
    phi_hi, _ = phi_psi(F, f, hi)
    assert phi_lo < 1.5 <= phi_hi


def test_bracket_contraction_from_above(unit_pair):
    F = identity_operator(unit_pair)
    f = const_vector(2.0, unit_pair)
    lo, hi = _bracket_search(_solver(F, f), 0.5)
    phi_lo, _ = phi_psi(F, f, lo)
    phi_hi, _ = phi_psi(F, f, hi)
    assert phi_lo < 0.5 <= phi_hi


def test_bracket_on_noisy_benchmark(ham50, ham_data):
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.02, seed=11))
    target = 1.01 * delta**0.9
    lo, hi = _bracket_search(_solver(F, f_delta, 1e-12), target)
    phi_lo, _ = phi_psi(F, f_delta, lo, tol=1e-12)
    phi_hi, _ = phi_psi(F, f_delta, hi, tol=1e-12)
    assert phi_lo < target <= phi_hi


# ----------------------------------------- structural inequalities (sampled)


def test_defect_dominates_both_differences(ham50):
    # for monotone F: max(||F(u)-F(v)||, a ||u-v||) <= ||F(u)-F(v)+a(u-v)||
    prob, F = ham50
    sampler = BallSampler(prob.exact_solution, radius=1.5, seed=21)
    for i, (u, v) in enumerate(sampler.pairs(25)):
        a = 10.0 ** (-3 + (i % 5))
        lhs = max((F(u) - F(v)).norm(), a * (u - v).norm())
        rhs = (F(u) - F(v) + a * (u - v)).norm()
        assert lhs <= rhs * (1.0 + 1e-10)


def test_noise_propagation_and_size_bounds(ham50, ham_data):
    # ||V_{delta,a} - V_{0,a}|| <= delta / a and ||V_{0,a}|| <= ||exact||
    prob, F = ham50
    one = prob.exact_solution
    for a in (1e-2, 1e-1, 1.0):
        clean = solve_regularized(F, ham_data, a, tol=1e-13)
        assert clean.V.norm() <= one.norm() * (1.0 + 1e-6)
        for delta_rel in (0.05, 0.01):
            f_delta, delta = gen_noise(ham_data, NoiseSpec(delta_rel, seed=31))
            noisy = solve_regularized(F, f_delta, a, tol=1e-13)
            gap = (noisy.V - clean.V).norm()
            assert gap <= (delta / a) * (1.0 + 1e-6) + 1e-10
