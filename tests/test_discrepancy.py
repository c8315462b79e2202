import json
import math
from pathlib import Path

import numpy as np
import pytest

import monoreg.discrepancy
from monoreg import (
    ALREADY_COMPATIBLE,
    BudgetExceeded,
    CONVERGED,
    DPConfig,
    HilbertVector,
    InvalidConfig,
    NonConvergence,
    NonFinite,
    NonlinearOperator,
    accept_candidate,
    diagonal_problem,
    gen_noise,
    identity_map,
    rank_one_problem,
    solve_dp,
    solve_regularized,
    zero_map,
)
from monoreg.bench import NoiseSpec
from monoreg.discrepancy import INNER_TOL_FLOOR, MAX_DOUBLINGS
from monoreg.cli import build_problem

from helpers import const_vector, identity_operator


def test_one_dimensional_closed_form():
    # phi(a) = a/(1+a) = 0.1 has the root a = 1/9 and V = 0.9
    w = np.ones(1)
    F = identity_operator(w)
    f = HilbertVector(np.array([1.0]), w)
    cfg = DPConfig(C=2.0, gamma=1.0)  # target = 2 * 0.05 = 0.1
    result = solve_dp(F, f, delta=0.05, cfg=cfg)
    assert result.status == CONVERGED
    assert result.a_delta == pytest.approx(1.0 / 9.0, rel=1e-9)
    assert result.V.values == pytest.approx([0.9], rel=1e-9)
    assert abs(result.achieved_residual - 0.1) <= cfg.dp_tol * 0.1


def test_rank_one_matched_shift_analytic():
    prob = rank_one_problem()
    cfg = DPConfig(C=math.sqrt(2.0), gamma=1.0)
    for delta in (0.1, 0.01):
        f_delta, d = prob.noisy_data(delta)
        result = solve_dp(prob.F, f_delta, d, cfg)
        expected = prob.matched_shift(delta, cfg.C)
        assert abs(result.a_delta - expected) <= 1e-10 * expected
    # at delta = 0.1 the matched solution is 0.9 (p + q)
    f_delta, d = prob.noisy_data(0.1)
    result = solve_dp(prob.F, f_delta, d, cfg)
    expected_v = 0.9 * (prob.p + prob.q)
    assert (result.V - expected_v).norm() <= 1e-9


def test_already_compatible_zero_vector(unit_pair):
    F = identity_operator(unit_pair)
    f = const_vector(0.05, unit_pair)
    cfg = DPConfig(C=1.5, gamma=0.5)
    # target = 1.5 * sqrt(0.1) ~ 0.474 > ||F(0) - f|| = 0.05
    result = solve_dp(F, f, delta=0.1, cfg=cfg)
    assert result.status == ALREADY_COMPATIBLE
    assert result.V.norm() == 0.0
    assert result.a_delta == math.inf


def test_invalid_when_target_below_delta(unit_pair):
    F = identity_operator(unit_pair)
    f = const_vector(9.0, unit_pair)
    cfg = DPConfig(C=1.5, gamma=0.5)
    # delta = 4: C * delta**gamma = 3 <= 4
    with pytest.raises(InvalidConfig,
                       match=r"stop level C \* delta\*\*e = 3 must exceed delta = 4"):
        solve_dp(F, f, delta=4.0, cfg=cfg)


def test_dp_residual_always_matches_target(ham50, ham_data):
    prob, F = ham50
    cfg = DPConfig(C=1.01, gamma=0.9)
    for delta_rel, seed in ((0.05, 0), (0.01, 3), (0.002, 9)):
        f_delta, delta = gen_noise(ham_data, NoiseSpec(delta_rel, seed))
        result = solve_dp(F, f_delta, delta, cfg)
        target = cfg.target(delta)
        assert abs(result.achieved_residual - target) <= cfg.dp_tol * target
        assert result.bracket_evals < 400


def test_dp_error_decreases_with_noise(ham50, ham_data):
    prob, F = ham50
    one = prob.exact_solution
    cfg = DPConfig(C=1.01, gamma=0.9)
    errors = []
    for delta_rel in (1e-1, 1e-2, 1e-3):
        f_delta, delta = gen_noise(ham_data, NoiseSpec(delta_rel, seed=0))
        result = solve_dp(F, f_delta, delta, cfg)
        errors.append((result.V - one).norm() / one.norm())
    assert errors[0] > errors[1] > errors[2]


# --------------------------------------------------------------- acceptance


def test_accept_exact_regularized_solution(ham50, ham_data):
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=6))
    cfg = DPConfig(C=1.01, gamma=0.9)
    dp = solve_dp(F, f_delta, delta, cfg)
    report = accept_candidate(F, f_delta, delta, dp.V, dp.a_delta, cfg)
    assert report.accepted
    assert report.defect_ok and report.residual_ok


def test_reject_perturbed_candidate(ham50, ham_data):
    # a perturbation of size 10 theta delta / alpha pushes the shifted
    # defect above theta delta because the defect dominates alpha ||v - V||
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=6))
    cfg, theta = DPConfig(C=1.01, gamma=0.9), 1.0
    dp = solve_dp(F, f_delta, delta, cfg)
    rng = np.random.Generator(np.random.PCG64(13))
    bump = dp.V.with_values(rng.standard_normal(dp.V.size))
    bump = bump * (10.0 * theta * delta / dp.a_delta / bump.norm())
    report = accept_candidate(F, f_delta, delta, dp.V + bump, dp.a_delta, cfg)
    assert not report.defect_ok
    assert report.defect_norm >= 10.0 * theta * delta * (1 - 1e-9)


def test_reject_zero_candidate_with_large_residual(ham50, ham_data):
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=6))
    cfg = DPConfig(C=1.01, gamma=0.9)
    zero = HilbertVector.zeros(prob.weights)
    report = accept_candidate(F, f_delta, delta, zero, 0.5, cfg)
    assert not report.residual_ok
    assert report.residual > report.residual_hi


def test_accept_candidate_consistency_with_inner_solver(ham50, ham_data):
    # anything the regularized solver produces at the matched shift with
    # tolerance theta * delta must be accepted
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.02, seed=8))
    cfg, theta = DPConfig(C=1.01, gamma=0.9), 1.0
    dp = solve_dp(F, f_delta, delta, cfg)
    sol = solve_regularized(F, f_delta, dp.a_delta, tol=theta * delta)
    report = accept_candidate(F, f_delta, delta, sol.V, dp.a_delta, cfg)
    assert report.accepted


def test_accept_candidate_evaluates_F_once():
    # the defect and the residual are built from one F(v)
    w = np.ones(2)
    calls = []
    F = NonlinearOperator(lambda u: calls.append(u) or u, lambda u: identity_map(w))
    v, f = const_vector(0.5, w), const_vector(0.6, w)
    report = accept_candidate(F, f, 0.2, v, 0.1, DPConfig(C=1.5, gamma=0.5))
    assert len(calls) == 1
    # F(v) + 0.1 v - f is -0.05 and F(v) - f is -0.1 at both nodes
    assert report.defect_norm == pytest.approx(0.05 * math.sqrt(2), rel=1e-12)
    assert report.residual == pytest.approx(0.1 * math.sqrt(2), rel=1e-12)
    assert report.defect_ok and not report.residual_ok


def test_nan_data_raises_non_finite(ham50, ham_data):
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=0))
    values = f_delta.values.copy()
    values[7] = np.nan
    with pytest.raises(NonFinite, match="ceiling of phi"):
        solve_dp(F, f_delta.with_values(values), delta, DPConfig())


# ------------------------------------------- operators that break the contract
# with a zero derivative, the damped Newton solve of F(V) + a V = f_delta is
# the fixed-point step V <- (f_delta - F(V)) / a


def test_a_constant_operator_has_no_lower_bracket_endpoint():
    # F(u) = c: V_a = (f - c) / a, so phi(a) = ||c - f|| for every a
    w = np.ones(1)
    c = HilbertVector(np.array([3.0]), w)
    F = NonlinearOperator(lambda u: c, lambda u: zero_map(w))
    with pytest.raises(BudgetExceeded,
                       match=f"no lower bracket endpoint after {MAX_DOUBLINGS} halvings"):
        solve_dp(F, const_vector(1.0, w), 0.01, DPConfig(C=1.5, gamma=0.9))


def test_an_operator_that_drops_off_zero_has_no_upper_bracket_endpoint():
    # F(0) = f - 2e and F(u) = f - 0.5e elsewhere: the ceiling of phi is 2,
    # but phi(a) = a ||V_a|| = 0.5 for every a, below the target 0.8
    w = np.ones(1)
    f = const_vector(1.0, w)
    F = NonlinearOperator(lambda u: f - (0.5 if u.values.any() else 2.0) * f,
                          lambda u: zero_map(w))
    cfg = DPConfig(C=1.6, gamma=1.0)
    assert cfg.target(0.5) == pytest.approx(0.8)
    with pytest.raises(BudgetExceeded,
                       match=f"no upper bracket endpoint after {MAX_DOUBLINGS} doublings"):
        solve_dp(F, f, 0.5, cfg)


def test_an_operator_that_moves_after_the_bisection_fails_the_match():
    # the match is checked on its own evaluation of F, the solve's last:
    # F(u) = u converges, then the same solve with F(u) = 2u on that last
    # call raises
    w = np.ones(1)
    f = const_vector(1.0, w)
    calls = []

    def solve(moved_call=None):
        calls.clear()

        def apply(u):
            calls.append(u)
            return 2.0 * u if len(calls) == moved_call else u

        F = NonlinearOperator(apply, lambda u: identity_map(w))
        return solve_dp(F, f, 0.01, DPConfig(C=1.5, gamma=0.9))

    assert solve().status == CONVERGED
    with pytest.raises(NonConvergence, match="residual match failed"):
        solve(moved_call=len(calls))


def test_config_validation():
    with pytest.raises(InvalidConfig):
        DPConfig(C=0.5)
    with pytest.raises(InvalidConfig):
        DPConfig(gamma=0.0)
    one = HilbertVector(np.ones(1), np.ones(1))
    F = identity_operator(np.ones(1))
    with pytest.raises(InvalidConfig):
        accept_candidate(F, one, 0.1, one, 1.0, DPConfig(C=1.5, gamma=1.0))


# ------------------------------------------------------ precision floor


def _diagonal_dp_case(delta_rel):
    """diagonal_problem(8) with noise along the normalized all-ones vector,
    at delta = delta_rel ||f||."""
    F, u = diagonal_problem(8)
    f = F(u)
    delta = delta_rel * f.norm()
    return F, f + (delta / u.norm()) * u, delta


def _counted_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return solve_regularized(*args, **kwargs)

    monkeypatch.setattr(monoreg.discrepancy, "solve_regularized", counted)
    return calls


def test_a_match_below_the_inner_tolerance_floor_fails_before_any_solve(
        monkeypatch):
    # dp_tol * target = 2.41e-15 lies below the floor
    # 5e-15 max(||f_delta||, 1) = 8.45e-15; the whole search used to run and
    # then blame a discontinuous phi
    F, f_delta, delta = _diagonal_dp_case(1e-10)
    calls = _counted_solves(monkeypatch)
    with pytest.raises(InvalidConfig, match=r"dp_tol \* target = 2.4\d*e-15 .*"
                       r"floor .* = 8.4\d*e-15"):
        solve_dp(F, f_delta, delta, DPConfig(C=1.5, gamma=0.9))
    assert calls == []


def test_a_match_above_the_inner_tolerance_floor_converges(monkeypatch):
    # dp_tol * target = 1.91e-14 clears the floor 8.45e-15
    F, f_delta, delta = _diagonal_dp_case(1e-9)
    calls = _counted_solves(monkeypatch)
    cfg = DPConfig(C=1.5, gamma=0.9)
    result = solve_dp(F, f_delta, delta, cfg)
    assert result.status == CONVERGED
    assert abs(result.achieved_residual - result.target) <= cfg.dp_tol * result.target
    assert result.bracket_evals == len(calls)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["dp_hammerstein.json", "dp_rank_one.json"])
def test_every_shipped_dp_row_is_far_above_the_floor(name):
    cfg = json.loads((CONFIGS / name).read_text())
    problem, dp = build_problem(cfg["problem"]), DPConfig(**cfg["dp"])
    for delta_rel in cfg["noise"]["delta_rel"]:
        for seed in cfg["noise"]["seeds"]:
            f_delta, delta = problem.make_noise(delta_rel, seed)
            floor = INNER_TOL_FLOOR * max(f_delta.norm(), 1.0)
            assert dp.dp_tol * dp.target(delta) > 1e4 * floor
