import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from monoreg import inequalities
from monoreg import (
    BoundViolated,
    BudgetExceeded,
    ContinuousInequality,
    DiscreteInequality,
    HilbertVector,
    InvalidConfig,
    LinearMap,
    PreconditionFailed,
    bound_continuous,
    bound_discrete,
    evolution_norm_bound,
    precondition_margins,
    quadratic_case_margins,
    random_continuous_instance,
    random_discrete_instance,
)


def const(value):
    return lambda t: value * np.ones_like(np.asarray(t, dtype=float))


def test_linear_decay_instance():
    # alpha = beta = 0, gamma = 1, mu = 1: g(t) = g0 e^{-t} < 1
    inst = ContinuousInequality(
        p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=0.5, horizon=10.0,
    )
    report = bound_continuous(inst, n_steps=2000)
    assert report.passed
    # trajectory matches the closed form
    assert report.trajectory[-1] == pytest.approx(0.5 * np.exp(-10.0), rel=1e-8)
    assert report.min_margin > 0


def test_quadratic_exponential_instance_with_equality_conditions():
    # feasibility holds with exactly zero margin, the bound is e^{-t/2}
    inst = ContinuousInequality(
        p=2.0,
        alpha=lambda t: np.exp(np.asarray(t) / 2.0) / 4.0,
        beta=lambda t: np.exp(-np.asarray(t) / 2.0) / 4.0,
        gamma=const(1.0),
        mu=lambda t: np.exp(np.asarray(t) / 2.0),
        mu_dot=lambda t: np.exp(np.asarray(t) / 2.0) / 2.0,
        g0=0.5,
        horizon=10.0,
    )
    margins = precondition_margins(inst)
    assert margins["feasibility"] == pytest.approx(0.0, abs=1e-12)
    report = bound_continuous(inst, n_steps=20_000)
    assert report.passed

    # independent high-order integration of the extremal trajectory
    ref = scipy.integrate.solve_ivp(
        lambda t, g: [-g[0] + np.exp(t / 2.0) * g[0] ** 2 / 4.0
                      + np.exp(-t / 2.0) / 4.0],
        (0.0, 10.0), [0.5], rtol=1e-11, atol=1e-13, dense_output=True,
    )
    ts = np.linspace(0.0, 10.0, 50)
    mine = np.interp(ts, report.grid, report.trajectory)
    assert np.allclose(mine, ref.sol(ts)[0], atol=1e-7)
    assert np.all(ref.sol(ts)[0] < np.exp(-ts / 2.0))


def test_infeasible_instance_is_reported():
    inst = ContinuousInequality(
        p=2.0, alpha=const(10.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=0.5, horizon=5.0,
    )
    with pytest.raises(PreconditionFailed) as info:
        bound_continuous(inst, n_steps=100)
    assert info.value.condition == "feasibility"


def _underflowing_instance():
    # mu**3 = 1e-330 underflows to 0, so alpha / mu**p is inf on every
    # sample: feasibility -inf with scale inf, which a -inf floor would pass
    return ContinuousInequality(
        p=3.0, alpha=const(1e-221), beta=const(0.0), gamma=const(1.0),
        mu=const(1e-110), mu_dot=const(0.0), g0=5e109, horizon=1.0,
    )


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_non_finite_feasibility_fails_its_hypothesis():
    with pytest.raises(PreconditionFailed) as info:
        bound_continuous(_underflowing_instance(), n_steps=10)
    assert info.value.condition == "feasibility"
    assert info.value.margin == -np.inf


def test_initial_gap_must_be_strict():
    inst = ContinuousInequality(
        p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=1.0, horizon=5.0,
    )
    with pytest.raises(PreconditionFailed) as info:
        bound_continuous(inst, n_steps=100)
    assert info.value.condition == "initial_gap"


def test_continuous_sweep_zero_violations():
    for seed in range(50):
        inst = random_continuous_instance(seed)
        report = bound_continuous(inst, n_steps=2000)
        assert report.passed


def _per_step_rk4(inst, n_steps):
    # the extremal trajectory with the coefficients evaluated in every RK4
    # stage, as a per-step oracle for the hoisted evaluation
    dt = (inst.horizon - inst.tau0) / n_steps
    ts = inst.tau0 + dt * np.arange(n_steps + 1)

    def rhs(t, g):
        g = max(g, 0.0)
        return -inst.gamma(t) * g + inst.alpha(t) * g ** inst.p + inst.beta(t)

    g = float(inst.g0)
    traj = np.empty(n_steps + 1)
    traj[0] = g
    for k in range(n_steps):
        t = ts[k]
        k1 = rhs(t, g)
        k2 = rhs(t + 0.5 * dt, g + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, g + 0.5 * dt * k2)
        k4 = rhs(t + dt, g + dt * k3)
        g = max(g + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0, 0.0)
        traj[k + 1] = g
    return traj


def test_hoisted_coefficients_match_per_step_oracle():
    for seed in range(20):
        inst = random_continuous_instance(seed)
        report = bound_continuous(inst, n_steps=2000)
        assert np.array_equal(report.trajectory, _per_step_rk4(inst, 2000))


def test_scalar_coefficient_is_broadcast():
    inst = ContinuousInequality(
        p=2.0,
        alpha=lambda t: np.exp(np.asarray(t) / 2.0) / 4.0,
        beta=lambda t: np.exp(-np.asarray(t) / 2.0) / 4.0,
        gamma=lambda t: 1.0,
        mu=lambda t: np.exp(np.asarray(t) / 2.0),
        mu_dot=lambda t: np.exp(np.asarray(t) / 2.0) / 2.0,
        g0=0.5,
        horizon=7.3,
    )
    report = bound_continuous(inst, n_steps=1500)
    assert np.array_equal(report.trajectory, _per_step_rk4(inst, 1500))


# ---------------------------------------------------------------- discrete


def test_geometric_decay_discrete():
    n = 51
    ones = np.ones(n)
    inst = DiscreteInequality(
        p=2.0, alpha=0.0 * ones, beta=0.0 * ones, gamma=0.5 * ones,
        mu=2.0 * ones, h=ones, g0=0.5,
    )
    report = bound_discrete(inst)
    assert report.passed
    assert report.trajectory[-1] == pytest.approx(0.5 * 0.5**50)
    assert np.all(report.trajectory <= 0.5 + 1e-15)


def test_discrete_boundary_initial_value():
    # g0 = 1/mu_0 exactly is admissible; strict feasibility then keeps all
    # later iterates strictly below the bound
    n = 40
    ones = np.ones(n)
    mu = 1.5 * 1.02 ** np.arange(n)
    inst = DiscreteInequality(
        p=2.0, alpha=0.01 * ones, beta=0.001 / mu, gamma=0.8 * ones,
        mu=mu, h=0.5 * ones, g0=1.0 / 1.5,
    )
    report = bound_discrete(inst)
    assert report.passed
    assert np.all(report.trajectory[1:] < (1.0 / mu)[1:])


def test_discrete_step_product_validation():
    n = 10
    ones = np.ones(n)
    inst = DiscreteInequality(
        p=2.0, alpha=0.0 * ones, beta=0.0 * ones, gamma=2.0 * ones,
        mu=ones, h=ones, g0=0.1,
    )
    with pytest.raises(PreconditionFailed):
        bound_discrete(inst)  # h * gamma = 2 outside (0, 1)


def test_discrete_coefficients_must_share_a_length():
    ones = np.ones(4)
    with pytest.raises(InvalidConfig, match="share a length >= 2"):
        DiscreteInequality(p=2.0, alpha=0.0 * ones, beta=0.0 * ones,
                           gamma=ones, mu=ones, h=0.5 * np.ones(5), g0=0.5)


def test_discrete_sweep_zero_violations():
    for seed in range(50):
        inst = random_discrete_instance(seed)
        report = bound_discrete(inst)
        assert report.passed


@pytest.mark.parametrize("sample", [random_continuous_instance,
                                    random_discrete_instance])
def test_a_sampler_out_of_draws_exceeds_its_budget(monkeypatch, sample):
    # no seed is a bad argument: running out of draws is a spent budget, not
    # InvalidConfig (no seed tried needs more than a dozen of the 500)
    monkeypatch.setattr(inequalities, "MAX_DRAWS", 0)
    with pytest.raises(BudgetExceeded, match="no feasible instance within 0 draws"):
        sample(7)


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
@settings(max_examples=60, deadline=None)
def test_discrete_scaling_invariance(seed, s):
    # scaling (alpha, beta, gamma) by s and h by 1/s leaves the recursion
    # bitwise unchanged when s is a power of two
    inst = random_discrete_instance(seed)
    scaled = DiscreteInequality(
        p=inst.p,
        alpha=inst.alpha * s,
        beta=inst.beta * s,
        gamma=inst.gamma * s,
        mu=inst.mu,
        h=inst.h / s,
        g0=inst.g0,
    )
    a = bound_discrete(inst)
    b = bound_discrete(scaled)
    assert np.array_equal(a.trajectory, b.trajectory)


# ------------------------------------------- split conditions imply general


def test_split_conditions_imply_feasibility():
    checked = 0
    for seed in range(200):
        inst = random_continuous_instance(seed)
        if inst.p != 2.0:
            continue
        q = quadratic_case_margins(inst, n_samples=2000)
        if min(q["alpha_condition"], q["beta_condition"]) < 0 or (
            q["initial_gap"] <= 0
        ):
            continue
        m = precondition_margins(inst, n_samples=2000)
        assert m["feasibility"] >= -1e-12
        assert m["initial_gap"] > 0
        checked += 1
    assert checked >= 10


def test_split_conditions_need_p_equal_two():
    inst = ContinuousInequality(p=3.0, alpha=const(0.0), beta=const(0.0),
                                gamma=const(1.0), mu=const(1.0),
                                mu_dot=const(0.0), g0=0.5, horizon=1.0)
    with pytest.raises(InvalidConfig, match="specific to p = 2"):
        quadratic_case_margins(inst)


# ----------------------------------------------------- evolution equations


def test_evolution_linear_semigroup_decay():
    w = np.ones(3)
    A = LinearMap.from_matrix(-np.eye(3), w)
    u0 = HilbertVector(np.array([0.3, 0.3, 0.2]), w)
    inst = ContinuousInequality(
        p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=u0.norm(), horizon=10.0,
    )
    report = evolution_norm_bound(
        A,
        lambda t, u: u.with_values(np.zeros(3)),
        lambda t: HilbertVector(np.zeros(3), w),
        u0,
        inst,
        T=10.0,
        n_steps=2000,
    )
    assert report.passed
    assert report.norms[-1] == pytest.approx(u0.norm() * np.exp(-10.0), rel=1e-6)


@pytest.mark.parametrize("n_steps", [0, -5])
def test_a_run_without_a_step_is_rejected(n_steps):
    # 0 divided by zero and -5 failed on a negative array size
    w = np.ones(2)
    inst = ContinuousInequality(
        p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=0.5, horizon=5.0,
    )
    with pytest.raises(InvalidConfig, match=f"n_steps must be >= 1, got {n_steps}"):
        bound_continuous(inst, n_steps=n_steps)
    with pytest.raises(InvalidConfig, match=f"n_steps must be >= 1, got {n_steps}"):
        evolution_norm_bound(
            LinearMap.from_matrix(-np.eye(2), w),
            lambda t, u: u.with_values(np.zeros(2)),
            lambda t: HilbertVector(np.zeros(2), w),
            HilbertVector(np.array([0.3, 0.2]), w), inst, T=5.0, n_steps=n_steps,
        )


def test_evolution_zero_start_is_vacuous():
    w = np.ones(2)
    A = LinearMap.from_matrix(-np.eye(2), w)
    u0 = HilbertVector.zeros(w)
    inst = ContinuousInequality(
        p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=0.0, horizon=5.0,
    )
    report = evolution_norm_bound(
        A,
        lambda t, u: u.with_values(np.zeros(2)),
        lambda t: HilbertVector(np.zeros(2), w),
        u0,
        inst,
        T=5.0,
        n_steps=500,
    )
    assert report.passed
    assert report.max_norm == 0.0
    assert report.min_margin == pytest.approx(1.0)


def test_evolution_forced_nonlinear_system():
    # 3-dim dissipative system with quadratic-growth nonlinearity and
    # decaying forcing; the majorant follows the split-condition recipe
    w = np.ones(3)
    A = LinearMap.from_matrix(np.diag([-1.0, -2.0, -3.0]), w)
    u0 = HilbertVector(np.array([0.5, 0.0, 0.0]), w)

    def h_map(t, u):
        return 0.1 * u.norm() * u

    def forcing(t):
        return HilbertVector(np.array([0.05 * np.exp(-t), 0.0, 0.0]), w)

    inst = ContinuousInequality(
        p=2.0,
        alpha=const(0.1),
        beta=lambda t: 0.05 * np.exp(-np.asarray(t, dtype=float)),
        gamma=const(1.0),
        mu=lambda t: np.exp(np.asarray(t, dtype=float) / 2.0),
        mu_dot=lambda t: 0.5 * np.exp(np.asarray(t, dtype=float) / 2.0),
        g0=0.5,
        horizon=20.0,
    )
    q = quadratic_case_margins(inst)
    assert min(q["alpha_condition"], q["beta_condition"]) >= 0
    report = evolution_norm_bound(A, h_map, forcing, u0, inst, T=20.0,
                                  n_steps=20_000)
    assert report.passed

    # independent fine integration of the full system confirms the norms
    def rhs(t, x):
        u = HilbertVector(x, w)
        return (A(u) + h_map(t, u) + forcing(t)).values

    ref = scipy.integrate.solve_ivp(
        rhs, (0.0, 20.0), u0.values, rtol=1e-11, atol=1e-13,
        dense_output=True,
    )
    ts = np.linspace(0.0, 20.0, 40)
    ref_norms = np.linalg.norm(ref.sol(ts), axis=0)
    mine = np.interp(ts, report.grid, report.norms)
    assert np.allclose(mine, ref_norms, atol=1e-7)
    assert np.all(ref_norms < np.exp(-ts / 2.0))


def test_evolution_rejects_insufficient_dissipation():
    w = np.ones(2)
    A = LinearMap.from_matrix(-0.1 * np.eye(2), w)
    u0 = HilbertVector(np.array([0.5, 0.0]), w)
    inst = ContinuousInequality(
        p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
        mu=const(1.0), mu_dot=const(0.0), g0=0.5, horizon=5.0,
    )
    with pytest.raises(PreconditionFailed) as info:
        evolution_norm_bound(
            A,
            lambda t, u: u.with_values(np.zeros(2)),
            lambda t: HilbertVector(np.zeros(2), w),
            u0,
            inst,
            T=5.0,
            n_steps=500,
        )
    assert info.value.condition == "dissipativity"


# NaN fails every hypothesis and every bound comparison, so no check
# returns passed=True with a NaN margin


def nan_at(value, t_nan):
    """A constant coefficient that is NaN at the one time t_nan."""
    return lambda t: np.where(np.asarray(t, dtype=float) == t_nan, np.nan, value)


def _continuous(**coefficients):
    base = dict(p=2.0, alpha=const(0.0), beta=const(0.0), gamma=const(1.0),
                mu=const(1.0), mu_dot=const(0.0), g0=0.5, horizon=10.0)
    return ContinuousInequality(**{**base, **coefficients})


def _decaying_system(h_map=None):
    """(A, h_map, forcing, u0) of a dissipative 2-dim system."""
    w = np.ones(2)
    return (
        LinearMap.from_matrix(-np.eye(2), w),
        h_map or (lambda t, u: u.with_values(np.zeros(2))),
        lambda t: HilbertVector(np.zeros(2), w),
        HilbertVector(np.array([0.3, 0.2]), w),
    )


def test_a_nan_g0_is_rejected_by_both_inequalities():
    with pytest.raises(InvalidConfig, match="g0 must be nonnegative"):
        _continuous(g0=np.nan)
    ones = np.ones(4)
    with pytest.raises(InvalidConfig, match="g0 must be nonnegative"):
        DiscreteInequality(p=2.0, alpha=0 * ones, beta=0 * ones, gamma=ones,
                           mu=ones, h=0.5 * ones, g0=np.nan)


@pytest.mark.parametrize("checker", ["bound_continuous", "evolution_norm_bound"])
@pytest.mark.parametrize(
    "coefficient, value, condition",
    [("alpha", 0.0, "alpha_nonneg"), ("beta", 0.0, "beta_nonneg"),
     ("gamma", 1.0, "feasibility"), ("mu", 1.0, "mu_positive")],
)
def test_a_nan_coefficient_sample_fails_its_hypothesis(checker, coefficient,
                                                       value, condition):
    # the horizon is a condition sample of every sampling grid
    inst = _continuous(**{coefficient: nan_at(value, 10.0)})
    with pytest.raises(PreconditionFailed) as info:
        if checker == "bound_continuous":
            bound_continuous(inst, n_steps=100)
        else:
            evolution_norm_bound(*_decaying_system(), inst, T=10.0, n_steps=100)
    assert info.value.condition == condition


@pytest.mark.parametrize(
    "coefficient, condition",
    [("alpha", "feasibility"), ("beta", "feasibility"),
     ("gamma", "step_product_in_(0,1)"), ("mu", "mu_positive"),
     ("h", "h_positive")],
)
def test_a_nan_discrete_coefficient_fails_its_hypothesis(coefficient, condition):
    ones = np.ones(6)
    arrays = dict(alpha=0 * ones, beta=0 * ones, gamma=ones, mu=ones, h=0.5 * ones)
    arrays[coefficient] = arrays[coefficient].copy()
    arrays[coefficient][3] = np.nan
    with pytest.raises(PreconditionFailed) as info:
        bound_discrete(DiscreteInequality(p=2.0, g0=0.5, **arrays))
    assert info.value.condition == condition


def test_a_nan_step_product_high_alone_fails(monkeypatch):
    # min(low, nan) is low, so each side of the band is gated on its own
    inst = random_discrete_instance(0)
    margins = inequalities.discrete_precondition_margins
    monkeypatch.setattr(
        inequalities, "discrete_precondition_margins",
        lambda inst: {**margins(inst), "step_product_high": np.nan},
    )
    with pytest.raises(PreconditionFailed) as info:
        bound_discrete(inst)
    assert info.value.condition == "step_product_in_(0,1)"


def test_a_nan_trajectory_violates_the_continuous_bound():
    # every condition sample is an integer time, every RK4 midpoint NaN
    alpha = lambda t: np.where(np.asarray(t) % 1.0 == 0.0, 0.0, np.nan)
    with pytest.raises(BoundViolated) as info:
        bound_continuous(_continuous(alpha=alpha), n_steps=10,
                         n_condition_samples=11)
    assert info.value.location == 1.0


@pytest.mark.parametrize("strict", [True, False])
def test_a_nan_gap_fails_the_verdict(strict):
    grid = np.arange(4.0)
    with pytest.raises(BoundViolated) as info:
        inequalities._verdict(grid, np.array([0.1, 0.2, np.nan, 0.1]),
                              np.ones(4), strict)
    assert info.value.location == 2.0


_T_NAN = np.linspace(0.0, 10.0, 200)[1]  # a sample of these checks only


@pytest.mark.parametrize(
    "condition, inst, h_map",
    [
        ("dissipativity", _continuous(gamma=nan_at(1.0, _T_NAN)), None),
        ("forcing", _continuous(beta=nan_at(0.0, _T_NAN)), None),
        # NaN away from the trajectory, which stays in the ball of 0.4
        ("growth", _continuous(),
         lambda t, u: u.with_values(np.zeros(2) if u.norm() < 0.4
                                    else np.full(2, np.nan))),
    ],
    ids=["dissipativity", "forcing", "growth"],
)
def test_a_nan_evolution_sample_fails_its_hypothesis(condition, inst, h_map):
    with pytest.raises(PreconditionFailed) as info:
        evolution_norm_bound(*_decaying_system(h_map), inst, T=10.0, n_steps=100)
    assert info.value.condition == condition
