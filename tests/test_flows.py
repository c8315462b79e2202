import numpy as np
import pytest
import scipy.integrate

from monoreg import (
    BallSampler,
    FlowConfig,
    HilbertVector,
    HorizonExceeded,
    InvalidConfig,
    IterConfig,
    LinearMap,
    NonFinite,
    NonlinearOperator,
    PreconditionFailed,
    StepFloor,
    ValidationParams,
    find_continuous,
    flow_gradient,
    flow_newton,
    flow_simple,
    gen_noise,
    identity_map,
    init_u0,
    iter_gradient,
    iter_newton,
    iter_simple,
    make_continuous,
    make_discrete,
    solve_regularized,
    solve_shifted,
)
from monoreg.bench import NoiseSpec
from monoreg.reports import (
    DIRECTIONS,
    EXHAUSTED_HORIZON,
    STEP_FLOOR,
    STOPPED_BY_DISCREPANCY,
)
from monoreg.schedules import (
    GRADIENT_FLOW,
    GRADIENT_ITER,
    NEWTON_FLOW,
    NEWTON_ITER,
    SIMPLE_FLOW,
    SIMPLE_ITER,
)

from helpers import identity_operator


def scalar_problem():
    w = np.ones(1)
    return identity_operator(w), HilbertVector(np.array([1.0]), w)


# ----------------------------------------------------- 1-dim reference runs


def scalar_newton_reference(delta, C1, zeta, schedule):
    """High-accuracy reference for the scalar derivative-inverting flow,
    integrated by an adaptive high-order method with event detection."""
    thresh = C1 * delta**zeta

    def rhs(t, u):
        a = schedule.a(t)
        return [-((1.0 + a) * u[0] - 1.0) / (1.0 + a)]

    def crossing(t, u):
        return abs(u[0] - 1.0) - thresh

    crossing.terminal = True
    crossing.direction = -1
    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, 1e6), [0.0], rtol=1e-12, atol=1e-14, events=crossing,
        max_step=10.0,
    )
    return float(sol.t_events[0][0]), float(sol.y_events[0][0][0])


def test_scalar_newton_flow_matches_reference():
    F, f = scalar_problem()
    schedule = make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=10.0)
    delta, C1, zeta = 0.01, 1.5, 0.9
    t_ref, u_ref = scalar_newton_reference(delta, C1, zeta, schedule)
    cfg = FlowConfig(schedule=schedule, C1=C1, zeta=zeta, step_init=0.1,
                     t_max=1e6)
    report = flow_newton(F, f, delta, cfg, HilbertVector.zeros(np.ones(1)))
    assert report.status == STOPPED_BY_DISCREPANCY
    assert report.residual_at_stop <= C1 * delta**zeta
    # the stop threshold value itself: 1.5 * 0.01**0.9 ~ 0.023774
    assert report.threshold == pytest.approx(0.0237735, abs=1e-6)
    assert abs(report.t_stop - t_ref) <= 3e-3 * t_ref
    assert abs(report.u_final.values[0] - u_ref) <= 1e-4


def test_scalar_gradient_flow_matches_reference():
    # A_a* = (1 + a) in one dimension, so the flow is
    # du/dt = -(1 + a)((1 + a) u - 1)
    F, f = scalar_problem()
    schedule = make_continuous(GRADIENT_FLOW, b=0.25, c=1.0, d=1.3)
    delta, C1, zeta = 0.05, 1.5, 0.9
    thresh = C1 * delta**zeta

    def rhs(t, u):
        a = schedule.a(t)
        return [-(1.0 + a) * ((1.0 + a) * u[0] - 1.0)]

    def crossing(t, u):
        return abs(u[0] - 1.0) - thresh

    crossing.terminal = True
    crossing.direction = -1
    ref = scipy.integrate.solve_ivp(
        rhs, (0.0, 1e7), [0.0], rtol=1e-12, atol=1e-14, events=crossing,
        max_step=100.0,
    )
    t_ref = float(ref.t_events[0][0])
    cfg = FlowConfig(schedule=schedule, C1=C1, zeta=zeta, step_init=0.1,
                     t_max=1e7)
    report = flow_gradient(F, f, delta, cfg, HilbertVector.zeros(np.ones(1)))
    assert report.status == STOPPED_BY_DISCREPANCY
    assert abs(report.t_stop - t_ref) <= 5e-3 * t_ref
    assert abs(report.u_final.values[0] - ref.y_events[0][0][0]) <= 1e-4


def test_scalar_simple_flow_against_integrating_factor_oracle():
    # closed-form linear ODE solution via the integrating factor
    # exp(t + 2 sqrt(9+t) - 6), with the forcing integral evaluated by
    # adaptive quadrature; a fine fixed-step run matches to 1e-6
    F, f = scalar_problem()
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    T = 0.05
    h = 5e-7

    P = lambda t: t + 2.0 * (np.sqrt(9.0 + t) - 3.0)
    integral, err = scipy.integrate.quad(lambda s: np.exp(P(s)), 0.0, T,
                                         epsabs=1e-13, epsrel=1e-13)
    u_exact = np.exp(-P(T)) * integral
    assert err < 1e-12

    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, step_init=h,
                     step_min=h, step_max=h, t_max=T)
    with pytest.raises(HorizonExceeded, match="by the time horizon t_max = 0.05") as info:
        flow_simple(F, f, delta=1e-6, cfg=cfg, u0=HilbertVector.zeros(np.ones(1)))
    report = info.value.report
    assert report.status == EXHAUSTED_HORIZON
    assert report.t_stop == pytest.approx(T, rel=1e-12)
    assert abs(report.u_final.values[0] - u_exact) <= 1e-6


def test_simple_flow_first_order_convergence():
    F, f = scalar_problem()
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    T = 0.5
    P = lambda t: t + 2.0 * (np.sqrt(9.0 + t) - 3.0)
    integral, _ = scipy.integrate.quad(lambda s: np.exp(P(s)), 0.0, T,
                                       epsabs=1e-13, epsrel=1e-13)
    u_exact = np.exp(-P(T)) * integral
    errors = []
    for h in (1e-3, 5e-4):
        cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, step_init=h,
                         step_min=h, step_max=h, t_max=T)
        with pytest.raises(HorizonExceeded) as info:
            flow_simple(F, f, delta=1e-6, cfg=cfg, u0=HilbertVector.zeros(np.ones(1)))
        errors.append(abs(info.value.report.u_final.values[0] - u_exact))
    assert 1.6 <= errors[0] / errors[1] <= 2.4


# -------------------------------------------------------- trivial returns


def test_compatible_start_returns_immediately():
    F, f = scalar_problem()
    u0 = f.with_values(np.array([0.999]))
    for kind, runner in (
        (NEWTON_FLOW, flow_newton),
        (GRADIENT_FLOW, flow_gradient),
        (SIMPLE_FLOW, flow_simple),
    ):
        b = {NEWTON_FLOW: 1.0, GRADIENT_FLOW: 0.25, SIMPLE_FLOW: 0.5}[kind]
        c = {NEWTON_FLOW: 7.0, GRADIENT_FLOW: 1.0, SIMPLE_FLOW: 9.0}[kind]
        d = {NEWTON_FLOW: 10.0, GRADIENT_FLOW: 1.3, SIMPLE_FLOW: 1.0}[kind]
        schedule = make_continuous(kind, b=b, c=c, d=d)
        cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9)
        report = runner(F, f, delta=0.05, cfg=cfg, u0=u0)
        assert report.status == STOPPED_BY_DISCREPANCY
        assert report.t_stop == 0.0
        assert report.u_final is u0


def test_step_floor_when_residual_cannot_decrease():
    # a start strictly ahead of the path: the flow pulls back toward it,
    # which raises the data residual, so every step is rejected
    F, f = scalar_problem()
    schedule = make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=7.0)
    a0 = 1.0
    V0 = 0.5  # = 1 / (1 + a0)
    u0 = f.with_values(np.array([V0 + 0.3]))  # residual 0.2, path level 0.5
    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, t_max=100.0)
    with pytest.raises(StepFloor, match="step_min = 1e-08 .* at t = 0") as info:
        flow_newton(F, f, delta=0.01, cfg=cfg, u0=u0)
    report = info.value.report
    assert report.status == STEP_FLOOR
    assert report.t_stop == 0.0


def test_mismatched_schedule_kind_rejected():
    F, f = scalar_problem()
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    cfg = FlowConfig(schedule=schedule)
    with pytest.raises(InvalidConfig):
        flow_newton(F, f, 0.01, cfg, HilbertVector.zeros(np.ones(1)))


@pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan])
def test_empty_horizon_rejected(t_max):
    # t_max = -1 used to report exhausted_horizon after 0 steps
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    with pytest.raises(InvalidConfig, match="t_max must be positive"):
        FlowConfig(schedule=schedule, t_max=t_max)


@pytest.mark.parametrize("field, value", [
    ("y_norm", 0.0), ("y_norm", -1.0), ("y_norm", np.nan),
    ("inner_tol", 0.0), ("inner_tol", -1e-10), ("inner_tol", np.nan),
])
def test_out_of_range_setting_rejected(field, value):
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    with pytest.raises(InvalidConfig, match=f"{field} must be positive"):
        FlowConfig(schedule=schedule, **{field: value})


def test_nan_in_data_fails_in_init_u0(ham50, ham_data):
    # the start point's regularized solve names the cause too
    prob, F = ham50
    values = ham_data.values.copy()
    values[7] = np.nan
    with pytest.raises(NonFinite, match="defect at a = 1 is nan"):
        init_u0(F, ham_data.with_values(values), a0=1.0)


def test_nan_in_data_fails_at_the_start():
    # used to report step_floor after 0 steps
    F, f = scalar_problem()
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    cfg = FlowConfig(schedule=schedule, t_max=100.0)
    with pytest.raises(NonFinite):
        flow_simple(F, f.with_values(np.array([np.nan])), 0.01, cfg,
                    HilbertVector.zeros(np.ones(1)))


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_non_finite_delta_rejected(delta):
    F, f = scalar_problem()
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    cfg = FlowConfig(schedule=schedule, t_max=100.0)
    with pytest.raises(InvalidConfig, match="finite"):
        flow_simple(F, f, delta, cfg, HilbertVector.zeros(np.ones(1)))


def test_stop_level_below_the_noise_rejected():
    # 1.5 * 4**0.5 = 3 does not exceed delta = 4
    F, f = scalar_problem()
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.5, t_max=100.0)
    with pytest.raises(InvalidConfig,
                       match=r"stop level C \* delta\*\*e = 3 must exceed delta = 4"):
        flow_simple(F, f, 4.0, cfg, HilbertVector.zeros(np.ones(1)))


def test_non_finite_trial_step_is_halved():
    # F(u) = u turns NaN above 1.5: the first trial step h = 2 lands at
    # u = 2 and is rejected like any residual increase; h = 1 then crosses
    w = np.ones(1)
    eye = identity_map(w)
    F = NonlinearOperator(
        lambda u: u.with_values(np.where(u.values > 1.5, np.nan, u.values)),
        lambda u: eye,
    )
    f = HilbertVector(np.array([1.0]), w)
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    cfg = FlowConfig(schedule=schedule, step_init=2.0, step_max=2.0,
                     t_max=100.0)
    report = flow_simple(F, f, 0.05, cfg, HilbertVector.zeros(w))
    assert report.status == STOPPED_BY_DISCREPANCY
    assert 0.0 < report.t_stop <= 1.0


# ------------------------------------------------------------ start points


def test_init_u0_satisfies_quarter_level(ham50, ham_data):
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=0))
    a0 = 0.05
    u0 = init_u0(F, f_delta, a0)
    V0 = solve_regularized(F, f_delta, a0, tol=1e-12).V
    defect = (F(u0) + a0 * u0 - f_delta).norm()
    assert defect <= 0.25 * a0 * V0.norm()
    assert defect > 0.0


def test_init_u0_zero_start_certified(unit_pair):
    # for F = identity with data 2 at a0 = 1: ||V(0)|| = 1 and the zero
    # start bound ||F(0) - f|| / a0 = 2 holds with room
    from helpers import const_vector

    F = identity_operator(unit_pair)
    f = const_vector(2.0, unit_pair)
    u0 = init_u0(F, f, a0=1.0, zero=True)
    assert u0.norm() == 0.0
    V0 = solve_regularized(F, f, 1.0, tol=1e-12).V
    assert V0.norm() == pytest.approx(1.0, abs=1e-10)
    assert V0.norm() <= (F(u0) - f).norm() / 1.0


def test_init_u0_zero_start_fails_without_monotonicity(unit_pair):
    # F = -u/2 is not monotone: V(0) = 2 f at a0 = 1 lies beyond the zero
    # start bound ||F(0) - f|| / a0 = ||f||
    from helpers import const_vector

    minus_half = LinearMap.from_matrix(-0.5 * np.eye(2), unit_pair)
    F = NonlinearOperator(minus_half, lambda u: minus_half)
    with pytest.raises(PreconditionFailed, match="zero_start_bound"):
        init_u0(F, const_vector(1.0, unit_pair), a0=1.0, zero=True)


def test_init_u0_on_data_f_of_zero_returns_zero(unit_pair):
    # V(0) = 0 solves F(V) + a0 V = F(0): no defect to place
    from helpers import const_vector

    F = NonlinearOperator(lambda u: u + const_vector(1.0, unit_pair),
                          lambda u: identity_map(unit_pair))
    zero = HilbertVector.zeros(unit_pair)
    u0 = init_u0(F, F(zero), a0=1.0)
    assert u0.values.tolist() == [0.0, 0.0]


# ----------------------------------------------- flow/iteration consistency


@pytest.mark.parametrize(
    "method, kind, b, runner",
    [
        ("newton", NEWTON_ITER, 1.0, iter_newton),
        ("gradient", GRADIENT_ITER, 0.25, iter_gradient),
        ("simple", SIMPLE_ITER, 0.5, iter_simple),
    ],
    ids=["newton", "gradient", "simple"],
)
def test_unit_euler_step_equals_newton_iteration(
    ham50, ham_data, method, kind, b, runner
):
    # the first iterate is the flow's Euler step u0 - alpha_0 d at the same
    # state and shift: alpha_0 = 1 for newton, the band top (the default
    # step) for the damped schemes
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=7))
    sampler = BallSampler(prob.exact_solution, radius=0.5, seed=17)
    m1 = F.bounds.m1
    alpha = {
        "newton": lambda a: 1.0,
        "gradient": lambda a: 2.0 / (a * a + (m1 + a) ** 2),
        "simple": lambda a: 2.0 / (m1 + 2.0 * a),
    }[method]
    paper_direction = {
        "newton": lambda u, a, G: solve_shifted(F.deriv(u), a, G, tol=1e-12),
        "gradient": lambda u, a, G: F.deriv(u).adjoint_apply(G) + a * G,
        "simple": lambda u, a, G: G,
    }[method]
    for k, u0 in enumerate(sampler.points(20)):
        a0 = 0.05 + 0.1 * k
        G = F(u0) + a0 * u0 - f_delta
        d = DIRECTIONS[method](F, u0, a0, G, 1e-12)
        assert (d - paper_direction(u0, a0, G)).norm() <= 1e-12 * d.norm()
        euler = u0 - alpha(a0) * d
        schedule = make_discrete(kind, b=b, d_or_c=1.0, d0=a0)
        cfg = IterConfig(schedule=schedule, C1=1.5, gamma_or_zeta=0.9,
                         n_max=1, inner_tol=1e-12)
        with pytest.raises(HorizonExceeded) as info:
            runner(F, f_delta, 1e-9, cfg, u0)
        iterate = info.value.report.u_final
        assert (euler - iterate).norm() <= 1e-12


def test_flow_run_with_unit_step_reproduces_iteration(ham50, ham_data):
    # end to end: one accepted unit Euler step of the flow equals the first
    # iterate of the discrete scheme on the same shift value
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=7))
    u0 = HilbertVector.zeros(prob.weights)
    schedule = make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=7.0 * 0.1)
    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, step_init=1.0,
                     step_min=1.0, step_max=1.0, t_max=1.0)
    with pytest.raises(HorizonExceeded) as info:
        flow_newton(F, f_delta, delta, cfg, u0)
    report = info.value.report
    assert report.status == EXHAUSTED_HORIZON
    assert report.steps_taken == 1

    iter_sched = make_discrete(NEWTON_ITER, b=1.0, d_or_c=7.0, d0=0.7)
    iter_cfg = IterConfig(schedule=iter_sched, C1=1.5, gamma_or_zeta=0.9,
                          n_max=1)
    with pytest.raises(HorizonExceeded) as info:
        iter_newton(F, f_delta, 1e-9, iter_cfg, u0)
    assert (report.u_final - info.value.report.u_final).norm() <= 1e-12


# ------------------------------------------------------- benchmark behavior


@pytest.fixture(scope="module")
def newton_flow_setup(ham50):
    prob, F = ham50
    one = prob.exact_solution
    f = F(one)
    params = ValidationParams(
        m1=F.bounds.m1,
        c0=F.bounds.m2 / 2.0,
        c1=5.0,
        y_norm=one.norm(),
        residual0=f.norm(),
        horizon=1e5,
    )
    search = find_continuous(NEWTON_FLOW, b=1.0, c=7.0, params=params)
    return prob, F, one, f, search


def test_newton_flow_tracks_regularized_path(ham50, newton_flow_setup):
    prob, F, one, f, search = newton_flow_setup
    f_delta, delta = gen_noise(f, NoiseSpec(0.01, seed=0))
    cfg = FlowConfig(schedule=search.schedule, C1=1.5, zeta=0.9,
                     step_init=0.25, y_norm=one.norm())
    u0 = init_u0(F, f_delta, float(search.schedule.a(0.0)))
    report = flow_newton(F, f_delta, delta, cfg, u0)
    assert report.status == STOPPED_BY_DISCREPANCY
    # stopping contract: every earlier recorded residual is above threshold
    assert all(r > report.threshold for _, r in report.residual_history[:-1])
    assert report.residual_at_stop <= report.threshold
    # residual history decreases monotonically up to integrator slack
    residuals = np.array([r for _, r in report.residual_history])
    assert np.all(np.diff(residuals) <= residuals[:-1] * 1e-12)
    # tracking bound against the independently solved path point
    V_stop = solve_regularized(F, f_delta, report.a_at_stop, tol=1e-12).V
    assert (report.u_final - V_stop).norm() <= (
        report.a_at_stop / search.lam * 1.5
    )


def test_newton_flow_error_decreases_with_noise(ham50, newton_flow_setup):
    prob, F, one, f, search = newton_flow_setup
    errors = []
    for delta_rel in (3e-2, 1e-2, 3e-3, 1e-3):
        f_delta, delta = gen_noise(f, NoiseSpec(delta_rel, seed=3))
        cfg = FlowConfig(schedule=search.schedule, C1=1.5, zeta=0.9,
                         step_init=0.25, y_norm=one.norm())
        u0 = init_u0(F, f_delta, float(search.schedule.a(0.0)))
        report = flow_newton(F, f_delta, delta, cfg, u0)
        assert report.status == STOPPED_BY_DISCREPANCY
        errors.append((report.u_final - one).norm() / one.norm())
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))


def test_gradient_flow_reaches_benchmark_accuracy(ham50):
    prob, F = ham50
    one = prob.exact_solution
    f_delta, delta = gen_noise(F(one), NoiseSpec(0.01, seed=0))
    # boundary-admissible schedule with slow decay pushed far out so the
    # stop is reachable: d**2 c**(1/2) = 1.5 exactly
    schedule = make_continuous(GRADIENT_FLOW, b=0.25, c=576.0, d=0.25)
    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, step_init=0.1,
                     t_max=1e6)
    u0 = init_u0(F, f_delta, float(schedule.a(0.0)))
    report = flow_gradient(F, f_delta, delta, cfg, u0)
    assert report.status == STOPPED_BY_DISCREPANCY
    assert report.residual_at_stop <= report.threshold
    assert (report.u_final - one).norm() / one.norm() <= 0.1


def test_simple_flow_reaches_benchmark_accuracy(ham50):
    prob, F = ham50
    one = prob.exact_solution
    f_delta, delta = gen_noise(F(one), NoiseSpec(0.01, seed=0))
    schedule = make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)
    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, step_init=0.1,
                     t_max=1e6)
    u0 = init_u0(F, f_delta, float(schedule.a(0.0)))
    report = flow_simple(F, f_delta, delta, cfg, u0)
    assert report.status == STOPPED_BY_DISCREPANCY
    assert (report.u_final - one).norm() / one.norm() <= 0.1


@pytest.mark.parametrize("flow, schedule", [
    (flow_gradient, make_continuous(GRADIENT_FLOW, b=0.25, c=576.0, d=0.25)),
    (flow_simple, make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)),
], ids=["gradient", "simple"])
def test_flow_validates_at_most_twice_whatever_the_step_count(
    ham50, ham_data, flow, schedule, monkeypatch
):
    # vectors are validated where they enter the library; operator outputs,
    # adjoint products and arithmetic inside the run are trusted
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=0))
    cfg = FlowConfig(schedule=schedule, C1=1.5, zeta=0.9, step_init=0.1,
                     t_max=1e6)
    u0 = init_u0(F, f_delta, float(schedule.a(0.0)))
    validated = []
    post_init = HilbertVector.__post_init__
    monkeypatch.setattr(HilbertVector, "__post_init__",
                        lambda self: validated.append(1) or post_init(self))
    report = flow(F, f_delta, delta, cfg, u0)
    assert report.steps_taken > 1000
    assert len(validated) <= 2
