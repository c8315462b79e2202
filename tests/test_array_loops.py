"""The solver and RK4 loops keep their states as arrays and wrap only the
vectors they hand to callbacks, and the scalar loops of the bound checkers
run on Python floats.  These tests pin that down: the bits equal those of
the same loop written in vector arithmetic (or, for the bound checkers,
with a right-hand-side closure and NumPy indexing), every grid check of
that arithmetic still raises, and evolution_norm_bound calls its forcing
once per time node."""
import math

import numpy as np
import pytest

from monoreg import (
    BoundViolated,
    ContinuousInequality,
    DiscreteInequality,
    FlowConfig,
    GridMismatch,
    HilbertVector,
    HorizonExceeded,
    IterConfig,
    LinearMap,
    NonlinearOperator,
    OperatorBounds,
    bound_continuous,
    bound_discrete,
    evolution_norm_bound,
    flow_gradient,
    flow_newton,
    flow_simple,
    gen_noise,
    iter_gradient,
    iter_newton,
    iter_simple,
    make_continuous,
    make_discrete,
    random_continuous_instance,
    random_discrete_instance,
    solve_regularized,
    solve_shifted,
)
from monoreg.bench import NoiseSpec
from monoreg.flows import DOUBLE_AFTER, RESIDUAL_SLACK
from monoreg.inequalities import N_GROWTH_SAMPLES
from monoreg.reports import EXHAUSTED_HORIZON
from monoreg.schedules import (
    GRADIENT_FLOW,
    GRADIENT_ITER,
    NEWTON_FLOW,
    NEWTON_ITER,
    SIMPLE_FLOW,
    SIMPLE_ITER,
)

# ----------------------------------------------------------------- bits


def reference_flow_simple(F, f_delta, cfg, u0, t_max):
    """The adaptive Euler loop of the flows in vector arithmetic, for a
    run that never reaches its threshold."""
    sched = cfg.schedule
    step_max = min(cfg.step_max, 1.5 / (F.bounds.m1 + float(sched.a(0.0))))
    F_u = F(u0)
    res = (F_u - f_delta).norm()
    history = [(0.0, res)]
    t, u, h, streak = 0.0, u0, min(cfg.step_init, step_max), 0
    while t < t_max:
        d = F_u + sched.a(t) * u - f_delta
        while True:
            h_step = min(h, t_max - t)
            u_try = u - h_step * d
            F_try = F(u_try)
            res_try = (F_try - f_delta).norm()
            if res_try <= res * (1.0 + RESIDUAL_SLACK):
                break
            h, streak = h_step * 0.5, 0
        t, u, F_u, res = t + h_step, u_try, F_try, res_try
        history.append((t, res))
        streak += 1
        if streak >= DOUBLE_AFTER:
            h, streak = min(2.0 * h, step_max), 0
    return history, u


def reference_iter_gradient(F, f_delta, schedule, u0, n_max):
    m1 = F.bounds.m1
    F_u = F(u0)
    history = [(0.0, (F_u - f_delta).norm())]
    u = u0
    for n in range(n_max):
        a = float(schedule.a(n))
        G = F_u + a * u - f_delta
        d = F.deriv(u).adjoint_apply(G) + a * G
        u = u - (2.0 / (a * a + (m1 + a) ** 2)) * d
        F_u = F(u)
        history.append((float(n + 1), (F_u - f_delta).norm()))
    return history, u


def reference_solve_regularized(F, f_delta, a, tol):
    """Damped Newton on F(V) + a V = f_delta in vector arithmetic."""
    V = HilbertVector.zeros(f_delta.weights)
    G = F(V) + a * V - f_delta
    ng = G.norm()
    while ng > tol:
        direction = solve_shifted(F.deriv(V), a, G, tol=1e-10)
        s = 1.0
        while True:
            V_try = V - s * direction
            G_try = F(V_try) + a * V_try - f_delta
            if G_try.norm() < ng:
                V, G, ng = V_try, G_try, G_try.norm()
                break
            s *= 0.5
    return V, ng


@pytest.fixture(scope="module")
def noisy(ham50, ham_data):
    f_delta, _ = gen_noise(ham_data, NoiseSpec(0.01, seed=3))
    return ham50[1], f_delta, HilbertVector.zeros(ham50[0].weights)


def test_flow_simple_has_the_bits_of_vector_arithmetic(noisy):
    F, f_delta, u0 = noisy
    t_max = 12.0
    cfg = FlowConfig(schedule=make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0),
                     step_init=0.1, t_max=t_max)
    with pytest.raises(HorizonExceeded) as info:
        flow_simple(F, f_delta, 1e-12, cfg, u0)
    report = info.value.report
    history, u = reference_flow_simple(F, f_delta, cfg, u0, t_max)
    assert report.status == EXHAUSTED_HORIZON
    assert report.steps_taken >= 24
    assert list(report.residual_history) == history
    assert report.u_final.values.tobytes() == u.values.tobytes()


def test_iter_gradient_has_the_bits_of_vector_arithmetic(noisy):
    F, f_delta, u0 = noisy
    schedule = make_discrete(GRADIENT_ITER, b=0.25, d_or_c=1.0, d0=0.5)
    cfg = IterConfig(schedule=schedule, n_max=30)
    with pytest.raises(HorizonExceeded) as info:
        iter_gradient(F, f_delta, 1e-12, cfg, u0)
    report = info.value.report
    history, u = reference_iter_gradient(F, f_delta, schedule, u0, 30)
    assert list(report.residual_history) == history
    assert report.u_final.values.tobytes() == u.values.tobytes()


def test_solve_regularized_has_the_bits_of_vector_arithmetic(noisy):
    F, f_delta, _ = noisy
    sol = solve_regularized(F, f_delta, 0.01, tol=1e-9)
    V, ng = reference_solve_regularized(F, f_delta, 0.01, 1e-9)
    assert sol.residual == ng
    assert sol.V.values.tobytes() == V.values.tobytes()


def forced_system(weights):
    """The forced dissipative system of the evolution tests, on `weights`."""
    A = LinearMap.from_matrix(np.diag([-1.0, -2.0, -3.0]), weights)
    u0 = HilbertVector(np.array([0.5, 0.2, -0.1]), weights)

    def h_map(t, u):
        return 0.1 * u.norm() * u

    def forcing(t):
        return HilbertVector(np.array([0.05 * np.exp(-t), 0.0, 0.01]), weights)

    inst = ContinuousInequality(
        p=2.0,
        alpha=lambda t: 0.1 * np.ones_like(np.asarray(t, dtype=float)),
        beta=lambda t: 0.08 * np.exp(-np.asarray(t, dtype=float)) + 0.02,
        gamma=lambda t: 0.9 * np.ones_like(np.asarray(t, dtype=float)),
        mu=lambda t: np.exp(np.asarray(t, dtype=float) / 4.0),
        mu_dot=lambda t: 0.25 * np.exp(np.asarray(t, dtype=float) / 4.0),
        g0=0.5,
        horizon=4.0,
    )
    return A, h_map, forcing, u0, inst


W3 = np.array([0.5, 1.0, 2.0])


def test_evolution_norms_have_the_bits_of_vector_arithmetic():
    A, h_map, forcing, u0, inst = forced_system(W3)
    T, n_steps = 4.0, 40
    report = evolution_norm_bound(A, h_map, forcing, u0, inst, T=T,
                                  n_steps=n_steps)
    dt = T / n_steps
    ts = dt * np.arange(n_steps + 1)

    def rhs(t, u):
        return A(u) + h_map(t, u) + forcing(t)

    u = u0
    norms = [u.norm()]
    for k in range(n_steps):
        t = float(ts[k])
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * dt, u + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, u + (0.5 * dt) * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms.append(u.norm())
    assert report.passed
    assert report.norms.tolist() == norms


def test_evolution_calls_forcing_once_per_time_node():
    A, h_map, forcing, u0, inst = forced_system(W3)
    calls = {"h": 0, "f": 0}

    def counted_h(t, u):
        calls["h"] += 1
        return h_map(t, u)

    def counted_f(t):
        calls["f"] += 1
        return forcing(t)

    n_steps = 50
    evolution_norm_bound(A, counted_h, counted_f, u0, inst, T=4.0,
                         n_steps=n_steps)
    # 200 margin samples of the forcing; k2 and k3 share t + dt/2
    assert calls["f"] == 3 * n_steps + 200
    assert calls["h"] == 4 * n_steps + N_GROWTH_SAMPLES


def reference_continuous_trajectory(inst, n_steps):
    """The RK4 loop of bound_continuous with a right-hand-side closure that
    indexes per-node coefficient lists, writing into a NumPy array."""
    dt = (inst.horizon - inst.tau0) / n_steps
    ts = inst.tau0 + dt * np.arange(n_steps + 1)

    def coefficients(t):
        return tuple(
            np.broadcast_to(np.asarray(f(t), dtype=float), t.shape).tolist()
            for f in (inst.gamma, inst.alpha, inst.beta)
        )

    t_left = ts[:-1]
    c_left = coefficients(t_left)
    c_mid = coefficients(t_left + 0.5 * dt)
    c_right = coefficients(t_left + dt)
    p = inst.p

    def rhs(c, k, g):
        g = max(g, 0.0)
        return -c[0][k] * g + c[1][k] * g ** p + c[2][k]

    g = float(inst.g0)
    traj = np.empty(n_steps + 1)
    traj[0] = g
    for k in range(n_steps):
        k1 = rhs(c_left, k, g)
        k2 = rhs(c_mid, k, g + 0.5 * dt * k1)
        k3 = rhs(c_mid, k, g + 0.5 * dt * k2)
        k4 = rhs(c_right, k, g + dt * k3)
        g = max(g + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0, 0.0)
        traj[k + 1] = g
    return ts, traj, 1.0 / np.asarray(inst.mu(ts), dtype=float)


def reference_discrete_trajectory(inst):
    """The recursion of bound_discrete indexing the coefficient arrays."""
    n_last = inst.n_last
    traj = np.empty(n_last + 1)
    traj[0] = inst.g0
    g = float(inst.g0)
    for n in range(n_last):
        g = (
            g * (1.0 - inst.h[n] * inst.gamma[n])
            + inst.alpha[n] * inst.h[n] * max(g, 0.0) ** inst.p
            + inst.h[n] * inst.beta[n]
        )
        traj[n + 1] = g
    return np.arange(n_last + 1), traj, 1.0 / inst.mu


def reference_verdict(grid, traj, bound, strict):
    """(min_margin, margin_at), or the (location, value, bound) of the
    first grid point whose gap is not > 0 (strict) or not >= 0."""
    for x, g, b in zip(grid.tolist(), traj.tolist(), bound.tolist()):
        if not (b - g > 0 if strict else b - g >= 0):
            return ("violated", x, g, b)
    i = int(np.argmin(bound - traj))
    return bound[i] - traj[i], float(grid[i])


def const(value):
    return lambda t: value * np.ones_like(np.asarray(t, dtype=float))


CONTINUOUS_SEEDS = range(24)


def test_bound_continuous_has_the_bits_of_the_indexed_loop():
    seen_p = set()
    for seed in CONTINUOUS_SEEDS:
        inst = random_continuous_instance(seed)
        seen_p.add(inst.p)
        report = bound_continuous(inst, n_steps=2000)
        ts, traj, bound = reference_continuous_trajectory(inst, 2000)
        assert report.trajectory.tobytes() == traj.tobytes()
        assert (report.min_margin, report.margin_at) == reference_verdict(
            ts, traj, bound, strict=True)
    assert seen_p == {1.5, 2.0, 3.0}


@pytest.mark.parametrize(
    "gamma, alpha, beta, g0, dt",
    # at gamma dt >= 2.4 the stage states overshoot below zero: the first
    # instance clamps the last two stages and some steps, the second the
    # first stage, the last stage and some steps; the third starts at -0.0
    [(3.0, 0.0, 0.1, 0.5, 0.8), (5.0, 0.5, 0.0, 2.0, 1.0),
     (3.0, 0.0, 0.1, -0.0, 0.8)],
    ids=["late-stages", "first-stage", "signed-zero"],
)
def test_bound_continuous_clamps_as_max_does(gamma, alpha, beta, g0, dt):
    n_steps = 20
    inst = ContinuousInequality(p=2.0, alpha=const(alpha), beta=const(beta),
                                gamma=const(gamma), mu=const(0.1),
                                mu_dot=const(0.0), g0=g0, horizon=n_steps * dt)
    if g0:
        assert g0 + 0.5 * dt * (-gamma * g0 + alpha * g0 ** 2 + beta) < 0
    report = bound_continuous(inst, n_steps=n_steps)
    ts, traj, bound = reference_continuous_trajectory(inst, n_steps)
    assert report.trajectory.tobytes() == traj.tobytes()
    assert math.copysign(1.0, report.trajectory[0]) == math.copysign(1.0, g0)
    assert (report.min_margin, report.margin_at) == reference_verdict(
        ts, traj, bound, strict=True)


def test_bound_continuous_fails_a_nan_coefficient_at_the_same_point():
    # two condition samples (t = 0 and 10) miss the NaN window, the RK4
    # nodes do not
    beta = lambda t: np.where((t > 2.0) & (t < 3.0), np.nan, 0.1)
    inst = ContinuousInequality(p=2.0, alpha=const(0.1), beta=beta,
                                gamma=const(1.0), mu=const(1.0),
                                mu_dot=const(0.0), g0=0.5, horizon=10.0)
    with pytest.raises(BoundViolated) as info:
        bound_continuous(inst, n_steps=100, n_condition_samples=2)
    expected = reference_verdict(*reference_continuous_trajectory(inst, 100),
                                 strict=True)
    exc = info.value
    assert repr(("violated", exc.location, exc.value, exc.bound)) == repr(expected)
    assert math.isnan(exc.value) and 2.0 < exc.location <= 3.0


def test_bound_discrete_has_the_bits_of_the_indexed_loop():
    seen_p = set()
    for seed in range(120):
        inst = random_discrete_instance(seed)
        seen_p.add(inst.p)
        report = bound_discrete(inst)
        n, traj, bound = reference_discrete_trajectory(inst)
        assert report.trajectory.tobytes() == traj.tobytes()
        assert (report.min_margin, report.margin_at) == reference_verdict(
            n, traj, bound, strict=False)
    assert seen_p == {1.5, 2.0, 3.0}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_bound_discrete_clamps_as_max_does_under_a_negative_beta(p):
    # a negative beta drives g below zero from step 1, where g**p alone
    # would be complex (p = 1.5) or change sign (p = 3)
    ones = np.ones(8)
    inst = DiscreteInequality(p=p, alpha=0.1 * ones, beta=-0.5 * ones,
                              gamma=0.5 * ones, mu=ones, h=ones, g0=0.5)
    report = bound_discrete(inst)
    n, traj, bound = reference_discrete_trajectory(inst)
    assert traj.min() < 0.0
    assert report.trajectory.tobytes() == traj.tobytes()
    assert (report.min_margin, report.margin_at) == reference_verdict(
        n, traj, bound, strict=False)


def test_bound_discrete_fails_an_overflow_at_the_same_index():
    # mu**3 is subnormal, so g**3 leaves the floats at step 1 although the
    # hypotheses hold; NumPy scalars give inf there, and so must the loop
    ones = np.ones(6)
    inst = DiscreteInequality(p=3.0, alpha=1e-212 * ones, beta=1e104 * ones,
                              gamma=0.5 * ones, mu=1e-105 * ones, h=ones,
                              g0=5e102)
    with pytest.raises(BoundViolated) as info:
        bound_discrete(inst)
    with np.errstate(over="ignore"):
        expected = reference_verdict(*reference_discrete_trajectory(inst),
                                     strict=False)
    exc = info.value
    assert (("violated", exc.location, exc.value, exc.bound) == expected
            == ("violated", 2, math.inf, 1.0 / 1e-105))


# ---------------------------------------------------------- grid checks

W = np.array([0.5, 1.0, 1.5, 2.0])
OTHER = np.array([2.0, 1.5, 1.0, 0.5])  # another grid of the same size
D = np.array([1.0, 2.0, 3.0, 4.0])


def diagonal(out=None, adjoint_out=None):
    """F(u) = D u.  Its values, and the adjoint products of its derivative,
    live on the input's grid unless `out` or `adjoint_out` names another."""

    def apply(u):
        return HilbertVector(D * u.values, u.weights if out is None else out)

    def deriv(u):
        return LinearMap(
            lambda v: HilbertVector(D * v.values, v.weights),
            lambda v: HilbertVector(
                D * v.values, v.weights if adjoint_out is None else adjoint_out),
            W, matrix=np.diag(D))

    return NonlinearOperator(apply, deriv, OperatorBounds(m1=4.0))


SOLVERS = {
    "iter_newton": (iter_newton, IterConfig(
        make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=1.0), n_max=3)),
    "iter_gradient": (iter_gradient, IterConfig(
        make_discrete(GRADIENT_ITER, b=0.25, d_or_c=1.0, d0=1.0), n_max=3)),
    "iter_simple": (iter_simple, IterConfig(
        make_discrete(SIMPLE_ITER, b=0.5, d_or_c=1.0, d0=1.0), n_max=3)),
    "flow_newton": (flow_newton, FlowConfig(
        make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=10.0), t_max=0.5)),
    "flow_gradient": (flow_gradient, FlowConfig(
        make_continuous(GRADIENT_FLOW, b=0.25, c=576.0, d=0.25), t_max=0.5)),
    "flow_simple": (flow_simple, FlowConfig(
        make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0), t_max=0.5)),
}


def run(name, F, u0):
    solver, cfg = SOLVERS[name]
    try:
        return solver(F, HilbertVector(np.ones(4), W), 1e-6, cfg, u0)
    except HorizonExceeded as exc:
        return exc.report


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_operator_values_on_another_grid_are_rejected(name):
    assert run(name, diagonal(), HilbertVector.zeros(W)).steps_taken > 0
    with pytest.raises(GridMismatch):
        run(name, diagonal(out=OTHER), HilbertVector.zeros(W))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_start_on_another_grid_is_rejected(name):
    with pytest.raises(GridMismatch):
        run(name, diagonal(), HilbertVector.zeros(OTHER))


@pytest.mark.parametrize("name", ["iter_gradient", "flow_gradient"])
def test_adjoint_products_on_another_grid_are_rejected(name):
    with pytest.raises(GridMismatch):
        run(name, diagonal(adjoint_out=OTHER), HilbertVector.zeros(W))


@pytest.mark.parametrize("with_derivative", [True, False],
                         ids=["newton", "relaxation"])
def test_regularized_solve_checks_its_grids(with_derivative):
    def operator(**grids):
        F = diagonal(**grids)
        return F if with_derivative else NonlinearOperator(F.apply,
                                                           bounds=F.bounds)

    f_delta = HilbertVector(np.ones(4), W)
    assert solve_regularized(operator(), f_delta, 0.5).inner_iterations > 0
    with pytest.raises(GridMismatch):
        solve_regularized(operator(out=OTHER), f_delta, 0.5)
    with pytest.raises(GridMismatch):
        solve_regularized(operator(), f_delta, 0.5,
                          warm_start=HilbertVector.zeros(OTHER))


def test_evolution_checks_every_callback_grid():
    A, h_map, forcing, u0, inst = forced_system(W3)
    other = W3[::-1].copy()
    run_with = lambda A=A, h_map=h_map, forcing=forcing: evolution_norm_bound(
        A, h_map, forcing, u0, inst, T=4.0, n_steps=40)
    assert run_with().passed
    wrong_A = LinearMap(lambda v: HilbertVector(A(v).values, other),
                        A.adjoint_apply, W3, matrix=A.to_dense())
    with pytest.raises(GridMismatch):
        run_with(A=wrong_A)
    # the sampled growth condition pairs h with its input; only the RK4
    # nodes (t = 0 among them) see this h off the grid
    with pytest.raises(GridMismatch):
        run_with(h_map=lambda t, u: HilbertVector(
            h_map(t, u).values, other if t == 0.0 else W3))
    with pytest.raises(GridMismatch):
        run_with(forcing=lambda t: HilbertVector(forcing(t).values, other))
