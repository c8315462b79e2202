import warnings

import numpy as np
import pytest

from monoreg import (
    HilbertVector,
    HorizonExceeded,
    InvalidConfig,
    IterConfig,
    LinearMap,
    NonFinite,
    NonlinearOperator,
    gen_noise,
    hammerstein_operator,
    identity_map,
    iter_gradient,
    iter_newton,
    iter_simple,
    make_discrete,
    make_hammerstein,
    operator_norm_estimate,
    zero_map,
)
from monoreg.bench import TRAPEZOID, NoiseSpec
from monoreg.iterations import DEFAULT_N_MAX
from monoreg.reports import STOPPED_BY_DISCREPANCY
from monoreg.schedules import GRADIENT_ITER, NEWTON_ITER, SIMPLE_ITER

from helpers import identity_operator


def one_dim(value=1.0):
    w = np.ones(1)
    return identity_operator(w), HilbertVector(np.array([value]), w)


def test_newton_scalar_closed_form_stopping():
    # for F(u) = u the update gives u_{n+1} = 1/(1 + a_n), so the residual
    # after step n is a_n/(1+a_n); with a_n = 5/(1+n) and threshold 0.1 the
    # first admissible step index is 44 (a_44 = 1/9, residual exactly 0.1,
    # the boundary tie is accepted; the threshold carries a 1e-12 relative
    # pad to absorb float rounding of the residual evaluation)
    F, f = one_dim(1.0)
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    cfg = IterConfig(
        schedule=schedule,
        C1=2.0 * (1.0 + 1e-12),
        gamma_or_zeta=1.0,
        n_max=200,
    )
    u0 = HilbertVector.zeros(np.ones(1))
    report = iter_newton(F, f, delta=0.05, cfg=cfg, u0=u0)
    assert report.status == STOPPED_BY_DISCREPANCY
    assert report.n_stop == 44
    assert report.steps_taken == 45
    assert report.a_at_stop == pytest.approx(1.0 / 9.0)
    assert report.residual_at_stop == pytest.approx(0.1, rel=1e-12)
    assert report.u_final.values == pytest.approx([0.9], rel=1e-12)
    # strict crossing contract along the recorded history
    history = report.residual_history
    assert all(r > report.threshold for _, r in history[:-1])
    assert history[-1][1] <= report.threshold


def test_compatible_start_stops_at_zero():
    F, f = one_dim(1.0)
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    cfg = IterConfig(schedule=schedule, C1=2.0, gamma_or_zeta=1.0, n_max=10)
    u0 = f.with_values(np.array([0.95]))  # residual 0.05 <= 0.1
    report = iter_newton(F, f, delta=0.05, cfg=cfg, u0=u0)
    assert report.n_stop == 0
    assert report.steps_taken == 0
    assert report.u_final is u0


def test_horizon_exceeded_carries_partial_report():
    F, f = one_dim(1.0)
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    cfg = IterConfig(schedule=schedule, C1=2.0, gamma_or_zeta=1.0, n_max=3)
    u0 = HilbertVector.zeros(np.ones(1))
    with pytest.raises(HorizonExceeded) as info:
        iter_newton(F, f, delta=1e-6, cfg=cfg, u0=u0)
    assert info.value.n_max == 3
    assert info.value.report.steps_taken == 3


def test_gradient_scalar_recurrence_matches_direct_evaluation():
    # scalar model: A_a = 1 + a, step u <- u - alpha (1+a) ((1+a) u - 1)
    F, f = one_dim(1.0)
    m1 = 1.0
    schedule = make_discrete(GRADIENT_ITER, b=0.25, d_or_c=2.0, d0=1.0)
    cfg = IterConfig(
        schedule=schedule, C1=1.5, gamma_or_zeta=0.9, n_max=5000,
        keep_iterates=True,
    )
    delta = 0.2
    report = iter_gradient(F, f, delta, cfg, HilbertVector.zeros(np.ones(1)))
    u = 0.0
    for n in range(report.steps_taken):
        a = float(schedule.a(n))
        alpha = 2.0 / (a * a + (m1 + a) ** 2)
        u = u - alpha * (1.0 + a) * ((1.0 + a) * u - 1.0)
        assert report.iterates[n + 1].values[0] == pytest.approx(u, abs=1e-14)
        # contraction factor of the affine step never exceeds 1 - alpha a^2
        assert abs(1.0 - alpha * (1.0 + a) ** 2) <= 1.0 - alpha * a * a + 1e-12


def test_simple_scalar_recurrence_matches_direct_evaluation():
    F, f = one_dim(1.0)
    m1 = 1.0
    schedule = make_discrete(SIMPLE_ITER, b=0.5, d_or_c=1.0, d0=1.0)
    cfg = IterConfig(
        schedule=schedule, C1=1.5, gamma_or_zeta=0.9, n_max=500,
        keep_iterates=True,
    )
    delta = 0.02
    report = iter_simple(F, f, delta, cfg, HilbertVector.zeros(np.ones(1)))
    u = 0.0
    for n in range(report.steps_taken):
        a = float(schedule.a(n))
        alpha = 2.0 / (a + (m1 + a))
        u = u - alpha * ((1.0 + a) * u - 1.0)
        assert report.iterates[n + 1].values[0] == pytest.approx(u, abs=1e-14)


def test_newton_step_bound_on_benchmark(ham50, ham_data):
    # ||u_{n+1} - u_n|| <= ||G_n|| / a_n from the inverse-shift bound
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=1))
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=0.05)
    cfg = IterConfig(
        schedule=schedule, C1=1.01, gamma_or_zeta=0.99, n_max=500,
        keep_iterates=True,
    )
    u0 = HilbertVector.zeros(prob.weights)
    report = iter_newton(F, f_delta, delta, cfg, u0)
    assert report.status == STOPPED_BY_DISCREPANCY
    for n in range(report.steps_taken):
        a_n = float(schedule.a(n))
        u_n = report.iterates[n]
        step = (report.iterates[n + 1] - u_n).norm()
        defect = (F(u_n) + a_n * u_n - f_delta).norm()
        assert step <= defect / a_n * (1.0 + 1e-8)


def test_gradient_contraction_factor_on_benchmark(ham50, ham_data):
    # power iteration on I - alpha A_a* A_a stays within 1 - alpha a^2
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.05, seed=0))
    m1 = F.bounds.m1
    schedule = make_discrete(GRADIENT_ITER, b=0.25, d_or_c=3000.0, d0=0.9)
    cfg = IterConfig(
        schedule=schedule, C1=1.2, gamma_or_zeta=1.0, n_max=50_000,
        keep_iterates=True,
    )
    u0 = HilbertVector.zeros(prob.weights)
    report = iter_gradient(F, f_delta, delta, cfg, u0)
    assert report.status == STOPPED_BY_DISCREPANCY
    from monoreg.core import LinearMap

    w = prob.weights
    for n in (0, report.steps_taken - 1):
        a = float(schedule.a(n))
        alpha = 2.0 / (a * a + (m1 + a) ** 2)
        shifted = F.deriv(report.iterates[n]).to_dense() + a * np.eye(prob.n_nodes)
        adjoint = (shifted.T * w[None, :]) / w[:, None]
        composed = np.eye(prob.n_nodes) - alpha * (adjoint @ shifted)
        estimate = operator_norm_estimate(
            LinearMap.from_matrix(composed, w), n_iter=80
        )
        assert estimate <= 1.0 - alpha * a * a + 1e-8


def test_trajectory_confinement_on_benchmark(ham50, ham_data):
    # iterates stay in the ball of the a-priori radius computed from run
    # parameters: a0/lam + ||u0|| + ||y|| (2 C) / (C - 1)-type bound
    prob, F = ham50
    one = prob.exact_solution
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=1))
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=0.05)
    C1 = 1.01
    cfg = IterConfig(
        schedule=schedule, C1=C1, gamma_or_zeta=0.99, n_max=500,
        keep_iterates=True,
    )
    u0 = HilbertVector.zeros(prob.weights)
    report = iter_newton(F, f_delta, delta, cfg, u0)
    C = (C1 + 1.0) / 2.0
    y_norm = one.norm()
    lam = F.bounds.m1 / y_norm
    radius = (
        float(schedule.a(0)) / lam
        + u0.norm()
        + y_norm
        + y_norm * (C + 1.0) / (C - 1.0)
    )
    for u in report.iterates:
        assert (u - u0).norm() < radius


def test_gradient_and_simple_reach_benchmark_accuracy(ham50, ham_data):
    prob, F = ham50
    one = prob.exact_solution
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.05, seed=0))
    u0 = HilbertVector.zeros(prob.weights)

    grad_sched = make_discrete(GRADIENT_ITER, b=0.25, d_or_c=3000.0, d0=0.9)
    grad_cfg = IterConfig(
        schedule=grad_sched, C1=1.2, gamma_or_zeta=1.0, n_max=50_000
    )
    grad = iter_gradient(F, f_delta, delta, grad_cfg, u0)
    assert grad.status == STOPPED_BY_DISCREPANCY
    assert (grad.u_final - one).norm() / one.norm() <= 0.1

    simple_sched = make_discrete(SIMPLE_ITER, b=0.5, d_or_c=400.0, d0=1.0)
    simple_cfg = IterConfig(
        schedule=simple_sched, C1=1.2, gamma_or_zeta=1.0, n_max=50_000
    )
    simple = iter_simple(F, f_delta, delta, simple_cfg, u0)
    assert simple.status == STOPPED_BY_DISCREPANCY
    assert (simple.u_final - one).norm() / one.norm() <= 0.15



def test_delta_sweep_error_decreases(ham50_euclidean):
    # run in the euclidean norm mode, where the benchmark schedule scale
    # C0 = 4 terminates within a few dozen steps at every noise level
    prob, F = ham50_euclidean
    one = prob.exact_solution
    data = F(one)
    errors = []
    for delta_rel in (3e-2, 1e-2, 3e-3, 1e-3):
        f_delta, delta = gen_noise(data, NoiseSpec(delta_rel, seed=2))
        schedule = make_discrete(
            NEWTON_ITER, b=1.0, d_or_c=1.0, d0=4.0 * delta**0.99
        )
        cfg = IterConfig(
            schedule=schedule, C1=1.01, gamma_or_zeta=0.99, n_max=500
        )
        report = iter_newton(F, f_delta, delta, cfg, HilbertVector.zeros(prob.weights))
        errors.append((report.u_final - one).norm() / one.norm())
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))


def test_mismatched_schedule_kind_rejected():
    F, f = one_dim()
    schedule = make_discrete(SIMPLE_ITER, b=0.5, d_or_c=1.0, d0=1.0)
    cfg = IterConfig(schedule=schedule, C1=1.5, gamma_or_zeta=0.9)
    with pytest.raises(InvalidConfig):
        iter_newton(F, f, 0.01, cfg, HilbertVector.zeros(np.ones(1)))


@pytest.mark.parametrize("n_max", [0, -1])
def test_empty_budget_rejected(n_max):
    # n_max = 0 used to evaluate a(-1) and report no crossing in 0 steps
    schedule = make_discrete(SIMPLE_ITER, b=0.5, d_or_c=1.0, d0=1.0)
    with pytest.raises(InvalidConfig, match="n_max must be positive"):
        IterConfig(schedule=schedule, n_max=n_max)


@pytest.mark.parametrize("field, value, message", [
    ("y_norm", 0.0, "y_norm must be positive"),
    ("y_norm", -1.0, "y_norm must be positive"),
    ("inner_tol", 0.0, "inner_tol must be positive"),
    ("inner_tol", np.nan, "inner_tol must be positive"),
])
def test_out_of_range_setting_rejected(field, value, message):
    # y_norm 0 divided by zero in a_end and -1 resolved n_max to 1000010;
    # inner_tol 0 made every newton step fail its shifted solve
    schedule = make_discrete(SIMPLE_ITER, b=0.5, d_or_c=1.0, d0=1.0)
    with pytest.raises(InvalidConfig, match=message):
        IterConfig(schedule=schedule, **{field: value})


def test_m1_estimation_is_flagged():
    w = np.ones(2)
    from monoreg.core import LinearMap, NonlinearOperator

    A = LinearMap.from_matrix(np.diag([1.0, 2.0]), w)
    F = NonlinearOperator(A, lambda u: A)  # no declared bounds
    f = HilbertVector(np.array([1.0, 1.0]), w)
    schedule = make_discrete(SIMPLE_ITER, b=0.5, d_or_c=1.0, d0=1.0)
    cfg = IterConfig(schedule=schedule, C1=1.5, gamma_or_zeta=0.9, n_max=2000)
    report = iter_simple(F, f, 0.05, cfg, HilbertVector.zeros(w))
    assert any(note.startswith("m1_estimated") for note in report.notes)


def test_norm_estimate_of_the_zero_map_is_zero():
    # the first product is zero: the estimate stops there, dividing by nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operator_norm_estimate(zero_map(np.array([0.5, 1.0, 2.0]))) == 0.0


# ------------------------------------------------------- non-finite values


def _validated_constructions(monkeypatch):
    validated = []
    post_init = HilbertVector.__post_init__
    monkeypatch.setattr(HilbertVector, "__post_init__",
                        lambda self: validated.append(1) or post_init(self))
    return validated


def _table1_newton(F, prob, f_delta, delta):
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=4.0 * delta**0.99)
    cfg = IterConfig(schedule=schedule, C1=1.01, gamma_or_zeta=0.99, n_max=500)
    return iter_newton(F, f_delta, delta, cfg, HilbertVector.zeros(prob.weights))


def test_arithmetic_stays_on_the_trusted_path(ham50_euclidean, monkeypatch):
    # vector arithmetic inside a run builds its results without the public
    # constructor's validation; only operator outputs (with_values) and
    # the start are validated
    prob, F = ham50_euclidean
    f_delta, delta = gen_noise(F(prob.exact_solution), NoiseSpec(0.01, seed=0))
    validated = _validated_constructions(monkeypatch)
    report = _table1_newton(F, prob, f_delta, delta)
    assert len(validated) <= 4 * len(report.residual_history)


def _counted_derivative(F, products, keep_solver):
    # F with a count of the products of its derivatives; the derivatives
    # keep their shifted solver only if keep_solver is set
    def derivative(u):
        A = F.deriv(u)
        return LinearMap(lambda v: products.append(1) or A(v),
                         A.adjoint_apply, A.weights,
                         shifted_solver=A.shifted_solver if keep_solver else None)

    return NonlinearOperator(F.apply, derivative, F.bounds)


def test_matrix_free_products_stay_on_the_trusted_path(monkeypatch):
    # this pins the generic GMRES path of a user map without a shifted
    # solver: the wrapper drops the solver of the matrix-free derivative, so
    # every Newton step solves by GMRES, one product per Arnoldi step; those
    # products are not validated, so the validated constructions per
    # recorded state do not grow with the product count
    prob = make_hammerstein(300, TRAPEZOID)
    F = hammerstein_operator(prob)
    f_delta, delta = gen_noise(F(prob.exact_solution), NoiseSpec(0.05, seed=0))
    products = []
    counted = _counted_derivative(F, products, keep_solver=False)
    validated = _validated_constructions(monkeypatch)
    report = _table1_newton(counted, prob, f_delta, delta)
    states = len(report.residual_history)
    assert len(products) > 4 * states
    assert len(validated) <= 4 * states


def test_structured_newton_steps_take_at_most_two_products(monkeypatch):
    # with the solver kept, as the library runs it, a Newton step takes the
    # product of the residual check and at most one more after a refinement
    prob = make_hammerstein(300, TRAPEZOID)
    F = hammerstein_operator(prob)
    f_delta, delta = gen_noise(F(prob.exact_solution), NoiseSpec(0.05, seed=0))
    products = []
    counted = _counted_derivative(F, products, keep_solver=True)
    validated = _validated_constructions(monkeypatch)
    report = _table1_newton(counted, prob, f_delta, delta)
    states = len(report.residual_history)
    assert report.steps_taken > 0
    assert report.steps_taken <= len(products) <= 2 * report.steps_taken
    assert len(validated) <= 4 * states


def test_newton_steps_validate_at_most_once_each(ham50_euclidean, monkeypatch):
    # operator outputs and products are trusted; a dense shifted solve's
    # result is the one validated construction a step may make
    prob, F = ham50_euclidean
    f_delta, delta = gen_noise(F(prob.exact_solution), NoiseSpec(0.01, seed=0))
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=4.0 * delta**0.99)
    cfg = IterConfig(schedule=schedule, C1=1.01, gamma_or_zeta=0.99, n_max=500)
    u0 = HilbertVector.zeros(prob.weights)
    validated = _validated_constructions(monkeypatch)
    report = iter_newton(F, f_delta, delta, cfg, u0)
    assert report.steps_taken > 0
    assert len(validated) <= report.steps_taken


def test_nan_in_data_fails_before_any_step(ham50, ham_data):
    # one NaN in f_delta used to run all n_max steps, a shifted solve each,
    # and then raise HorizonExceeded
    prob, F = ham50
    f_delta, delta = gen_noise(ham_data, NoiseSpec(0.01, seed=0))
    values = f_delta.values.copy()
    values[7] = np.nan
    derivatives = []
    counted = NonlinearOperator(
        F.apply, lambda u: derivatives.append(u) or F.deriv(u), F.bounds
    )
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=0.5)
    cfg = IterConfig(schedule=schedule, n_max=300)
    with pytest.raises(NonFinite):
        iter_newton(counted, f_delta.with_values(values), delta, cfg,
                    HilbertVector.zeros(prob.weights))
    assert derivatives == []


def test_non_finite_iterate_fails_at_once():
    # F(u) = u turns NaN above 0.5; the newton iterates 1 / (1 + a_n) with
    # a_n = 5 / (1 + n) pass 0.5 at step 6, far above the threshold 0.1
    w = np.ones(1)
    eye = identity_map(w)
    F = NonlinearOperator(
        lambda u: u.with_values(np.where(u.values > 0.5, np.nan, u.values)),
        lambda u: eye,
    )
    f = HilbertVector(np.array([1.0]), w)
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    cfg = IterConfig(schedule=schedule, C1=2.0, gamma_or_zeta=1.0, n_max=200)
    with pytest.raises(NonFinite, match="at 6;"):
        iter_newton(F, f, 0.05, cfg, HilbertVector.zeros(w))


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_non_finite_delta_rejected(delta):
    F, f = one_dim(1.0)
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    cfg = IterConfig(schedule=schedule, n_max=300)
    with pytest.raises(InvalidConfig, match="finite"):
        iter_newton(F, f, delta, cfg, HilbertVector.zeros(np.ones(1)))


def test_stop_level_below_the_noise_rejected():
    # the Table-1 stop 1.01 * delta**0.99 is 3.98 at delta = 4
    F, f = one_dim(9.0)
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    cfg = IterConfig(schedule=schedule, C1=1.01, gamma_or_zeta=0.99, n_max=300)
    with pytest.raises(InvalidConfig,
                       match=r"stop level C \* delta\*\*e = 3.98.* must exceed delta = 4"):
        iter_newton(F, f, 4.0, cfg, HilbertVector.zeros(np.ones(1)))


# ------------------------------------------------------------ step budget


def n_max_by_search(cfg, delta):
    """The budget as resolve_n_max computed it before the closed form: a
    linear search for the first index at or below a_end."""
    C = (cfg.C1 + 1.0) / 2.0
    a_end = delta * (C - 1.0) / cfg.y_norm
    n = 0
    while cfg.schedule.a(n) > a_end and n < DEFAULT_N_MAX:
        n += 1
    return max(10 * (n + 1), 10)


@pytest.mark.parametrize(
    "kind, b, d_or_c, d0, y_norm, delta",
    [
        (NEWTON_ITER, 1.0, 1.0, 1.0, 1.0, 1e-3),
        (NEWTON_ITER, 0.7, 3.0, 0.35, 7.0, 0.05),
        (GRADIENT_ITER, 0.25, 1.0, 1.0, 0.5, 0.3),
        (GRADIENT_ITER, 0.2, 2.5, 0.1, 1.0, 0.05),
        (SIMPLE_ITER, 0.5, 1.0, 1.0, 1.0, 0.02),
        (SIMPLE_ITER, 0.5, 4.0, 3.0, 2.0, 0.1),
        # capped: the search stops at DEFAULT_N_MAX, giving 1000010
        (SIMPLE_ITER, 0.5, 1.0, 1.0, 1.0, 1e-3),
        # a_end = 0.5 * 0.25 / 0.125 = 1 = a_1 = 2 / (1 + 1) exactly
        (NEWTON_ITER, 1.0, 1.0, 2.0, 0.125, 0.5),
    ],
)
def test_resolve_n_max_matches_linear_search(kind, b, d_or_c, d0, y_norm,
                                             delta):
    schedule = make_discrete(kind, b=b, d_or_c=d_or_c, d0=d0)
    cfg = IterConfig(schedule=schedule, y_norm=y_norm)
    assert cfg.resolve_n_max(delta) == n_max_by_search(cfg, delta)


def test_index_for_level_at_exact_schedule_values():
    # a_3 = 1/4 for a_n = 1/(1+n) and a_3 = 1/2 for a_n = 1/sqrt(1+n); the
    # first index at or below a level equal to a_3 is 3
    for b, level in ((1.0, 0.25), (0.5, 0.5)):
        schedule = make_discrete(NEWTON_ITER, b=b, d_or_c=1.0, d0=1.0)
        assert schedule.a(3) == level
        assert schedule.index_for_level(level) == 3
        assert schedule.index_for_level(level * (1 + 1e-12)) == 3
        assert schedule.index_for_level(level * (1 - 1e-12)) == 4
        assert schedule.index_for_level(2.0) == 0
    # at a level equal to a_n, or one ulp below it, the rounded closed form
    # alone lands one index too high, or too low, on hundreds of n here
    for kind, b, d_or_c, d0 in ((NEWTON_ITER, 0.3, 1.0, 1.0),
                                (GRADIENT_ITER, 0.25, 1.0, 1.0),
                                (NEWTON_ITER, 0.7, 3.0, 0.35)):
        schedule = make_discrete(kind, b=b, d_or_c=d_or_c, d0=d0)
        for n in range(3000):
            a_n = float(schedule.a(n))
            assert schedule.index_for_level(a_n) == n
            assert schedule.index_for_level(np.nextafter(a_n, 0.0)) == n + 1
