import math

import numpy as np
import pytest

from monoreg import (
    GridMismatch,
    HilbertVector,
    InvalidConfig,
    IterConfig,
    LinearMap,
    NoiseSpec,
    NonFinite,
    Table1Config,
    fd_derivative_check,
    gen_noise,
    hammerstein_apply,
    hammerstein_derivative,
    hammerstein_operator,
    iter_newton,
    make_discrete,
    make_hammerstein,
    run_table1,
    solve_shifted,
    trapezoid_weights,
)
from monoreg.bench import (
    DENSE_KERNEL_LIMIT,
    EUCLIDEAN,
    TRAPEZOID,
    nonlinearity_slope,
    schedule_scale,
    sweep,
)
from monoreg.schedules import NEWTON_ITER

from helpers import const_vector


def test_zero_input_maps_to_zero(ham50):
    prob, F = ham50
    out = hammerstein_apply(prob, HilbertVector.zeros(prob.weights))
    assert np.all(out.values == 0.0)


def test_value_at_left_endpoint_for_constant_one(ham50):
    # closed form: int_0^1 exp(-|x-y|) dy = 2 - e^{-x} - e^{-(1-x)}, so at
    # x = 0 the value is (1 - e^{-1}) + (pi/4)^3, up to O(N^{-2}) quadrature
    prob, F = ham50
    out = hammerstein_apply(prob, prob.exact_solution)
    expected = (1.0 - math.exp(-1.0)) + (math.pi / 4.0) ** 3
    assert expected == pytest.approx(1.1165936, abs=1e-6)
    assert abs(out.values[0] - expected) <= 2e-3


def test_kernel_output_symmetric_for_constant_input(ham50):
    prob, F = ham50
    out = hammerstein_apply(prob, prob.exact_solution)
    assert np.allclose(out.values, out.values[::-1], atol=1e-12)


def test_grid_mismatch_rejected(ham50):
    prob, F = ham50
    other = HilbertVector(np.ones(prob.n_nodes), np.ones(prob.n_nodes))
    with pytest.raises(GridMismatch):
        hammerstein_apply(prob, other)


@pytest.mark.parametrize("weights", [np.ones(50), np.ones(49)],
                         ids=["other-weights", "other-size"])
def test_off_grid_points_take_the_vector_grid_rule(ham50, weights):
    prob, F = ham50
    other = HilbertVector(np.ones(weights.size), weights)
    for call in (hammerstein_apply, hammerstein_derivative):
        with pytest.raises(GridMismatch, match="vectors live on different grids"):
            call(prob, other)


def test_trapezoid_rule_needs_two_nodes():
    # read "need at least 2 nodes", naming no argument
    with pytest.raises(InvalidConfig, match="n_nodes must be >= 2, got 1"):
        trapezoid_weights(1)


def test_unknown_norm_mode_is_rejected():
    with pytest.raises(InvalidConfig, match="unknown norm_mode 'l1'"):
        make_hammerstein(20, "l1")


def test_derivative_at_zero_is_pure_kernel(ham50):
    prob, F = ham50
    A = hammerstein_derivative(prob, HilbertVector.zeros(prob.weights))
    assert np.allclose(A.to_dense(), prob.kernel, atol=1e-15)


@pytest.mark.parametrize("norm_mode", [TRAPEZOID, EUCLIDEAN])
def test_derivative_is_kernel_plus_diagonal_bit_for_bit(norm_mode):
    prob = make_hammerstein(30, norm_mode)
    rng = np.random.Generator(np.random.PCG64(4))
    u = HilbertVector(rng.standard_normal(prob.n_nodes), prob.weights)
    expected = prob.kernel + np.diag(nonlinearity_slope(u.values))
    assert np.array_equal(hammerstein_derivative(prob, u).to_dense(), expected)


def test_diagonal_slope_value_at_one():
    # 3 arctan(1)^2 / 2 = 3 (pi/4)^2 / 2
    assert nonlinearity_slope(np.array([1.0]))[0] == pytest.approx(
        0.9252754, abs=1e-6
    )


def test_derivative_matches_finite_differences(ham50):
    prob, F = ham50
    rng = np.random.Generator(np.random.PCG64(42))
    for k in range(5):
        base = prob.exact_solution.with_values(
            1.0 + 0.5 * rng.standard_normal(prob.n_nodes)
        )
        assert fd_derivative_check(F, base, n_directions=10, h=1e-6) <= 1e-6


def test_derivative_adjoint_consistency(ham50):
    prob, F = ham50
    A = F.deriv(prob.exact_solution)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        u = HilbertVector(rng.standard_normal(prob.n_nodes), prob.weights)
        v = HilbertVector(rng.standard_normal(prob.n_nodes), prob.weights)
        lhs = A(u).inner(v)
        rhs = u.inner(A.adjoint_apply(v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("norm_mode", [TRAPEZOID, EUCLIDEAN])
@pytest.mark.parametrize("n", [50, DENSE_KERNEL_LIMIT])
def test_derivative_adjoint_is_the_weighted_transpose_bit_for_bit(n, norm_mode):
    # the adjoint is the cached kernel adjoint with its diagonal rewritten;
    # two derivatives taking turns must not see each other's diagonal
    prob = make_hammerstein(n, norm_mode)
    w = prob.weights
    rng = np.random.Generator(np.random.PCG64(n))
    maps = [
        hammerstein_derivative(prob, HilbertVector(rng.standard_normal(n), w))
        for _ in range(2)
    ]
    for _ in range(2):
        for A in maps:
            M = A.to_dense()
            v = HilbertVector(rng.standard_normal(n), w)
            expected = ((M.T * w[None, :]) / w[:, None]) @ v.values
            assert np.array_equal(A.adjoint_apply(v).values, expected)


def test_dense_derivative_builds_each_matrix_on_first_use(monkeypatch):
    # the gradient direction applies only the adjoint, a newton step only
    # the forward matrix
    built = []
    original = LinearMap.from_matrix

    def counted(matrix, weights, adjoint):
        return original(lambda: built.append("forward") or matrix(), weights,
                        lambda: built.append("adjoint") or adjoint())

    monkeypatch.setattr(LinearMap, "from_matrix", staticmethod(counted))
    prob = make_hammerstein(20)
    rng = np.random.Generator(np.random.PCG64(6))
    u, v = (HilbertVector(rng.standard_normal(20), prob.weights)
            for _ in range(2))
    A = hammerstein_derivative(prob, u)
    assert built == []
    A.adjoint_apply(v)
    A.adjoint_apply(v)
    assert built == ["adjoint"]
    A(v)
    solve_shifted(A, 0.1, v)
    expected = prob.kernel + np.diag(nonlinearity_slope(u.values))
    assert np.array_equal(A.to_dense(), expected)
    assert built == ["adjoint", "forward"]


def test_newton_run_does_not_build_the_kernel_adjoint():
    prob = make_hammerstein(50, EUCLIDEAN)
    F = hammerstein_operator(prob)
    f_delta, delta = gen_noise(F(prob.exact_solution), NoiseSpec(0.01, seed=0))
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0,
                             d0=schedule_scale(4.0, delta))
    cfg = IterConfig(schedule=schedule, C1=1.01, gamma_or_zeta=0.99)
    report = iter_newton(F, f_delta, delta, cfg, HilbertVector.zeros(prob.weights))
    assert report.steps_taken > 0
    assert "kernel_adjoint" not in prob.__dict__
    F.deriv(report.u_final).adjoint_apply(f_delta)
    assert "kernel_adjoint" in prob.__dict__
    assert not prob.kernel_adjoint.flags.writeable


def test_apply_result_is_trusted_and_read_only(ham50):
    # a foreign grid still raises: test_grid_mismatch_rejected
    prob, F = ham50
    u = HilbertVector(np.linspace(-1.0, 1.0, prob.n_nodes), prob.weights.copy())
    out = hammerstein_apply(prob, u)
    assert out.weights is u.weights
    assert not out.values.flags.writeable
    with pytest.raises(ValueError):
        out.values[0] = 0.0


# ------------------------------------------------------- matrix-free kernel


def _dense_kernel(prob):
    # the dense formula exp(-|x_i - x_j|) q_j, the oracle of the O(N) products
    x, q = prob.grid, prob.quad_weights
    return np.exp(-np.abs(x[:, None] - x[None, :])) * q[None, :]


def test_kernel_is_dense_exactly_up_to_the_limit():
    assert make_hammerstein(DENSE_KERNEL_LIMIT).kernel is not None
    assert make_hammerstein(DENSE_KERNEL_LIMIT + 1).kernel is None


@pytest.mark.parametrize("norm_mode", [TRAPEZOID, EUCLIDEAN])
@pytest.mark.parametrize("n", [201, 300])
def test_matrix_free_kernel_matches_the_dense_formula(n, norm_mode):
    prob = make_hammerstein(n, norm_mode)
    K = _dense_kernel(prob)
    adjoint = (K.T * prob.weights[None, :]) / prob.weights[:, None]
    kernel_map = hammerstein_derivative(prob, HilbertVector.zeros(prob.weights))
    rng = np.random.Generator(np.random.PCG64(n))
    for _ in range(3):
        u = HilbertVector(rng.standard_normal(n), prob.weights)
        assert np.allclose(kernel_map(u).values, K @ u.values, rtol=0, atol=1e-14)
        assert np.allclose(kernel_map.adjoint_apply(u).values, adjoint @ u.values,
                           rtol=0, atol=1e-14)
        assert np.allclose(hammerstein_apply(prob, u).values,
                           K @ u.values + np.arctan(u.values) ** 3,
                           rtol=0, atol=1e-14)


@pytest.mark.parametrize("norm_mode", [TRAPEZOID, EUCLIDEAN])
def test_matrix_free_derivative_above_the_limit(norm_mode):
    prob = make_hammerstein(300, norm_mode)
    rng = np.random.Generator(np.random.PCG64(5))
    u = HilbertVector(rng.standard_normal(prob.n_nodes), prob.weights)
    A = hammerstein_derivative(prob, u)
    assert A._matrix is None
    expected = _dense_kernel(prob) + np.diag(nonlinearity_slope(u.values))
    for _ in range(5):
        v = HilbertVector(rng.standard_normal(prob.n_nodes), prob.weights)
        w = HilbertVector(rng.standard_normal(prob.n_nodes), prob.weights)
        lhs, rhs = A(v).inner(w), v.inner(A.adjoint_apply(w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
        assert np.allclose(A(v).values, expected @ v.values, rtol=0, atol=1e-14)


# -------------------------------------------------------------------- noise


def test_noise_level_exact_by_construction(unit_pair):
    f = const_vector(2.0, unit_pair)
    for seed in (0, 1, 99):
        f_delta, delta = gen_noise(f, NoiseSpec(delta_rel=0.01, seed=seed))
        assert delta == 0.02
        assert (f_delta - f).norm() == pytest.approx(delta, rel=1e-14)


@pytest.mark.parametrize("delta_rel", [0.0, -0.01, np.nan])
def test_noise_level_must_be_positive(delta_rel):
    with pytest.raises(InvalidConfig, match="delta_rel must be positive"):
        NoiseSpec(delta_rel, seed=0)


def test_noise_is_bit_deterministic(ham_data):
    a1, d1 = gen_noise(ham_data, NoiseSpec(0.01, seed=123))
    a2, d2 = gen_noise(ham_data, NoiseSpec(0.01, seed=123))
    assert np.array_equal(a1.values, a2.values)
    assert d1 == d2
    b, _ = gen_noise(ham_data, NoiseSpec(0.01, seed=124))
    assert not np.array_equal(a1.values, b.values)


def test_raw_noise_mean_is_centered():
    # the raw deviates behind gen_noise come from PCG64(seed); their grand
    # mean over many draws obeys the CLT bound 4 / sqrt(n_draws * N)
    n_seeds, n = 1000, 50
    total = 0.0
    for seed in range(n_seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        total += rng.standard_normal(n).mean()
    grand_mean = total / n_seeds
    assert abs(grand_mean) <= 4.0 / math.sqrt(n_seeds * n)


# ------------------------------------------------------------ table harness


@pytest.fixture(scope="module")
def small_table():
    cfg = Table1Config(
        delta_rel=(0.05, 0.01, 0.001),
        seeds=tuple(range(5)),
    )
    return run_table1(cfg)


def test_table_rows_shape_and_status(small_table):
    assert [row.delta_rel for row in small_table] == [0.05, 0.01, 0.001]
    for row in small_table:
        assert row.status == "ok"
        assert row.seed_count == 5
        assert 15 <= row.n_iterations <= 45
        assert len(row.per_seed) == 5


def test_table_error_decreases_with_noise(small_table):
    errors = [row.rel_error for row in small_table]
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("n_max", [0, -1])
def test_table_with_an_empty_budget_rejected(n_max):
    with pytest.raises(InvalidConfig, match="n_max must be positive"):
        Table1Config(n_max=n_max)


def test_table_without_a_seed_is_rejected():
    with pytest.raises(InvalidConfig, match="need at least one seed"):
        Table1Config(seeds=())


def test_table_without_a_noise_level_is_rejected():
    # ran no row and returned an empty table
    with pytest.raises(InvalidConfig, match="need at least one noise level"):
        Table1Config(delta_rel=())


def test_table_row_without_a_successful_seed_fails():
    (row,) = run_table1(
        Table1Config(delta_rel=(0.01,), seeds=(0, 1), n_max=1)
    )
    assert row.status.startswith("failed: seed 0: ")
    assert "; seed 1: " in row.status
    medians = (row.n_iterations, row.rel_error, row.residual_at_stop, row.a_at_stop)
    assert all(math.isnan(m) for m in medians)
    assert row.seed_count == 0
    assert row.per_seed == ()


def test_table_row_with_a_failing_seed_is_partial():
    # from the zero start the iteration diverges on this seed at this level
    (row,) = run_table1(
        Table1Config(delta_rel=(0.001,), seeds=(0, 818629864001),
                     n_nodes=50, norm_mode=EUCLIDEAN, n_max=60)
    )
    assert row.status.startswith("partial: seed 818629864001: ")
    assert row.seed_count == 1
    assert [d["seed"] for d in row.per_seed] == [0]
    assert row.n_iterations == row.per_seed[0]["n_iterations"]
    assert row.rel_error == row.per_seed[0]["rel_error"]


def test_table_euclidean_and_weighted_errors_comparable():
    # the relative error is norm-convention insensitive at matched noise
    cfg_e = Table1Config(delta_rel=(0.01,), seeds=(0, 1, 2))
    cfg_w = Table1Config(
        delta_rel=(0.01,), seeds=(0, 1, 2), norm_mode="trapezoid"
    )
    err_e = run_table1(cfg_e)[0].rel_error
    err_w = run_table1(cfg_w)[0].rel_error
    assert err_e / err_w < 3.0 and err_w / err_e < 3.0


def test_coarser_grid_accuracy_is_comparable():
    cfg20 = Table1Config(delta_rel=(0.01,), n_nodes=20, seeds=tuple(range(5)))
    cfg50 = Table1Config(delta_rel=(0.01,), n_nodes=50, seeds=tuple(range(5)))
    err20 = run_table1(cfg20)[0].rel_error
    err50 = run_table1(cfg50)[0].rel_error
    assert err20 / err50 <= 1.5 and err50 / err20 <= 1.5


def test_schedule_scale_value():
    assert schedule_scale(4.0, 0.01) == 4.0 * 0.01**0.99
    assert schedule_scale(4.0, 0.01) == pytest.approx(0.0418853, abs=5e-7)


@pytest.mark.parametrize(
    "levels, seeds, message",
    [((0.05, -0.1), (0, 1, 2), "delta_rel must be positive, got -0.1"),
     ((0.05,), (0, -1), "seeds must be nonnegative, got -1"),
     # a stop level below delta was recorded as a failed row after the
     # 0.05 runs: "failed: seed 0: stop level ..."
     ((0.05, 0.5), (0, 1), r"delta_rel: stop level C \* delta\*\*e = 4.29007 "
      r"must exceed delta = 4.31011 at delta_rel = 0.5")],
)
def test_table1_config_checks_every_level_and_seed_before_any_run(
    monkeypatch, levels, seeds, message
):
    # the 0.05 runs were solved before the bad level raised
    calls = []
    monkeypatch.setattr("monoreg.bench.iter_newton",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(InvalidConfig, match=message):
        run_table1(Table1Config(delta_rel=levels, seeds=seeds))
    assert calls == []


def test_sweep_keeps_a_solver_error_in_its_row_and_raises_a_config_error():
    # a row's solver error is its outcome; an InvalidConfig stays a config
    # error and ends the sweep
    errors = {2.0: NonFinite("data residual is nan"), 3.0: InvalidConfig("bad")}

    def solve(f_delta, delta):
        if delta in errors:
            raise errors[delta]
        return 10 * delta

    def run(levels):
        return list(sweep(lambda delta_rel, seed: (None, delta_rel + seed), levels,
                          (0,), lambda f_delta, delta: None, solve, "levels"))

    assert run((1.0, 2.0)) == [(1.0, 0, 1.0, 10.0, None),
                               (2.0, 0, 2.0, None, errors[2.0])]
    with pytest.raises(InvalidConfig, match="^bad$"):
        run((1.0, 3.0))
