import math

import numpy as np
import pytest

from monoreg import (
    GridMismatch,
    HilbertVector,
    NoiseSpec,
    Table1Config,
    fd_derivative_check,
    gen_noise,
    hammerstein_apply,
    hammerstein_derivative,
    hammerstein_operator,
    make_hammerstein,
    run_table1,
    trapezoid_weights,
)
from monoreg.bench import EUCLIDEAN, nonlinearity_slope, schedule_scale

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


def test_derivative_at_zero_is_pure_kernel(ham50):
    prob, F = ham50
    A = hammerstein_derivative(prob, HilbertVector.zeros(prob.weights))
    assert np.allclose(A.to_dense(), prob.kernel, atol=1e-15)


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


# -------------------------------------------------------------------- noise


def test_noise_level_exact_by_construction(unit_pair):
    f = const_vector(2.0, unit_pair)
    for seed in (0, 1, 99):
        f_delta, delta = gen_noise(f, NoiseSpec(delta_rel=0.01, seed=seed))
        assert delta == 0.02
        assert (f_delta - f).norm() == pytest.approx(delta, rel=1e-14)


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
        delta_rel_list=(0.05, 0.01, 0.001),
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


def test_table_euclidean_and_weighted_errors_comparable():
    # the relative error is norm-convention insensitive at matched noise
    cfg_e = Table1Config(delta_rel_list=(0.01,), seeds=(0, 1, 2))
    cfg_w = Table1Config(
        delta_rel_list=(0.01,), seeds=(0, 1, 2), norm_mode="trapezoid"
    )
    err_e = run_table1(cfg_e)[0].rel_error
    err_w = run_table1(cfg_w)[0].rel_error
    assert err_e / err_w < 3.0 and err_w / err_e < 3.0


def test_coarser_grid_accuracy_is_comparable():
    cfg20 = Table1Config(delta_rel_list=(0.01,), n_nodes=20, seeds=tuple(range(5)))
    cfg50 = Table1Config(delta_rel_list=(0.01,), n_nodes=50, seeds=tuple(range(5)))
    err20 = run_table1(cfg20)[0].rel_error
    err50 = run_table1(cfg50)[0].rel_error
    assert err20 / err50 <= 1.5 and err50 / err20 <= 1.5


def test_schedule_scale_value():
    assert schedule_scale(4.0, 0.01) == 4.0 * 0.01**0.99
    assert schedule_scale(4.0, 0.01) == pytest.approx(0.0418853, abs=5e-7)
