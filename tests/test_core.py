import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoreg import (
    BallSampler,
    GridMismatch,
    HilbertVector,
    LinearMap,
    NonlinearOperator,
    SolveFailed,
    check_monotonicity,
    fd_derivative_check,
    identity_map,
    identity_operator,
    solve_shifted,
    zero_map,
)
from monoreg.bench import trapezoid_weights

from helpers import const_vector


def vec(values, weights=None):
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    return HilbertVector(values, weights)


# ------------------------------------------------------------ inner product


def test_constant_function_on_unit_measure_grid():
    u = vec([1.0, 1.0], [0.5, 0.5])
    assert u.inner(u) == pytest.approx(1.0, abs=1e-15)


def test_zero_vector_inner_product():
    u = vec([3.0, -2.0, 5.0])
    z = vec([0.0, 0.0, 0.0])
    assert u.inner(z) == 0.0


def test_trapezoid_quadrature_of_x_squared():
    # exact integral of x^2 on [0, 1] is 1/3; trapezoid error is O(h^2)
    x = np.linspace(0.0, 1.0, 51)
    u = vec(x, trapezoid_weights(51))
    assert u.inner(u) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_grid_mismatch_on_length_and_weights():
    u = vec([1.0, 2.0])
    with pytest.raises(GridMismatch):
        u.inner(vec([1.0, 2.0, 3.0]))
    with pytest.raises(GridMismatch):
        u.inner(vec([1.0, 2.0], [0.5, 0.6]))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        vec([1.0], [0.0])


def test_norm_zero_iff_zero_vector():
    assert vec([0.0, 0.0]).norm() == 0.0
    assert vec([0.0, 1e-150]).norm() > 0.0


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    st.lists(finite_floats, min_size=1, max_size=8),
    st.lists(finite_floats, min_size=1, max_size=8),
    finite_floats,
    finite_floats,
)
@settings(max_examples=200)
def test_inner_product_symmetric_and_bilinear(us, vs, ws, a, b):
    n = min(len(us), len(vs), len(ws))
    weights = np.linspace(0.3, 1.7, n)
    u, v, w = (vec(vals[:n], weights) for vals in (us, vs, ws))
    scale = max(u.norm(), v.norm(), w.norm(), 1.0) ** 2 * max(abs(a), abs(b), 1.0)
    assert u.inner(v) == pytest.approx(v.inner(u), abs=1e-12 * scale)
    lhs = (a * u + b * w).inner(v)
    rhs = a * u.inner(v) + b * w.inner(v)
    assert lhs == pytest.approx(rhs, abs=1e-12 * scale)


@given(
    st.lists(finite_floats, min_size=2, max_size=8),
    st.lists(finite_floats, min_size=2, max_size=8),
)
@settings(max_examples=200)
def test_cauchy_schwarz(us, vs):
    n = min(len(us), len(vs))
    weights = np.linspace(0.5, 2.0, n)
    u, v = vec(us[:n], weights), vec(vs[:n], weights)
    assert abs(u.inner(v)) <= u.norm() * v.norm() + 1e-12 * max(
        1.0, u.norm() * v.norm()
    )


def test_vectors_are_immutable():
    u = vec([1.0, 2.0])
    with pytest.raises(ValueError):
        u.values[0] = 5.0


# ------------------------------------------------------------- monotonicity


def test_identity_is_monotone():
    w = np.ones(4)
    F = identity_operator(w)
    sampler = BallSampler(HilbertVector.zeros(w), radius=2.0, seed=1)
    report = check_monotonicity(F, sampler, n_pairs=100, tol=1e-12)
    assert report.passed
    assert report.min_inner >= 0.0


def test_negated_identity_fails_monotonicity():
    w = np.ones(3)
    F = NonlinearOperator(lambda u: -u)
    sampler = BallSampler(HilbertVector.zeros(w), radius=1.0, seed=2)
    report = check_monotonicity(F, sampler, n_pairs=10, tol=1e-12)
    assert not report.passed
    # the witness value is exactly -||u - v||^2 for some sampled pair
    assert report.min_inner < 0.0


def test_hammerstein_is_monotone(ham50):
    prob, F = ham50
    sampler = BallSampler(prob.exact_solution, radius=2.0, seed=3)
    report = check_monotonicity(F, sampler, n_pairs=100, tol=1e-12)
    assert report.passed


# ------------------------------------------------------------ shifted solve


def test_shifted_solve_zero_map():
    w = np.ones(1)
    x = solve_shifted(zero_map(w), 2.0, vec([4.0]))
    assert x.values == pytest.approx([2.0])


def test_shifted_solve_identity():
    w = np.ones(1)
    x = solve_shifted(identity_map(w), 1.0, vec([4.0]))
    assert x.values == pytest.approx([2.0])


def test_shifted_solve_hammerstein_derivative(ham50, ham_data):
    prob, F = ham50
    A = F.deriv(HilbertVector.zeros(prob.weights))
    x = solve_shifted(A, 0.1, ham_data, tol=1e-10)
    residual = (A(x) + 0.1 * x - ham_data).norm()
    assert residual <= 1e-10 * ham_data.norm()
    # inverse-norm bound for the shifted derivative of a monotone operator
    assert x.norm() <= ham_data.norm() / 0.1 * (1.0 + 1e-8)


def test_shifted_solve_rejects_nonpositive_shift():
    with pytest.raises(ValueError):
        solve_shifted(identity_map(np.ones(1)), 0.0, vec([1.0]))


def test_shifted_solve_iterative_path():
    # above the dense cutoff the normal-equation CG path is taken
    n = 2100
    w = np.ones(n)
    diag = np.linspace(0.0, 3.0, n)
    A = LinearMap(
        lambda v: v.with_values(diag * v.values),
        lambda v: v.with_values(diag * v.values),
        w,
    )
    rhs = vec(np.sin(np.arange(n)), w)
    x = solve_shifted(A, 0.5, rhs, tol=1e-10)
    assert np.allclose((diag + 0.5) * x.values, rhs.values, atol=1e-8)


def test_shifted_solve_failure_is_reported():
    # a strongly negative map breaks the invertibility contract at a = 1
    w = np.ones(2)
    A = LinearMap.from_matrix(-np.eye(2), w)
    with pytest.raises(SolveFailed):
        solve_shifted(A, 1.0, vec([1.0, 1.0], w), tol=1e-30)


# ----------------------------------------------------------- adjoint checks


def test_adjoint_consistency_random_matrices():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        n = int(rng.integers(2, 9))
        weights = rng.uniform(0.2, 2.0, n)
        A = LinearMap.from_matrix(rng.standard_normal((n, n)), weights)
        u = HilbertVector(rng.standard_normal(n), weights)
        v = HilbertVector(rng.standard_normal(n), weights)
        lhs = A(u).inner(v)
        rhs = u.inner(A.adjoint_apply(v))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_to_dense_matches_callable_application():
    rng = np.random.Generator(np.random.PCG64(8))
    n = 5
    weights = rng.uniform(0.5, 1.5, n)
    M = rng.standard_normal((n, n))
    dense = LinearMap.from_matrix(M, weights)
    lazy = LinearMap(dense, dense.adjoint_apply, weights)
    assert np.allclose(lazy.to_dense(), M, atol=1e-14)


# ------------------------------------------------------- derivative checking


def test_fd_check_linear_operator():
    # a linear map equals its derivative, so the stencil is exact for any h
    # (up to float cancellation, which shrinks with larger h)
    F = identity_operator(np.ones(4))
    u = vec([1.0, -2.0, 0.5, 3.0])
    for h in (1.0, 0.1):
        assert fd_derivative_check(F, u, n_directions=5, h=h) <= 1e-12


def test_fd_check_constant_operator():
    w = np.ones(3)
    c = vec([1.0, 2.0, 3.0])
    F = NonlinearOperator(lambda u: c, lambda u: zero_map(w))
    assert fd_derivative_check(F, vec([0.1, 0.2, 0.3]), 5, 1e-5) <= 1e-12


def test_fd_check_hammerstein(ham50):
    prob, F = ham50
    u = const_vector(1.0, prob.weights)
    assert fd_derivative_check(F, u, n_directions=10, h=1e-6) <= 1e-6


def test_fd_check_requires_derivative():
    from monoreg import NoDerivative

    F = NonlinearOperator(lambda u: u)
    with pytest.raises(NoDerivative):
        fd_derivative_check(F, vec([1.0]), 1, 1e-6)
