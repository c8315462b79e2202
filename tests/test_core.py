import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoreg import (
    BallSampler,
    GridMismatch,
    HilbertVector,
    InvalidConfig,
    LinearMap,
    NonFinite,
    NonlinearOperator,
    OperatorBounds,
    SolveFailed,
    check_monotonicity,
    fd_derivative_check,
    hammerstein_operator,
    identity_map,
    random_monotone_problem,
    solve_shifted,
    zero_map,
)
import monoreg.core
from monoreg.bench import (
    EUCLIDEAN,
    TRAPEZOID,
    NoiseSpec,
    _matrix_free_map,
    gen_noise,
    hammerstein_apply,
    hammerstein_derivative,
    make_hammerstein,
    trapezoid_weights,
)

from helpers import const_vector, identity_operator


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


def test_values_and_weights_must_be_1d():
    with pytest.raises(GridMismatch, match="1-d arrays"):
        HilbertVector(np.ones((2, 2)), np.ones(4))
    with pytest.raises(GridMismatch, match="1-d arrays"):
        HilbertVector(np.ones(4), np.ones((2, 2)))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        vec([1.0], [0.0])


@pytest.mark.parametrize("m1, m2", [(-1.0, 0.0), (1.0, -1.0), (np.nan, 0.0),
                                    (1.0, np.nan), (True, 0.0), (1.0, True)])
def test_operator_bounds_must_be_nonnegative(m1, m2):
    # the field that holds the bad value: a bool is not a float
    field = "m1" if m2 == 0.0 else "m2"
    with pytest.raises(InvalidConfig, match=f"{field} must be"):
        OperatorBounds(m1, m2)


@pytest.mark.parametrize("m1", [np.nan, -1.0])
def test_bounds_builder_is_checked_at_the_first_read(m1):
    F = NonlinearOperator(lambda u: u, bounds=lambda: OperatorBounds(m1))
    with pytest.raises(InvalidConfig, match=f"^m1 must be nonnegative, got {m1}$"):
        F.bounds


def test_bounds_builder_runs_once_at_the_first_read():
    built = []
    F = NonlinearOperator(lambda u: u,
                          bounds=lambda: built.append(1) or OperatorBounds(2.0))
    assert built == []
    bounds = F.bounds
    assert F.bounds is bounds and bounds == OperatorBounds(2.0)
    assert built == [1]
    assert NonlinearOperator(lambda u: u).bounds is None


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


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@given(
    st.lists(st.tuples(finite_floats, finite_floats,
                       st.floats(min_value=1e-3, max_value=1e3)),
             min_size=1, max_size=8),
    st.floats(min_value=1e-3, max_value=1e3),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_arithmetic_results_are_trusted_and_exact(entries, scale, negative):
    us, vs, ws = (np.array(column) for column in zip(*entries))
    s = -scale if negative else scale
    u, v = vec(us, ws), vec(vs, ws.copy())
    cases = [
        (u + v, np.add(u.values, v.values)),
        (u - v, np.subtract(u.values, v.values)),
        (u * s, np.multiply(u.values, s)),
        (s * u, np.multiply(u.values, s)),
        (u / s, np.divide(u.values, s)),
        (-u, np.negative(u.values)),
    ]
    for result, expected in cases:
        assert np.array_equal(_bits(result.values), _bits(expected))
        assert result.weights is u.weights
        assert not result.values.flags.writeable


def test_with_values_validates_length():
    u = vec([1.0, 2.0])
    with pytest.raises(GridMismatch):
        u.with_values(np.array([1.0, 2.0, 3.0]))


def test_same_grid_compares_weights_by_value():
    w = np.array([0.5, 1.5])
    u = vec([1.0, 2.0], w)
    assert u.same_grid(vec([3.0, 4.0], w.copy()))
    assert not u.same_grid(vec([3.0, 4.0], [0.5, 1.6]))
    assert not u.same_grid(vec([3.0, 4.0, 5.0], [0.5, 1.5, 1.0]))


@pytest.mark.parametrize("weight_kind", ["unit", "trapezoid"])
@pytest.mark.parametrize("n", [1, 50, 100_000])
def test_norm_and_inner_keep_the_bits_of_np_sum(n, weight_kind):
    rng = np.random.Generator(np.random.PCG64(n))
    w = np.ones(n) if weight_kind == "unit" else trapezoid_weights(max(n, 2))[:n]
    u, v = (vec(rng.standard_normal(n), w) for _ in range(2))
    assert u.norm().hex() == float(np.sqrt(np.sum(w * u.values * u.values))).hex()
    assert u.inner(v).hex() == float(np.sum(w * u.values * v.values)).hex()


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


def _nan_outside(radius):
    """F(u) = u inside the ball of the given radius about 0, NaN outside."""
    return NonlinearOperator(
        lambda u: u if u.norm() < radius else u.with_values(np.full(u.size, np.nan)),
        lambda u: identity_map(u.weights),
    )


def test_nan_sample_fails_monotonicity():
    # `val < worst` is False for NaN, so the report passed with min_inner inf
    sampler = BallSampler(HilbertVector.zeros(np.ones(3)), radius=2.0, seed=1)
    first_nan = next(i for i, (u, v) in enumerate(sampler.pairs(10))
                     if max(u.norm(), v.norm()) >= 1.98)
    assert first_nan > 0
    report = check_monotonicity(_nan_outside(1.98), sampler, n_pairs=10, tol=1e-12)
    assert not report.passed
    assert np.isnan(report.min_inner)
    assert report.worst_index == first_nan


def test_monotonicity_check_needs_a_pair():
    sampler = BallSampler(HilbertVector.zeros(np.ones(2)), radius=1.0)
    with pytest.raises(InvalidConfig, match="n_pairs must be >= 1"):
        check_monotonicity(identity_operator(np.ones(2)), sampler, n_pairs=0,
                           tol=1e-12)


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


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("path", ["matrix", "gmres"])
def test_shifted_solve_rejects_a_tolerance_that_is_not_positive(path, tol):
    # the matrix path raised SolveFailed, blaming the operator; GMRES
    # returned at tol 0
    diag = np.linspace(0.0, 3.0, 8)
    if path == "matrix":
        A = LinearMap.from_matrix(np.diag(diag), np.ones(8))
    else:
        scale = lambda v: v.with_values(diag * v.values)
        A = LinearMap(scale, scale, np.ones(8))
    with pytest.raises(InvalidConfig, match=f"tol must be positive, got {tol}"):
        solve_shifted(A, 0.1, vec(np.cos(np.arange(8)), np.ones(8)), tol=tol)


def test_shifted_solve_of_a_zero_right_hand_side_calls_no_solver():
    def no_solver(a):
        raise AssertionError("a zero right-hand side needs no solve")

    w = np.array([0.5, 2.0])
    A = LinearMap(lambda v: v, lambda v: v, w, shifted_solver=no_solver)
    x = solve_shifted(A, 1.0, vec([0.0, -0.0], w))
    assert x.values.tolist() == [0.0, 0.0]
    assert x.same_grid(vec([1.0, 1.0], w))


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
    # above the dense cutoff the GMRES path is taken
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


@pytest.mark.parametrize("weight_kind", [TRAPEZOID, EUCLIDEAN])
@pytest.mark.parametrize("seed", range(8))
def test_dense_shifted_solve_keeps_the_bits_of_the_eye_expression(seed,
                                                                  weight_kind):
    # the dense path shifts a copy of the matrix on its diagonal; its result
    # must be that of M = A + a * np.eye(n), also where A holds -0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, 40))
    weights = trapezoid_weights(n) if weight_kind == TRAPEZOID else np.ones(n)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    matrix = 0.5 * (B @ B.T + B - B.T)
    matrix[rng.uniform(size=(n, n)) < 0.3] = -0.0
    matrix[0, 0] = -0.0
    a = float(rng.uniform(1.0, 3.0))
    rhs = HilbertVector(rng.standard_normal(n), weights)
    M = matrix + a * np.eye(n)
    x = np.linalg.solve(M, rhs.values)
    x += np.linalg.solve(M, rhs.values - M @ x)
    sol = solve_shifted(LinearMap.from_matrix(matrix, weights), a, rhs)
    assert np.array_equal(_bits(sol.values), _bits(x))


def _gmres_calls(monkeypatch):
    calls = []
    gmres = monoreg.core._gmres
    monkeypatch.setattr(monoreg.core, "_gmres",
                        lambda *args: calls.append(args) or gmres(*args))
    return calls


def test_map_with_a_matrix_is_factorized_up_to_dense_limit(monkeypatch):
    # a map that holds a matrix keeps the factorization at every size up to
    # DENSE_LIMIT, which a small shift on a degenerate spectrum needs to stay
    # fast; one row more and it has no solver, so it takes GMRES
    n = 129
    diag = np.linspace(0.0, 1.0, n)
    A = LinearMap.from_matrix(np.diag(diag), np.ones(n))
    rhs = vec(np.cos(np.arange(n)), np.ones(n))
    calls = _gmres_calls(monkeypatch)
    x = solve_shifted(A, 1e-3, rhs)
    assert calls == []
    assert np.allclose((diag + 1e-3) * x.values, rhs.values, atol=1e-8)
    limit = monoreg.core.DENSE_LIMIT
    for n, has_solver in ((limit, True), (limit + 1, False)):
        matrix = np.broadcast_to(np.float64(0.0), (n, n))
        A = LinearMap(lambda v: v, lambda v: v, np.ones(n), matrix)
        assert (A.shifted_solver is not None) == has_solver


def test_map_without_a_matrix_takes_gmres(monkeypatch):
    n = 129
    diag = np.linspace(0.0, 3.0, n)
    scale = lambda v: v.with_values(diag * v.values)
    A = LinearMap(scale, scale, np.ones(n))
    rhs = vec(np.cos(np.arange(n)), np.ones(n))
    calls = _gmres_calls(monkeypatch)
    x = solve_shifted(A, 0.5, rhs)
    assert len(calls) == 1 and A._matrix is None
    assert np.allclose((diag + 0.5) * x.values, rhs.values, atol=1e-8)


def test_to_dense_does_not_move_a_map_off_gmres(monkeypatch):
    # to_dense builds a matrix for its caller and does not keep it, so a
    # map without a matrix takes GMRES at any size, before and after
    n = 60
    diag = np.linspace(0.0, 3.0, n)
    scale = lambda v: v.with_values(diag * v.values)
    A = LinearMap(scale, scale, np.ones(n))
    rhs = vec(np.cos(np.arange(n)), np.ones(n))
    calls = _gmres_calls(monkeypatch)
    x = solve_shifted(A, 0.5, rhs)
    assert len(calls) == 1
    assert np.array_equal(A.to_dense(), np.diag(diag))
    assert np.array_equal(solve_shifted(A, 0.5, rhs).values, x.values)
    assert len(calls) == 2 and A._matrix is None and A.shifted_solver is None


def test_gmres_hands_the_map_vectors_it_may_keep():
    # vectors are immutable: one the map keeps must not change later, when
    # the Krylov basis is overwritten by the next restart cycle
    diag = np.linspace(0.0, 3.0, 60)
    kept = []

    def keep(v):
        kept.append((v, v.values.copy()))
        return v.with_values(diag * v.values)

    A = LinearMap(keep, keep, np.ones(60))
    solve_shifted(A, 1e-2, vec(np.cos(np.arange(60)), np.ones(60)))
    assert len(kept) > monoreg.core.GMRES_RESTART + 1
    assert all(np.array_equal(v.values, seen) for v, seen in kept)


def _dense_and_gmres(monkeypatch, A, a, rhs, tol=1e-10):
    # LU on the matrix A holds, and GMRES on its matrix-free view
    calls = _gmres_calls(monkeypatch)
    dense = solve_shifted(A, a, rhs, tol)
    assert calls == []
    x = solve_shifted(LinearMap(A, A.adjoint_apply, A.weights), a, rhs, tol)
    assert len(calls) == 1
    return dense, x


def test_gmres_path_matches_dense_on_hammerstein_derivative(monkeypatch):
    # the trapezoid derivative is self-adjoint in the weighted product
    prob = make_hammerstein(40, TRAPEZOID)
    F = hammerstein_operator(prob)
    u = prob.exact_solution.with_values(np.sin(3.0 * prob.grid))
    A = F.deriv(u)
    rhs = F(u)
    dense, gmres = _dense_and_gmres(monkeypatch, A, 0.05, rhs)
    assert (gmres - dense).norm() <= 1e-8 * dense.norm()


def test_gmres_path_matches_dense_on_non_self_adjoint_map(monkeypatch):
    # I + W^{-1} K with K skew-symmetric is monotone in the weighted
    # product but not self-adjoint
    rng = np.random.Generator(np.random.PCG64(11))
    n = 30
    weights = rng.uniform(0.2, 2.0, n)
    B = rng.standard_normal((n, n))
    A = LinearMap.from_matrix(np.eye(n) + (B - B.T) / weights[:, None], weights)
    rhs = HilbertVector(rng.standard_normal(n), weights)
    assert (A.adjoint_apply(rhs) - A(rhs)).norm() > 0.1 * rhs.norm()
    dense, gmres = _dense_and_gmres(monkeypatch, A, 0.3, rhs)
    assert (gmres - dense).norm() <= 1e-8 * dense.norm()


@given(st.integers(0, 2**32 - 1), st.integers(5, 12),
       st.floats(min_value=-4.0, max_value=0.0))
@settings(max_examples=200, deadline=None)
def test_gmres_path_matches_dense_on_random_monotone_maps(seed, n, log_a):
    # W^{-1} (G G^T + S), G of random rank and S skew, is monotone in the
    # weighted product; at the default tolerance the solution error bound
    # ||A + aI|| tol / a is too loose for a = 1e-4, so both solves ask for 1e-12
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.uniform(0.2, 2.0, n)
    G = rng.standard_normal((n, int(rng.integers(1, n + 1)))) / np.sqrt(n)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    A = LinearMap.from_matrix((G @ G.T + B - B.T) / weights[:, None], weights)
    rhs = HilbertVector(rng.standard_normal(n), weights)
    with pytest.MonkeyPatch.context() as monkeypatch:
        dense, gmres = _dense_and_gmres(monkeypatch, A, 10.0 ** log_a, rhs,
                                        tol=1e-12)
    assert (gmres - dense).norm() <= 1e-8 * dense.norm()


def _counted_products(A, keep_matrix=False, shifted_solver=None):
    # A with a count of its products and an adjoint that raises; it hides
    # A's matrix unless keep_matrix is set
    counts = {"apply": 0}

    def apply_fn(v):
        counts["apply"] += 1
        return A(v)

    def no_adjoint(v):
        raise AssertionError("the shifted solve took an adjoint")

    matrix = A.to_dense() if keep_matrix else None
    return LinearMap(apply_fn, no_adjoint, A.weights, matrix,
                     shifted_solver), counts


def test_gmres_path_uses_one_product_per_step_and_no_adjoint():
    # the solve takes 28 products (27 Arnoldi steps and the residual
    # check); two per step, as on the normal equations, would take about 55
    prob = make_hammerstein(40, TRAPEZOID)
    F = hammerstein_operator(prob)
    u = prob.exact_solution.with_values(np.sin(3.0 * prob.grid))
    A, counts = _counted_products(F.deriv(u))
    x = solve_shifted(A, 0.05, F(u))
    assert counts["apply"] <= 36
    assert (A(x) + 0.05 * x - F(u)).norm() <= 1e-10 * F(u).norm()


@pytest.mark.parametrize("u_kind", ["zero", "sin"])
@pytest.mark.parametrize("norm_mode", [TRAPEZOID, EUCLIDEAN])
@pytest.mark.parametrize("n", [129, 200, 300])
def test_structured_solve_matches_dense_lu(monkeypatch, n, norm_mode, u_kind):
    # the matrix-free Hammerstein derivative is solved by its KMS tridiagonal
    # solver, on the right-hand side of a Newton step; dense LU on the
    # materialized matrix is the oracle.  At a = 1e-6 and u = 0 the shifted
    # matrix has condition number about 1e6, and LU itself is off by up to
    # 1.5e-12 (300 nodes; the structured solve is within 2e-13 of LU with its
    # residual refined in extended precision), so the pin there is 1e-11
    prob = make_hammerstein(n, norm_mode)
    assert prob.kernel is None
    F = hammerstein_operator(prob)
    f_delta, _ = gen_noise(F(prob.exact_solution), NoiseSpec(0.01, seed=0))
    u = prob.exact_solution.with_values(
        np.zeros(n) if u_kind == "zero" else np.sin(3.0 * prob.grid))
    rhs = F(u) - f_delta
    dense = LinearMap.from_matrix(F.deriv(u).to_dense(), prob.weights)
    A = F.deriv(u)
    calls = _gmres_calls(monkeypatch)
    for a, rel in ((1.0, 1e-12), (0.05, 1e-12), (1e-3, 1e-12), (1e-6, 1e-11)):
        x = solve_shifted(A, a, rhs)
        expected = solve_shifted(dense, a, rhs)
        assert (x - expected).norm() <= rel * expected.norm(), a
    assert calls == [] and A._matrix is None


def test_kernel_only_map_takes_the_structured_solve():
    # the kernel map of the operator bounds has the scalar diagonal 0; it
    # solves as the derivative at u = 0 does, whose slopes are all 0
    prob = make_hammerstein(200, TRAPEZOID)
    F = hammerstein_operator(prob)
    zero = HilbertVector.zeros(prob.weights)
    rhs = F(prob.exact_solution)
    for a in (0.05, 1e-6):
        x = solve_shifted(_matrix_free_map(prob), a, rhs)
        assert np.array_equal(x.values, solve_shifted(F.deriv(zero), a, rhs).values)


def test_structured_solve_at_100000_nodes(monkeypatch):
    # O(N) and independent of the shift: GMRES took 3.2 s here
    prob = make_hammerstein(100_000, TRAPEZOID)
    u = prob.exact_solution.with_values(np.sin(3.0 * prob.grid))
    A = hammerstein_derivative(prob, u)
    rhs = hammerstein_apply(prob, u) - hammerstein_apply(prob, prob.exact_solution)

    def no_dense(self):
        raise AssertionError("the shifted solve materialized the matrix")

    monkeypatch.setattr(LinearMap, "to_dense", no_dense)
    calls = _gmres_calls(monkeypatch)
    x = solve_shifted(A, 1e-6, rhs)
    assert calls == []
    assert (A(x) + 1e-6 * x - rhs).norm() <= 1e-10 * rhs.norm()


@pytest.mark.parametrize("shift_factor, solves", [(1.0, 1), (1.0 + 1e-6, 2), (2.0, 2)],
                         ids=["exact", "near", "wrong"])
def test_structured_solve_refines_once_on_a_miss(shift_factor, solves):
    # the map's solver is factorized at shift_factor * a: the exact factors
    # meet the tolerance at once; near ones miss it, and one refinement pass
    # with them meets it; wrong ones are not a silent bad step: a pass only
    # quarters their residual, and solve_shifted raises
    prob = make_hammerstein(200, TRAPEZOID)
    F = hammerstein_operator(prob)
    u = prob.exact_solution.with_values(np.sin(3.0 * prob.grid))
    exact = F.deriv(u)
    calls = []

    def solver(a):
        solve = exact.shifted_solver(shift_factor * a)
        return lambda b: calls.append(1) or solve(b)

    A = LinearMap(exact, exact.adjoint_apply, exact.weights, shifted_solver=solver)
    rhs = F(u)
    if shift_factor == 2.0:
        with pytest.raises(SolveFailed, match="after one refinement pass"):
            solve_shifted(A, 0.05, rhs)
    else:
        x = solve_shifted(A, 0.05, rhs)
        assert (A(x) + 0.05 * x - rhs).norm() <= 1e-10 * rhs.norm()
    assert len(calls) == solves


# the paths of solve_shifted: the map's own shifted solver, LU on the
# matrix the map holds (the solver it gets when it brings none), and GMRES
_SOLVE_PATHS = ["structured", "matrix", "gmres"]


def _map_on_path(monkeypatch, M, path):
    """A counted map over M that solve_shifted sends down `path`, and a
    function listing the paths solve_shifted has taken since: each call
    of the map's solver, and each GMRES solve."""
    solver = None
    if path == "structured":
        def solver(a):
            shifted = M + a * np.eye(len(M))
            return lambda b: np.linalg.solve(shifted, b)

    A, counts = _counted_products(LinearMap.from_matrix(M, np.ones(len(M))),
                                  keep_matrix=path == "matrix",
                                  shifted_solver=solver)
    factorized = []
    if A.shifted_solver is not None:
        own = A.shifted_solver
        A.shifted_solver = lambda a: factorized.append(path) or own(a)
    gmres_calls = _gmres_calls(monkeypatch)
    return A, counts, lambda: factorized + ["gmres"] * len(gmres_calls)


@pytest.mark.parametrize("path", _SOLVE_PATHS)
@pytest.mark.parametrize("bad", ["rhs", "shift"])
def test_shifted_solve_rejects_nan_input(monkeypatch, path, bad):
    A, counts, taken = _map_on_path(monkeypatch, np.eye(6), path)
    rhs = vec(np.ones(6))
    a = 0.5
    if bad == "rhs":
        rhs = vec(np.r_[np.ones(5), np.nan])
    else:
        a = float("nan")
    with pytest.raises(NonFinite):
        solve_shifted(A, a, rhs)
    assert counts["apply"] == 0 and taken() == []
    # with finite input the same map takes the path under test
    solve_shifted(A, 0.5, vec(np.ones(6)))
    assert taken() == [path]


@pytest.mark.parametrize("path", _SOLVE_PATHS)
def test_shifted_solve_fails_on_nan_operator(monkeypatch, path):
    # a NaN solution must not pass the residual check, a direct solve must
    # not refine it more than once, and GMRES must not spend its budget of
    # 20 N products on it
    M = np.eye(6)
    M[2, 3] = np.nan
    A, counts, taken = _map_on_path(monkeypatch, M, path)
    with pytest.raises(SolveFailed):
        solve_shifted(A, 0.5, vec(np.ones(6)))
    assert taken() == [path]
    if path == "gmres":
        assert counts["apply"] <= monoreg.core.GMRES_RESTART + 1
    else:
        assert counts["apply"] == 2


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


def test_lazy_adjoint_equals_the_eager_expression():
    rng = np.random.Generator(np.random.PCG64(9))
    n = 7
    weights = rng.uniform(0.2, 2.0, n)
    M = rng.standard_normal((n, n))
    A = LinearMap.from_matrix(M, weights)
    eager = (M.T * weights[None, :]) / weights[:, None]
    for _ in range(2):
        v = HilbertVector(rng.standard_normal(n), weights)
        assert np.array_equal(A.adjoint_apply(v).values, eager @ v.values)


def test_a_given_adjoint_is_built_once_on_first_use():
    rng = np.random.Generator(np.random.PCG64(10))
    n = 5
    weights = rng.uniform(0.2, 2.0, n)
    M = rng.standard_normal((n, n))
    eager = (M.T * weights[None, :]) / weights[:, None]
    built = []
    A = LinearMap.from_matrix(M, weights, lambda: built.append(1) or eager)
    v = HilbertVector(rng.standard_normal(n), weights)
    A(v)
    assert built == []
    for _ in range(2):
        assert np.array_equal(A.adjoint_apply(v).values, eager @ v.values)
    assert built == [1]


def test_a_matrix_builder_is_called_once_on_first_forward_use():
    rng = np.random.Generator(np.random.PCG64(11))
    n = 5
    weights = rng.uniform(0.2, 2.0, n)
    M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    eager = LinearMap.from_matrix(M, weights)
    built = []
    A = LinearMap.from_matrix(lambda: built.append(1) or M, weights,
                              lambda: (M.T * weights[None, :]) / weights[:, None])
    v = HilbertVector(rng.standard_normal(n), weights)
    A.adjoint_apply(v)
    assert built == []
    assert np.array_equal(A(v).values, eager(v).values)
    assert built == [1]
    x = solve_shifted(A, 0.5, v)
    assert np.array_equal(x.values, solve_shifted(eager, 0.5, v).values)
    assert A.to_dense() is M and built == [1]


def test_a_matrix_builder_of_the_wrong_shape_fails_on_first_use():
    weights = np.ones(2)
    with pytest.raises(GridMismatch):
        LinearMap.from_matrix(np.eye(3), weights)
    A = LinearMap.from_matrix(lambda: np.eye(3), weights)
    with pytest.raises(GridMismatch):
        A(HilbertVector(np.ones(2), weights))
    with pytest.raises(GridMismatch):
        A.to_dense()


def test_a_map_given_an_array_of_the_wrong_shape_fails_at_once():
    # LinearMap took the array unchecked: the solve raised NumPy's bare
    # ValueError and to_dense returned the 3 x 3 matrix
    weights = np.ones(2)
    with pytest.raises(GridMismatch, match="matrix shape does not match the grid"):
        solve_shifted(LinearMap(lambda v: v, lambda v: v, weights, matrix=np.eye(3)),
                      1.0, HilbertVector(np.array([1.0, 2.0]), weights))


def test_a_map_given_a_builder_checks_it_and_builds_once():
    # LinearMap(matrix=builder) took the builder unchecked and called it at
    # every use: the wrong shape raised NumPy's bare ValueError in the first
    # solve, and three solves and one to_dense called a right one 4 times
    grid = np.ones(3)
    v = HilbertVector(np.array([1.0, 2.0, 3.0]), grid)
    wrong = LinearMap(lambda v: v, lambda v: v, grid, matrix=lambda: np.eye(2))
    with pytest.raises(GridMismatch, match="matrix shape does not match the grid"):
        solve_shifted(wrong, 1.0, v)
    built = []
    A = LinearMap(lambda v: v, lambda v: v, grid,
                  matrix=lambda: built.append(1) or np.eye(3))
    for a in (0.5, 1.0, 2.0):
        assert np.allclose(solve_shifted(A, a, v).values, v.values / (1.0 + a))
    assert np.array_equal(A.to_dense(), np.eye(3))
    assert built == [1]


def test_a_matrix_map_is_freed_without_the_cycle_collector():
    # a map whose products close over the map itself is freed only by a
    # gc pass, so a run's per-step derivatives and their matrices pile up
    grid = np.ones(3)
    A = LinearMap.from_matrix(lambda: np.eye(3), grid)
    A.to_dense()
    freed = weakref.ref(A)
    gc.disable()
    try:
        del A
        assert freed() is None
    finally:
        gc.enable()


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


def test_fd_check_nan_error_is_reported():
    # Python's max(worst, nan) drops the NaN and returned 0.0
    F = _nan_outside(1e-3)
    assert np.isnan(fd_derivative_check(F, vec([0.0, 0.0, 0.0]), 3, 1e-2))


@pytest.mark.parametrize("h", [0.0, -1e-6, np.nan])
def test_fd_check_rejects_non_positive_step(h):
    F = identity_operator(np.ones(2))
    with pytest.raises(InvalidConfig, match="h must be positive"):
        fd_derivative_check(F, vec([1.0, 2.0]), 1, h)


def test_random_monotone_problem_declares_the_rate_of_its_derivative():
    # F'(u) - F'(v) = diag(sech^2 u - sech^2 v): its norm is at most
    # m2 ||u - v||, nearly attained by a pair about the peak of |tanh''|
    F, u_star = random_monotone_problem(dim=6, seed=4)
    m2 = F.bounds.m2
    assert m2 == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), rel=1e-15)
    peak = np.arctanh(1.0 / np.sqrt(3.0))
    near = u_star.with_values(np.r_[peak - 1e-4, np.zeros(5)])
    pairs = [(near, near + u_star.with_values(np.r_[2e-4, np.zeros(5)]))]
    pairs += list(BallSampler(u_star, radius=3.0, seed=5).pairs(50))
    ratios = [np.linalg.norm(F.deriv(u).to_dense() - F.deriv(v).to_dense(), 2)
              / (u - v).norm() for u, v in pairs]
    assert max(ratios) <= m2 * (1.0 + 1e-9)
    assert ratios[0] >= 0.999 * m2  # so m2 = 0 would fail


def test_fd_check_requires_derivative():
    from monoreg import NoDerivative

    F = NonlinearOperator(lambda u: u)
    with pytest.raises(NoDerivative):
        fd_derivative_check(F, vec([1.0]), 1, 1e-6)


def test_gmres_ends_at_a_cycle_that_does_not_lower_the_residual():
    # A + aI is the cyclic shift, which breaks the contract: from e_1 the
    # Krylov space is e_1, ..., e_30, whose images are all orthogonal to e_1,
    # so the whole first cycle of 30 steps leaves the residual at 1
    shift = lambda v: v.with_values(np.roll(v.values, 1) - 0.5 * v.values)
    A = LinearMap(shift, shift, np.ones(40))
    with pytest.raises(SolveFailed, match="residual 1 exceeds .* after 31 products"):
        solve_shifted(A, 0.5, vec(np.eye(40)[0]))
