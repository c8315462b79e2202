"""The Hammerstein integral-equation benchmark.

The test operator on [0, 1] is

    F(u)(x) = int_0^1 exp(-|x - y|) u(y) dy + arctan(u(x))**3,

discretized on a uniform grid with trapezoid quadrature.  The kernel is a
positive-definite function and the pointwise nonlinearity is increasing,
so the operator is monotone; its derivative is the kernel part plus the
diagonal 3 arctan(u)**2 / (1 + u**2), which degenerates wherever u
vanishes (the problem is genuinely ill-posed at the zero start).

Up to `DENSE_KERNEL_LIMIT` nodes the kernel is a dense N x N matrix.
Above it the problem is matrix-free: the kernel exp(-|x - y|) is an
Ornstein-Uhlenbeck covariance, which factors as e^{-x} e^{y} for y <= x
and e^{x} e^{-y} for y > x, so a kernel product is two cumulative sums in
O(N), and so are its weighted adjoint and the derivative's products.  On
the uniform grid the kernel matrix is a Kac-Murdock-Szego matrix, whose
inverse is tridiagonal, so every shifted Newton system is a tridiagonal
one: the matrix-free derivative carries a `shifted_solver` that solves it
exactly in O(N) by cyclic reduction (`_kms_shifted_solver`), whatever the
shift.

Norm convention: `norm_mode="trapezoid"` puts the discrete space in
weighted L2, which is the mode in which discrete monotonicity is exact;
`norm_mode="euclidean"` uses unweighted vector norms for noise levels,
residuals, and errors, which is the convention under which the reference
iteration counts of the published table are reproduced (about
C0 * sqrt(N) / C steps, independently of the noise level).  The quadrature
inside the operator is trapezoid in both modes.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    HilbertVector,
    LinearMap,
    NonlinearOperator,
    OperatorBounds,
    diagonal_view,
)
from .errors import (InvalidConfig, MonoregError, check_at_least, check_fields,
                     check_number)
from .iterations import IterConfig, iter_newton, operator_norm_estimate
from .reports import check_stop_constants, stop_level
from .schedules import NEWTON_ITER, make_discrete

TRAPEZOID = "trapezoid"
EUCLIDEAN = "euclidean"

# The kernel is a dense matrix up to this many nodes and matrix-free above:
# the measured crossover of a whole `iter_newton` run from zero, where the
# matrix-free derivative has its exact O(N) solve (README "Shifted solves").
DENSE_KERNEL_LIMIT = 72


def trapezoid_weights(n_nodes: int) -> np.ndarray:
    """Composite trapezoid weights on n_nodes uniform points in [0, 1]."""
    if n_nodes < 2:
        raise InvalidConfig("need at least 2 nodes")
    h = 1.0 / (n_nodes - 1)
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass(frozen=True)
class HammersteinProblem:
    """Discretized benchmark operator with its exact solution u = 1."""

    n_nodes: int
    grid: np.ndarray
    weights: np.ndarray  # inner-product weights (mode dependent)
    quad_weights: np.ndarray  # trapezoid weights (always, inside the kernel)
    # K[i, j] = exp(-|x_i - x_j|) * quad_weights[j] up to
    # DENSE_KERNEL_LIMIT nodes; None above it, where products with K take
    # O(N) (`_exp_kernel`)
    kernel: np.ndarray | None
    norm_mode: str
    exact_solution: HilbertVector

    @functools.cached_property
    def exp_grid(self) -> np.ndarray:
        """e^x on the grid, the factor of every matrix-free kernel product
        (`_exp_kernel`); read-only."""
        ex = np.exp(self.grid)
        ex.setflags(write=False)
        return ex

    @functools.cached_property
    def kernel_adjoint(self) -> np.ndarray:
        """W^{-1} K^T W for the dense kernel, F-ordered; built on the first
        adjoint of a derivative, so set-up and newton-only runs skip it.
        Read-only: every derivative's adjoint starts from a copy."""
        w = self.weights
        adj = (self.kernel.T * w[None, :]) / w[:, None]
        adj.setflags(write=False)
        return adj


def make_hammerstein(n_nodes: int = 50, norm_mode: str = TRAPEZOID) -> HammersteinProblem:
    check_number("n_nodes", n_nodes, "int")
    if norm_mode not in (TRAPEZOID, EUCLIDEAN):
        raise InvalidConfig(f"unknown norm_mode {norm_mode!r}")
    x = np.linspace(0.0, 1.0, n_nodes)
    qw = trapezoid_weights(n_nodes)
    kernel = None
    if n_nodes <= DENSE_KERNEL_LIMIT:
        kernel = np.exp(-np.abs(x[:, None] - x[None, :])) * qw[None, :]
    weights = qw if norm_mode == TRAPEZOID else np.ones(n_nodes)
    return HammersteinProblem(
        n_nodes=n_nodes,
        grid=x,
        weights=weights,
        quad_weights=qw,
        kernel=kernel,
        norm_mode=norm_mode,
        exact_solution=HilbertVector(np.ones(n_nodes), weights),
    )


def _exp_kernel(ex: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j exp(-|x_i - x_j|) v_j in O(N) for increasing x in [0, 1]
    given ex = e^x: e^{-x_i} sum_{j <= i} e^{x_j} v_j
    + e^{x_i} sum_{j > i} e^{-x_j} v_j."""
    upper = np.zeros_like(v)
    upper[:-1] = np.cumsum((v / ex)[:0:-1])[::-1]
    return np.cumsum(ex * v) / ex + ex * upper


def _kernel_product(prob: HammersteinProblem, v: np.ndarray) -> np.ndarray:
    if prob.kernel is not None:
        return prob.kernel @ v
    return _exp_kernel(prob.exp_grid, prob.quad_weights * v)


def _kernel_adjoint_product(prob: HammersteinProblem, v: np.ndarray) -> np.ndarray:
    # W^{-1} K^T W v with K^T = Q E for the symmetric exp kernel E and
    # Q = diag(quad_weights): E (q v) = K v in trapezoid mode, q (E v) in
    # euclidean mode
    w = prob.weights
    return prob.quad_weights / w * _exp_kernel(prob.exp_grid, w * v)


def _matrix_free_map(
    prob: HammersteinProblem, diagonal: np.ndarray | float = 0.0
) -> LinearMap:
    # K + diag(diagonal) with no matrix; the diagonal is its own adjoint
    def product(kernel_product):
        return lambda w: HilbertVector._trusted(
            kernel_product(prob, w.values) + diagonal * w.values, w.weights
        )

    return LinearMap(
        product(_kernel_product),
        product(_kernel_adjoint_product),
        prob.weights,
        shifted_solver=lambda a: _kms_shifted_solver(prob, diagonal + a),
    )


# cyclic reduction stops at this many unknowns and solves the rest densely
_REDUCED_SIZE = 31


def _kms_shifted_solver(prob: HammersteinProblem, s: np.ndarray | float):
    """Factors of (K + diag(s)) x = b for s > 0; returns the solve b -> x.

    On the uniform grid K = E Q with E_ij = rho^|i-j|, rho = e^{-h}, and
    Q = diag(quad_weights).  E is a Kac-Murdock-Szego matrix, whose inverse
    is tridiagonal: (1 - rho^2) E^{-1} = T, with 1 + rho^2 on the diagonal
    (1 at both ends) and -rho beside it.  So with S = diag(s) and
    D = (1 - rho^2) Q S^{-1} the system is the tridiagonal
    (T + D) S x = T b.  T + D is a symmetric M-matrix whose row sums are
    (1 - rho)^2 + D_i ((1 - rho) + D_i at the ends), and
    `_cyclic_reduction` keeps every quantity of its elimination a sum of
    nonnegative terms.  T b is formed from the first differences of b,
    which are exact where neighbouring values of b lie within a factor 2
    of each other (Sterbenz), so their difference, the O(h^2) second
    difference inside T b, keeps its relative accuracy."""
    n = prob.n_nodes
    c = -np.expm1(-prob.grid[1])  # 1 - rho without cancellation
    rho = 1.0 - c
    row_sums = np.full(n, c * c)
    row_sums[[0, -1]] = c
    solve = _cyclic_reduction(
        rho, row_sums + (c * (1.0 + rho)) * prob.quad_weights / s
    )

    def solve_kms(b: np.ndarray) -> np.ndarray:
        g = np.zeros(n + 1)
        g[1:-1] = b[1:] - b[:-1]
        return solve(row_sums * b + rho * (g[:-1] - g[1:])) / s

    return solve_kms


def _cyclic_reduction(off: float, margin: np.ndarray):
    """Factor the tridiagonal M-matrix with off-diagonal entries -off (row i,
    columns i +- 1) and row sums margin > 0; returns the solve f -> x.

    The system is padded with identity rows to 2^k - 1 unknowns.  Each
    level eliminates the even (0-based) unknowns from the odd equations and
    halves the system, down to `_REDUCED_SIZE` unknowns, which are solved
    densely: O(N) work in O(log N) steps of a few NumPy operations.  Like
    the GTH algorithm (Grassmann, Taksar & Heyman 1985), the elimination
    carries the row sums, not the diagonal: eliminating unknown j from row
    i adds (-a_ij / a_jj) times row sum j to row sum i, and each diagonal is
    its row sum plus its off-diagonal magnitudes.  No step subtracts, so
    the factors keep their relative accuracy however weakly the matrix is
    diagonally dominant."""
    n = margin.size
    padded = 2 ** n.bit_length() - 1
    lo, up, m = np.zeros(padded), np.zeros(padded), np.ones(padded)
    lo[1:n] = up[: n - 1] = off
    m[:n] = margin
    levels = []
    while m.size > _REDUCED_SIZE:
        lo_e, up_e, m_e = lo[::2], up[::2], m[::2]
        diag_e = m_e + lo_e + up_e
        alpha = lo[1::2] / diag_e[:-1]
        gamma = up[1::2] / diag_e[1:]
        levels.append((alpha, gamma, lo_e, up_e, diag_e))
        lo, up = alpha * lo_e[:-1], gamma * up_e[1:]
        m = m[1::2] + alpha * m_e[:-1] + gamma * m_e[1:]
    reduced = np.diag(m + lo + up) - np.diag(lo[1:], -1) - np.diag(up[:-1], 1)

    def solve(f: np.ndarray) -> np.ndarray:
        # x carries a zero at each end, so both neighbours of every
        # eliminated unknown are slices of it
        x = np.zeros(padded + 2)
        x[1:n + 1] = f
        f = x[1:-1]
        rhs = []
        for alpha, gamma, *_ in levels:
            rhs.append(f)
            f = f[1::2] + alpha * f[:-1:2] + gamma * f[2::2]
        x = np.zeros(f.size + 2)
        x[1:-1] = np.linalg.solve(reduced, f)
        for f, (_, _, lo_e, up_e, diag_e) in zip(reversed(rhs), reversed(levels)):
            y = np.zeros(f.size + 2)
            y[2:-2:2] = x[1:-1]
            y[1::2] = (f[::2] + lo_e * x[:-1] + up_e * x[1:]) / diag_e
            x = y
        return x[1:n + 1]

    return solve


def hammerstein_apply(prob: HammersteinProblem, u: HilbertVector) -> HilbertVector:
    """(K u)_i + arctan(u_i)**3 with the integral by trapezoid rule."""
    u.check_grid(prob.exact_solution)  # the exact solution lives on the problem grid
    return HilbertVector._trusted(
        _kernel_product(prob, u.values) + np.arctan(u.values) ** 3, u.weights
    )


def nonlinearity_slope(u: np.ndarray) -> np.ndarray:
    """Pointwise derivative 3 arctan(u)**2 / (1 + u**2) of the cubed arctan."""
    return 3.0 * np.arctan(u) ** 2 / (1.0 + u * u)


def hammerstein_derivative(prob: HammersteinProblem, u: HilbertVector) -> LinearMap:
    """w -> D(u) w + K w; self-adjoint in trapezoid mode since the kernel
    is symmetric against the quadrature weights and D is diagonal.  A
    matrix-free map with its own shifted solver above `DENSE_KERNEL_LIMIT`."""
    u.check_grid(prob.exact_solution)
    slope = nonlinearity_slope(u.values)
    if prob.kernel is None:
        return _matrix_free_map(prob, slope)
    w = prob.weights

    def forward() -> np.ndarray:
        # the kernel entries are positive, so adding 0.0 off the diagonal
        # (as kernel + np.diag(slope) would) changes no bit; skip its N x N
        # temporary
        matrix = prob.kernel.copy()
        diagonal_view(matrix)[:] += slope
        return matrix

    def adjoint() -> np.ndarray:
        # W^{-1} (K + D)^T W differs from the cached W^{-1} K^T W only on the
        # diagonal, entry (d_i w_i) / w_i as the generic expression has it.
        # The copy keeps the F order, and with it the bits of every product.
        adj = prob.kernel_adjoint.copy(order="K")
        diagonal_view(adj)[:] = ((prob.kernel.diagonal() + slope) * w) / w
        return adj

    # both built on first use: the gradient direction applies only the
    # adjoint, a newton step only the forward matrix
    return LinearMap.from_matrix(forward, w, adjoint)


@functools.cache
def _pointwise_slope_bounds() -> tuple[float, float]:
    # global maxima of the nonlinearity's first and second derivatives,
    # located numerically once (the functions decay at infinity)
    u = np.linspace(-30.0, 30.0, 200_001)
    s = nonlinearity_slope(u)
    ds = np.gradient(s, u)
    return float(s.max()), float(np.abs(ds).max())


def hammerstein_operator(prob: HammersteinProblem) -> NonlinearOperator:
    """Bundle the benchmark as a NonlinearOperator with global bounds."""
    d_max, dd_max = _pointwise_slope_bounds()
    if prob.kernel is None:
        kernel_map = _matrix_free_map(prob)
    else:
        kernel_map = LinearMap.from_matrix(prob.kernel, prob.weights)
    m1 = 1.05 * operator_norm_estimate(kernel_map) + d_max
    bounds = OperatorBounds(m1=m1, m2=1.05 * dd_max)
    return NonlinearOperator(
        apply=lambda u: hammerstein_apply(prob, u),
        derivative=lambda u: hammerstein_derivative(prob, u),
        bounds=bounds,
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and the nonnegative 64-bit seed of the draw."""

    delta_rel: float
    seed: int

    def __post_init__(self):
        check_fields(self, ("delta_rel",), ("seed",))


def gen_noise(f: HilbertVector, spec: NoiseSpec) -> tuple[HilbertVector, float]:
    """Additive scaled standard-normal noise at an exact relative level.

    Draws raw deviates from PCG64(seed) (ziggurat normals; bit-stable per
    seed), scales them so that delta = delta_rel * ||f|| holds exactly by
    construction, and returns (f + kappa * raw, delta).  A zero draw is
    redrawn with an incremented seed (measure-zero event, reported).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    raw = rng.standard_normal(f.size)
    noise = f.with_values(raw)
    if noise.norm() == 0.0:
        warnings.warn("degenerate zero noise draw; redrawing with seed+1")
        return gen_noise(f, NoiseSpec(spec.delta_rel, spec.seed + 1))
    delta = spec.delta_rel * f.norm()
    kappa = delta / noise.norm()
    return f + kappa * noise, delta


def sweep(make_noise, levels, seeds, check, solve, key: str):
    """Yield one row (delta_rel, seed, delta, result, error) per noise level
    and seed, levels outermost.  make_noise(delta_rel, seed) draws a row's
    (f_delta, delta), the same at every call, and check(f_delta, delta), the
    check of its stop level or match tolerance, runs on every row before the
    first solve; a failed check raises InvalidConfig naming `key` and the
    level.  Then each row's noise is drawn again, so that no data outlive
    their solve, and the row holds solve(f_delta, delta), or the
    MonoregError that raised (result None); an InvalidConfig is raised."""
    grid = [(delta_rel, seed) for delta_rel in levels for seed in seeds]
    for delta_rel, seed in grid:
        try:
            check(*make_noise(delta_rel, seed))
        except InvalidConfig as exc:
            raise InvalidConfig(f"{exc} at delta_rel = {delta_rel:g}", key) from exc
    for delta_rel, seed in grid:
        f_delta, delta = make_noise(delta_rel, seed)
        try:
            result, error = solve(f_delta, delta), None
        except InvalidConfig:
            raise
        except MonoregError as exc:
            result, error = None, exc
        yield delta_rel, seed, delta, result, error


@dataclass(frozen=True)
class Table1Config:
    """Benchmark experiment configuration (defaults reproduce the
    reference table: N = 50, C0 = 4, C = 1.01, gamma = 0.99, zero start)."""

    delta_rel_list: tuple[float, ...] = (0.05, 0.03, 0.02, 0.01, 0.003, 0.001)
    n_nodes: int = 50
    C0: float = 4.0
    C: float = 1.01
    gamma: float = 0.99
    seeds: tuple[int, ...] = tuple(range(11))
    norm_mode: str = EUCLIDEAN
    n_max: int = 2000

    def __post_init__(self):
        check_fields(self, ("C0", "n_max", "delta_rel_list"), ("seeds",))
        check_at_least("n_nodes", self.n_nodes, 2)
        check_stop_constants(self, "C", "gamma")
        if not self.seeds:
            raise InvalidConfig("need at least one seed")


@dataclass(frozen=True)
class Table1Row:
    """Seed-median results for one relative noise level."""

    delta_rel: float
    n_iterations: float
    rel_error: float
    residual_at_stop: float
    a_at_stop: float
    seed_count: int
    status: str
    per_seed: tuple[dict, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def schedule_scale(C0: float, delta: float) -> float:
    """The a_0 of the benchmark heuristic a_n = C0 * delta**0.99 / (n + 1)."""
    return C0 * delta ** 0.99


def run_table1(cfg: Table1Config) -> list[Table1Row]:
    """Run the newton-type iteration over noise levels and seeds (`sweep`).

    Exact solution u = 1, data f = F(1), zero start, stopping at residual
    C * delta**gamma, schedule a_n = C0 * delta**0.99 / (n + 1).  Every
    level's stop level is checked before the first run.  Rows report seed
    medians (NaN when no seed succeeds); a failing seed is recorded in the
    row status and skipped rather than aborting the table.
    """
    prob = make_hammerstein(cfg.n_nodes, cfg.norm_mode)
    F = hammerstein_operator(prob)
    u_exact = prob.exact_solution
    f = F(u_exact)

    def solve(f_delta, delta):
        schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0,
                                 d0=schedule_scale(cfg.C0, delta))
        iter_cfg = IterConfig(schedule=schedule, C1=cfg.C, gamma_or_zeta=cfg.gamma,
                              n_max=cfg.n_max)
        return iter_newton(F, f_delta, delta, iter_cfg, HilbertVector.zeros(prob.weights))

    runs = sweep(lambda delta_rel, seed: gen_noise(f, NoiseSpec(delta_rel, seed)),
                 cfg.delta_rel_list, cfg.seeds,
                 lambda f_delta, delta: stop_level(cfg.C, delta, cfg.gamma), solve,
                 "bench.delta_rel_list")
    rows = []
    for delta_rel in cfg.delta_rel_list:
        per_seed, failures = [], []
        for _, seed, delta, report, error in itertools.islice(runs, len(cfg.seeds)):
            if error is not None:
                failures.append(f"seed {seed}: {error}")
                continue
            per_seed.append({
                "seed": seed,
                "delta": delta,
                "n_iterations": report.steps_taken,
                "rel_error": (report.u_final - u_exact).norm() / u_exact.norm(),
                "residual_at_stop": report.residual_at_stop,
                "a_at_stop": report.a_at_stop,
            })
        status = "ok"
        if failures:
            status = ("partial: " if per_seed else "failed: ") + "; ".join(failures)
        medians = {key: float(statistics.median(d[key] for d in per_seed))
                   if per_seed else np.nan for key in
                   ("n_iterations", "rel_error", "residual_at_stop", "a_at_stop")}
        rows.append(Table1Row(delta_rel=delta_rel, **medians, seed_count=len(per_seed),
                              status=status, per_seed=tuple(per_seed)))
    return rows
