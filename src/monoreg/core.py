"""Weighted Hilbert-space vectors, operator contracts, and shifted solves.

The discrete Hilbert space is a grid of samples with positive quadrature
weights; the weighted inner product makes discrete monotonicity inherit
from the continuous property.  Everything downstream (regularized solves,
parameter choice, flows, iterations) is built on the three primitives
here: `HilbertVector`, `LinearMap`, and `NonlinearOperator`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (GridMismatch, InvalidConfig, NoDerivative, NonFinite,
                     SolveFailed, check_at_least, check_fields)

# Relative-error denominators are floored here to avoid division by zero.
EPS_FLOOR = 1e-14

# A shifted solve factorizes a map that holds a matrix densely up to this
# dimension and runs restarted GMRES beyond it.  GMRES on a dense matrix
# wins for well-conditioned systems from a few hundred unknowns, but with
# small shifts on a degenerate spectrum it is slower up to here (ROADMAP
# Baselines: at N = 2000 and a = 1e-3, 0.31-0.37 s for LU against
# 0.76-0.79 s for GMRES), so the limit stays where every dense map keeps
# the factorization.
DENSE_LIMIT = 2000

# Arnoldi steps per GMRES cycle: each step keeps one more basis vector of
# length N.  Only a map without a shifted solver takes GMRES (a matrix of
# more than DENSE_LIMIT rows, or a matrix-free map a caller builds); the
# Hammerstein Newton systems carry their own O(N) solver and take none.
GMRES_RESTART = 30


def weighted_norm(weights: np.ndarray, values: np.ndarray) -> float:
    """sqrt(sum_i w_i v_i^2), summed as (w * v) * v: the bits of
    `HilbertVector.norm`, for loops that keep their states as arrays."""
    return math.sqrt((weights * values * values).sum())


@dataclass(frozen=True)
class HilbertVector:
    """A grid function with positive quadrature weights.

    The inner product is ``<u, v> = sum_i w_i u_i v_i``; with trapezoid
    weights on [0, 1] this discretizes the L2 pairing, with unit weights
    it is the plain Euclidean one.  Instances are immutable.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or weights.ndim != 1:
            raise GridMismatch("values and weights must be 1-d arrays")
        if values.shape != weights.shape or values.size < 1:
            raise GridMismatch(
                f"values ({values.size}) and weights ({weights.size}) must "
                "have equal length >= 1"
            )
        if not (weights > 0).all():
            raise InvalidConfig("all weights must be positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.values.size

    @classmethod
    def _trusted(cls, values: np.ndarray, weights: np.ndarray) -> "HilbertVector":
        # For the library's own arithmetic, linear maps and array loops only:
        # `values` is a fresh float array that no one else writes, and
        # `weights` the validated weights of a vector on the same grid,
        # shared by identity.
        values.setflags(write=False)
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", values)
        object.__setattr__(vec, "weights", weights)
        return vec

    def same_grid(self, other: "HilbertVector") -> bool:
        if self.weights is other.weights:
            return True
        return self.weights.shape == other.weights.shape and np.array_equal(
            self.weights, other.weights
        )

    def check_grid(self, other: "HilbertVector") -> None:
        if not self.same_grid(other):
            raise GridMismatch("vectors live on different grids")

    # ndarray.sum runs the same add.reduce as np.sum without its dispatch, and
    # math.sqrt rounds correctly as np.sqrt does: the bits are np.sum's
    def inner(self, other: "HilbertVector") -> float:
        self.check_grid(other)
        return float((self.weights * self.values * other.values).sum())

    def norm(self) -> float:
        return weighted_norm(self.weights, self.values)

    def with_values(self, values: np.ndarray) -> "HilbertVector":
        return HilbertVector(values, self.weights)

    @staticmethod
    def zeros(weights: np.ndarray) -> "HilbertVector":
        weights = np.asarray(weights, dtype=float)
        return HilbertVector(np.zeros_like(weights), weights)

    def __add__(self, other: "HilbertVector") -> "HilbertVector":
        self.check_grid(other)
        return HilbertVector._trusted(self.values + other.values, self.weights)

    def __sub__(self, other: "HilbertVector") -> "HilbertVector":
        self.check_grid(other)
        return HilbertVector._trusted(self.values - other.values, self.weights)

    def __mul__(self, scalar: float) -> "HilbertVector":
        return HilbertVector._trusted(self.values * float(scalar), self.weights)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "HilbertVector":
        return HilbertVector._trusted(self.values / float(scalar), self.weights)

    def __neg__(self) -> "HilbertVector":
        return HilbertVector._trusted(-self.values, self.weights)


class LinearMap:
    """A linear operator on a fixed grid with weighted-adjoint access.

    The adjoint is taken with respect to the weighted inner product: for a
    dense matrix M acting on values, ``M* = W^{-1} M^T W`` with
    ``W = diag(weights)``.  `matrix` is M itself or a zero-argument
    function that builds M, called once, at the first use of the matrix;
    either way M is checked against the grid (GridMismatch).
    `shifted_solver` factorizes the shifted map: it takes a shift a > 0
    and returns a function from right-hand-side values b to the values of
    x with (M + aI) x = b, up to rounding.  A map that holds a matrix of
    at most DENSE_LIMIT rows and brings no solver gets dense LU
    (`_lu_solver`); `solve_shifted` runs GMRES on a map left without one.
    """

    def __init__(
        self,
        apply_fn: Callable[[HilbertVector], HilbertVector],
        adjoint_fn: Callable[[HilbertVector], HilbertVector],
        weights: np.ndarray,
        matrix: np.ndarray | Callable[[], np.ndarray] | None = None,
        shifted_solver: Callable[[float], Callable[[np.ndarray], np.ndarray]]
        | None = None,
    ):
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.weights = np.asarray(weights, dtype=float)
        # None, or a function returning the checked matrix, built at most once
        build = None if matrix is None else _checked_matrix(matrix, self.weights)
        self._matrix = build
        if (shifted_solver is None and build is not None
                and self.dimension <= DENSE_LIMIT):
            shifted_solver = lambda a: _lu_solver(build(), a)
        self.shifted_solver = shifted_solver

    @property
    def dimension(self) -> int:
        return self.weights.size

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray | Callable[[], np.ndarray],
        weights: np.ndarray,
        adjoint: Callable[[], np.ndarray] | None = None,
    ) -> "LinearMap":
        """The map v -> M @ v.  `matrix` is M, or a zero-argument function
        that builds it on the first product, solve or `to_dense`; `adjoint`,
        when given, returns the matrix of the weighted adjoint
        W^{-1} M^T W, built on the first adjoint product.  A caller that
        knows most of it already (bench.hammerstein_derivative) builds it
        cheaper than the generic expression, and passes both builders: the
        gradient direction applies only the adjoint."""
        def apply_fn(v: HilbertVector) -> HilbertVector:
            return HilbertVector._trusted(forward() @ v.values, v.weights)

        adj = None

        def adjoint_fn(v: HilbertVector) -> HilbertVector:
            # built on first use: the newton paths never take an adjoint
            nonlocal adj
            if adj is None:
                if adjoint is not None:
                    adj = adjoint()
                else:
                    adj = forward().T * weights[None, :]
                    adj /= weights[:, None]
            return HilbertVector._trusted(adj @ v.values, v.weights)

        # __init__ checks the matrix once; the products take its checked
        # builder and weights, bound here before any product can run
        A = cls(apply_fn, adjoint_fn, weights, matrix=matrix)
        forward, weights = A._matrix, A.weights
        return A

    def __call__(self, v: HilbertVector) -> HilbertVector:
        return self._apply(v)

    def adjoint_apply(self, v: HilbertVector) -> HilbertVector:
        return self._adjoint(v)

    def to_dense(self) -> np.ndarray:
        """The matrix the map holds, or a new one built by N products."""
        if self._matrix is not None:
            return self._matrix()
        n = self.dimension
        cols = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cols[:, j] = self._apply(HilbertVector._trusted(e, self.weights)).values
        return cols


def _square(matrix, weights: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (weights.size, weights.size):
        raise GridMismatch("matrix shape does not match the grid")
    return matrix


def _checked_matrix(matrix, weights: np.ndarray) -> Callable[[], np.ndarray]:
    """A zero-argument function returning `matrix`, an array or a builder
    of one, shape-checked against the grid: an array at once, a builder's
    matrix when the function is first called, which builds it once."""
    M = None if callable(matrix) else _square(matrix, weights)

    def forward() -> np.ndarray:
        nonlocal M
        if M is None:
            M = _square(matrix(), weights)
        return M

    return forward


def diagonal_view(matrix: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C- or F-contiguous square matrix."""
    return matrix.reshape(-1, order="A")[:: matrix.shape[0] + 1]


def identity_map(weights: np.ndarray) -> LinearMap:
    return LinearMap(lambda v: v, lambda v: v, weights, matrix=np.eye(len(weights)))


def zero_map(weights: np.ndarray) -> LinearMap:
    z = lambda v: HilbertVector._trusted(np.zeros_like(v.values), v.weights)
    return LinearMap(z, z, weights, matrix=np.zeros((len(weights), len(weights))))


@dataclass(frozen=True)
class OperatorBounds:
    """Declared smoothness bounds: m1 bounds the first derivative norm, m2
    the second."""

    m1: float
    m2: float = 0.0

    def __post_init__(self):
        check_fields(self, nonnegative=("m1", "m2"))


class _Bounds:
    """The `bounds` field of NonlinearOperator.  It holds what was given;
    a zero-argument function runs at the first read of the field, and its
    OperatorBounds replace it, so every read gets the same object."""

    def __get__(self, op, owner=None):
        if op is None:
            return None  # the field's default
        bounds = op.__dict__["bounds"]
        if callable(bounds):
            bounds = op.__dict__["bounds"] = bounds()
        return bounds

    def __set__(self, op, bounds):
        op.__dict__["bounds"] = bounds


@dataclass(frozen=True)
class NonlinearOperator:
    """An evaluable map u -> F(u) with optional derivative access.

    `derivative`, when present, maps a point to the `LinearMap` of the
    Frechet derivative there.  `bounds` carries declared norm bounds used
    by derivative-free fallbacks and schedule validation: an
    `OperatorBounds`, or a zero-argument function returning one, which
    runs at the first read of `bounds` (so a run that never reads them
    never computes them), or None for an operator that declares none.
    """

    apply: Callable[[HilbertVector], HilbertVector]
    derivative: Callable[[HilbertVector], LinearMap] | None = None
    bounds: OperatorBounds | Callable[[], OperatorBounds] | None = _Bounds()

    def __call__(self, u: HilbertVector) -> HilbertVector:
        return self.apply(u)

    @property
    def has_derivative(self) -> bool:
        return self.derivative is not None

    def deriv(self, u: HilbertVector) -> LinearMap:
        if self.derivative is None:
            raise NoDerivative("operator declares no derivative")
        return self.derivative(u)


@dataclass(frozen=True)
class BallSampler:
    """Seeded uniform sampler in a weighted-norm ball around a center."""

    center: HilbertVector
    radius: float
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("radius",), ("seed",))

    def points(self, n: int) -> Iterator[HilbertVector]:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        dim = self.center.size
        for _ in range(n):
            direction = self.center.with_values(rng.standard_normal(dim))
            nrm = direction.norm()
            r = self.radius * rng.uniform() ** (1.0 / dim)
            yield self.center + direction * (r / nrm)

    def pairs(self, n: int) -> Iterator[tuple[HilbertVector, HilbertVector]]:
        pts = self.points(2 * n)
        for _ in range(n):
            yield next(pts), next(pts)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a sampled monotonicity check."""

    min_inner: float
    n_pairs: int
    passed: bool
    worst_index: int


def check_monotonicity(
    F: NonlinearOperator, sampler: BallSampler, n_pairs: int, tol: float
) -> MonotonicityReport:
    """Sample <F(u)-F(v), u-v> over seeded pairs and compare with -tol.

    The report carries the worst value rather than raising: a failure is a
    finding about the operator, not an error in the check.  A NaN value is
    the worst and ends the sampling, so the report fails.
    """
    check_at_least("n_pairs", n_pairs, 1)
    worst = np.inf
    worst_index = -1
    for i, (u, v) in enumerate(sampler.pairs(n_pairs)):
        val = (F(u) - F(v)).inner(u - v)
        if not val >= worst:
            worst, worst_index = val, i
            if math.isnan(val):
                break
    return MonotonicityReport(
        min_inner=worst,
        n_pairs=n_pairs,
        passed=worst >= -tol,
        worst_index=worst_index,
    )


def solve_shifted(
    A: LinearMap, a: float, rhs: HilbertVector, tol: float = 1e-10
) -> HilbertVector:
    """Solve (A + a I) x = rhs for a > 0, to ||(A + aI) x - rhs|| <= tol ||rhs||.

    For the derivative of a monotone operator the shifted map is
    invertible with inverse norm at most 1/a, so the solve is well posed
    for any positive shift.  A map with a `shifted_solver` (its own, as
    the matrix-free Hammerstein derivative has, or dense LU on the matrix
    it holds) is solved by it, plus one refinement pass with the same
    factors when the residual misses the tolerance.  A map without one
    takes restarted GMRES in the weighted inner product, where the field
    of values of A + aI lies in Re z >= a, with one product with A per
    step and no adjoint.  Both paths check the residual with products
    with A and raise `SolveFailed` when it misses the tolerance; a
    non-finite shift or right-hand side raises `NonFinite` at once, and a
    tolerance that is not > 0 `InvalidConfig`.
    """
    if a <= 0:
        raise InvalidConfig("shift a must be positive")
    if not tol > 0:
        raise InvalidConfig(f"tol must be positive, got {tol}")
    rhs_norm = rhs.norm()
    if not (math.isfinite(a) and math.isfinite(rhs_norm)):
        raise NonFinite(
            f"non-finite shifted solve input: a = {a:g}, ||rhs|| = {rhs_norm:g}"
        )
    if rhs_norm == 0.0:
        return rhs.with_values(np.zeros_like(rhs.values))
    target = tol * rhs_norm
    if A.shifted_solver is None:
        return _gmres(A, a, rhs, target)
    b = rhs.values
    try:
        solve = A.shifted_solver(a)
        sol = rhs.with_values(solve(b))
        r, residual = _shifted_residual(A, a, sol, b)
        if not residual <= target:
            # one refinement pass with the same factors
            sol = HilbertVector._trusted(sol.values - solve(r), rhs.weights)
            _, residual = _shifted_residual(A, a, sol, b)
    except np.linalg.LinAlgError as exc:
        raise SolveFailed(
            f"shifted matrix is singular at a = {a:g}; the operator "
            "violates the nonnegativity contract"
        ) from exc
    if not residual <= target:
        raise SolveFailed(
            f"shifted solve residual {residual:g} exceeds {tol:g} * ||rhs|| "
            "after one refinement pass"
        )
    return sol


def _lu_solver(matrix: np.ndarray, a: float) -> Callable[[np.ndarray], np.ndarray]:
    # the bits of matrix + a * np.eye(n) without its two N x N temporaries:
    # x + 0.0 turns -0.0 into 0.0 as x + a * 0.0 does, and a * 1.0 is a
    M = matrix + 0.0
    diagonal_view(M)[:] += a

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.linalg.solve(M, b)
        x += np.linalg.solve(M, b - M @ x)
        return x

    return solve


def _shifted_residual(
    A: LinearMap, a: float, sol: HilbertVector, b: np.ndarray
) -> tuple[np.ndarray, float]:
    # A x + a x - b and its weighted norm, in the operation order of the
    # vector expression ||A x + a x - rhs||
    r = A(sol).values + sol.values * float(a) - b
    return r, math.sqrt((sol.weights * r * r).sum())


def _gmres(
    A: LinearMap, a: float, rhs: HilbertVector, target: float
) -> HilbertVector:
    # Restarted GMRES on (A + aI) x = rhs with Givens rotations in the
    # weighted inner product.  The Krylov basis is the rows of one array,
    # orthogonalized by classical Gram-Schmidt applied twice, each pass two
    # matrix-vector products with the basis (Giraud, Langou & Rozloznik,
    # 2005).  Each cycle ends with the true residual, which is also the
    # final check; the budget is 20 N products with A, and a cycle that
    # does not lower the residual ends the solve, since for a monotone A
    # every Arnoldi step lowers it.
    w = rhs.weights

    def shifted(v: np.ndarray) -> np.ndarray:
        return A(HilbertVector._trusted(v, w)).values + a * v

    # a cycle's last Arnoldi vector is never stored: its norm is all the
    # rotations need
    V = np.empty((GMRES_RESTART, rhs.size))
    x = np.zeros_like(rhs.values)
    r = rhs.values
    res = rhs.norm()
    products, budget = 0, 20 * A.dimension
    while res > target and products < budget - 1:
        steps = min(GMRES_RESTART, budget - products - 1)
        V[0] = r / res
        R = np.zeros((steps, steps))  # Hessenberg, triangular after rotations
        # the rotations and the projected residual g are Python floats:
        # IEEE double arithmetic with the bits of numpy scalars, without
        # their per-operation overhead
        cs, sn = [], []
        g = [float(res)]
        k = 0  # Arnoldi steps done in this cycle
        while True:
            u = shifted(V[k].copy())  # A may keep its argument
            products += 1
            basis = V[: k + 1]
            h1 = basis @ (w * u)
            u -= h1 @ basis
            h2 = basis @ (w * u)
            u -= h2 @ basis
            col = (0.0 + h1 + h2).tolist()  # the new column of the Hessenberg
            u_norm = float(np.sqrt(np.dot(w * u, u)))
            for i in range(k):
                col[i], col[i + 1] = (
                    cs[i] * col[i] + sn[i] * col[i + 1],
                    cs[i] * col[i + 1] - sn[i] * col[i],
                )
            # np.hypot, not math.hypot, which rounds differently
            rho = float(np.hypot(col[k], u_norm))
            if not rho > 0.0:
                break
            cs.append(col[k] / rho)
            sn.append(u_norm / rho)
            col[k] = rho
            R[: k + 1, k] = col
            g.append(-sn[k] * g[k])
            g[k] *= cs[k]
            k += 1
            if k == steps or abs(g[k]) <= target:
                break
            V[k] = u / u_norm
        if k == 0:
            break
        y = np.linalg.solve(R[:k, :k], g[:k])
        x = x + y @ V[:k]
        r = rhs.values - shifted(x)
        products += 1
        previous, res = res, np.sqrt(np.dot(w * r, r))
        if not res < previous:
            break
    if not res <= target:
        raise SolveFailed(
            f"GMRES shifted solve residual {res:g} exceeds {target:g} after "
            f"{products} products with A; the operator may violate the "
            "nonnegativity contract"
        )
    return HilbertVector._trusted(x, w)


def fd_derivative_check(
    F: NonlinearOperator,
    u: HilbertVector,
    n_directions: int = 10,
    h: float = 1e-6,
) -> float:
    """Max relative error of F'(u) against central differences.

    For each of n_directions unit directions w, drawn from PCG64(0) so the
    check is a fixed function of its arguments, compares F'(u) w with
    (F(u + h w) - F(u - h w)) / (2 h); the central stencil has O(h^2)
    truncation error.
    """
    check_at_least("n_directions", n_directions, 1)
    if not h > 0:
        raise InvalidConfig("h must be positive")
    A = F.deriv(u)
    rng = np.random.Generator(np.random.PCG64(0))
    worst = 0.0
    for _ in range(n_directions):
        w = u.with_values(rng.standard_normal(u.size))
        w = w / max(w.norm(), EPS_FLOOR)
        exact = A(w)
        approx = (F(u + h * w) - F(u - h * w)) / (2.0 * h)
        err = (exact - approx).norm() / max(exact.norm(), EPS_FLOOR)
        worst = np.maximum(worst, err)  # a NaN error stays NaN
    return float(worst)
