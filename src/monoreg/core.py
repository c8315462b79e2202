"""Weighted Hilbert-space vectors, operator contracts, and shifted solves.

The discrete Hilbert space is a grid of samples with positive quadrature
weights; the weighted inner product makes discrete monotonicity inherit
from the continuous property.  Everything downstream (regularized solves,
parameter choice, flows, iterations) is built on the three primitives
here: `HilbertVector`, `LinearMap`, and `NonlinearOperator`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import GridMismatch, NoDerivative, SolveFailed

# Relative-error denominators are floored here to avoid division by zero.
EPS_FLOOR = 1e-14

# Shifted solves use a direct dense factorization up to this dimension and
# conjugate gradients on the normal equations beyond it.
DENSE_LIMIT = 2000


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
        if not np.all(weights > 0):
            raise ValueError("all weights must be positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.values.size

    def same_grid(self, other: "HilbertVector") -> bool:
        return self.weights.shape == other.weights.shape and np.array_equal(
            self.weights, other.weights
        )

    def _check_grid(self, other: "HilbertVector") -> None:
        if not self.same_grid(other):
            raise GridMismatch("vectors live on different grids")

    def inner(self, other: "HilbertVector") -> float:
        self._check_grid(other)
        return float(np.sum(self.weights * self.values * other.values))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * self.values * self.values)))

    def with_values(self, values: np.ndarray) -> "HilbertVector":
        return HilbertVector(values, self.weights)

    @staticmethod
    def zeros(weights: np.ndarray) -> "HilbertVector":
        weights = np.asarray(weights, dtype=float)
        return HilbertVector(np.zeros_like(weights), weights)

    def __add__(self, other: "HilbertVector") -> "HilbertVector":
        self._check_grid(other)
        return HilbertVector(self.values + other.values, self.weights)

    def __sub__(self, other: "HilbertVector") -> "HilbertVector":
        self._check_grid(other)
        return HilbertVector(self.values - other.values, self.weights)

    def __mul__(self, scalar: float) -> "HilbertVector":
        return HilbertVector(self.values * float(scalar), self.weights)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "HilbertVector":
        return HilbertVector(self.values / float(scalar), self.weights)

    def __neg__(self) -> "HilbertVector":
        return HilbertVector(-self.values, self.weights)


class LinearMap:
    """A linear operator on a fixed grid with weighted-adjoint access.

    The adjoint is taken with respect to the weighted inner product: for a
    dense matrix M acting on values, ``M* = W^{-1} M^T W`` with
    ``W = diag(weights)``.
    """

    def __init__(
        self,
        apply_fn: Callable[[HilbertVector], HilbertVector],
        adjoint_fn: Callable[[HilbertVector], HilbertVector],
        weights: np.ndarray,
        matrix: np.ndarray | None = None,
    ):
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.weights = np.asarray(weights, dtype=float)
        self._matrix = matrix

    @property
    def dimension(self) -> int:
        return self.weights.size

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, weights: np.ndarray) -> "LinearMap":
        matrix = np.asarray(matrix, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if matrix.shape != (weights.size, weights.size):
            raise GridMismatch("matrix shape does not match the grid")
        adj = (matrix.T * weights[None, :]) / weights[:, None]

        def apply_fn(v: HilbertVector) -> HilbertVector:
            return v.with_values(matrix @ v.values)

        def adjoint_fn(v: HilbertVector) -> HilbertVector:
            return v.with_values(adj @ v.values)

        return cls(apply_fn, adjoint_fn, weights, matrix=matrix)

    def __call__(self, v: HilbertVector) -> HilbertVector:
        return self._apply(v)

    def adjoint_apply(self, v: HilbertVector) -> HilbertVector:
        return self._adjoint(v)

    def to_dense(self) -> np.ndarray:
        """Materialize the matrix, by basis application if necessary."""
        if self._matrix is None:
            n = self.dimension
            cols = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                cols[:, j] = self._apply(HilbertVector(e, self.weights)).values
            self._matrix = cols
        return self._matrix


def identity_map(weights: np.ndarray) -> LinearMap:
    weights = np.asarray(weights, dtype=float)
    return LinearMap(lambda v: v, lambda v: v, weights, matrix=np.eye(weights.size))


def zero_map(weights: np.ndarray) -> LinearMap:
    weights = np.asarray(weights, dtype=float)
    z = lambda v: v.with_values(np.zeros_like(v.values))
    return LinearMap(z, z, weights, matrix=np.zeros((weights.size, weights.size)))


@dataclass(frozen=True)
class OperatorBounds:
    """Declared smoothness bounds on a working ball.

    m1 bounds the first derivative norm, m2 the second; both over the ball
    of the given radius around the center (or everywhere when the radius
    is infinite).
    """

    m1: float
    m2: float = 0.0
    radius: float = np.inf
    center: HilbertVector | None = None

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0 or self.radius < 0:
            raise ValueError("bounds must be nonnegative")


@dataclass(frozen=True)
class NonlinearOperator:
    """An evaluable map u -> F(u) with optional derivative access.

    `derivative`, when present, maps a point to the `LinearMap` of the
    Frechet derivative there.  `bounds` carries declared norm bounds used
    by derivative-free fallbacks and schedule validation.
    """

    apply: Callable[[HilbertVector], HilbertVector]
    derivative: Callable[[HilbertVector], LinearMap] | None = None
    bounds: OperatorBounds | None = None

    def __call__(self, u: HilbertVector) -> HilbertVector:
        return self.apply(u)

    @property
    def has_derivative(self) -> bool:
        return self.derivative is not None

    def deriv(self, u: HilbertVector) -> LinearMap:
        if self.derivative is None:
            raise NoDerivative("operator declares no derivative")
        return self.derivative(u)

    def shifted(self, u_bar: HilbertVector) -> "NonlinearOperator":
        """The composed operator w -> F(w + u_bar); monotone iff F is."""

        def apply_fn(w: HilbertVector) -> HilbertVector:
            return self.apply(w + u_bar)

        deriv_fn = None
        if self.derivative is not None:
            deriv_fn = lambda w: self.derivative(w + u_bar)
        return NonlinearOperator(apply_fn, deriv_fn, self.bounds)


def identity_operator(weights: np.ndarray) -> NonlinearOperator:
    weights = np.asarray(weights, dtype=float)
    eye = identity_map(weights)
    return NonlinearOperator(lambda u: u, lambda u: eye, OperatorBounds(m1=1.0))


def linear_operator(A: LinearMap, m1: float | None = None) -> NonlinearOperator:
    bounds = None if m1 is None else OperatorBounds(m1=m1)
    return NonlinearOperator(A, lambda u: A, bounds)


@dataclass(frozen=True)
class BallSampler:
    """Seeded uniform sampler in a weighted-norm ball around a center."""

    center: HilbertVector
    radius: float
    seed: int = 0

    def points(self, n: int) -> Iterator[HilbertVector]:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        dim = self.center.size
        for _ in range(n):
            direction = self.center.with_values(rng.standard_normal(dim))
            nrm = direction.norm()
            if nrm == 0.0:
                direction = self.center.with_values(np.ones(dim))
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
    tol: float
    passed: bool
    worst_index: int

    def to_dict(self) -> dict:
        return {
            "min_inner": self.min_inner,
            "n_pairs": self.n_pairs,
            "tol": self.tol,
            "passed": self.passed,
            "worst_index": self.worst_index,
        }


def check_monotonicity(
    F: NonlinearOperator, sampler: BallSampler, n_pairs: int, tol: float
) -> MonotonicityReport:
    """Sample <F(u)-F(v), u-v> over seeded pairs and compare with -tol.

    The report carries the worst value rather than raising: a failure is a
    finding about the operator, not an error in the check.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    worst = np.inf
    worst_index = -1
    for i, (u, v) in enumerate(sampler.pairs(n_pairs)):
        val = (F(u) - F(v)).inner(u - v)
        if val < worst:
            worst = val
            worst_index = i
    return MonotonicityReport(
        min_inner=worst,
        n_pairs=n_pairs,
        tol=tol,
        passed=worst >= -tol,
        worst_index=worst_index,
    )


def solve_shifted(
    A: LinearMap, a: float, rhs: HilbertVector, tol: float = 1e-10
) -> HilbertVector:
    """Solve (A + a I) x = rhs for a > 0.

    For the derivative of a monotone operator the shifted map is
    invertible with inverse norm at most 1/a, so the solve is well posed
    for any positive shift.  Dense factorization (plus one iterative
    refinement pass) up to DENSE_LIMIT, conjugate gradients on the normal
    equations beyond.
    """
    if a <= 0:
        raise ValueError("shift a must be positive")
    rhs_norm = rhs.norm()
    if rhs_norm == 0.0:
        return rhs.with_values(np.zeros_like(rhs.values))
    if A.dimension <= DENSE_LIMIT:
        M = A.to_dense() + a * np.eye(A.dimension)
        try:
            x = np.linalg.solve(M, rhs.values)
            x += np.linalg.solve(M, rhs.values - M @ x)
        except np.linalg.LinAlgError as exc:
            raise SolveFailed(
                f"shifted matrix is singular at a = {a:g}; the operator "
                "violates the nonnegativity contract"
            ) from exc
        sol = rhs.with_values(x)
        residual = (A(sol) + a * sol - rhs).norm()
        if residual > tol * rhs_norm:
            raise SolveFailed(
                f"dense shifted solve residual {residual:g} exceeds "
                f"{tol:g} * ||rhs||"
            )
        return sol
    return _cg_normal_equations(A, a, rhs, tol)


def _cg_normal_equations(
    A: LinearMap, a: float, rhs: HilbertVector, tol: float
) -> HilbertVector:
    # CG on (A+aI)*(A+aI) x = (A+aI)* rhs in the weighted inner product.
    shifted = lambda v: A(v) + a * v
    shifted_adj = lambda v: A.adjoint_apply(v) + a * v
    rhs_norm = rhs.norm()
    b = shifted_adj(rhs)
    x = rhs.with_values(np.zeros_like(rhs.values))
    r = b
    p = r
    rs = r.inner(r)
    max_iter = 20 * A.dimension
    for k in range(max_iter):
        if k % 10 == 0:
            if (shifted(x) - rhs).norm() <= tol * rhs_norm:
                return x
        Ap = shifted_adj(shifted(p))
        denom = p.inner(Ap)
        if denom <= 0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = r.inner(r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    if (shifted(x) - rhs).norm() <= tol * rhs_norm:
        return x
    raise SolveFailed("conjugate-gradient shifted solve did not converge")


def fd_derivative_check(
    F: NonlinearOperator,
    u: HilbertVector,
    n_directions: int = 10,
    h: float = 1e-6,
    seed: int = 0,
) -> float:
    """Max relative error of F'(u) against central differences.

    For each seeded unit direction w compares F'(u) w with
    (F(u + h w) - F(u - h w)) / (2 h); the central stencil has O(h^2)
    truncation error.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    A = F.deriv(u)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(n_directions):
        w = u.with_values(rng.standard_normal(u.size))
        w = w / max(w.norm(), EPS_FLOOR)
        exact = A(w)
        approx = (F(u + h * w) - F(u - h * w)) / (2.0 * h)
        err = (exact - approx).norm() / max(exact.norm(), EPS_FLOOR)
        worst = max(worst, err)
    return worst
