"""Small synthetic monotone problems for tests and the CLI.

The rank-one projection is the classic example separating residual
matching with gamma = 1 from minimal-norm recovery: its matched shift has
the closed form a(delta) = c delta / (1 - c delta) with
c = sqrt(C**2 - 1), and the matched solutions converge to p + q / c,
which solves the equation but is not the minimal-norm solution p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HilbertVector, LinearMap, NonlinearOperator, OperatorBounds
from .errors import check_at_least


@dataclass(frozen=True)
class RankOneProblem:
    """F(u) = <u, p> p on R^dim with unit weights; p is the first basis
    vector and q (the noise direction) the second."""

    F: NonlinearOperator
    p: HilbertVector
    q: HilbertVector

    def noisy_data(self, delta: float) -> tuple[HilbertVector, float]:
        """Exact data p perturbed by delta along the null direction q."""
        return self.p + delta * self.q, delta

    @staticmethod
    def matched_shift(delta: float, C: float) -> float:
        """Closed-form shift matching the residual to C * delta at gamma=1."""
        c = np.sqrt(C * C - 1.0)
        return c * delta / (1.0 - c * delta)


def rank_one_problem(dim: int = 2) -> RankOneProblem:
    check_at_least("dim", dim, 2)
    weights = np.ones(dim)
    p_vals, q_vals = np.eye(dim)[:2]  # the first two basis vectors
    A = LinearMap.from_matrix(np.outer(p_vals, p_vals), weights)
    F = NonlinearOperator(A, lambda u: A, OperatorBounds(m1=1.0))
    return RankOneProblem(F=F, p=HilbertVector(p_vals, weights),
                          q=HilbertVector(q_vals, weights))


def diagonal_problem(dim: int = 8) -> tuple[NonlinearOperator, HilbertVector]:
    """Linear monotone F = diag(0, ..., 1): mildly ill-posed since the
    smallest diagonal entry is zero.  Returns (F, exact solution of ones)."""
    check_at_least("dim", dim, 1)
    weights = np.ones(dim)
    diag = np.linspace(0.0, 1.0, dim)
    A = LinearMap.from_matrix(np.diag(diag), weights)
    F = NonlinearOperator(A, lambda u: A, OperatorBounds(m1=1.0))
    return F, HilbertVector(np.ones(dim), weights)


def random_monotone_problem(
    dim: int = 8, seed: int = 0
) -> tuple[NonlinearOperator, HilbertVector]:
    """Seeded strongly monotone problem: Gram matrix plus increasing
    pointwise nonlinearity.  Returns (F, exact solution)."""
    check_at_least("dim", dim, 1)
    check_at_least("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = np.ones(dim)
    B = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    G = B.T @ B

    def apply_fn(u: HilbertVector) -> HilbertVector:
        return HilbertVector._trusted(
            G @ u.values + u.values + np.tanh(u.values), u.weights
        )

    def deriv_fn(u: HilbertVector) -> LinearMap:
        slope = 1.0 + 1.0 / np.cosh(u.values) ** 2
        return LinearMap.from_matrix(G + np.diag(slope), weights)

    m1 = float(np.linalg.norm(G, 2)) + 2.0
    m2 = 4.0 / (3.0 * math.sqrt(3.0))  # max |d/du sech^2 u|, at tanh u = 1/sqrt 3
    F = NonlinearOperator(apply_fn, deriv_fn, OperatorBounds(m1=m1, m2=m2))
    u_star = HilbertVector(rng.uniform(-1.0, 1.0, dim), weights)
    return F, u_star
