"""Plain helpers shared by the test modules (fixtures live in conftest.py,
which is not importable by name once several test roots are collected)."""
import numpy as np

from monoreg import HilbertVector, NonlinearOperator, OperatorBounds, identity_map


def const_vector(value: float, weights) -> HilbertVector:
    weights = np.asarray(weights, dtype=float)
    return HilbertVector(np.full(weights.size, float(value)), weights)


def identity_operator(weights) -> NonlinearOperator:
    """F(u) = u, with its derivative and the bound m1 = 1."""
    eye = identity_map(weights)
    return NonlinearOperator(lambda u: u, lambda u: eye, OperatorBounds(m1=1.0))
