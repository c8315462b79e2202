"""Plain helpers shared by the test modules (fixtures live in conftest.py,
which is not importable by name once several test roots are collected)."""
import numpy as np

from monoreg import HilbertVector


def const_vector(value: float, weights) -> HilbertVector:
    weights = np.asarray(weights, dtype=float)
    return HilbertVector(np.full(weights.size, float(value)), weights)
