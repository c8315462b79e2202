import numpy as np
import pytest

from monoreg import hammerstein_operator, make_hammerstein
from monoreg.bench import EUCLIDEAN, TRAPEZOID


@pytest.fixture(scope="session")
def ham50():
    """Weighted (trapezoid) benchmark problem at N = 50."""
    prob = make_hammerstein(50, TRAPEZOID)
    return prob, hammerstein_operator(prob)


@pytest.fixture(scope="session")
def ham50_euclidean():
    prob = make_hammerstein(50, EUCLIDEAN)
    return prob, hammerstein_operator(prob)


@pytest.fixture(scope="session")
def ham_data(ham50):
    """Exact data f = F(1) for the weighted benchmark."""
    prob, F = ham50
    return F(prob.exact_solution)


@pytest.fixture
def unit_pair():
    """A 2-point unit-measure grid: constant functions keep their value as
    norm."""
    w = np.array([0.5, 0.5])
    return w
