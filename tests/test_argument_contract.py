"""The argument contract: every config class declares its ranges once, a
bad argument raises InvalidConfig (a ValueError) before any solve, and no
module raises a bare ValueError."""
import ast
from math import nan
from pathlib import Path

import numpy as np
import pytest

from monoreg import (
    BallSampler,
    ContinuousInequality,
    DiscreteInequality,
    DPConfig,
    InvalidConfig,
    NoiseSpec,
    ValidationParams,
    accept_candidate,
    bound_continuous,
    check_monotonicity,
    diagonal_problem,
    fd_derivative_check,
    precondition_margins,
    quadratic_case_margins,
    random_monotone_problem,
    rank_one_problem,
    solve_regularized,
    trapezoid_weights,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "monoreg"

_const = lambda t: np.ones_like(np.asarray(t, dtype=float))
_ones = np.ones(4)
_F, _U = diagonal_problem(4)


# class -> (valid arguments, {numeric field: values out of its range});
# every field is also given a bool, which none takes
_VALID = {
    NoiseSpec: (dict(delta_rel=0.01, seed=0),
                {"delta_rel": [nan, 0.0, -0.01], "seed": [nan, 0.5, -1]}),
    ValidationParams: (
        dict(m1=2.0, c0=1.0, c1=5.0, y_norm=1.0, residual0=1.3, horizon=1e4),
        {"m1": [nan, -1.0], "c0": [nan, -1.0], "c1": [nan, 0.0],
         "y_norm": [nan, 0.0], "residual0": [nan, -1.0],
         "horizon": [nan, 0.0, np.inf], "lam": [nan, 0.0],
         # any real number: a negative g0 makes no condition fail
         "alpha_tilde": [], "g0": []},
    ),
    DPConfig: (dict(), {"C": [nan, 1.0], "gamma": [nan, 0.0, 1.5],
                        "dp_tol": [nan, 0.0, 1.0]}),
    ContinuousInequality: (
        dict(p=2.0, alpha=_const, beta=_const, gamma=_const, mu=_const,
             mu_dot=_const, g0=0.5, horizon=10.0),
        {"p": [nan, 1.0], "g0": [nan, -0.1], "horizon": [nan, 0.0],
         "tau0": [nan, 10.0]},
    ),
    DiscreteInequality: (
        dict(p=2.0, alpha=0 * _ones, beta=0 * _ones, gamma=_ones, mu=_ones,
             h=0.5 * _ones, g0=0.5),
        {"p": [nan, 1.0], "g0": [nan, -0.1]},
    ),
    # radius 0 drew only (center, center) pairs, so a monotonicity check
    # passed vacuously; seed -1 raised NumPy's bare ValueError at the draw
    BallSampler: (dict(center=_U, radius=1.0),
                  {"radius": [nan, 0.0, -1.0], "seed": [nan, 0.5, -1]}),
}
_INSTANCE = ContinuousInequality(**_VALID[ContinuousInequality][0])

_CASES = [
    (cls, field, value)
    for cls, (_, bad) in _VALID.items()
    for field, values in bad.items()
    for value in [True, *values]
]


@pytest.mark.parametrize(
    "cls, field, value", _CASES,
    ids=[f"{cls.__name__}-{field}-{value!r}" for cls, field, value in _CASES],
)
def test_bad_argument_raises_invalid_config(cls, field, value):
    valid, _ = _VALID[cls]
    cls(**valid)
    with pytest.raises(InvalidConfig, match=field) as exc:
        cls(**{**valid, field: value})
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "call, name",
    [
        # `x <= 0` is False for NaN: a rejecting report with a NaN bound
        (lambda: accept_candidate(_F, _F(_U), nan, _U, 0.1, DPConfig()), "delta"),
        (lambda: accept_candidate(_F, _F(_U), 0.01, _U, nan, DPConfig()), "alpha"),
        # a NaN tolerance ran to NonConvergence
        (lambda: solve_regularized(_F, _F(_U), 0.1, tol=nan), "tol"),
    ],
    ids=["accept_candidate-delta", "accept_candidate-alpha",
         "solve_regularized-tol"],
)
def test_nan_argument_raises_invalid_config(call, name):
    with pytest.raises(InvalidConfig, match=f"{name} must be positive"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        # True ran as a 1-dim problem, 1.5 as seed 1, 2.5 as 2 steps
        (lambda: diagonal_problem(True), "dim must be int, got True"),
        (lambda: random_monotone_problem(dim=True), "dim must be int, got True"),
        (lambda: random_monotone_problem(seed=1.5), "seed must be int, got 1.5"),
        (lambda: bound_continuous(_INSTANCE, n_steps=2.5),
         "n_steps must be int, got 2.5"),
        # 0 raised GridMismatch, -3 and seed -1 NumPy's bare ValueError
        (lambda: diagonal_problem(0), "dim must be >= 1, got 0"),
        (lambda: diagonal_problem(-3), "dim must be >= 1, got -3"),
        (lambda: random_monotone_problem(dim=0), "dim must be >= 1, got 0"),
        (lambda: random_monotone_problem(seed=-1), "seed must be >= 0, got -1"),
        # read "rank-one problem needs dim >= 2"
        (lambda: rank_one_problem(1), "dim must be >= 2, got 1"),
        # TypeError; 1 read "need at least 2 nodes", naming no argument
        (lambda: trapezoid_weights(2.5), "n_nodes must be int, got 2.5"),
        (lambda: check_monotonicity(_F, BallSampler(_U, 1.0), 2.5, 0.0),
         "n_pairs must be int, got 2.5"),
        # 0 and -3 returned 0.0, which reads as an exact derivative
        *[(lambda n=n: fd_derivative_check(_F, _U, n),
           f"n_directions must be >= 1, got {n}") for n in (0, -3)],
        (lambda: fd_derivative_check(_F, _U, 2.5), "n_directions must be int, got 2.5"),
        # 0 raised NumPy's "attempt to get argmin of an empty sequence", and
        # 1 sampled tau0 alone
        *[(lambda n=n, check=check: check(_INSTANCE, n), f"must be >= 2, got {n}")
          for check in (precondition_margins, quadratic_case_margins,
                        lambda inst, n: bound_continuous(inst, n_condition_samples=n))
          for n in (0, 1)],
    ],
    ids=["diagonal-dim", "random-dim", "random-seed", "n_steps", "diagonal-dim-0",
         "diagonal-dim-negative", "random-dim-0", "random-seed-negative",
         "rank-one-dim-1", "trapezoid-n-nodes", "monotonicity-n-pairs",
         "fd-n-directions-0", "fd-n-directions-negative", "fd-n-directions",
         "precondition-n-samples-0", "precondition-n-samples-1",
         "quadratic-n-samples-0", "quadratic-n-samples-1",
         "bound-continuous-n-samples-0", "bound-continuous-n-samples-1"],
)
def test_integer_argument_of_no_config_class_is_checked(call, message):
    with pytest.raises(InvalidConfig, match=message):
        call()


def _bare_value_errors(path: Path) -> list[int]:
    def is_value_error(node):
        if isinstance(node, ast.Call):
            node = node.func
        return isinstance(node, ast.Name) and node.id == "ValueError"

    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and is_value_error(node.exc)]


def test_no_module_raises_a_bare_value_error():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _bare_value_errors(path))}
    assert found == {}, "raise InvalidConfig instead"
