"""Step directions, stopping rule and reports shared by the continuation
flows and the iterations.

All six solvers move along a direction built from the shifted defect
G = F(u) + a u - f_delta:

    newton    d = (F'(u) + a I)^{-1} G
    gradient  d = (F'(u) + a I)*  G
    simple    d = G                       (derivative-free)

A flow integrates du/dt = -d by Euler steps u - h d; the iteration of the
same name is the Euler step u - alpha_n d (alpha_n = 1 for newton).  All
of them stop at the first recorded state whose data residual
||F(u) - f_delta|| is at or below C1 * delta**e (ties accepted).  A run
that does not stop there raises (HorizonExceeded, StepFloor) with its
partial report, whose status (EXHAUSTED_HORIZON, STEP_FLOOR) names why.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HilbertVector, solve_shifted, weighted_norm
from .errors import InvalidConfig, NonFinite

STOPPED_BY_DISCREPANCY = "stopped_by_discrepancy"
EXHAUSTED_HORIZON = "exhausted_horizon"
STEP_FLOOR = "step_floor"


def _gradient(F, u, a, G, tol):
    # (F'(u)* G) + a G in the order of the vector expression, one wrapper
    adj = F.deriv(u).adjoint_apply(G)
    adj.check_grid(G)
    return HilbertVector._trusted(adj.values + G.values * float(a), G.weights)


# method -> direction(F, u, a, G, inner_tol); solve_shifted is looked up
# as a global at call time, so rebinding it here reaches every newton step
DIRECTIONS = {
    "newton": lambda F, u, a, G, tol: solve_shifted(F.deriv(u), a, G, tol=tol),
    "gradient": _gradient,
    "simple": lambda F, u, a, G, tol: G,
}


def data_residual(F, u: HilbertVector, fd: np.ndarray) -> tuple[np.ndarray, float]:
    """The values of F(u), checked to live on u's grid, and the data
    residual ||F(u) - f_delta|| for the values fd of f_delta."""
    F_u = F(u)
    u.check_grid(F_u)
    r = F_u.values - fd
    return F_u.values, weighted_norm(u.weights, r)


def require_kind(schedule, kind: str, solver: str) -> None:
    if schedule.kind != kind:
        raise InvalidConfig(
            f"schedule kind {schedule.kind!r} does not match this {solver} "
            f"(expected {kind!r})"
        )


def check_stop_constants(cfg, C_name: str, exponent_name: str) -> None:
    """Raise InvalidConfig unless the stop constant named C_name of the
    config exceeds 1 and the exponent named exponent_name lies in (0, 1];
    NaN does neither."""
    C, exponent = getattr(cfg, C_name), getattr(cfg, exponent_name)
    if not C > 1:
        raise InvalidConfig(f"{C_name} must exceed 1, got {C}")
    if not 0 < exponent <= 1:
        raise InvalidConfig(f"{exponent_name} must lie in (0, 1], got {exponent}")


def stop_level(C: float, delta: float, exponent: float) -> float:
    """The residual level C * delta**exponent of the a-posteriori rules.
    Raises InvalidConfig unless 0 < delta < level, as the rules need: a
    finite delta (checked before the power is taken), NaN failing."""
    if not 0 < delta < math.inf:
        raise InvalidConfig(f"delta must be positive and finite, got {delta}")
    level = C * delta ** exponent
    if not level > delta:
        raise InvalidConfig(
            f"stop level C * delta**e = {level:g} must exceed delta = {delta:g}"
        )
    return level


def a_end(C1: float, delta: float, y_norm: float) -> float:
    """Shift at which delta / a reaches y_norm / (C - 1), C = (C1 + 1) / 2;
    the residual rule has stopped by then."""
    C = (C1 + 1.0) / 2.0
    return delta * (C - 1.0) / y_norm


# the scalar entries of SolveReport.to_dict, in order: a run's CSV columns
REPORT_SCALARS = ("status", "t_stop", "n_stop", "steps_taken", "residual_at_stop",
                  "a_at_stop", "threshold", "final_norm")


@dataclass(frozen=True)
class SolveReport:
    """What a continuation run produced and why it stopped: a returned
    report has status STOPPED_BY_DISCREPANCY, the partial report of a
    failed run one of the other two.

    Exactly one of t_stop / n_stop is set.  For iterations, n_stop is the
    schedule index of the step that produced the accepted iterate (0 with
    no steps when the start already passes the test); the number of steps
    actually taken is `steps_taken`.  residual_history holds
    (time-or-iterate-index, data residual) pairs for every recorded state,
    starting from the initial one.
    """

    u_final: HilbertVector
    status: str
    a_at_stop: float
    threshold: float
    t_stop: float | None = None
    n_stop: int | None = None
    residual_history: tuple[tuple[float, float], ...] = ()
    iterates: tuple[HilbertVector, ...] | None = None
    notes: tuple[str, ...] = ()

    @property
    def residual_at_stop(self) -> float:
        return self.residual_history[-1][1] if self.residual_history else math.nan

    @property
    def steps_taken(self) -> int:
        return max(len(self.residual_history) - 1, 0)

    @property
    def final_norm(self) -> float:
        return self.u_final.norm()

    def to_dict(self, include_history: bool = False) -> dict:
        out = {key: getattr(self, key) for key in REPORT_SCALARS}
        out["notes"] = list(self.notes)
        if include_history:
            out["residual_history"] = [list(p) for p in self.residual_history]
        return out


class Trajectory:
    """The recorded states of one flow or iteration run and its stopping
    rule; `cfg` supplies `threshold` (a checked `stop_level`) and
    `keep_iterates`."""

    def __init__(self, cfg, delta: float, notes: tuple[str, ...] = ()):
        self.threshold = cfg.threshold(delta)
        self.history = []
        self.iterates = [] if cfg.keep_iterates else None
        self.notes = tuple(notes)

    def record(self, at: float, u: HilbertVector, res: float) -> bool:
        """Record a state; True when its residual passes the stopping test.
        A non-finite residual raises at once rather than use up the budget."""
        if not math.isfinite(res):
            raise NonFinite(
                f"data residual is {res} at {at:g}; check f_delta, the "
                "start and the operator for non-finite values"
            )
        self.history.append((at, res))
        if self.iterates is not None:
            self.iterates.append(u)
        return res <= self.threshold

    def report(self, u: HilbertVector, status: str, a_at, **stop) -> SolveReport:
        """The report of the recorded states; `stop` is t_stop or n_stop."""
        return SolveReport(
            u_final=u,
            status=status,
            a_at_stop=float(a_at),
            threshold=self.threshold,
            residual_history=tuple(self.history),
            iterates=None if self.iterates is None else tuple(self.iterates),
            notes=self.notes,
            **stop,
        )
