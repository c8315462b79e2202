"""Discrete counterparts of the flows, with the same stopping rule.

    newton    u_{n+1} = u_n - (F'(u_n) + a_n I)^{-1} G_n
    gradient  u_{n+1} = u_n - alpha_n (F'(u_n) + a_n I)* G_n
    simple    u_{n+1} = u_n - alpha_n G_n

with G_n = F(u_n) + a_n u_n - f_delta: the Euler steps of the flows, with
the directions of `reports.DIRECTIONS`.  Iterations stop at the first
iterate whose data residual is at or below C1 * delta**e (ties accepted);
the gradient and simple variants step at the top of their stability band,
alpha_n = 2 / (a_n^2 + (M1 + a_n)^2) respectively 2 / (M1 + 2 a_n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HilbertVector, LinearMap, NonlinearOperator
from .errors import HorizonExceeded, check_fields
from .reports import (DIRECTIONS, EXHAUSTED_HORIZON, STOPPED_BY_DISCREPANCY, SolveReport,
                      Trajectory, check_stop_constants, data_residual, require_kind,
                      stop_level)
from .schedules import GRADIENT_ITER, NEWTON_ITER, SIMPLE_ITER, DiscreteSchedule

DEFAULT_N_MAX = 100_000
NORM_ESTIMATE_STEPS = 50  # power-iteration steps of operator_norm_estimate


@dataclass(frozen=True)
class IterConfig:
    """Stopping constants and schedule for one iteration.

    The gradient and simple variants step at the top of the stability
    band fixed by m1, which comes from the operator: its declared bounds,
    else 1.1 times a power-iteration estimate at the start (flagged in the
    report notes).  The step budget n_max is DEFAULT_N_MAX = 100000 unless
    set; a run that has not stopped by the discrepancy principle within it
    raises HorizonExceeded.
    """

    schedule: DiscreteSchedule
    C1: float = 1.5
    gamma_or_zeta: float = 0.9
    n_max: int = DEFAULT_N_MAX
    inner_tol: float = 1e-10
    keep_iterates: bool = False

    def __post_init__(self):
        check_fields(self, ("n_max", "inner_tol"))
        check_stop_constants(self, "C1", "gamma_or_zeta")

    def threshold(self, delta: float) -> float:
        return stop_level(self.C1, delta, self.gamma_or_zeta)


def iter_newton(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: IterConfig,
    u0: HilbertVector,
) -> SolveReport:
    """Newton-type iteration; each step is one shifted solve.

    Monotonicity makes the shifted derivative invertible with inverse norm
    at most 1/a_n, so the step length never exceeds ||G_n|| / a_n.
    """
    require_kind(cfg.schedule, NEWTON_ITER, "iteration")
    return _run(F, f_delta, delta, cfg, u0, "newton")


def iter_gradient(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: IterConfig,
    u0: HilbertVector,
) -> SolveReport:
    """Gradient-type iteration: adjoint-times-defect steps inside the
    contraction band."""
    require_kind(cfg.schedule, GRADIENT_ITER, "iteration")
    return _run_damped(F, f_delta, delta, cfg, u0, "gradient",
                       lambda m1, a: 2.0 / (a * a + (m1 + a) ** 2))


def iter_simple(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: IterConfig,
    u0: HilbertVector,
) -> SolveReport:
    """Defect-relaxation iteration; no derivative evaluation at all."""
    require_kind(cfg.schedule, SIMPLE_ITER, "iteration")
    return _run_damped(F, f_delta, delta, cfg, u0, "simple",
                       lambda m1, a: 2.0 / (m1 + 2.0 * a))


def _run_damped(F, f_delta, delta, cfg, u0, method, band) -> SolveReport:
    """_run with the step size alpha_n = band(m1, a_n)."""
    notes = ()
    if F.bounds is not None:
        m1 = F.bounds.m1
    else:
        m1 = 1.1 * operator_norm_estimate(F.deriv(u0))
        notes = (f"m1_estimated={m1:.6g}",)
    return _run(F, f_delta, delta, cfg, u0, method,
                lambda a: band(m1, a), notes)


def operator_norm_estimate(A: LinearMap) -> float:
    """Power-iteration estimate of the weighted operator norm of A:
    NORM_ESTIMATE_STEPS steps with A* A from a standard-normal start drawn
    from PCG64(0), so the estimate is a fixed function of A."""
    rng = np.random.Generator(np.random.PCG64(0))
    v = HilbertVector(rng.standard_normal(A.dimension), A.weights)
    v = v / max(v.norm(), 1e-30)
    sigma = 0.0
    for _ in range(NORM_ESTIMATE_STEPS):
        w = A.adjoint_apply(A(v))
        nw = w.norm()
        if nw == 0.0:
            return 0.0
        sigma = math.sqrt(nw)
        v = w / nw
    return sigma


def _run(F, f_delta, delta, cfg, u0, method, step_size=None,
         notes=()) -> SolveReport:
    """Steps u - alpha_n d from the direction table; alpha_n = 1 (and no
    multiplication) when step_size is None."""
    trajectory = Trajectory(cfg, delta, notes)
    n_max = cfg.n_max
    sched = cfg.schedule
    direction = DIRECTIONS[method]

    # the iterates are kept as arrays on u0's grid and wrapped once for F
    # and the direction; every expression keeps the order of its vector form
    u0.check_grid(f_delta)
    w, fd = u0.weights, f_delta.values
    F_u, res = data_residual(F, u0, fd)
    if trajectory.record(0.0, u0, res):
        return trajectory.report(u0, STOPPED_BY_DISCREPANCY, sched.a(0),
                                 n_stop=0)
    u = u0
    for n in range(n_max):
        a_n = float(sched.a(n))
        alpha = None if step_size is None else step_size(a_n)
        G = HilbertVector._trusted(F_u + u.values * a_n - fd, w)
        d = direction(F, u, a_n, G, cfg.inner_tol).values
        u = HilbertVector._trusted(
            u.values - d if alpha is None else u.values - d * float(alpha), w)
        F_u, res = data_residual(F, u, fd)
        if trajectory.record(float(n + 1), u, res):
            return trajectory.report(u, STOPPED_BY_DISCREPANCY, a_n, n_stop=n)
    partial = trajectory.report(u, EXHAUSTED_HORIZON, sched.a(n_max - 1),
                                n_stop=n_max - 1)
    raise HorizonExceeded(f"within {n_max} steps", partial)
