"""Discrete counterparts of the flows, with the same stopping rule.

    newton    u_{n+1} = u_n - (F'(u_n) + a_n I)^{-1} G_n
    gradient  u_{n+1} = u_n - alpha_n (F'(u_n) + a_n I)* G_n
    simple    u_{n+1} = u_n - alpha_n G_n

with G_n = F(u_n) + a_n u_n - f_delta: the Euler steps of the flows, with
the directions of `reports.DIRECTIONS`.  Iterations stop at the first
iterate whose data residual is at or below C1 * delta**e (ties accepted);
the gradient and simple variants take damped steps inside the stability
band [alpha_tilde, 2 / (a_n^2 + (M1 + a_n)^2)] respectively
[alpha_tilde, 2 / (M1 + 2 a_n)], defaulting to the band's upper endpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import HilbertVector, LinearMap, NonlinearOperator
from .errors import HorizonExceeded, InvalidStepSize
from .reports import (
    DIRECTIONS,
    EXHAUSTED_HORIZON,
    STOPPED_BY_DISCREPANCY,
    SolveReport,
    Trajectory,
    a_end,
    check_stop_constants,
    require_kind,
    stop_level,
)
from .schedules import (
    GRADIENT_ITER,
    NEWTON_ITER,
    SIMPLE_ITER,
    DiscreteSchedule,
)

DEFAULT_N_MAX = 100_000


@dataclass(frozen=True)
class IterConfig:
    """Stopping constants, schedule, and step-size rule for one iteration.

    m1 left as None falls back to the operator's declared bounds, else to
    1.1 times a power-iteration estimate at the start (flagged in the
    report notes).  alpha_rule maps (n, a_n) to a step size and must stay
    inside the band; the default is the band's upper endpoint.  n_max left
    as None resolves to ten times the a-priori stopping estimate when
    y_norm is given, else to 100000.
    """

    schedule: DiscreteSchedule
    C1: float = 1.5
    gamma_or_zeta: float = 0.9
    n_max: int | None = None
    m1: float | None = None
    alpha_rule: Callable[[int, float], float] | None = None
    alpha_floor: float | None = None
    inner_tol: float = 1e-10
    y_norm: float | None = None
    keep_iterates: bool = False

    def __post_init__(self):
        check_stop_constants(self.C1, self.gamma_or_zeta, "gamma_or_zeta")

    def threshold(self, delta: float) -> float:
        return stop_level(self.C1, delta, self.gamma_or_zeta)

    def resolve_n_max(self, delta: float) -> int:
        if self.n_max is not None:
            return self.n_max
        if self.y_norm is None:
            return DEFAULT_N_MAX
        # first index whose schedule value is at or below a_end, capped
        level = a_end(self.C1, delta, self.y_norm)
        if self.schedule.a(DEFAULT_N_MAX) > level:
            n = DEFAULT_N_MAX
        else:
            n = self.schedule.index_for_level(level)
        return 10 * (n + 1)


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
    """_run with step sizes alpha_n in [floor, band(m1, a_n)]."""
    notes = ()
    if cfg.m1 is not None:
        m1 = cfg.m1
    elif F.bounds is not None:
        m1 = F.bounds.m1
    else:
        m1 = 1.1 * operator_norm_estimate(F.deriv(u0))
        notes = (f"m1_estimated={m1:.6g}",)
    if cfg.alpha_floor is not None:
        floor = cfg.alpha_floor
    else:
        # the band top grows as a_n decays, so its smallest value is at n = 0
        floor = 0.5 * band(m1, float(cfg.schedule.a(0)))

    def step_size(n: int, a: float) -> float:
        top = band(m1, a)
        if floor > top:
            raise InvalidStepSize(
                f"empty step band at n={n}: floor {floor:g} exceeds top "
                f"{top:g} (m1 mis-specified?)"
            )
        if cfg.alpha_rule is None:
            return top
        alpha = cfg.alpha_rule(n, a)
        if not floor <= alpha <= top:
            raise InvalidStepSize(
                f"alpha_rule({n}) = {alpha:g} outside [{floor:g}, {top:g}]"
            )
        return alpha

    return _run(F, f_delta, delta, cfg, u0, method, step_size, notes)


def operator_norm_estimate(A: LinearMap, n_iter: int = 50, seed: int = 0) -> float:
    """Power-iteration estimate of the weighted operator norm of A."""
    rng = np.random.Generator(np.random.PCG64(seed))
    v = HilbertVector(rng.standard_normal(A.dimension), A.weights)
    v = v / max(v.norm(), 1e-30)
    sigma = 0.0
    for _ in range(n_iter):
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
    n_max = cfg.resolve_n_max(delta)
    sched = cfg.schedule
    direction = DIRECTIONS[method]

    F_u = F(u0)
    if trajectory.record(0.0, u0, (F_u - f_delta).norm()):
        return trajectory.report(u0, STOPPED_BY_DISCREPANCY, sched.a(0),
                                 n_stop=0)
    u = u0
    for n in range(n_max):
        a_n = float(sched.a(n))
        alpha = None if step_size is None else step_size(n, a_n)
        d = direction(F, u, a_n, F_u + a_n * u - f_delta, cfg.inner_tol)
        u = u - d if alpha is None else u - alpha * d
        F_u = F(u)
        if trajectory.record(float(n + 1), u, (F_u - f_delta).norm()):
            return trajectory.report(u, STOPPED_BY_DISCREPANCY, a_n, n_stop=n)
    partial = trajectory.report(u, EXHAUSTED_HORIZON, sched.a(n_max - 1),
                                n_stop=n_max - 1)
    raise HorizonExceeded(n_max, report=partial)
