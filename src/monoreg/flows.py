"""The three continuation flows with a-posteriori residual stopping.

Each flow integrates du/dt = -d with its direction d from
`reports.DIRECTIONS`, built from the shifted defect
G(u, t) = F(u) + a(t) u - f_delta:

    newton    du/dt = -(F'(u) + a I)^{-1} G
    gradient  du/dt = -(F'(u) + a I)*  G
    simple    du/dt = -G                       (derivative-free)

The trajectory tracks the regularized path V(t) while a(t) decays, and
integration stops at the first time the data residual ||F(u) - f_delta||
falls to C1 * delta**zeta; reaching t_max first raises HorizonExceeded,
a step below step_min StepFloor.  The integrator is adaptive explicit Euler
controlled by residual decrease: a step is accepted iff the data
residual does not increase (beyond 1e-12 relative), halved otherwise,
and doubled after five straight acceptances up to step_max.  Along the
tracked path the residual equals the strictly decreasing phi(a(t)), so
acceptance is the monotonicity that the stopping rule relies on.  (The
shifted defect is NOT monotone here: a start near the path must first
climb to the drift equilibrium, so controlling on it would stall.)  With
step alpha_n (1 for newton) each flow's Euler update coincides exactly
with the iteration of the same name.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HilbertVector, NonlinearOperator
from .errors import (HorizonExceeded, InvalidConfig, PreconditionFailed, StepFloor,
                     check_fields)
from .regularized import solve_regularized
from .reports import (DIRECTIONS, EXHAUSTED_HORIZON, STEP_FLOOR, STOPPED_BY_DISCREPANCY,
                      SolveReport, Trajectory, check_stop_constants,
                      data_residual, require_kind, stop_level)
from .schedules import GRADIENT_FLOW, NEWTON_FLOW, SIMPLE_FLOW, ContinuousSchedule

RESIDUAL_SLACK = 1e-12  # relative residual increase tolerated before halving
DOUBLE_AFTER = 5  # accepted steps between step doublings
REFINE_RTOL = 1e-3  # relative accuracy of the bisected stopping time
DEFECT_FRACTION = 0.2  # init_u0's target defect, in units of a0 * ||V(0)||


@dataclass(frozen=True)
class FlowConfig:
    """Stopping constants, schedule, and integrator controls for one flow.

    The time horizon t_max is 1e6 unless set; a run that has not stopped by
    the discrepancy principle by then raises HorizonExceeded.
    """

    schedule: ContinuousSchedule
    C1: float = 1.5
    zeta: float = 0.9
    step_init: float = 0.1
    step_min: float = 1e-8
    step_max: float = 1.0
    t_max: float = 1e6
    inner_tol: float = 1e-10
    keep_iterates: bool = False

    def __post_init__(self):
        check_fields(self, ("t_max", "inner_tol"))
        check_stop_constants(self, "C1", "zeta")
        if not 0 < self.step_min <= self.step_init <= self.step_max:
            raise InvalidConfig("need 0 < step_min <= step_init <= step_max")

    def threshold(self, delta: float) -> float:
        return stop_level(self.C1, delta, self.zeta)


def init_u0(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    a0: float,
    zero: bool = False,
) -> HilbertVector:
    """A starting point compatible with the flows' smallness condition.

    Returns an approximate solution of the shifted equation at a0 whose
    defect sits near DEFECT_FRACTION * a0 * ||V(0)|| (and never above the
    admissible quarter level).  Starting *at* that level rather than on
    the path itself matters in practice: the flows track a moving target,
    and a start with a near-zero defect must first fall behind before it
    can follow, which shows up as a transient residual rise.  With
    zero=True returns the zero vector instead, after certifying the start
    bound ||V(0)|| <= ||F(0) - f_delta|| / a0 that a zero start satisfies.
    """
    sol = solve_regularized(F, f_delta, a0)
    psi = sol.V.norm()
    if zero:
        z = HilbertVector.zeros(f_delta.weights)
        cap = (F(z) - f_delta).norm() / a0
        if psi > cap * (1.0 + 1e-9):
            raise PreconditionFailed("zero_start_bound", a0, cap - psi)
        return z
    bound = 0.25 * a0 * psi
    if sol.residual > bound:
        sol = solve_regularized(F, f_delta, a0, tol=0.5 * bound, warm_start=sol.V)
        psi = sol.V.norm()
    target = DEFECT_FRACTION * a0 * psi
    if sol.residual >= 0.5 * target or psi == 0.0:
        return sol.V
    # nudge backward along V to land the defect near the target level; a
    # slightly shrunk V sits where the path was at a larger shift, so its
    # data residual starts above the path level and decays from there
    e = -1.0 * (sol.V / psi)
    probe = 1e-6 * max(psi, 1.0)
    slope = ((F(sol.V + probe * e) - F(sol.V)) / probe + a0 * e).norm()
    # halve a nudge of at most psi (a NaN slope takes psi) until its defect
    # is admissible; within 60 halvings the nudge no longer moves V, whose
    # defect sol.residual is below the bound
    r = target / slope if slope > target / psi else psi
    while True:
        u0 = sol.V + r * e
        if (np.array_equal(u0.values, sol.V.values)
                or (F(u0) + a0 * u0 - f_delta).norm() <= bound):
            return u0
        r *= 0.5


def flow_newton(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: FlowConfig,
    u0: HilbertVector,
) -> SolveReport:
    """Integrate the derivative-inverting flow; one shifted solve per step."""
    require_kind(cfg.schedule, NEWTON_FLOW, "flow")
    return _integrate(F, f_delta, delta, cfg, u0, "newton")


def flow_gradient(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: FlowConfig,
    u0: HilbertVector,
) -> SolveReport:
    """Integrate the adjoint-times-defect flow.

    The stopping time need not be unique for this variant; the first
    crossing is returned.  Steps are capped at the explicit-Euler
    stability limit 2 / (M1 + a)**2 of the composed operator (with some
    margin) when bounds are declared; beyond it the fast modes of the
    defect alternate in sign and residual control stalls.
    """
    require_kind(cfg.schedule, GRADIENT_FLOW, "flow")
    return _integrate(F, f_delta, delta, cfg, u0, "gradient", cap_power=2)


def flow_simple(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: FlowConfig,
    u0: HilbertVector,
) -> SolveReport:
    """Integrate the defect flow; neither derivative nor solve is needed.

    Steps are capped at the stability limit 2 / (M1 + a) with margin when
    bounds are declared.
    """
    require_kind(cfg.schedule, SIMPLE_FLOW, "flow")
    return _integrate(F, f_delta, delta, cfg, u0, "simple", cap_power=1)


def _integrate(F, f_delta, delta, cfg, u0, method,
               cap_power: int | None = None) -> SolveReport:
    trajectory = Trajectory(cfg, delta)
    direction = DIRECTIONS[method]
    sched = cfg.schedule
    thresh = trajectory.threshold
    t_max = cfg.t_max
    step_max = cfg.step_max
    if cap_power is not None and F.bounds is not None:
        # the stability limit 2 / (M1 + a)**cap_power, with margin
        step_max = min(step_max,
                       1.5 / (F.bounds.m1 + float(sched.a(0.0))) ** cap_power)

    # the states are kept as arrays on u0's grid and wrapped once for F and
    # the direction; every expression keeps the order of its vector form
    u0.check_grid(f_delta)
    w, fd = u0.weights, f_delta.values

    def state(x):
        u = HilbertVector._trusted(x, w)
        return (u, *data_residual(F, u, fd))

    F_u, res = data_residual(F, u0, fd)
    if trajectory.record(0.0, u0, res):
        return trajectory.report(u0, STOPPED_BY_DISCREPANCY, sched.a(0.0),
                                 t_stop=0.0)

    t = 0.0
    u = u0
    h = min(cfg.step_init, step_max)
    streak = 0
    while t < t_max:
        # one direction evaluation per state, reused across halved retries
        a = sched.a(t)
        G = HilbertVector._trusted(F_u + u.values * float(a) - fd, w)
        d = direction(F, u, a, G, cfg.inner_tol).values
        accepted = False
        while not accepted:
            h_step = min(h, t_max - t)
            u_try, F_try, res_try = state(u.values - d * float(h_step))
            if res_try <= res * (1.0 + RESIDUAL_SLACK):
                accepted = True
            else:
                h = h_step * 0.5
                streak = 0
                if h < cfg.step_min:
                    raise StepFloor(f"no step of at least step_min = {cfg.step_min:g} "
                                    f"keeps the data residual from rising at t = {t:g}",
                                    report=trajectory.report(u, STEP_FLOOR, a, t_stop=t))
        if res_try <= thresh:
            t_stop, u_stop, res_stop = _refine_crossing(
                state, thresh, u.values, d, t, h_step, u_try, res_try)
            trajectory.record(t_stop, u_stop, res_stop)
            return trajectory.report(u_stop, STOPPED_BY_DISCREPANCY,
                                     sched.a(t_stop), t_stop=t_stop)
        t, u, F_u, res = t + h_step, u_try, F_try, res_try
        trajectory.record(t, u, res)
        streak += 1
        if streak >= DOUBLE_AFTER:
            h = min(2.0 * h, step_max)
            streak = 0
    raise HorizonExceeded(f"by the time horizon t_max = {t_max:g}",
                          trajectory.report(u, EXHAUSTED_HORIZON, sched.a(t), t_stop=t))


def _refine_crossing(state, thresh, u_prev, d, t_prev, h, u_hi, res_hi):
    """Bisect the crossing step to locate the stop time within REFINE_RTOL
    relative; the substate u(s) = u_prev - s d stays on the Euler segment,
    whose end state u_hi, with data residual res_hi, is at or below thresh.
    `state` maps values to (vector, values of F, data residual)."""
    lo, hi = 0.0, h
    while hi - lo > REFINE_RTOL * max(t_prev + hi, 1e-30):
        mid = 0.5 * (lo + hi)
        u_mid, _, res_mid = state(u_prev - d * float(mid))
        if res_mid <= thresh:
            hi, u_hi, res_hi = mid, u_mid, res_mid
        else:
            lo = mid
    return t_prev + hi, u_hi, res_hi
