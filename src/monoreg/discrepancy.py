"""Residual-matching choice of the regularization parameter.

Given noisy data at level delta, the shift a(delta) is chosen so that the
data residual of the regularized solution equals C * delta**gamma.  The
residual function phi is strictly increasing and continuous in a, so the
match point exists, is unique, and bisection on a bracket finds it.  A
candidate produced by any other route can be accepted or rejected by the
two-condition test in `accept_candidate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import HilbertVector, NonlinearOperator
from .errors import (BudgetExceeded, InvalidConfig, NonConvergence, check_fields,
                     require_finite)
from .regularized import solve_regularized
from .reports import check_stop_constants, stop_level

CONVERGED = "converged"
ALREADY_COMPATIBLE = "already_compatible"
A_RTOL = 1e-12  # relative width of the bisection bracket at which it stops
MAX_DOUBLINGS = 200  # halvings or doublings of a before the bracket search fails
INNER_TOL_FLOOR = 5e-15  # inner solves reach no tighter than this * max(||f_delta||, 1)


@dataclass(frozen=True)
class DPConfig:
    """Constants of the residual-matching rule.

    C > 1 and gamma in (0, 1] fix the residual target C * delta**gamma,
    which must exceed delta at use time (`target` checks it); dp_tol is
    the relative accuracy of the match.
    """

    C: float = 1.01
    gamma: float = 0.9
    dp_tol: float = 1e-6

    def __post_init__(self):
        check_fields(self)
        check_stop_constants(self, "C", "gamma")
        if not 0 < self.dp_tol < 1:
            raise InvalidConfig("dp_tol must lie in (0, 1)")

    def target(self, delta: float) -> float:
        return stop_level(self.C, delta, self.gamma)

    def inner_tol(self, f_delta: HilbertVector, delta: float) -> float:
        """solve_dp's inner tolerance, fine enough that the measured residual
        resolves the match; InvalidConfig if the floor the solves reach,
        INNER_TOL_FLOOR * max(||f_delta||, 1), is at or above dp_tol * target."""
        target, floor = self.target(delta), INNER_TOL_FLOOR * max(f_delta.norm(), 1.0)
        if not self.dp_tol * target > floor:
            raise InvalidConfig(f"dp_tol * target = {self.dp_tol * target:g} is at or "
                                f"below the inner-tolerance floor {INNER_TOL_FLOOR:g} "
                                f"* max(||f_delta||, 1) = {floor:g}")
        return max(floor, 1e-5 * self.dp_tol * target)


# the entries of DPResult.to_dict, in order: a dp row's CSV columns
DP_SCALARS = ("a_delta", "achieved_residual", "target", "bracket_evals", "status",
              "solution_norm")


@dataclass(frozen=True)
class DPResult:
    """Chosen shift and the matching regularized solution.

    status is "converged" when the residual was matched to the target, or
    "already_compatible" when the zero vector already passes the test (no
    positive shift can raise the residual to the target; a_delta is inf
    and V is zero in that case).
    """

    a_delta: float
    V: HilbertVector
    achieved_residual: float
    bracket_evals: int
    target: float
    status: str

    @property
    def solution_norm(self) -> float:
        return self.V.norm()

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in DP_SCALARS}


def solve_dp(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: DPConfig,
) -> DPResult:
    """Find a(delta) with ||F(V_a) - f_delta|| = C * delta**gamma.

    phi is strictly increasing and tends to r0 = ||F(0) - f_delta|| from
    below, so a root exists iff r0 exceeds the target, and bisection on a
    geometric bracket grown from a = 1 finds it.  Inner solves are
    warm-started along the path at `cfg.inner_tol`, which raises
    InvalidConfig before the first of them if they cannot resolve the match.
    """
    target = cfg.target(delta)
    zero = HilbertVector.zeros(f_delta.weights)
    r0 = (F(zero) - f_delta).norm()
    require_finite(r0, "||F(0) - f_delta||, the ceiling of phi,")
    inner_tol = cfg.inner_tol(f_delta, delta)
    if r0 <= target:
        return DPResult(a_delta=math.inf, V=zero, achieved_residual=r0, bracket_evals=1,
                        target=target, status=ALREADY_COMPATIBLE)

    evals, warm = 0, None

    def solve(a: float) -> HilbertVector:
        # V_a, warm-started at the last solution, with the count
        nonlocal evals, warm
        evals += 1
        warm = solve_regularized(F, f_delta, a, tol=inner_tol, warm_start=warm).V
        return warm

    lo, hi = _bracket_search(solve, target)
    for _ in range(200):
        if hi - lo <= A_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if (F(solve(mid)) - f_delta).norm() < target:
            lo = mid
        else:
            hi = mid
    a_final = 0.5 * (lo + hi)
    V = solve(a_final)
    achieved = (F(V) - f_delta).norm()
    if abs(achieved - target) > cfg.dp_tol * target:
        raise NonConvergence(
            f"residual match failed: |{achieved:g} - {target:g}| exceeds "
            f"dp_tol * target; phi may be discontinuous for this operator"
        )
    return DPResult(a_delta=a_final, V=V, achieved_residual=achieved,
                    bracket_evals=evals, target=target, status=CONVERGED)


def _bracket_search(solve, target: float) -> tuple[float, float]:
    """Geometric bracket (a_lo, a_hi] with phi(a_lo) < target <= phi(a_hi),
    phi(a) = a ||solve(a)||, grown from a = 1.

    phi is strictly increasing in a and tends to ||F(0) - f_delta|| from
    below; the caller guarantees a positive target below that ceiling, so
    the bracket closes after finitely many halvings or doublings.
    """
    a = 1.0
    if a * solve(a).norm() >= target:
        # contract downward until phi drops below the target
        for _ in range(MAX_DOUBLINGS):
            a_hi, a = a, a / 2.0
            if a * solve(a).norm() < target:
                return a, a_hi
        raise BudgetExceeded(
            f"no lower bracket endpoint after {MAX_DOUBLINGS} halvings")
    for _ in range(MAX_DOUBLINGS):
        a_lo, a = a, a * 2.0
        if a * solve(a).norm() >= target:
            return a_lo, a
    raise BudgetExceeded(f"no upper bracket endpoint after {MAX_DOUBLINGS} doublings")


@dataclass(frozen=True)
class AcceptanceReport:
    """Both measured sides of the two-condition candidate test."""

    accepted: bool
    defect_ok: bool
    residual_ok: bool
    defect_norm: float
    defect_bound: float
    residual: float
    residual_lo: float
    residual_hi: float


def accept_candidate(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    v: HilbertVector,
    alpha: float,
    cfg: DPConfig,
) -> AcceptanceReport:
    """Accept v iff its shifted defect is at most delta and its residual
    sits in the window [C/2 * delta**gamma, 2C * delta**gamma], with C and
    gamma of cfg; F(v) is evaluated once and serves both sides.

    A pure predicate with diagnostics; together the two conditions certify
    convergence of accepted candidates as delta -> 0 without needing v to
    come from any particular solver.
    """
    if not alpha > 0:
        raise InvalidConfig("alpha must be positive")
    if not 0 < cfg.gamma < 1:
        raise InvalidConfig("the acceptance test needs gamma in (0, 1)")
    if not delta > 0:
        raise InvalidConfig("delta must be positive")
    F_v = F(v)
    defect_norm = (F_v + alpha * v - f_delta).norm()
    residual = (F_v - f_delta).norm()
    lo = cfg.C / 2 * delta ** cfg.gamma
    hi = 2 * cfg.C * delta ** cfg.gamma
    defect_ok = defect_norm <= delta
    residual_ok = lo <= residual <= hi
    return AcceptanceReport(
        accepted=defect_ok and residual_ok,
        defect_ok=defect_ok,
        residual_ok=residual_ok,
        defect_norm=defect_norm,
        defect_bound=delta,
        residual=residual,
        residual_lo=lo,
        residual_hi=hi,
    )
