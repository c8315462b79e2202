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
from .errors import InvalidConfig, NonConvergence, check_fields
from .regularized import _bracket_search, _require_finite, solve_regularized
from .reports import check_stop_constants, stop_level

CONVERGED = "converged"
ALREADY_COMPATIBLE = "already_compatible"
A_RTOL = 1e-12  # relative width of the bisection bracket at which it stops


@dataclass(frozen=True)
class DPConfig:
    """Constants of the residual-matching rule.

    C > 1 and gamma in (0, 1] fix the residual target C * delta**gamma,
    which must exceed delta at use time (`target` checks it).  theta
    scales the inexactness allowed of a candidate's shifted defect;
    (C1, C2) bound the residual window of the acceptance test (defaults
    C/2 and 2C).
    """

    C: float = 1.01
    gamma: float = 0.9
    theta: float = 1.0
    C1: float | None = None
    C2: float | None = None
    dp_tol: float = 1e-6

    def __post_init__(self):
        check_fields(self, ("theta",))
        check_stop_constants(self, "C", "gamma")
        lo, hi = self.residual_window()
        if not 0 < lo < hi:
            raise InvalidConfig("need 0 < C1 < C2")
        if not 0 < self.dp_tol < 1:
            raise InvalidConfig("dp_tol must lie in (0, 1)")

    def residual_window(self) -> tuple[float, float]:
        return (
            self.C / 2 if self.C1 is None else self.C1,
            2 * self.C if self.C2 is None else self.C2,
        )

    def target(self, delta: float) -> float:
        return stop_level(self.C, delta, self.gamma)


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

    def to_dict(self) -> dict:
        return {
            "a_delta": self.a_delta,
            "achieved_residual": self.achieved_residual,
            "target": self.target,
            "bracket_evals": self.bracket_evals,
            "status": self.status,
            "solution_norm": self.V.norm(),
        }


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
    warm-started along the bisection path and run well below dp_tol so the
    measured residual is trustworthy at the match tolerance.
    """
    target = cfg.target(delta)
    zero = HilbertVector.zeros(f_delta.weights)
    r0 = (F(zero) - f_delta).norm()
    _require_finite(r0, "||F(0) - f_delta||, the ceiling of phi,")
    if r0 <= target:
        return DPResult(
            a_delta=math.inf,
            V=zero,
            achieved_residual=r0,
            bracket_evals=1,
            target=target,
            status=ALREADY_COMPATIBLE,
        )

    # Solve accurately enough that the measured phi resolves the bisection.
    inner_tol = max(5e-15 * max(f_delta.norm(), 1.0), 1e-5 * cfg.dp_tol * target)

    def phi_at(a, warm):
        nonlocal evals
        evals += 1
        sol = solve_regularized(F, f_delta, a, tol=inner_tol, warm_start=warm)
        return (F(sol.V) - f_delta).norm(), sol.V

    lo, hi, evals, warm = _bracket_search(F, f_delta, target, 1.0, inner_tol)
    for _ in range(200):
        if hi - lo <= A_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        p, warm = phi_at(mid, warm)
        if p < target:
            lo = mid
        else:
            hi = mid
    a_final = 0.5 * (lo + hi)
    achieved, V = phi_at(a_final, warm)
    if abs(achieved - target) > cfg.dp_tol * target:
        raise NonConvergence(
            f"residual match failed: |{achieved:g} - {target:g}| exceeds "
            f"dp_tol * target; phi may be discontinuous for this operator"
        )
    return DPResult(
        a_delta=a_final,
        V=V,
        achieved_residual=achieved,
        bracket_evals=evals,
        target=target,
        status=CONVERGED,
    )


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
    """Accept v iff its shifted defect is small and its residual sits in
    the window [C1 * delta**gamma, C2 * delta**gamma].

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
    defect_norm = (F(v) + alpha * v - f_delta).norm()
    residual = (F(v) - f_delta).norm()
    defect_bound = cfg.theta * delta
    c1, c2 = cfg.residual_window()
    lo = c1 * delta ** cfg.gamma
    hi = c2 * delta ** cfg.gamma
    defect_ok = defect_norm <= defect_bound
    residual_ok = lo <= residual <= hi
    return AcceptanceReport(
        accepted=defect_ok and residual_ok,
        defect_ok=defect_ok,
        residual_ok=residual_ok,
        defect_norm=defect_norm,
        defect_bound=defect_bound,
        residual=residual,
        residual_lo=lo,
        residual_hi=hi,
    )
