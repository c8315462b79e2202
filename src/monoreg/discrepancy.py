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

import numpy as np

from .core import HilbertVector, NonlinearOperator
from .errors import InvalidConfig, NonConvergence
from .regularized import _bracket_search, solve_regularized
from .reports import stop_level

CONVERGED = "converged"
ALREADY_COMPATIBLE = "already_compatible"


@dataclass(frozen=True)
class DPConfig:
    """Constants of the residual-matching rule.

    C > 1 and gamma in (0, 1] fix the residual target C * delta**gamma,
    which must exceed delta at use time.  theta scales the inexactness
    allowed of a candidate's shifted defect; (C1, C2) bound the residual
    window of the acceptance test (defaults C/2 and 2C).
    """

    C: float = 1.01
    gamma: float = 0.9
    theta: float = 1.0
    C1: float | None = None
    C2: float | None = None
    dp_tol: float = 1e-6
    a_rtol: float = 1e-12

    def __post_init__(self):
        if not self.C > 1:
            raise InvalidConfig(f"C must exceed 1, got {self.C}")
        if not 0 < self.gamma <= 1:
            raise InvalidConfig(f"gamma must lie in (0, 1], got {self.gamma}")
        if not self.theta > 0:
            raise InvalidConfig("theta must be positive")
        lo, hi = self.residual_window()
        if not 0 < lo < hi:
            raise InvalidConfig("need 0 < C1 < C2")
        if not (0 < self.dp_tol < 1 and 0 < self.a_rtol < 1):
            raise InvalidConfig("dp_tol and a_rtol must lie in (0, 1)")

    def residual_window(self) -> tuple[float, float]:
        return (
            self.C / 2 if self.C1 is None else self.C1,
            2 * self.C if self.C2 is None else self.C2,
        )

    def target(self, delta: float) -> float:
        return stop_level(self.C, delta, self.gamma)

    def check_delta(self, delta: float) -> None:
        if delta <= 0:
            raise InvalidConfig("delta must be positive")
        if not self.target(delta) > delta:
            raise InvalidConfig(
                f"C * delta**gamma = {self.target(delta):g} must exceed "
                f"delta = {delta:g}"
            )


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
    a_init: float = 1.0,
) -> DPResult:
    """Find a(delta) with ||F(V_a) - f_delta|| = C * delta**gamma.

    Bisection on the bracket from `bracket_for_target`, exploiting the
    strict monotonicity of phi.  Inner solves are warm-started along the
    bisection path and run well below dp_tol so the measured residual is
    trustworthy at the match tolerance.
    """
    cfg.check_delta(delta)
    target = cfg.target(delta)
    zero = HilbertVector.zeros(f_delta.weights)
    r0 = (F(zero) - f_delta).norm()
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

    lo, hi, evals, warm = _bracket_search(
        F, f_delta, target, a_init, inner_tol, max_doublings=200
    )
    for _ in range(200):
        if hi - lo <= cfg.a_rtol * hi:
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


def solve_dp_shifted(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    delta: float,
    cfg: DPConfig,
    u_bar: HilbertVector,
) -> DPResult:
    """Residual matching for the recentered equation
    F(V) + a (V - u_bar) = f_delta.

    Reduces to `solve_dp` for the composed operator w -> F(w + u_bar) and
    returns V = w + u_bar; the solution converges (as delta -> 0) to the
    solution nearest u_bar rather than the minimal-norm one.
    """
    cfg.check_delta(delta)
    target = cfg.target(delta)
    r_bar = (F(u_bar) - f_delta).norm()
    if r_bar <= target:
        return DPResult(
            a_delta=math.inf,
            V=u_bar,
            achieved_residual=r_bar,
            bracket_evals=1,
            target=target,
            status=ALREADY_COMPATIBLE,
        )
    inner = solve_dp(F.shifted(u_bar), f_delta, delta, cfg)
    return DPResult(
        a_delta=inner.a_delta,
        V=inner.V + u_bar,
        achieved_residual=inner.achieved_residual,
        bracket_evals=inner.bracket_evals,
        target=inner.target,
        status=inner.status,
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

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "defect_ok": self.defect_ok,
            "residual_ok": self.residual_ok,
            "defect_norm": self.defect_norm,
            "defect_bound": self.defect_bound,
            "residual": self.residual,
            "residual_lo": self.residual_lo,
            "residual_hi": self.residual_hi,
        }


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
    if alpha <= 0:
        raise InvalidConfig("alpha must be positive")
    if not 0 < cfg.gamma < 1:
        raise InvalidConfig("the acceptance test needs gamma in (0, 1)")
    if delta <= 0:
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
