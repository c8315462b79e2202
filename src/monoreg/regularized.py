"""Solve the shifted equation F(V) + a V = f_delta and expose its
residual/size functions.

For monotone continuous F the shifted equation has a unique solution for
every right-hand side and every a > 0.  On top of the solver this module
provides the two scalar functions of the shift,

    psi(a) = ||V_a||          (non-increasing in a)
    phi(a) = a * psi(a)       (strictly increasing, bounded by ||F(0)-f||)

whose monotone structure is what makes residual-matching parameter choice
a one-dimensional root-finding problem.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import HilbertVector, NonlinearOperator, solve_shifted, weighted_norm
from .errors import InvalidConfig, NoDerivative, NonConvergence, require_finite

MAX_NEWTON = 200
MAX_RELAX = 10_000
LINE_SEARCH_FLOOR = 1e-4


@dataclass(frozen=True)
class RegularizedSolution:
    """A solution of F(V) + a V = f_delta to a stated residual tolerance."""

    V: HilbertVector
    a: float
    residual: float
    inner_iterations: int


def solve_regularized(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    a: float,
    tol: float | None = None,
    warm_start: HilbertVector | None = None,
) -> RegularizedSolution:
    """Solve F(V) + a V = f_delta to ||F(V) + a V - f_delta|| <= tol.

    Damped Newton with a backtracking line search on the defect norm when
    a derivative is available; otherwise fixed-point relaxation with step
    1 / (M1 + 2 a) from the declared bounds.  Uniqueness of the solution
    makes the result warm-start independent (up to the tolerance).  tol
    left as None is tied to the residual scale: max(1e-12, 1e-4 a ||f_delta||).
    """
    if a <= 0:
        raise InvalidConfig("shift a must be positive")
    if tol is None:
        tol = max(1e-12, 1e-4 * a * f_delta.norm())
    if not tol > 0:
        raise InvalidConfig("tol must be positive")
    V = warm_start if warm_start is not None else HilbertVector.zeros(f_delta.weights)
    V.check_grid(f_delta)

    if F.has_derivative:
        return _newton(F, f_delta.values, a, tol, V)
    return _relaxation(F, f_delta.values, a, tol, V)


def _defect(F, fd, a, V):
    """The values of F(V) + a V - f_delta, for the values fd of f_delta,
    with F(V) checked to live on V's grid."""
    F_V = F(V)
    V.check_grid(F_V)
    return F_V.values + V.values * float(a) - fd


# The two solvers keep the defect as an array on V's grid and wrap only
# the iterates (for F) and the newton right-hand side (for the solve).
def _newton(F, fd, a, tol, V) -> RegularizedSolution:
    w = V.weights
    G = _defect(F, fd, a, V)
    ng = weighted_norm(w, G)
    require_finite(ng, f"the defect at a = {a:g}")
    for it in range(MAX_NEWTON):
        if ng <= tol:
            return RegularizedSolution(V, a, ng, it)
        direction = solve_shifted(F.deriv(V), a, HilbertVector._trusted(G, w),
                                  tol=1e-10).values
        s = 1.0
        while s >= LINE_SEARCH_FLOOR:
            V_try = HilbertVector._trusted(V.values - direction * float(s), w)
            G_try = _defect(F, fd, a, V_try)
            ng_try = weighted_norm(w, G_try)
            if ng_try < ng:
                V, G, ng = V_try, G_try, ng_try
                break
            s *= 0.5
        else:
            raise NonConvergence(
                f"line search stalled at defect {ng:g} (tol {tol:g}); "
                "the operator may violate its monotonicity contract or the "
                "tolerance is below the conditioning floor"
            )
    raise NonConvergence(
        f"no convergence in {MAX_NEWTON} damped Newton steps "
        f"(defect {ng:g}, tol {tol:g})"
    )


def _relaxation(F, fd, a, tol, V) -> RegularizedSolution:
    if F.bounds is None:
        raise NoDerivative(
            "derivative-free solve needs declared bounds (m1) for its step size"
        )
    s = 1.0 / (F.bounds.m1 + 2.0 * a)
    what = f"the defect at a = {a:g}"
    w = V.weights
    for it in range(MAX_RELAX):
        G = _defect(F, fd, a, V)
        ng = weighted_norm(w, G)
        require_finite(ng, what)
        if ng <= tol:
            return RegularizedSolution(V, a, ng, it)
        V = HilbertVector._trusted(V.values - G * float(s), w)
    raise NonConvergence(
        f"no convergence in {MAX_RELAX} relaxation steps (defect {ng:g}, tol {tol:g})"
    )


def phi_psi(
    F: NonlinearOperator,
    f_delta: HilbertVector,
    a: float,
    tol: float | None = None,
    warm_start: HilbertVector | None = None,
) -> tuple[float, float]:
    """Return (phi, psi) = (a * ||V_a||, ||V_a||) at the shift a.

    At the exact solution phi equals the data residual ||F(V_a) - f_delta||;
    with an inexact inner solve the two agree within the inner tolerance.
    """
    sol = solve_regularized(F, f_delta, a, tol=tol, warm_start=warm_start)
    psi = sol.V.norm()
    return a * psi, psi

