"""Power-law regularization schedules and their admissibility conditions.

Continuous schedules a(t) = d / (c + t)**b drive the three continuation
flows; discrete schedules a_n = d0 / (d + n)**b drive the corresponding
iterations.  Each solver variant needs its own set of inequalities to
hold along the whole schedule; `validate_conditions` evaluates every
inequality of the matching set on a sampled grid and reports worst-case
margins, and the `find_*` helpers search for the smallest "sufficiently
large" scale parameter that makes a set pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded, ConstraintViolated, InvalidConfig

NEWTON_FLOW = "newton_flow"
GRADIENT_FLOW = "gradient_flow"
SIMPLE_FLOW = "simple_flow"
NEWTON_ITER = "newton_iter"
GRADIENT_ITER = "gradient_iter"
SIMPLE_ITER = "simple_iter"

CONTINUOUS_KINDS = (NEWTON_FLOW, GRADIENT_FLOW, SIMPLE_FLOW)
DISCRETE_KINDS = (NEWTON_ITER, GRADIENT_ITER, SIMPLE_ITER)

# Exponent ceiling per kind; the gradient and simple variants need slower
# decay for their weaker contraction.
_B_MAX = {
    NEWTON_FLOW: 1.0,
    NEWTON_ITER: 1.0,
    GRADIENT_FLOW: 0.25,
    GRADIENT_ITER: 0.25,
    SIMPLE_FLOW: 0.5,
    SIMPLE_ITER: 0.5,
}


@dataclass(frozen=True)
class ContinuousSchedule:
    """a(t) = d / (c + t)**b, strictly positive and strictly decreasing."""

    kind: str
    b: float
    c: float
    d: float

    def a(self, t):
        return self.d / (self.c + t) ** self.b

    def a_dot(self, t):
        # exact closed form of da/dt
        return -self.b * self.d / (self.c + t) ** (self.b + 1.0)

    def time_for_level(self, a_target: float) -> float:
        """First t with a(t) = a_target (may be negative if a(0) < target)."""
        return (self.d / a_target) ** (1.0 / self.b) - self.c


@dataclass(frozen=True)
class DiscreteSchedule:
    """a_n = d0 / (d + n)**b with d >= 1, so a_n <= 2 a_{n+1} automatically."""

    kind: str
    b: float
    d_or_c: float
    d0: float

    def a(self, n):
        return self.d0 / (self.d_or_c + np.asarray(n, dtype=float)) ** self.b

    def index_for_level(self, a_target: float) -> int:
        """First n >= 0 with a_n <= a_target (a_target > 0)."""
        n = max(math.ceil((self.d0 / a_target) ** (1.0 / self.b)
                          - self.d_or_c), 0)
        # the closed form can land one index off in floating point; settle
        # it on the values `a` returns
        while n > 0 and self.a(n - 1) <= a_target:
            n -= 1
        while self.a(n) > a_target:
            n += 1
        return n


def make_continuous(kind: str, b: float, c: float, d: float) -> ContinuousSchedule:
    """Construct a continuous schedule, enforcing the kind's admissibility
    inequality (ConstraintViolated names the failed one and its margin)."""
    if kind not in CONTINUOUS_KINDS:
        raise InvalidConfig(f"unknown continuous schedule kind {kind!r}")
    _check_positive(b=b, c=c, d=d)
    if b > _B_MAX[kind]:
        raise ConstraintViolated(f"b <= {_B_MAX[kind]}", _B_MAX[kind] - b)
    if kind == NEWTON_FLOW:
        margin = c - 6.0 * b
        if margin <= 0:
            note = (
                "boundary case c == 6*b: accepted by the weak-inequality "
                "variant of the decay condition, rejected here"
                if margin == 0
                else ""
            )
            raise ConstraintViolated("c > 6*b", margin, note)
    elif kind == GRADIENT_FLOW:
        margin = d * d * c ** (1.0 - 2.0 * b) - 6.0 * b
        if margin < 0:
            raise ConstraintViolated("d**2 * c**(1-2b) >= 6*b", margin)
    elif kind == SIMPLE_FLOW:
        margin = d * c ** (1.0 - b) - 6.0 * b
        if margin < 0:
            raise ConstraintViolated("d * c**(1-b) >= 6*b", margin)
    return ContinuousSchedule(kind, b, c, d)


def make_discrete(kind: str, b: float, d_or_c: float, d0: float) -> DiscreteSchedule:
    """Construct a discrete schedule; d_or_c >= 1 guarantees the step
    ratio a_n / a_{n+1} = ((d+n+1)/(d+n))**b <= 2**b <= 2 for all n."""
    if kind not in DISCRETE_KINDS:
        raise InvalidConfig(f"unknown discrete schedule kind {kind!r}")
    _check_positive(b=b, d0=d0)
    if d_or_c < 1.0:
        raise ConstraintViolated("d_or_c >= 1", d_or_c - 1.0)
    if b > _B_MAX[kind]:
        raise ConstraintViolated(f"b <= {_B_MAX[kind]}", _B_MAX[kind] - b)
    return DiscreteSchedule(kind, b, d_or_c, d0)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ConstraintViolated(f"{name} > 0", value)


@dataclass(frozen=True)
class ValidationParams:
    """Problem-dependent constants the admissibility conditions refer to.

    m1 bounds the derivative norm over the working ball; c0 and c1 are the
    curvature and drift constants of the tracking estimates; y_norm is an
    estimate (or known value) of the solution norm; residual0 is
    ||F(0) - f_delta||.  lam left as None asks the validator to pick the
    smallest admissible power of two at least m1 / y_norm.  g0 left as
    None falls back to the residual0 / a(0) bound that a zero start
    satisfies.
    """

    m1: float
    c0: float
    c1: float
    y_norm: float
    residual0: float
    horizon: float
    lam: float | None = None
    alpha_tilde: float | None = None
    g0: float | None = None

    def __post_init__(self):
        for name in ("m1", "c0", "c1", "y_norm", "residual0"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be nonnegative")
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise InvalidConfig("horizon must be finite and positive")


@dataclass(frozen=True)
class ConditionCheck:
    """One inequality evaluated over the sampled horizon."""

    name: str
    satisfied: bool
    margin: float
    worst_at: float
    strict: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "worst_at": self.worst_at,
            "strict": self.strict,
        }


@dataclass(frozen=True)
class ConditionReport:
    """Margins of every kind-relevant condition plus the lambda used."""

    kind: str
    lam: float
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lam": self.lam,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def rows(self) -> list[tuple]:
        return [
            (c.name, "pass" if c.satisfied else "FAIL", c.margin, c.worst_at)
            for c in self.checks
        ]


def _check(name, lhs, rhs, where, strict=False) -> ConditionCheck:
    margins = np.atleast_1d(np.asarray(rhs, dtype=float) - np.asarray(lhs, dtype=float))
    where = np.atleast_1d(np.asarray(where, dtype=float))
    i = int(np.argmin(margins))
    margin = float(margins[i])
    at = float(where[i]) if where.size == margins.size else float(where[0])
    ok = margin > 0 if strict else margin >= 0
    return ConditionCheck(name, ok, margin, at, strict)


def _time_grid(horizon: float, n: int = 1000) -> np.ndarray:
    lo = max(horizon * 1e-9, 1e-12)
    return np.concatenate(([0.0], np.geomspace(lo, horizon, n)))


def validate_conditions(schedule, params: ValidationParams) -> ConditionReport:
    """Evaluate the schedule kind's full condition set on a sampled grid.

    Continuous kinds are sampled at 1000 log-spaced times plus t = 0 (the
    worst case of every condition in this power-law family); discrete
    kinds at every index up to the horizon.  The report carries worst
    margins; nothing raises on failure.
    """
    lam = params.lam
    if lam is None:
        lam = choose_lambda(schedule, params)
        if lam is None:
            # report against the bare lower bound so margins are informative
            lam = max(params.m1 / params.y_norm, 1e-12)
    p = replace(params, lam=lam)
    if isinstance(schedule, ContinuousSchedule):
        checks = _CONTINUOUS_CHECKS[schedule.kind](schedule, p)
    elif isinstance(schedule, DiscreteSchedule):
        checks = _DISCRETE_CHECKS[schedule.kind](schedule, p)
    else:
        raise InvalidConfig(f"not a schedule: {schedule!r}")
    return ConditionReport(schedule.kind, lam, tuple(checks))


def _g0_or_default(sched, p: ValidationParams) -> float:
    if p.g0 is not None:
        return p.g0
    a0 = float(sched.a(0))
    return p.residual0 / a0


def _newton_flow_checks(s: ContinuousSchedule, p: ValidationParams):
    t = _time_grid(p.horizon)
    a = s.a(t)
    ratio = np.abs(s.a_dot(t)) / a  # = b / (c + t)
    bracket = 1.0 - ratio
    checks = [
        _check("m1_ratio", p.m1 / p.y_norm, p.lam, 0.0),
        _check("quadratic_term", p.c0 / a, (p.lam / (2.0 * a)) * bracket, t),
        _check("drift_term", p.c1 * ratio, (a / (2.0 * p.lam)) * bracket, t),
        _check("initial_residual", p.residual0, float(s.a(0)) ** 2 / p.lam, 0.0),
    ]
    return checks


def _gradient_flow_checks(s: ContinuousSchedule, p: ValidationParams):
    t = _time_grid(p.horizon)
    a = s.a(t)
    adot = np.abs(s.a_dot(t))
    bracket = a * a - 2.0 * adot / a
    a0 = float(s.a(0))
    g0 = _g0_or_default(s, p)
    checks = [
        _check("decay_rate", adot, a ** 3 / 4.0, t),
        _check("m1_ratio", p.m1 / p.y_norm, p.lam, 0.0),
        _check(
            "quadratic_term",
            p.c0 * (p.m1 + a),
            (p.lam / (2.0 * a * a)) * bracket,
            t,
        ),
        _check(
            "drift_term",
            p.c1 * adot / a,
            (a * a / (2.0 * p.lam)) * bracket,
            t,
        ),
        _check("initial_gap", p.lam * g0 / a0 ** 2, 1.0, 0.0, strict=True),
    ]
    return checks


def _simple_flow_checks(s: ContinuousSchedule, p: ValidationParams):
    t = _time_grid(p.horizon)
    a = s.a(t)
    adot = np.abs(s.a_dot(t))
    bracket = a - adot / a
    a0 = float(s.a(0))
    g0 = _g0_or_default(s, p)
    checks = [
        _check("decay_rate", adot, a * a / 2.0, t),
        _check("m1_ratio", p.m1 / p.y_norm, p.lam, 0.0),
        _check("bracket_nonneg", 0.0, (p.lam / (2.0 * a)) * bracket, t),
        _check("drift_term", p.c1 * adot / a, (a / (2.0 * p.lam)) * bracket, t),
        _check("initial_gap", p.lam * g0 / a0, 1.0, 0.0, strict=True),
    ]
    return checks


def _discrete_grid(s: DiscreteSchedule, p: ValidationParams):
    n = np.arange(int(p.horizon) + 1, dtype=float)
    return n, s.a(n), s.a(n + 1.0)


def _newton_iter_checks(s: DiscreteSchedule, p: ValidationParams):
    n, an, anext = _discrete_grid(s, p)
    a0 = float(s.a(0))
    checks = [
        _check("ratio_bound", an, 2.0 * anext, n),
        _check("initial_residual", p.residual0, a0 ** 2 / p.lam, 0.0),
        _check("m1_ratio", p.m1 / p.lam, p.y_norm, 0.0),
        _check(
            "decrement_bound",
            (an - anext) / anext ** 2,
            1.0 / (2.0 * p.c1 * p.lam),
            n,
        ),
        _check(
            "recursion_margin",
            p.c0 * an / p.lam ** 2 + p.c1 * (an - anext) / anext,
            anext / p.lam,
            n,
        ),
    ]
    return checks


def _require_alpha_tilde(p: ValidationParams) -> float:
    if p.alpha_tilde is None:
        raise InvalidConfig(
            "alpha_tilde is required to validate gradient/simple iteration "
            "schedules"
        )
    return p.alpha_tilde


def _gradient_iter_checks(s: DiscreteSchedule, p: ValidationParams):
    n, an, anext = _discrete_grid(s, p)
    a0 = float(s.a(0))
    at = _require_alpha_tilde(p)
    checks = [
        _check("ratio_bound", an, 2.0 * anext, n),
        _check("initial_residual", p.residual0, a0 ** 3 / p.lam, 0.0),
        _check("m1_ratio", p.m1 / p.lam, p.y_norm, 0.0),
        _check("curvature_cap", p.c0 * (p.m1 + a0) / p.lam, 0.5, 0.0),
        _check(
            "recursion_margin",
            an ** 2 / p.lam
            - at * an ** 4 / (2.0 * p.lam)
            + p.c1 * (an - anext) / anext,
            anext ** 2 / p.lam,
            n,
        ),
    ]
    return checks


def _simple_iter_checks(s: DiscreteSchedule, p: ValidationParams):
    n, an, anext = _discrete_grid(s, p)
    a0 = float(s.a(0))
    at = _require_alpha_tilde(p)
    checks = [
        _check("ratio_bound", an, 2.0 * anext, n),
        _check("initial_residual", p.residual0, a0 ** 2 / p.lam, 0.0),
        _check("m1_ratio", p.m1 / p.lam, p.y_norm, 0.0),
        _check(
            "recursion_margin",
            an / p.lam - at * an ** 2 / p.lam + p.c1 * (an - anext) / anext,
            anext / p.lam,
            n,
        ),
    ]
    return checks


_CONTINUOUS_CHECKS = {
    NEWTON_FLOW: _newton_flow_checks,
    GRADIENT_FLOW: _gradient_flow_checks,
    SIMPLE_FLOW: _simple_flow_checks,
}
_DISCRETE_CHECKS = {
    NEWTON_ITER: _newton_iter_checks,
    GRADIENT_ITER: _gradient_iter_checks,
    SIMPLE_ITER: _simple_iter_checks,
}


def choose_lambda(schedule, params: ValidationParams) -> float | None:
    """Smallest admissible lambda of the form max(m1/y_norm, 2**k).

    Conditions pull lambda in both directions, so the admissible set is an
    interval; scanning powers of two finds a member when the interval is
    wide enough, else returns None (try a larger scale parameter).
    """
    floor = params.m1 / params.y_norm if params.y_norm > 0 else 0.0
    tried = set()
    for k in range(-20, 61):
        lam = max(floor, 2.0 ** k)
        if lam in tried:
            continue
        tried.add(lam)
        report = validate_conditions(schedule, replace(params, lam=lam))
        if report.passed:
            return lam
    return None


@dataclass(frozen=True)
class ScheduleSearch:
    """A validated schedule together with the lambda that certified it."""

    schedule: ContinuousSchedule | DiscreteSchedule
    lam: float
    report: ConditionReport


_DEFAULT_GRID = tuple(float(2 ** k) for k in range(21))


def find_continuous(
    kind: str,
    b: float,
    c: float,
    params: ValidationParams,
    d_grid: tuple[float, ...] = _DEFAULT_GRID,
) -> ScheduleSearch:
    """Smallest d in the grid for which the kind's full condition set
    passes (with an admissible lambda); the existence proofs promise only
    'd sufficiently large', so this is the constructive counterpart."""
    for d in d_grid:
        try:
            schedule = make_continuous(kind, b, c, d)
        except ConstraintViolated:
            continue
        lam = params.lam if params.lam is not None else choose_lambda(schedule, params)
        if lam is None:
            continue
        report = validate_conditions(schedule, replace(params, lam=lam))
        if report.passed:
            return ScheduleSearch(schedule, lam, report)
    raise BudgetExceeded(
        f"no admissible d in the search grid for kind={kind!r}, b={b}, c={c}"
    )


def find_discrete(
    kind: str,
    b: float,
    d_or_c: float,
    params: ValidationParams,
    d0_grid: tuple[float, ...] = _DEFAULT_GRID,
) -> ScheduleSearch:
    """Discrete counterpart of `find_continuous`, searching over d0."""
    for d0 in d0_grid:
        try:
            schedule = make_discrete(kind, b, d_or_c, d0)
        except ConstraintViolated:
            continue
        lam = params.lam if params.lam is not None else choose_lambda(schedule, params)
        if lam is None:
            continue
        report = validate_conditions(schedule, replace(params, lam=lam))
        if report.passed:
            return ScheduleSearch(schedule, lam, report)
    raise BudgetExceeded(
        f"no admissible d0 in the search grid for kind={kind!r}, b={b}, "
        f"d_or_c={d_or_c}"
    )
