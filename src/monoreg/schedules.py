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

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceeded, ConstraintViolated, InvalidConfig, check_fields

NEWTON_FLOW = "newton_flow"
GRADIENT_FLOW = "gradient_flow"
SIMPLE_FLOW = "simple_flow"
NEWTON_ITER = "newton_iter"
GRADIENT_ITER = "gradient_iter"
SIMPLE_ITER = "simple_iter"

CONTINUOUS_KINDS = (NEWTON_FLOW, GRADIENT_FLOW, SIMPLE_FLOW)
DISCRETE_KINDS = (NEWTON_ITER, GRADIENT_ITER, SIMPLE_ITER)

# Exponent ceiling per kind, the same for a flow and its iteration; the
# gradient and simple variants need slower decay for their weaker contraction.
_B_MAX = dict(zip(CONTINUOUS_KINDS + DISCRETE_KINDS, (1.0, 0.25, 0.5) * 2))


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


@dataclass(frozen=True)
class DiscreteSchedule:
    """a_n = d0 / (d + n)**b with d >= 1, so a_n <= 2 a_{n+1} automatically."""

    kind: str
    b: float
    d_or_c: float
    d0: float

    def a(self, n):
        return self.d0 / (self.d_or_c + np.asarray(n, dtype=float)) ** self.b


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
            note = ("boundary case c == 6*b: accepted by the weak-inequality "
                    "variant of the decay condition, rejected here") if margin == 0 else ""
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
    if not d_or_c >= 1.0:
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
        # the conditions divide by y_norm, c1 and lam
        check_fields(self, ("c1", "y_norm", "horizon", "lam"),
                     ("m1", "c0", "residual0"))
        if not math.isfinite(self.horizon):
            raise InvalidConfig(f"horizon must be finite, got {self.horizon}")


@dataclass(frozen=True)
class ConditionCheck:
    """One inequality evaluated over the sampled horizon."""

    name: str
    satisfied: bool
    margin: float
    worst_at: float
    strict: bool

    def to_dict(self) -> dict:
        return asdict(self)


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


class _Condition(NamedTuple):
    """One inequality lhs <= rhs as its margin rhs - lhs: a function of
    lambda, or the margin itself when lambda is absent.  A `ceiling`
    condition that fails at some lambda fails at every larger one."""

    name: str
    margin: Callable | float | np.ndarray
    where: float | np.ndarray = 0.0
    strict: bool = False
    ceiling: bool = False


def _check(cond: _Condition, lam) -> ConditionCheck:
    value = cond.margin(lam) if callable(cond.margin) else cond.margin
    margins = np.atleast_1d(np.asarray(value, dtype=float))
    where = np.atleast_1d(np.asarray(cond.where, dtype=float))
    i = int(np.argmin(margins))
    margin = float(margins[i])
    at = float(where[i]) if where.size == margins.size else float(where[0])
    ok = margin > 0 if cond.strict else margin >= 0
    return ConditionCheck(cond.name, ok, margin, at, cond.strict)


def _holds(margin, strict: bool) -> bool:
    # the verdict of _check without its report; NaN fails
    if isinstance(margin, np.ndarray):
        margin = margin.min()
    return margin > 0 if strict else margin >= 0


@functools.lru_cache(maxsize=8)
def _time_grid(horizon: float, n: int = 1000) -> np.ndarray:
    # built once per horizon: a schedule search validates hundreds of
    # candidates on it, so the one array every caller shares is read-only
    lo = max(horizon * 1e-9, 1e-12)
    t = np.concatenate(([0.0], np.geomspace(lo, horizon, n)))
    t.setflags(write=False)
    return t


def validate_conditions(schedule, params: ValidationParams) -> ConditionReport:
    """Evaluate the schedule kind's full condition set on a sampled grid.

    Continuous kinds are sampled at 1000 log-spaced times plus t = 0 (the
    worst case of every condition in this power-law family); discrete
    kinds at every index up to the horizon.  The set's lambda-free terms
    are computed once; the report lists every condition in its declared
    order at params.lam or, when that is None, at the smallest lambda
    max(m1/y_norm, 2**k) at which the whole set passes (at the bare lower
    bound when none does).  It carries worst margins; nothing raises on
    failure.
    """
    table = _conditions(schedule, params)
    report = _scan_lambda(schedule.kind, table, params)
    if report is None:
        # report against the bare lower bound so margins are informative
        report = _report(schedule.kind, table, max(params.m1 / params.y_norm, 1e-12))
    return report


def _conditions(schedule, params: ValidationParams) -> list[_Condition]:
    if isinstance(schedule, ContinuousSchedule):
        return _CONTINUOUS_CHECKS[schedule.kind](schedule, params)
    if isinstance(schedule, DiscreteSchedule):
        return _DISCRETE_CHECKS[schedule.kind](schedule, params)
    raise InvalidConfig(f"not a schedule: {schedule!r}")


def _report(kind: str, table: list[_Condition], lam) -> ConditionReport:
    return ConditionReport(kind, lam, tuple(_check(c, lam) for c in table))


def _g0_or_default(sched, p: ValidationParams) -> float:
    return p.residual0 / float(sched.a(0)) if p.g0 is None else p.g0


# Each margin keeps the operands and order of its lhs and rhs, so it has
# the same bits whether it is reported or scanned.  Rounding is monotone,
# so initial_residual (a0**k / lam falls) and initial_gap (lam * g0 rises;
# with g0 < 0 it never fails) are ceilings.


def _newton_flow_checks(s: ContinuousSchedule, p: ValidationParams):
    t = _time_grid(p.horizon)
    a = s.a(t)
    ratio = np.abs(s.a_dot(t)) / a  # = b / (c + t)
    bracket = 1.0 - ratio
    two_a, quadratic, drift = 2.0 * a, p.c0 / a, p.c1 * ratio
    floor, a0_sq = p.m1 / p.y_norm, float(s.a(0)) ** 2
    return [
        _Condition("m1_ratio", lambda lam: lam - floor),
        _Condition("quadratic_term",
                   lambda lam: (lam / two_a) * bracket - quadratic, t),
        _Condition("drift_term",
                   lambda lam: (a / (2.0 * lam)) * bracket - drift, t),
        _Condition("initial_residual", lambda lam: a0_sq / lam - p.residual0,
                   ceiling=True),
    ]


def _gradient_flow_checks(s: ContinuousSchedule, p: ValidationParams):
    t = _time_grid(p.horizon)
    a = s.a(t)
    adot = np.abs(s.a_dot(t))
    bracket = a * a - 2.0 * adot / a
    a0 = float(s.a(0))
    g0 = _g0_or_default(s, p)
    a_sq, two_a_sq, floor = a * a, 2.0 * a * a, p.m1 / p.y_norm
    quadratic, drift, a0_sq = p.c0 * (p.m1 + a), p.c1 * adot / a, a0 ** 2
    return [
        _Condition("decay_rate", a ** 3 / 4.0 - adot, t),
        _Condition("m1_ratio", lambda lam: lam - floor),
        _Condition("quadratic_term",
                   lambda lam: (lam / two_a_sq) * bracket - quadratic, t),
        _Condition("drift_term",
                   lambda lam: (a_sq / (2.0 * lam)) * bracket - drift, t),
        _Condition("initial_gap", lambda lam: 1.0 - lam * g0 / a0_sq,
                   strict=True, ceiling=True),
    ]


def _simple_flow_checks(s: ContinuousSchedule, p: ValidationParams):
    t = _time_grid(p.horizon)
    a = s.a(t)
    adot = np.abs(s.a_dot(t))
    bracket = a - adot / a
    a0 = float(s.a(0))
    g0 = _g0_or_default(s, p)
    two_a, drift, floor = 2.0 * a, p.c1 * adot / a, p.m1 / p.y_norm
    return [
        _Condition("decay_rate", a * a / 2.0 - adot, t),
        _Condition("m1_ratio", lambda lam: lam - floor),
        # its left-hand side is 0.0, and x - 0.0 is x
        _Condition("bracket_nonneg", lambda lam: (lam / two_a) * bracket, t),
        _Condition("drift_term",
                   lambda lam: (a / (2.0 * lam)) * bracket - drift, t),
        _Condition("initial_gap", lambda lam: 1.0 - lam * g0 / a0,
                   strict=True, ceiling=True),
    ]


def _discrete_grid(s: DiscreteSchedule, p: ValidationParams):
    # n, a_n, a_{n+1} and the drift c1 (a_n - a_{n+1}) / a_{n+1}
    n = np.arange(int(p.horizon) + 1, dtype=float)
    an, anext = s.a(n), s.a(n + 1.0)
    return n, an, anext, p.c1 * (an - anext) / anext


def _newton_iter_checks(s: DiscreteSchedule, p: ValidationParams):
    n, an, anext, drift = _discrete_grid(s, p)
    a0_sq = float(s.a(0)) ** 2
    decrement, c0_an = (an - anext) / anext ** 2, p.c0 * an
    return [
        _Condition("ratio_bound", 2.0 * anext - an, n),
        _Condition("initial_residual", lambda lam: a0_sq / lam - p.residual0,
                   ceiling=True),
        _Condition("m1_ratio", lambda lam: p.y_norm - p.m1 / lam),
        _Condition("decrement_bound",
                   lambda lam: 1.0 / (2.0 * p.c1 * lam) - decrement, n),
        _Condition("recursion_margin",
                   lambda lam: anext / lam - (c0_an / lam ** 2 + drift), n),
    ]


def _require_alpha_tilde(p: ValidationParams) -> float:
    if p.alpha_tilde is None:
        raise InvalidConfig(
            "alpha_tilde is required to validate gradient/simple iteration "
            "schedules"
        )
    return p.alpha_tilde


def _gradient_iter_checks(s: DiscreteSchedule, p: ValidationParams):
    n, an, anext, drift = _discrete_grid(s, p)
    a0 = float(s.a(0))
    at = _require_alpha_tilde(p)
    a0_cubed, cap = a0 ** 3, p.c0 * (p.m1 + a0)
    an_sq, at_an4, anext_sq = an ** 2, at * an ** 4, anext ** 2
    return [
        _Condition("ratio_bound", 2.0 * anext - an, n),
        _Condition("initial_residual",
                   lambda lam: a0_cubed / lam - p.residual0, ceiling=True),
        _Condition("m1_ratio", lambda lam: p.y_norm - p.m1 / lam),
        _Condition("curvature_cap", lambda lam: 0.5 - cap / lam),
        _Condition("recursion_margin", lambda lam: anext_sq / lam
                   - (an_sq / lam - at_an4 / (2.0 * lam) + drift), n),
    ]


def _simple_iter_checks(s: DiscreteSchedule, p: ValidationParams):
    n, an, anext, drift = _discrete_grid(s, p)
    a0_sq = float(s.a(0)) ** 2
    at_an_sq = _require_alpha_tilde(p) * an ** 2
    return [
        _Condition("ratio_bound", 2.0 * anext - an, n),
        _Condition("initial_residual", lambda lam: a0_sq / lam - p.residual0,
                   ceiling=True),
        _Condition("m1_ratio", lambda lam: p.y_norm - p.m1 / lam),
        _Condition("recursion_margin", lambda lam: anext / lam
                   - (an / lam - at_an_sq / lam + drift), n),
    ]


_CONTINUOUS_CHECKS = dict(zip(CONTINUOUS_KINDS, (
    _newton_flow_checks, _gradient_flow_checks, _simple_flow_checks)))
_DISCRETE_CHECKS = dict(zip(DISCRETE_KINDS, (
    _newton_iter_checks, _gradient_iter_checks, _simple_iter_checks)))


@functools.lru_cache(maxsize=8)
def _lambdas(floor: float) -> tuple[float, ...]:
    # max(floor, 2**k) for k = -20..60, increasing, each value once
    return tuple(dict.fromkeys(max(floor, 2.0 ** k) for k in range(-20, 61)))


def _scan_lambda(kind: str, table: list[_Condition],
                 params: ValidationParams) -> ConditionReport | None:
    """The report at params.lam when it is set; else the report at the
    smallest lambda max(m1/y_norm, 2**k) at which the whole table passes,
    or None (try a larger scale parameter).

    Conditions pull lambda both ways, so the admissible set is an interval.
    Lambda-free conditions are checked once; at each lambda the scalar
    conditions go first, the first failure rejects it, and a failed
    `ceiling` condition ends the scan."""
    if params.lam is not None:
        return _report(kind, table, params.lam)
    if not all(_holds(c.margin, c.strict) for c in table
               if not callable(c.margin)):
        return None
    varying = sorted((c for c in table if callable(c.margin)),
                     key=lambda c: isinstance(c.where, np.ndarray))
    floor = params.m1 / params.y_norm
    for lam in _lambdas(floor):
        for c in varying:
            if not _holds(c.margin(lam), c.strict):
                if c.ceiling:
                    return None
                break
        else:
            return _report(kind, table, lam)
    return None


@dataclass(frozen=True)
class ScheduleSearch:
    """A validated schedule together with the report that certified it
    (report.lam is the lambda)."""

    schedule: ContinuousSchedule | DiscreteSchedule
    report: ConditionReport


# the scales find_continuous (d) and find_discrete (d0) try, smallest first
SEARCH_GRID = tuple(float(2 ** k) for k in range(21))


def _search(build, params: ValidationParams, failure: str) -> ScheduleSearch:
    # the first schedule build(x), x in SEARCH_GRID, whose full condition set
    # passes with an admissible lambda; BudgetExceeded(failure) when none does
    for value in SEARCH_GRID:
        try:
            schedule = build(value)
        except ConstraintViolated:
            continue
        report = _scan_lambda(schedule.kind, _conditions(schedule, params), params)
        if report is not None and report.passed:
            return ScheduleSearch(schedule, report)
    raise BudgetExceeded(failure)


def find_continuous(
    kind: str,
    b: float,
    c: float,
    params: ValidationParams,
) -> ScheduleSearch:
    """Smallest d in SEARCH_GRID (1, 2, 4, ..., 2**20) for which the kind's
    full condition set passes (with an admissible lambda); the existence
    proofs promise only 'd sufficiently large', so this is the constructive
    counterpart."""
    return _search(
        lambda d: make_continuous(kind, b, c, d), params,
        f"no admissible d in the search grid for kind={kind!r}, b={b}, c={c}",
    )


def find_discrete(
    kind: str,
    b: float,
    d_or_c: float,
    params: ValidationParams,
) -> ScheduleSearch:
    """Discrete counterpart of `find_continuous`, searching SEARCH_GRID
    over d0."""
    return _search(
        lambda d0: make_discrete(kind, b, d_or_c, d0), params,
        f"no admissible d0 in the search grid for kind={kind!r}, b={b}, "
        f"d_or_c={d_or_c}",
    )
