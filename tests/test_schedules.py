import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoreg import (
    BudgetExceeded,
    ConstraintViolated,
    InvalidConfig,
    ValidationParams,
    find_continuous,
    find_discrete,
    make_continuous,
    make_discrete,
    validate_conditions,
)
import monoreg.schedules
from monoreg.schedules import (
    GRADIENT_FLOW,
    GRADIENT_ITER,
    NEWTON_FLOW,
    NEWTON_ITER,
    SIMPLE_FLOW,
    SIMPLE_ITER,
    ContinuousSchedule,
    DiscreteSchedule,
)


# ------------------------------------------------------------- construction


def test_newton_flow_accepts_strict_decay_margin():
    s = make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=10.0)
    assert s.a(0.0) == pytest.approx(10.0 / 7.0)


def test_newton_flow_rejects_small_c():
    with pytest.raises(ConstraintViolated) as info:
        make_continuous(NEWTON_FLOW, b=1.0, c=5.0, d=10.0)
    assert info.value.margin == pytest.approx(-1.0)


def test_newton_flow_boundary_is_rejected_with_note():
    with pytest.raises(ConstraintViolated) as info:
        make_continuous(NEWTON_FLOW, b=1.0, c=6.0, d=10.0)
    assert info.value.margin == 0.0
    assert "boundary" in info.value.note


def test_gradient_flow_product_condition():
    # d**2 * c**(1 - 2b) = 1.69 >= 6b = 1.5
    s = make_continuous(GRADIENT_FLOW, b=0.25, c=1.0, d=1.3)
    assert s.kind == GRADIENT_FLOW
    with pytest.raises(ConstraintViolated):
        make_continuous(GRADIENT_FLOW, b=0.25, c=1.0, d=1.2)


def test_simple_flow_product_condition():
    make_continuous(SIMPLE_FLOW, b=0.5, c=1.0, d=3.0)
    with pytest.raises(ConstraintViolated):
        make_continuous(SIMPLE_FLOW, b=0.5, c=1.0, d=2.9)


def test_exponent_ranges_per_kind():
    with pytest.raises(ConstraintViolated):
        make_continuous(GRADIENT_FLOW, b=0.3, c=1.0, d=10.0)
    with pytest.raises(ConstraintViolated):
        make_continuous(SIMPLE_FLOW, b=0.6, c=1.0, d=10.0)
    with pytest.raises(ConstraintViolated):
        make_discrete(SIMPLE_ITER, b=0.6, d_or_c=1.0, d0=1.0)


def test_discrete_ratio_boundary():
    s = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=5.0)
    assert s.a(0) / s.a(1) == pytest.approx(2.0)
    for d_or_c in (0.5, np.nan):
        with pytest.raises(ConstraintViolated, match="d_or_c >= 1"):
            make_discrete(NEWTON_ITER, b=1.0, d_or_c=d_or_c, d0=5.0)


def test_benchmark_heuristic_scale():
    from monoreg.bench import schedule_scale

    d0 = schedule_scale(4.0, 0.01)
    assert d0 == pytest.approx(0.0418853, abs=1e-6)
    s = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, d0=d0)
    assert s.a(0) == pytest.approx(d0)


# ------------------------------------------------------------- closed forms


@given(
    st.sampled_from([NEWTON_FLOW, GRADIENT_FLOW, SIMPLE_FLOW]),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=7.0, max_value=50.0),
    st.floats(min_value=3.0, max_value=50.0),
)
@settings(max_examples=100)
def test_schedule_positive_decreasing_and_derivative_exact(kind, b, c, d):
    from monoreg.schedules import _B_MAX

    b = min(b, _B_MAX[kind])
    s = make_continuous(kind, b, c, d)
    t = np.geomspace(1e-3, 1e4, 64)
    a = s.a(t)
    assert np.all(a > 0)
    assert np.all(np.diff(s.a(np.sort(np.concatenate([[0.0], t])))) < 0)
    # step proportional to c + t balances truncation against cancellation
    h = 1e-6 * (s.c + t)
    fd = (s.a(t + h) - s.a(t - h)) / (2.0 * h)
    assert np.allclose(s.a_dot(t), fd, rtol=1e-8, atol=1e-16)


@given(
    st.sampled_from([NEWTON_ITER, GRADIENT_ITER, SIMPLE_ITER]),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1.0, max_value=40.0),
    st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=100)
def test_discrete_ratio_bound_holds(kind, b, d_or_c, d0):
    from monoreg.schedules import _B_MAX

    b = min(b, _B_MAX[kind])
    s = make_discrete(kind, b, d_or_c, d0)
    n = np.arange(200)
    a = s.a(n)
    assert np.all(a[:-1] <= 2.0 * a[1:])
    assert np.all(np.diff(a) < 0)


# ---------------------------------------------------------------- validation


def _params(**overrides):
    defaults = dict(
        m1=2.0,
        c0=1.0,
        c1=5.0,
        y_norm=1.0,
        residual0=1.3,
        horizon=1e4,
    )
    defaults.update(overrides)
    return ValidationParams(**defaults)


@pytest.mark.parametrize("field", ["m1", "c0", "c1", "y_norm", "residual0"])
@pytest.mark.parametrize("value", [-1.0, np.nan, 0.0])
def test_validation_params_must_be_nonnegative(field, value):
    # the conditions divide by c1 and y_norm, so 0 is out of their range
    if field in ("c1", "y_norm"):
        with pytest.raises(InvalidConfig, match=f"{field} must be positive"):
            _params(**{field: value})
    elif value == 0.0:
        assert getattr(_params(**{field: value}), field) == 0.0
    else:
        with pytest.raises(InvalidConfig, match=f"{field} must be nonnegative"):
            _params(**{field: value})


def test_equality_ratio_condition_passes_at_zero_margin():
    s = make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=100.0)
    params = _params(lam=2.0, m1=2.0, y_norm=1.0)  # m1 / y_norm == lam
    report = validate_conditions(s, params)
    m1_check = {c.name: c for c in report.checks}["m1_ratio"]
    assert m1_check.satisfied
    assert m1_check.margin == 0.0


def test_newton_flow_bracket_bounded_below():
    # |a'|/a = b/(c+t) <= b/c < 1/6, so the bracket 1 - |a'|/a >= 5/6;
    # the drift condition margin is therefore worst at t = 0
    s = make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=200.0)
    t = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 1000)])
    ratio = np.abs(s.a_dot(t)) / s.a(t)
    assert ratio.max() == pytest.approx(1.0 / 7.0)
    assert ratio.max() < 1.0 / 6.0
    report = validate_conditions(s, _params(lam=2.0))
    drift = {c.name: c for c in report.checks}["drift_term"]
    assert drift.satisfied and drift.margin > 0


def test_simple_flow_decay_rate_example():
    # |a'| <= a^2 / 2 iff b <= (d/2) (c+t)^(1-b); the ratio is tightest at
    # t = 0, where the two sides are 1.5 and 4.5
    s = make_continuous(SIMPLE_FLOW, b=0.5, c=1.0, d=3.0)
    assert abs(s.a_dot(0.0)) == pytest.approx(1.5)
    assert s.a(0.0) ** 2 / 2.0 == pytest.approx(4.5)
    report = validate_conditions(
        s, _params(lam=4.0, m1=2.0, y_norm=1.0, residual0=1.0)
    )
    decay = {c.name: c for c in report.checks}["decay_rate"]
    assert decay.satisfied and decay.margin > 0


def test_search_finds_newton_flow_scale():
    result = find_continuous(NEWTON_FLOW, b=1.0, c=7.0, params=_params())
    assert result.report.passed
    # the certified schedule re-validates with the parameters used
    again = validate_conditions(
        result.schedule, _params(lam=result.lam)
    )
    assert again.passed


def test_search_builds_its_time_grid_once(monkeypatch):
    grids = []
    geomspace = np.geomspace
    monkeypatch.setattr(np, "geomspace",
                        lambda *args: grids.append(args) or geomspace(*args))
    monoreg.schedules._time_grid.cache_clear()
    params = _params(horizon=12345.0)
    result = find_continuous(NEWTON_FLOW, b=1.0, c=7.0, params=params)
    assert result.report.passed and len(grids) == 1
    # every caller gets the same array, so none may write to it
    t = monoreg.schedules._time_grid(params.horizon)
    assert not t.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 1.0


def test_search_evaluates_each_candidate_schedule_once(monkeypatch):
    # a(t) and a'(t) on the time grid once per candidate scale d, not once
    # per lambda tried
    calls = collections.Counter()
    for name in ("a", "a_dot"):
        def counted(self, t, method=getattr(ContinuousSchedule, name), name=name):
            if np.ndim(t):
                calls[name, self.d] += 1
            return method(self, t)
        monkeypatch.setattr(ContinuousSchedule, name, counted)
    result = find_continuous(NEWTON_FLOW, b=1.0, c=7.0, params=_params())
    scales = [d for d in monoreg.schedules._DEFAULT_GRID if d <= result.schedule.d]
    assert len(scales) == 7
    assert calls == {(name, d): 1 for name in ("a", "a_dot") for d in scales}


def _scan_by_validation(schedule, params):
    """The lambda scan as it was before the condition table: the full
    report at each lambda max(m1/y_norm, 2**k) in turn; None if none passes."""
    floor = params.m1 / params.y_norm if params.y_norm > 0 else 0.0
    tried = set()
    for k in range(-20, 61):
        lam = max(floor, 2.0 ** k)
        if lam in tried:
            continue
        tried.add(lam)
        report = validate_conditions(schedule, dataclasses.replace(params, lam=lam))
        if report.passed:
            return report
    return None


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def _schedules_and_params(draw):
    kind = draw(st.sampled_from([NEWTON_FLOW, GRADIENT_FLOW, SIMPLE_FLOW,
                                 NEWTON_ITER, GRADIENT_ITER, SIMPLE_ITER]))
    b = draw(_floats(0.05, monoreg.schedules._B_MAX[kind]))
    if kind in monoreg.schedules.CONTINUOUS_KINDS:
        # built directly, so schedules outside make_continuous's constraints
        # (a bracket that changes sign) are scanned too
        schedule = ContinuousSchedule(kind, b, draw(_floats(0.1, 50.0)),
                                      draw(_floats(0.1, 500.0)))
        horizon = draw(_floats(1.0, 1e6))
    else:
        schedule = DiscreteSchedule(kind, b, draw(_floats(1.0, 30.0)),
                                    draw(_floats(0.1, 500.0)))
        horizon = float(draw(st.integers(1, 2000)))
    # c1 > 0: the newton_iter decrement bound divides by it
    params = ValidationParams(
        m1=draw(_floats(0.0, 10.0)), c0=draw(_floats(0.0, 10.0)),
        c1=draw(_floats(1e-3, 10.0)), y_norm=draw(_floats(0.1, 10.0)),
        residual0=draw(_floats(0.0, 10.0)), horizon=horizon,
        alpha_tilde=draw(_floats(1e-4, 1.0)),
        g0=draw(st.none() | _floats(-1.0, 10.0)),
    )
    return schedule, params


@given(_schedules_and_params())
@settings(max_examples=150, deadline=None)
def test_scan_picks_the_lambda_and_report_of_full_validation(case):
    schedule, params = case
    expected = _scan_by_validation(schedule, params)
    table = monoreg.schedules._conditions(schedule, params)
    scanned = monoreg.schedules._scan_lambda(schedule.kind, table, params)
    if expected is None:
        assert scanned is None
        floor = max(params.m1 / params.y_norm, 1e-12)
        expected = validate_conditions(
            schedule, dataclasses.replace(params, lam=floor))
    else:
        assert scanned.lam == expected.lam
        assert repr(scanned.to_dict()) == repr(expected.to_dict())
    # repr keeps the bits of every margin, NaN and -0.0 included
    assert repr(validate_conditions(schedule, params).to_dict()) == repr(
        expected.to_dict())


def test_search_finds_discrete_scales():
    newton = find_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, params=_params())
    assert newton.report.passed
    gradient = find_discrete(
        GRADIENT_ITER,
        b=0.25,
        d_or_c=1.0,
        params=_params(alpha_tilde=1e-3),
    )
    assert gradient.report.passed
    simple = find_discrete(
        SIMPLE_ITER,
        b=0.5,
        d_or_c=1.0,
        params=_params(alpha_tilde=1e-2),
    )
    assert simple.report.passed


def test_search_without_an_admissible_value_raises():
    # -1 violates the constraints, the other values fail validation
    with pytest.raises(BudgetExceeded) as info:
        find_continuous(NEWTON_FLOW, b=1.0, c=7.0, params=_params(),
                        d_grid=(-1.0, 1.0, 32.0))
    assert str(info.value) == (
        "no admissible d in the search grid for kind='newton_flow', b=1.0, c=7.0"
    )
    with pytest.raises(BudgetExceeded) as info:
        find_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, params=_params(),
                      d0_grid=(-1.0, 1.0, 64.0))
    assert str(info.value) == (
        "no admissible d0 in the search grid for kind='newton_iter', b=1.0, "
        "d_or_c=1.0"
    )


def test_gradient_flow_conditions_at_example_point():
    s = make_continuous(GRADIENT_FLOW, b=0.25, c=1.0, d=1.3)
    # decay_rate: |a'| <= a^3/4 iff d^2 (c+t)^(1/2) >= 1; holds since d > 1
    report = validate_conditions(
        s,
        _params(m1=0.05, c0=0.05, c1=0.05, residual0=0.5, y_norm=1.0,
                lam=0.5, g0=0.1),
    )
    decay = {c.name: c for c in report.checks}["decay_rate"]
    assert decay.satisfied


@pytest.mark.parametrize("make, kind, family", [
    (make_continuous, NEWTON_ITER, "continuous"),
    (make_discrete, NEWTON_FLOW, "discrete"),
])
def test_a_builder_rejects_the_other_familys_kind(make, kind, family):
    with pytest.raises(InvalidConfig,
                       match=f"unknown {family} schedule kind '{kind}'"):
        make(kind, 1.0, 7.0, 32.0)


def test_validation_of_a_non_schedule_is_rejected():
    with pytest.raises(InvalidConfig, match="not a schedule"):
        validate_conditions((NEWTON_FLOW, 1.0, 7.0, 32.0), _params())


@pytest.mark.parametrize("kind, b", [(GRADIENT_ITER, 0.25), (SIMPLE_ITER, 0.5)])
def test_a_damped_iteration_schedule_needs_alpha_tilde(kind, b):
    with pytest.raises(InvalidConfig, match="alpha_tilde is required"):
        validate_conditions(make_discrete(kind, b, 1.0, 64.0), _params())


def test_search_with_a_given_lambda_reports_at_it():
    # the free search takes d0 128 at lambda 4; the given, larger lambda
    # needs a larger scale
    free = find_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, params=_params())
    assert (free.schedule.d0, free.lam) == (128.0, 4.0)
    params = _params(lam=16.0)
    fixed = find_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0, params=params)
    assert (fixed.schedule.d0, fixed.lam) == (512.0, 16.0)
    assert repr(fixed.report.to_dict()) == repr(
        validate_conditions(fixed.schedule, params).to_dict())
