"""Exception types shared across the library, and the range check of the
config dataclasses."""
import dataclasses
import math
import numbers


class MonoregError(Exception):
    """Base class for all library errors.  `report` is the partial report
    of a run that did not stop by the discrepancy principle, else None."""

    def __init__(self, *args, report=None):
        super().__init__(*args)
        self.report = report


class GridMismatch(MonoregError):
    """Two vectors (or a vector and an operator) live on different grids."""


class NoDerivative(MonoregError):
    """An operation needed a derivative the operator does not declare."""


class SolveFailed(MonoregError):
    """A shifted linear solve could not reach its residual tolerance.

    Usually signals an operator violating the nonnegativity contract of
    its derivative, or a tolerance below what the conditioning allows.
    """


class NonConvergence(MonoregError):
    """An inner nonlinear solve exhausted its iteration budget."""


class BudgetExceeded(MonoregError):
    """A bracketing or search loop ran out of its expansion budget."""


class InvalidConfig(MonoregError, ValueError):
    """An argument or configuration value is outside its documented range,
    or a config file cannot be read.

    The library's one argument error and the CLI's one config error (exit
    code 3); it is also a ValueError, so callers that catch ValueError keep
    working.  `key`, when given, is the config key at fault, and the
    message starts with it."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


# field annotation -> the numbers a value of that type accepts
_NUMBERS = {"float": numbers.Real, "int": numbers.Integral}


def _is_number(value, kind: str) -> bool:
    return not isinstance(value, bool) and isinstance(value, _NUMBERS[kind])


def check_number(name: str, value, kind: str, key: str | None = None) -> None:
    """Raise InvalidConfig (naming `key`, if given) unless `value` is a
    number of type `kind`: a `float` takes a real number, an `int` an
    integer, and a bool is neither.  The rule check_fields applies to each
    numeric field, for the numbers that are no field of a config class."""
    if not _is_number(value, kind):
        raise InvalidConfig(f"{name} must be {kind}, got {value!r}", key)


def check_at_least(name: str, value, least: int) -> None:
    """Raise InvalidConfig unless `value` is an integer (check_number) of
    at least `least`: the rule of a size, count or seed argument."""
    check_number(name, value, "int")
    if not value >= least:
        raise InvalidConfig(f"{name} must be >= {least}, got {value}")


def check_fields(cfg, positive=(), nonnegative=()) -> None:
    """Raise InvalidConfig naming the first numeric field of the config
    dataclass `cfg` that holds something else: a field annotated `float`
    or `int` takes what check_number accepts, `X | None` also None, and
    `tuple[X, ...]` a tuple or list of X.  The annotations are read as
    strings, as postponed evaluation leaves them.  Then the same for the
    first field named in `positive` (`nonnegative`), or item of such a
    tuple field, that is set but not > 0 (>= 0); NaN is neither.  Each
    config class declares its ranges in one call from `__post_init__`."""
    for f in dataclasses.fields(cfg):
        kind = f.type.removesuffix(" | None")
        value = getattr(cfg, f.name)
        if value is None and kind != f.type:
            continue
        items = [value]
        if kind.startswith("tuple[") and kind.endswith(", ...]"):
            kind = kind[len("tuple["):-len(", ...]")]
            items = value if isinstance(value, (tuple, list)) else [None]
        if kind in _NUMBERS and not all(_is_number(x, kind) for x in items):
            raise InvalidConfig(f"{f.name} must be {f.type}, got {value!r}")
    for name in positive + nonnegative:
        value = getattr(cfg, name)
        for x in value if isinstance(value, (tuple, list)) else [value]:
            if not (x is None or x > 0 or (x == 0 and name in nonnegative)):
                kind = "nonnegative" if name in nonnegative else "positive"
                raise InvalidConfig(f"{name} must be {kind}, got {x}")


class ConstraintViolated(MonoregError):
    """A schedule parameter fails its admissibility inequality.

    Attributes
    ----------
    constraint : str
        Human-readable form of the failed inequality.
    margin : float
        Right-hand side minus left-hand side; negative on failure.
    """

    def __init__(self, constraint: str, margin: float, note: str = ""):
        self.constraint = constraint
        self.margin = margin
        self.note = note
        msg = f"constraint {constraint!r} violated (margin {margin:g})"
        if note:
            msg += f"; {note}"
        super().__init__(msg)


class HorizonExceeded(MonoregError):
    """A run used up its horizon, which the message names, without crossing
    the stopping threshold; n_max is an iteration's step budget, None for a
    flow.  Carries the partial report."""

    def __init__(self, horizon: str, report, n_max: int | None = None):
        self.n_max = n_max
        super().__init__(f"stopping threshold not reached {horizon}", report=report)


class StepFloor(MonoregError):
    """A flow's step fell below step_min before it crossed the stopping
    threshold.  Carries the partial report."""


class PreconditionFailed(MonoregError):
    """A verifiable hypothesis of a bound check fails at some sample point."""

    def __init__(self, condition: str, location, margin: float | None = None):
        self.condition = condition
        self.location = location
        self.margin = margin
        msg = f"precondition {condition!r} fails at {location}"
        if margin is not None:
            msg += f" (margin {margin:g})"
        super().__init__(msg)


class BoundViolated(MonoregError):
    """A certified bound was crossed; signals an implementation error or a
    precondition sampling grid too coarse."""

    def __init__(self, location, value: float, bound: float):
        self.location = location
        self.value = value
        self.bound = bound
        super().__init__(
            f"bound violated at {location}: value {value:g} >= bound {bound:g}"
        )


class NonFinite(MonoregError):
    """A residual came out NaN or infinite, from non-finite data, a
    non-finite start or a run that overflowed."""


def require_finite(value: float, what: str) -> None:
    """Raise NonFinite naming `what` unless value is finite."""
    if not math.isfinite(value):
        raise NonFinite(
            f"{what} is {value}; check f_delta, the start and the operator "
            "for non-finite values"
        )
