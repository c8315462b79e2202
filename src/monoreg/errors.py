"""Exception types shared across the library."""


class MonoregError(Exception):
    """Base class for all library errors."""


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


class NoRoot(MonoregError):
    """The residual target is not attainable for any positive shift."""


class BudgetExceeded(MonoregError):
    """A bracketing or search loop ran out of its expansion budget."""


class InvalidConfig(MonoregError):
    """A configuration value is outside its documented range."""


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


class InvalidStepSize(MonoregError):
    """A step size falls outside its admissible band."""


class HorizonExceeded(MonoregError):
    """An iteration reached its index budget without crossing the stopping
    threshold.  Carries the partial report for diagnostics."""

    def __init__(self, n_max: int, report=None):
        self.n_max = n_max
        self.report = report
        super().__init__(f"stopping threshold not reached within {n_max} steps")


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


class ConfigError(MonoregError):
    """A CLI config file failed to parse or validate.  Maps to exit code 3."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")
