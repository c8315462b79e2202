"""Stable solution of nonlinear monotone operator equations from noisy data.

Solves F(u) = f for monotone continuous F in a discrete weighted Hilbert
space, given only noisy data with a known noise level: residual-matching
choice of the regularization parameter, three continuation flows and
three iterative schemes with a-posteriori stopping, power-law schedule
validators, nonlinear-inequality bound checkers, and a Hammerstein
integral-equation benchmark.
"""
from .bench import (
    HammersteinProblem,
    NoiseSpec,
    Table1Config,
    Table1Row,
    gen_noise,
    hammerstein_apply,
    hammerstein_derivative,
    hammerstein_operator,
    make_hammerstein,
    run_table1,
    trapezoid_weights,
)
from .core import (
    BallSampler,
    HilbertVector,
    LinearMap,
    MonotonicityReport,
    NonlinearOperator,
    OperatorBounds,
    check_monotonicity,
    fd_derivative_check,
    identity_map,
    solve_shifted,
    zero_map,
)
from .discrepancy import (
    ALREADY_COMPATIBLE,
    CONVERGED,
    AcceptanceReport,
    DPConfig,
    DPResult,
    accept_candidate,
    solve_dp,
)
from .errors import (
    BoundViolated,
    BudgetExceeded,
    ConstraintViolated,
    GridMismatch,
    HorizonExceeded,
    InvalidConfig,
    MonoregError,
    NoDerivative,
    NonConvergence,
    NonFinite,
    PreconditionFailed,
    SolveFailed,
    StepFloor,
)
from .flows import FlowConfig, flow_gradient, flow_newton, flow_simple, init_u0
from .inequalities import (
    BoundReport,
    ComparisonReport,
    ContinuousInequality,
    DiscreteInequality,
    bound_continuous,
    bound_discrete,
    evolution_norm_bound,
    precondition_margins,
    quadratic_case_margins,
    random_continuous_instance,
    random_discrete_instance,
)
from .iterations import (
    IterConfig,
    iter_gradient,
    iter_newton,
    iter_simple,
    operator_norm_estimate,
)
from .regularized import (
    RegularizedSolution,
    phi_psi,
    solve_regularized,
)
from .reports import (
    EXHAUSTED_HORIZON,
    STEP_FLOOR,
    STOPPED_BY_DISCREPANCY,
    SolveReport,
)
from .schedules import (
    CONTINUOUS_KINDS,
    DISCRETE_KINDS,
    GRADIENT_FLOW,
    GRADIENT_ITER,
    NEWTON_FLOW,
    NEWTON_ITER,
    SIMPLE_FLOW,
    SIMPLE_ITER,
    ConditionCheck,
    ConditionReport,
    ContinuousSchedule,
    DiscreteSchedule,
    ScheduleSearch,
    ValidationParams,
    find_continuous,
    find_discrete,
    make_continuous,
    make_discrete,
    validate_conditions,
)
from .synthetic import (
    RankOneProblem,
    diagonal_problem,
    random_monotone_problem,
    rank_one_problem,
)
