"""Certified decay bounds from one-sided nonlinear inequalities.

The continuous form is

    dg/dt <= -gamma(t) g + alpha(t) g**p + beta(t),    p > 1,

whose solutions stay below 1/mu(t) whenever the majorant function mu
satisfies a single feasibility inequality and mu(tau0) g(tau0) < 1.  The
discrete form replaces the derivative by a forward difference with steps
h_n.  Because the bound holds for every solution of the inequality, it is
enough to check the extremal equality trajectory, which dominates all of
them; `bound_continuous` and `bound_discrete` do exactly that.
`evolution_norm_bound` applies the continuous bound to the norm of a
dissipative finite-dimensional evolution equation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import HilbertVector, LinearMap, weighted_norm
from .errors import (BoundViolated, InvalidConfig, PreconditionFailed, check_at_least,
                     check_fields)

N_CONDITION_SAMPLES = 10_000
N_GROWTH_SAMPLES = 100  # random states at which the growth condition is checked
GROWTH_SEED = 0
P_CHOICES = (1.5, 2.0, 3.0)  # exponents of the random instances
MIN_MARGIN = 1e-9  # least feasibility margin of an accepted random instance
MAX_DRAWS = 500


def check_n_steps(n_steps: int) -> None:
    """Raise InvalidConfig unless n_steps, the RK4 step count, is an int >= 1."""
    check_at_least("n_steps", n_steps, 1)


@dataclass(frozen=True)
class ContinuousInequality:
    """Coefficients of the continuous inequality on [tau0, horizon].

    alpha, beta, gamma, mu and mu_dot, the derivative of mu, are
    closed-form evaluators accepting numpy arrays.  alpha and beta must be
    nonnegative on the horizon, mu positive, and p > 1.
    """

    p: float
    alpha: Callable
    beta: Callable
    gamma: Callable
    mu: Callable
    mu_dot: Callable
    g0: float
    horizon: float
    tau0: float = 0.0

    def __post_init__(self):
        check_fields(self, nonnegative=("g0",))
        if not self.p > 1:
            raise InvalidConfig("p must exceed 1")
        if not self.horizon > self.tau0:
            raise InvalidConfig("horizon must exceed tau0")


@dataclass(frozen=True)
class DiscreteInequality:
    """Coefficient sequences of the discrete inequality, as equal-length
    arrays indexed n = 0 .. N; the recursion needs 0 < h_n gamma_n < 1."""

    p: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    h: np.ndarray
    g0: float

    def __post_init__(self):
        sizes = set()
        for name in ("alpha", "beta", "gamma", "mu", "h"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            sizes.add(arr.size)
        if len(sizes) != 1 or min(sizes) < 2:
            raise InvalidConfig("coefficient arrays must share a length >= 2")
        check_fields(self, nonnegative=("g0",))
        if not self.p > 1:
            raise InvalidConfig("p must exceed 1")

    @property
    def n_last(self) -> int:
        return self.alpha.size - 1


@dataclass(frozen=True)
class BoundReport:
    """Trajectory of the extremal recursion against the certified bound."""

    passed: bool
    min_margin: float
    margin_at: float
    condition_margins: dict
    grid: np.ndarray
    trajectory: np.ndarray
    bound: np.ndarray

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_margin": self.min_margin,
            "margin_at": self.margin_at,
            "condition_margins": dict(self.condition_margins),
        }


def _require(condition: str, location, margin: float, floor: float = 0.0,
             strict: bool = False) -> None:
    """Raise PreconditionFailed naming the hypothesis unless margin > floor
    (strict) or margin >= floor; NaN fails both."""
    if not (margin > floor if strict else margin >= floor):
        raise PreconditionFailed(condition, location, margin)


def _verdict(grid, values, bound, strict: bool) -> tuple[float, float]:
    """(min_margin, margin_at) of the gaps bound - values over the grid.

    Raises BoundViolated at the first grid point whose gap is not > 0
    (strict) or not >= 0; NaN fails both.
    """
    gaps = bound - values
    failed = ~(gaps > 0) if strict else ~(gaps >= 0)
    if failed.any():
        first = int(np.argmax(failed))
        raise BoundViolated(
            grid[first].item(), float(values[first]), float(bound[first])
        )
    i = int(np.argmin(gaps))
    return float(gaps[i]), float(grid[i])


def _sample(fns, t: np.ndarray) -> list[np.ndarray]:
    """Each closed-form evaluator of fns at the times t, as float arrays of
    t's shape (an evaluator may return a scalar)."""
    return [np.broadcast_to(np.asarray(f(t), dtype=float), t.shape) for f in fns]


def precondition_margins(
    inst: ContinuousInequality, n_samples: int = N_CONDITION_SAMPLES
) -> dict:
    """Sampled worst margins of the feasibility inequality, the initial
    smallness condition, and sign requirements on the horizon."""
    t = np.linspace(inst.tau0, inst.horizon, n_samples)
    alpha, beta, gamma, mu, mud = _sample(
        (inst.alpha, inst.beta, inst.gamma, inst.mu, inst.mu_dot), t)
    lhs = alpha / mu ** inst.p + beta
    rhs = (gamma - mud / mu) / mu
    feas = rhs - lhs
    i = int(np.argmin(feas))
    return {
        "feasibility": float(feas[i]),
        "feasibility_at": float(t[i]),
        "feasibility_scale": float(np.max(np.abs(lhs) + np.abs(rhs))),
        "initial_gap": 1.0 - inst.mu(inst.tau0) * inst.g0,
        "alpha_nonneg": float(np.min(alpha)),
        "beta_nonneg": float(np.min(beta)),
        "mu_positive": float(np.min(mu)),
    }


def _require_continuous_preconditions(margins: dict) -> None:
    _require("mu_positive", "horizon", margins["mu_positive"], strict=True)
    _require("alpha_nonneg", "horizon", margins["alpha_nonneg"])
    _require("beta_nonneg", "horizon", margins["beta_nonneg"])
    # exact-equality feasibility is admissible; allow roundoff-scale noise.
    # A non-finite margin or scale (mu**p underflowing, say) leaves no
    # round-off to allow: its floor would be -inf, which -inf passes.
    margin, scale = margins["feasibility"], margins["feasibility_scale"]
    if not (math.isfinite(margin) and math.isfinite(scale)):
        raise PreconditionFailed("feasibility", margins["feasibility_at"], margin)
    _require("feasibility", margins["feasibility_at"], margin,
             floor=-1e-13 * max(scale, 1e-30))
    _require("initial_gap", "tau0", margins["initial_gap"], strict=True)


def bound_continuous(
    inst: ContinuousInequality,
    n_steps: int = 20_000,
    n_condition_samples: int = N_CONDITION_SAMPLES,
) -> BoundReport:
    """Verify g(t) < 1/mu(t) along the extremal equality trajectory.

    The equality ODE dg/dt = -gamma g + alpha g**p + beta dominates every
    solution of the inequality pointwise, so a single fixed-step RK4 run
    certifies the family (up to the sampling of the feasibility condition,
    whose worst margin is reported).  Raises PreconditionFailed naming the
    violated hypothesis, or BoundViolated with the first crossing time.
    """
    check_n_steps(n_steps)
    margins = precondition_margins(inst, n_condition_samples)
    _require_continuous_preconditions(margins)

    dt = (inst.horizon - inst.tau0) / n_steps
    ts = inst.tau0 + dt * np.arange(n_steps + 1)

    # The coefficients at every RK4 node, evaluated once: (gamma, alpha,
    # beta) as flat float lists at t_k, t_k + dt/2 and t_k + dt (not
    # t_{k+1}, which can differ from t_k + dt in the last bit).
    def coefficients(t):
        return [c.tolist() for c in _sample((inst.gamma, inst.alpha, inst.beta), t)]

    t_left = ts[:-1]
    nodes = zip(*coefficients(t_left), *coefficients(t_left + 0.5 * dt),
                *coefficients(t_left + dt))
    p, half = inst.p, 0.5 * dt

    # The right-hand side -gamma x + alpha x**p + beta at x = max(g, 0),
    # written out per stage in Python floats.  `if 0.0 > x: x = 0.0` is
    # x = max(x, 0.0): it keeps NaN and -0.0 as max does.  The state g
    # entering a step is g0 >= 0 or a clamped value, so k1 needs no clamp.
    g = float(inst.g0)
    traj = [g]
    for gl, al, bl, gm, am, bm, gr, ar, br in nodes:
        k1 = -gl * g + al * g ** p + bl
        x = g + half * k1
        if 0.0 > x:
            x = 0.0
        k2 = -gm * x + am * x ** p + bm
        x = g + half * k2
        if 0.0 > x:
            x = 0.0
        k3 = -gm * x + am * x ** p + bm
        x = g + dt * k3
        if 0.0 > x:
            x = 0.0
        k4 = -gr * x + ar * x ** p + br
        g = g + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if 0.0 > g:
            g = 0.0
        traj.append(g)
    traj = np.array(traj)
    bound = 1.0 / np.asarray(inst.mu(ts), dtype=float)
    min_margin, margin_at = _verdict(ts, traj, bound, strict=True)
    return BoundReport(
        passed=True,
        min_margin=min_margin,
        margin_at=margin_at,
        condition_margins=margins,
        grid=ts,
        trajectory=traj,
        bound=bound,
    )


def discrete_precondition_margins(inst: DiscreteInequality) -> dict:
    n_last = inst.n_last
    hg = inst.h[:n_last] * inst.gamma[:n_last]
    mu, mun = inst.mu[:n_last], inst.mu[1 : n_last + 1]
    feas = (inst.gamma[:n_last] - (mun - mu) / (mu * inst.h[:n_last])) / mu - (
        inst.alpha[:n_last] / mu ** inst.p + inst.beta[:n_last]
    )
    i = int(np.argmin(feas))
    return {
        "feasibility": float(feas[i]),
        "feasibility_at": i,
        "initial_gap": 1.0 / inst.mu[0] - inst.g0,
        "step_product_low": float(np.min(hg)),
        "step_product_high": float(np.min(1.0 - hg)),
        "mu_growing": float(np.min(mun - mu)),
        "mu_positive": float(np.min(inst.mu)),
        "h_positive": float(np.min(inst.h)),
    }


def bound_discrete(inst: DiscreteInequality) -> BoundReport:
    """Verify g_n <= 1/mu_n along the extremal equality recursion

        g_{n+1} = g_n (1 - h_n gamma_n) + alpha_n h_n g_n**p + h_n beta_n.

    The initial condition admits equality (g0 = 1/mu_0 is allowed); the
    induction then keeps every later iterate at or below the bound.
    """
    margins = discrete_precondition_margins(inst)
    for name in ("mu_positive", "h_positive"):
        _require(name, "sequence", margins[name], strict=True)
    _require("mu_growing", "sequence", margins["mu_growing"])
    for name in ("step_product_low", "step_product_high"):
        _require("step_product_in_(0,1)", "sequence", margins[name], strict=True)
    _require("feasibility", margins["feasibility_at"], margins["feasibility"])
    _require("initial_gap", 0, margins["initial_gap"])

    n_last = inst.n_last
    p = inst.p
    g = float(inst.g0)
    traj = [g]
    for h, gamma, alpha, beta in zip(
        *(a[:n_last].tolist() for a in (inst.h, inst.gamma, inst.alpha, inst.beta))
    ):
        x = g
        if 0.0 > x:  # x = max(g, 0.0), NaN and -0.0 kept
            x = 0.0
        try:
            growth = alpha * h * x ** p
        except OverflowError:
            # a float power raises where a NumPy scalar one gives inf; the
            # trajectory then fails the bound at the next index
            growth = alpha * h * math.inf
        g = g * (1.0 - h * gamma) + growth + h * beta
        traj.append(g)
    traj = np.array(traj)
    bound = 1.0 / inst.mu
    # integer indices: a crossing is located at its index n
    n = np.arange(n_last + 1)
    min_margin, margin_at = _verdict(n, traj, bound, strict=False)
    return BoundReport(
        passed=True,
        min_margin=min_margin,
        margin_at=margin_at,
        condition_margins=margins,
        grid=n.astype(float),
        trajectory=traj,
        bound=bound,
    )


def quadratic_case_margins(
    inst: ContinuousInequality, n_samples: int = N_CONDITION_SAMPLES
) -> dict:
    """Worst margins of the split sufficient conditions for p = 2:

        alpha <= (mu / 2) (gamma - mu'/mu)
        beta  <= (1 / (2 mu)) (gamma - mu'/mu)
        mu(tau0) g0 < 1

    Any instance satisfying these also satisfies the general feasibility
    inequality: the two halves sum to exactly (1/mu)(gamma - mu'/mu).
    """
    if inst.p != 2:
        raise InvalidConfig("the split conditions are specific to p = 2")
    t = np.linspace(inst.tau0, inst.horizon, n_samples)
    alpha, beta, gamma, mu, mud = _sample(
        (inst.alpha, inst.beta, inst.gamma, inst.mu, inst.mu_dot), t)
    bracket = gamma - mud / mu
    return {
        "alpha_condition": float(np.min((mu / 2.0) * bracket - alpha)),
        "beta_condition": float(np.min(bracket / (2.0 * mu) - beta)),
        "initial_gap": 1.0 - inst.mu(inst.tau0) * inst.g0,
        "mu_growing": float(np.min(mud)),
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Norm trajectory of an evolution equation against its certified bound."""

    passed: bool
    min_margin: float
    margin_at: float
    max_norm: float
    precondition_margins: dict
    grid: np.ndarray
    norms: np.ndarray
    bound: np.ndarray


def evolution_norm_bound(
    A: LinearMap,
    h_map: Callable[[float, HilbertVector], HilbertVector],
    forcing: Callable[[float], HilbertVector],
    u0: HilbertVector,
    inst: ContinuousInequality,
    T: float,
    n_steps: int = 20_000,
) -> ComparisonReport:
    """Certify ||u(t)|| < 1/mu(t) for du/dt = A u + h(t, u) + f(t).

    The norm g = ||u|| of any solution obeys the continuous inequality
    with the instance's coefficients once (i) A is dissipative against
    gamma, (ii) h satisfies the sampled growth condition
    <h(t,u), u> <= alpha(t) ||u||**(1+p), and (iii) beta majorizes ||f||.
    The instance's g0 is replaced by the measured ||u0||.  The equation
    itself is integrated with fixed-step RK4 and the norm is compared
    with the bound at every step.  f must depend on t only: it is called
    once per time node, 3 times per step (k2 and k3 share t + dt/2), and
    h 4 times per step, besides the sampled conditions above.
    """
    check_n_steps(n_steps)
    inst = replace(inst, g0=u0.norm(), horizon=T)
    margins = precondition_margins(inst)
    _require_continuous_preconditions(margins)

    t_samples = np.linspace(inst.tau0, T, 200)
    # dissipativity of the quadratic form of A against the largest gamma
    W = np.asarray(A.weights, dtype=float)
    M = A.to_dense()
    S = (W[:, None] * M + M.T * W[:, None].T) / 2.0
    scale = np.sqrt(W)
    sym = S / scale[:, None] / scale[None, :]
    lam_max = float(np.linalg.eigvalsh(sym).max())
    gamma_max = float(np.max(np.asarray(inst.gamma(t_samples), dtype=float)))
    margins["dissipativity"] = -gamma_max - lam_max
    _require("dissipativity", "operator", margins["dissipativity"])

    # sampled growth condition on the nonlinearity
    rng = np.random.Generator(np.random.PCG64(GROWTH_SEED))
    radius = 2.0 / float(np.min(np.asarray(inst.mu(t_samples), dtype=float)))
    growth_margin = np.inf
    for _ in range(N_GROWTH_SAMPLES):
        t = rng.uniform(inst.tau0, T)
        v = u0.with_values(rng.standard_normal(u0.size))
        nv = v.norm()
        if nv == 0.0:
            continue
        v = v * (rng.uniform() * radius / nv)
        lhs = h_map(t, v).inner(v)
        rhs = float(inst.alpha(t)) * v.norm() ** (1.0 + inst.p)
        # np.minimum keeps a NaN sample, where Python's min drops it
        growth_margin = np.minimum(growth_margin, rhs - lhs)
    margins["growth"] = float(growth_margin)
    _require("growth", "sampled", margins["growth"], floor=-1e-12)

    forcing_margin = float(
        np.min(
            [
                float(inst.beta(t)) - forcing(float(t)).norm()
                for t in t_samples
            ]
        )
    )
    margins["forcing"] = forcing_margin
    _require("forcing", "sampled", forcing_margin, floor=-1e-12)

    dt = (T - inst.tau0) / n_steps
    ts = inst.tau0 + dt * np.arange(n_steps + 1)

    # The RK4 stages are arrays on u0's grid; a stage state is wrapped once
    # for A and h_map, and every expression keeps the order of the vector
    # form u + (dt/6) (k1 + 2 k2 + 2 k3 + k4), so the bits are the same.
    w = u0.weights
    half, full, sixth = float(0.5 * dt), float(dt), float(dt / 6.0)

    def force(t):
        f = forcing(t)
        u0.check_grid(f)
        return f.values

    def rhs(t, x, f):
        """A u + h(t, u) + f at the state values x, as values."""
        u = HilbertVector._trusted(x, w)
        Au, hu = A(u), h_map(t, u)
        u.check_grid(Au)
        u.check_grid(hu)
        return Au.values + hu.values + f

    x = u0.values
    norms = np.empty(n_steps + 1)
    norms[0] = u0.norm()
    for k in range(n_steps):
        t = float(ts[k])
        t_mid = t + 0.5 * dt
        k1 = rhs(t, x, force(t))
        f_mid = force(t_mid)
        k2 = rhs(t_mid, x + k1 * half, f_mid)
        k3 = rhs(t_mid, x + k2 * half, f_mid)
        k4 = rhs(t + dt, x + k3 * full, force(t + dt))
        x = x + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * sixth
        norms[k + 1] = weighted_norm(w, x)
    bound = 1.0 / np.asarray(inst.mu(ts), dtype=float)
    min_margin, margin_at = _verdict(ts, norms, bound, strict=True)
    return ComparisonReport(
        passed=True,
        min_margin=min_margin,
        margin_at=margin_at,
        max_norm=float(np.max(norms)),
        precondition_margins=margins,
        grid=ts,
        norms=norms,
        bound=bound,
    )


def random_continuous_instance(seed: int) -> ContinuousInequality:
    """Rejection-sample a strictly feasible continuous instance.

    Coefficients are drawn from exponential families and redrawn until the
    sampled feasibility margin is at least MIN_MARGIN, so the certified
    bound must hold on the instance.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(MAX_DRAWS):
        p = float(rng.choice(P_CHOICES))
        gamma0 = rng.uniform(0.3, 3.0)
        rho = rng.uniform(0.0, 0.9) * gamma0
        mu0 = rng.uniform(0.2, 5.0)
        horizon = rng.uniform(2.0, 20.0)
        alpha0 = rng.uniform(0.0, 0.9) * mu0 ** (p - 1.0) * (gamma0 - rho)
        sigma_a = rng.uniform(0.0, 2.0)
        beta0 = rng.uniform(0.0, 0.9) * (gamma0 - rho) / mu0
        sigma_b = rng.uniform(0.0, 2.0)
        g0 = rng.uniform(0.0, 0.999) / mu0
        inst = ContinuousInequality(
            p=p,
            alpha=lambda t, a0=alpha0, s=sigma_a: a0 * np.exp(-s * np.asarray(t)),
            beta=lambda t, b0=beta0, s=sigma_b: b0 * np.exp(-s * np.asarray(t)),
            gamma=lambda t, g=gamma0: g * np.ones_like(np.asarray(t, dtype=float)),
            mu=lambda t, m0=mu0, r=rho: m0 * np.exp(r * np.asarray(t)),
            mu_dot=lambda t, m0=mu0, r=rho: r * m0 * np.exp(r * np.asarray(t)),
            g0=g0,
            horizon=horizon,
        )
        m = precondition_margins(inst, n_samples=2000)
        if m["feasibility"] >= MIN_MARGIN and m["initial_gap"] >= MIN_MARGIN:
            return inst
    raise InvalidConfig(f"no feasible instance within {MAX_DRAWS} draws (seed {seed})")


def random_discrete_instance(seed: int) -> DiscreteInequality:
    """Rejection-sample a strictly feasible discrete instance."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(MAX_DRAWS):
        p = float(rng.choice(P_CHOICES))
        n_last = int(rng.integers(10, 200))
        gamma0 = rng.uniform(0.3, 3.0)
        h0 = rng.uniform(0.05, 0.95) / gamma0
        # growth rate of mu per step must stay below gamma0 * h0
        r = rng.uniform(0.0, 0.9) * gamma0 * h0
        mu0 = rng.uniform(0.2, 5.0)
        n = np.arange(n_last + 1, dtype=float)
        mu = mu0 * (1.0 + r) ** n
        headroom = (gamma0 - r / h0) / mu
        alpha = rng.uniform(0.0, 0.45) * headroom * mu ** p
        beta = rng.uniform(0.0, 0.45) * headroom
        g0 = rng.uniform(0.0, 1.0) / mu0
        inst = DiscreteInequality(
            p=p,
            alpha=alpha,
            beta=beta,
            gamma=gamma0 * np.ones_like(n),
            mu=mu,
            h=h0 * np.ones_like(n),
            g0=g0,
        )
        m = discrete_precondition_margins(inst)
        if (
            m["feasibility"] >= MIN_MARGIN
            and m["initial_gap"] >= 0.0
            and m["step_product_low"] > 0
            and m["step_product_high"] > 0
        ):
            return inst
    raise InvalidConfig(f"no feasible instance within {MAX_DRAWS} draws (seed {seed})")
