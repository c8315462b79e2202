"""Independent checks of every benchmark output.

Nothing here calls the library's numerics.  The Hammerstein operator is
rebuilt from its formula in plain NumPy, inequality trajectories are
re-integrated with scipy's `solve_ivp` or re-run in plain floats, and
schedules are checked against the closed-form admissibility
inequalities.  Each check returns a list of problems; an empty list
means the output passed.
"""
from __future__ import annotations

import math
import statistics

import numpy as np

# Relative slack for the tie "at or below the threshold": the reference
# operator sums in the same order as the library's, so rounding stays far
# below this.
TIE = 1e-9
# Flow steps are accepted when the residual grows by at most this share.
RESIDUAL_SLACK = 1e-12
# The stopped iterate's relative error must lie within this multiple of
# the relative noise level.  The published table sits near 1.5; the looser
# flow stop C1 * delta**0.9 allows somewhat more.
ERR_FACTOR = 4.0
# The published reference table: delta_rel -> (iterations, relative error);
# the seed medians must lie within criterion 1's window around it.
REFERENCE_TABLE = {
    0.05: (28, 0.0770),
    0.03: (29, 0.0411),
    0.02: (28, 0.0314),
    0.01: (29, 0.0146),
    0.003: (29, 0.0046),
    0.001: (29, 0.0015),
}
ITERATION_WINDOW = (15, 45)
ERROR_WINDOW = (0.3, 3.0)
# Absolute tolerance of RK4 trajectories against solve_ivp, scaled by
# 1 + max |g|; fixed-step RK4 at 2000 steps is accurate to about dt**4.
TRAJECTORY_ATOL = 1e-6


class HammersteinReference:
    """F(u)(x) = int_0^1 exp(-|x-y|) u(y) dy + arctan(u(x))**3 on n
    uniform nodes with trapezoid quadrature, and the mode's norm."""

    BLOCK = 256  # kernel rows per block, so no n x n matrix is held

    def __init__(self, n: int, norm_mode: str):
        h = 1.0 / (n - 1)
        self.x = np.arange(n) * h
        self.quad = np.full(n, h)
        self.quad[0] = self.quad[-1] = h / 2.0
        self.weights = self.quad if norm_mode == "trapezoid" else np.ones(n)
        self._exact_data = None

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = np.arctan(u) ** 3
        qu = self.quad * u
        for i in range(0, self.x.size, self.BLOCK):
            rows = self.x[i:i + self.BLOCK, None]
            out[i:i + self.BLOCK] += np.exp(-np.abs(rows - self.x[None, :])) @ qu
        return out

    def norm(self, v: np.ndarray) -> float:
        return math.sqrt(float(np.sum(self.weights * v * v)))

    def residual(self, u: np.ndarray, f_delta: np.ndarray) -> float:
        return self.norm(self.apply(u) - f_delta)

    def rel_error(self, u: np.ndarray) -> float:
        ones = np.ones_like(u)
        return self.norm(u - ones) / self.norm(ones)

    def exact_data(self) -> np.ndarray:
        if self._exact_data is None:
            self._exact_data = self.apply(np.ones_like(self.x))
        return self._exact_data

    def check_noise(self, f_delta, delta, delta_rel) -> list:
        f = self.exact_data()
        want = delta_rel * self.norm(f)
        problems = []
        if not abs(delta - want) <= 1e-12 * want:
            problems.append(f"delta {delta!r} is not delta_rel * ||f|| = {want!r}")
        if not abs(self.norm(f_delta - f) - delta) <= 1e-9 * delta:
            problems.append("||f_delta - f|| differs from delta")
        return problems


def _check_stop(ref, u_stop, u_before, f_delta, thresh) -> list:
    problems = []
    r_stop = ref.residual(u_stop, f_delta)
    if not r_stop <= thresh * (1.0 + TIE):
        problems.append(f"residual {r_stop:.6g} at the stop exceeds {thresh:.6g}")
    r_before = ref.residual(u_before, f_delta)
    if not r_before > thresh * (1.0 - TIE):
        problems.append(
            f"residual {r_before:.6g} one step before the stop is already "
            f"at or below {thresh:.6g}")
    return problems


def _check_error(ref, u, delta_rel) -> list:
    err = ref.rel_error(u)
    if not err <= ERR_FACTOR * delta_rel:
        return [f"relative error {err:.4g} exceeds {ERR_FACTOR:g} * {delta_rel:g}"]
    return []


def _check_report(report) -> list:
    if report.status != "stopped_by_discrepancy":
        return [f"status {report.status!r}"]
    if report.iterates is None or len(report.iterates) < 2:
        return ["no step before the stop was recorded"]
    if not np.array_equal(report.iterates[-1].values, report.u_final.values):
        return ["the last recorded iterate is not u_final"]
    return []


def check_iteration(ref, report, f_delta, delta, delta_rel, thresh) -> list:
    """A stopped iteration: first crossing of thresh, and a small error."""
    problems = ref.check_noise(f_delta, delta, delta_rel)
    problems += _check_report(report)
    if problems:
        return problems
    u = report.u_final.values
    problems += _check_stop(ref, u, report.iterates[-2].values, f_delta, thresh)
    return problems + _check_error(ref, u, delta_rel)


def check_flow(ref, report, f_delta, delta, delta_rel, thresh) -> list:
    """A stopped flow: iteration checks plus a non-increasing residual."""
    problems = check_iteration(ref, report, f_delta, delta, delta_rel, thresh)
    res = [r for _, r in report.residual_history]
    for k in range(1, len(res)):
        if not res[k] <= res[k - 1] * (1.0 + RESIDUAL_SLACK):
            problems.append(f"residual rose at recorded state {k}")
            break
    return problems


def check_dp(ref, result, f_delta, delta, delta_rel, target, dp_tol) -> list:
    """A discrepancy-principle solution: residual matched to the target."""
    problems = ref.check_noise(f_delta, delta, delta_rel)
    if result.status != "converged":
        return problems + [f"status {result.status!r}"]
    v = result.V.values
    r = ref.residual(v, f_delta)
    if not abs(r - target) <= dp_tol * target:
        problems.append(f"residual {r!r} is not within dp_tol of {target!r}")
    return problems + _check_error(ref, v, delta_rel)


def check_reference_table(ref, delta_rel, reports) -> list:
    """Criterion 1's window on the seed medians of one noise level."""
    ref_n, ref_err = REFERENCE_TABLE[delta_rel]
    n_med = statistics.median(len(r.iterates) - 1 for r in reports)
    err_med = statistics.median(ref.rel_error(r.u_final.values) for r in reports)
    problems = []
    lo, hi = ITERATION_WINDOW
    if not lo <= n_med <= hi:
        problems.append(f"dr={delta_rel:g}: median iterations {n_med} "
                        f"outside [{lo}, {hi}] (reference {ref_n})")
    lo, hi = ERROR_WINDOW
    if not lo * ref_err <= err_med <= hi * ref_err:
        problems.append(f"dr={delta_rel:g}: median error {err_med:.4g} outside "
                        f"[{lo:g}, {hi:g}] x {ref_err:g}")
    return problems


def _trajectory_problems(grid, got, want, what) -> list:
    scale = 1.0 + float(np.max(np.abs(want)))
    dev = float(np.max(np.abs(np.asarray(got) - want)))
    if not dev <= TRAJECTORY_ATOL * scale:
        i = int(np.argmax(np.abs(np.asarray(got) - want)))
        return [f"{what} deviates from solve_ivp by {dev:.3g} at t={grid[i]:.6g}"]
    return []


def _margin_problems(report, bound, reference) -> list:
    gaps = bound - reference
    if not float(np.min(gaps)) > 0:
        return ["the reference trajectory reaches the bound"]
    scale = 1.0 + float(np.max(np.abs(reference)))
    if not abs(report.min_margin - float(np.min(gaps))) <= TRAJECTORY_ATOL * scale:
        return [f"min_margin {report.min_margin!r} disagrees with the "
                f"reference margin {float(np.min(gaps))!r}"]
    return []


class ContinuousBoundCheck:
    """bound_continuous against the extremal ODE integrated by solve_ivp."""

    def __init__(self, inst, n_steps):
        self.inst = inst
        self.grid = np.linspace(inst.tau0, inst.horizon, n_steps + 1)
        self._reference = None

    def reference(self) -> np.ndarray:
        if self._reference is None:
            from scipy.integrate import solve_ivp

            inst = self.inst

            def rhs(t, g):
                gp = max(g[0], 0.0)
                return [float(-inst.gamma(t) * gp + inst.alpha(t) * gp ** inst.p
                              + inst.beta(t))]

            sol = solve_ivp(rhs, (inst.tau0, inst.horizon), [inst.g0],
                            rtol=1e-11, atol=1e-13, dense_output=True)
            self._reference = sol.sol(self.grid)[0]
        return self._reference

    def __call__(self, report) -> list:
        if not report.passed:
            return ["report did not pass"]
        if report.grid.shape != self.grid.shape or not np.allclose(
                report.grid, self.grid, rtol=0, atol=1e-12 * self.inst.horizon):
            return ["report grid is not the uniform step grid"]
        want = self.reference()
        bound = 1.0 / np.asarray(self.inst.mu(self.grid), dtype=float)
        problems = _trajectory_problems(self.grid, report.trajectory, want,
                                        "trajectory")
        if not np.allclose(report.bound, bound, rtol=1e-12, atol=0):
            problems.append("bound is not 1/mu on the grid")
        return problems + _margin_problems(report, bound, want)


def check_bound_discrete(inst, report) -> list:
    """bound_discrete against the recursion re-run in plain floats."""
    if not report.passed:
        return ["report did not pass"]
    h = [float(x) for x in inst.h]
    gam = [float(x) for x in inst.gamma]
    alp = [float(x) for x in inst.alpha]
    bet = [float(x) for x in inst.beta]
    g = float(inst.g0)
    traj = [g]
    for n in range(len(h) - 1):
        g = (g * (1.0 - h[n] * gam[n]) + alp[n] * h[n] * max(g, 0.0) ** inst.p
             + h[n] * bet[n])
        traj.append(g)
    bound = [1.0 / float(m) for m in inst.mu]
    problems = []
    if len(report.trajectory) != len(traj) or any(
            abs(a - b) > 1e-12 * max(abs(b), 1.0)
            for a, b in zip(report.trajectory, traj)):
        problems.append("trajectory differs from the plain-float recursion")
    gaps = [b - t for b, t in zip(bound, traj)]
    if min(gaps) < 0:
        problems.append("the recursion exceeds the bound")
    elif abs(report.min_margin - min(gaps)) > 1e-12 * max(bound):
        problems.append(f"min_margin {report.min_margin!r} is not {min(gaps)!r}")
    return problems


class EvolutionCheck:
    """evolution_norm_bound on du/dt = A u + 0.1 |u| u + f(t),
    A = diag(-1, -2, -3), f = (0.05 e^-t, 0, 0), against solve_ivp, and
    the bound exp(-t/2) on the reference norms."""

    def __init__(self, horizon, n_steps):
        self.grid = np.linspace(0.0, horizon, n_steps + 1)
        self._reference = None

    def reference(self) -> np.ndarray:
        if self._reference is None:
            from scipy.integrate import solve_ivp

            diag = np.array([-1.0, -2.0, -3.0])

            def rhs(t, x):
                f = np.array([0.05 * math.exp(-t), 0.0, 0.0])
                return diag * x + 0.1 * np.linalg.norm(x) * x + f

            sol = solve_ivp(rhs, (0.0, self.grid[-1]), [0.5, 0.0, 0.0],
                            rtol=1e-11, atol=1e-13, dense_output=True)
            self._reference = np.linalg.norm(sol.sol(self.grid), axis=0)
        return self._reference

    def __call__(self, report) -> list:
        if not report.passed:
            return ["report did not pass"]
        if report.grid.shape != self.grid.shape:
            return ["report grid is not the uniform step grid"]
        want = self.reference()
        bound = np.exp(-self.grid / 2.0)
        problems = _trajectory_problems(self.grid, report.norms, want, "norms")
        return problems + _margin_problems(report, bound, want)


def check_schedule_search(search) -> list:
    """The found newton-flow schedule obeys c > 6b and b <= 1, and its
    condition report passed with nonnegative margins."""
    s = search.schedule
    problems = []
    if s.kind != "newton_flow":
        problems.append(f"kind {s.kind!r}")
    if not s.c > 6.0 * s.b:
        problems.append(f"c = {s.c!r} is not above 6 b = {6.0 * s.b!r}")
    if not 0 < s.b <= 1.0:
        problems.append(f"b = {s.b!r} is not in (0, 1]")
    if not s.d > 0:
        problems.append(f"d = {s.d!r} is not positive")
    if not search.report.passed or any(c.margin < 0 for c in search.report.checks):
        problems.append("condition report did not pass")
    return problems
