"""The four benchmark workloads: their inputs and their operations.

`build(workload)` makes every input through the library's public
constructors and returns a list of `Op`s.  The inputs are fixed: noise
and instance seeds are the input's index (for `table1`, the reference
table's seeds 0-10), so every run of a workload times the same
operations; the benchmark's `--seed` only orders each pass.  Seeded
noise was tried and dropped: some draws make `iter_newton` diverge (see
README.md).  An op's `run` is the timed call into the library; `check`
is the untimed independent check of its output (see checks.py).
Library functions are looked up as globals of this module at call time,
so the traced mode can patch them here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from monoreg import (
    DPConfig,
    FlowConfig,
    HilbertVector,
    IterConfig,
    LinearMap,
    NoiseSpec,
    ValidationParams,
    bound_continuous,
    bound_discrete,
    evolution_norm_bound,
    find_continuous,
    flow_gradient,
    flow_newton,
    flow_simple,
    gen_noise,
    hammerstein_operator,
    init_u0,
    iter_newton,
    make_continuous,
    make_discrete,
    make_hammerstein,
    random_continuous_instance,
    random_discrete_instance,
    solve_dp,
)
from monoreg.bench import schedule_scale
from monoreg.inequalities import ContinuousInequality
from monoreg.schedules import GRADIENT_FLOW, NEWTON_FLOW, NEWTON_ITER, SIMPLE_FLOW

WORKLOADS = ("table1", "mesh", "continuation", "certify")
# The calibration kernels of speed.py that each workload's operation and
# set-up times are scaled by: the ones whose costs resemble them.
KERNEL = {"table1": ("mixed", "blas"), "mesh": ("stream", "stream"),
          "continuation": ("mixed", "blas"), "certify": ("mixed", "blas")}

# table1: the reference table of the paper (criterion 1's settings)
TABLE1_DELTAS = (0.05, 0.03, 0.02, 0.01, 0.003, 0.001)
TABLE1_SEEDS_PER_DELTA = 11
TABLE1_N = 50
TABLE1_C0, TABLE1_C, TABLE1_GAMMA = 4.0, 1.01, 0.99

# mesh: weighted norms on a ladder of grid sizes across DENSE_LIMIT = 2000;
# delta_rel 0.05 converges at every size (0.01 does not from N ~ 1400)
MESH_SIZES = (200, 500, 1000, 2400)
MESH_DELTA = 0.05

# continuation: scripts/flow_comparison.py plus configs/dp_hammerstein.json
FLOW_N, FLOW_DELTA = 50, 0.01
FLOW_C1, FLOW_ZETA = 1.5, 0.9
DP_C, DP_GAMMA = 1.01, 0.9

# certify: criterion 7's step counts, criterion 10's search parameters
CERTIFY_CONTINUOUS = 8
CERTIFY_DISCRETE = 8
CERTIFY_STEPS = 2000


@dataclass
class Op:
    """One input: a timed library call and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # ops sharing a group are also checked together, once per pass
    group: str = ""
    group_check: Callable[[list], list] | None = None


def build(workload: str) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()["_build_" + workload]()


def _newton_iteration_op(name, F, prob, delta_rel, noise_seed, n_max, ref):
    """iter_newton from zero with the Table-1 schedule and stop; iterates
    are kept so the check can look one step before the stop."""
    f = F(prob.exact_solution)
    f_delta, delta = gen_noise(f, NoiseSpec(delta_rel, noise_seed))
    schedule = make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0,
                             d0=schedule_scale(TABLE1_C0, delta))
    cfg = IterConfig(schedule=schedule, C1=TABLE1_C, gamma_or_zeta=TABLE1_GAMMA,
                     n_max=n_max, keep_iterates=True)
    u0 = HilbertVector.zeros(prob.weights)

    def run():
        return iter_newton(F, f_delta, delta, cfg, u0)

    def check(report):
        return checks.check_iteration(ref, report, f_delta.values, delta,
                                      delta_rel,
                                      TABLE1_C * delta ** TABLE1_GAMMA)

    return Op(name, run, check)


def _build_table1() -> list[Op]:
    prob = make_hammerstein(TABLE1_N, "euclidean")
    F = hammerstein_operator(prob)
    ref = checks.HammersteinReference(TABLE1_N, "euclidean")
    ops = []
    for delta_rel in TABLE1_DELTAS:
        for k in range(TABLE1_SEEDS_PER_DELTA):
            op = _newton_iteration_op(
                f"table1/dr={delta_rel:g}/k={k}", F, prob, delta_rel, k, 2000,
                ref)
            op.group = f"dr={delta_rel:g}"
            op.group_check = (lambda reports, dr=delta_rel:
                              checks.check_reference_table(ref, dr, reports))
            ops.append(op)
    return ops


def _build_mesh() -> list[Op]:
    ops = []
    for k, n in enumerate(MESH_SIZES):
        prob = make_hammerstein(n, "trapezoid")
        F = hammerstein_operator(prob)
        ref = checks.HammersteinReference(n, "trapezoid")
        ops.append(_newton_iteration_op(
            f"mesh/N={n}", F, prob, MESH_DELTA, k, 200, ref))
    return ops


def _build_continuation() -> list[Op]:
    prob = make_hammerstein(FLOW_N, "trapezoid")
    F = hammerstein_operator(prob)
    ref = checks.HammersteinReference(FLOW_N, "trapezoid")
    f_delta, delta = gen_noise(F(prob.exact_solution),
                               NoiseSpec(FLOW_DELTA, 0))
    thresh = FLOW_C1 * delta ** FLOW_ZETA
    # the lambdas look the flows up at call time, where tracing patches them
    flows = (
        ("newton", lambda *a: flow_newton(*a),
         make_continuous(NEWTON_FLOW, b=1.0, c=7.0, d=32.0)),
        ("gradient", lambda *a: flow_gradient(*a),
         make_continuous(GRADIENT_FLOW, b=0.25, c=576.0, d=0.25)),
        ("simple", lambda *a: flow_simple(*a),
         make_continuous(SIMPLE_FLOW, b=0.5, c=9.0, d=1.0)),
    )
    ops = []
    for name, runner, schedule in flows:
        cfg = FlowConfig(schedule=schedule, C1=FLOW_C1, zeta=FLOW_ZETA,
                         step_init=0.1, t_max=1e6, keep_iterates=True)
        a0 = float(schedule.a(0.0))

        def run(runner=runner, cfg=cfg, a0=a0):
            u0 = init_u0(F, f_delta, a0)
            return runner(F, f_delta, delta, cfg, u0)

        def check(report):
            return checks.check_flow(ref, report, f_delta.values, delta,
                                     FLOW_DELTA, thresh)

        ops.append(Op(f"continuation/flow_{name}", run, check))

    dp_cfg = DPConfig(C=DP_C, gamma=DP_GAMMA)

    def run_dp():
        return solve_dp(F, f_delta, delta, dp_cfg)

    def check_dp(result):
        return checks.check_dp(ref, result, f_delta.values, delta, FLOW_DELTA,
                               DP_C * delta ** DP_GAMMA, dp_cfg.dp_tol)

    ops.append(Op("continuation/solve_dp", run_dp, check_dp))
    return ops


def _forced_system():
    """The forced 3-dim dissipative system of the inequality tests."""
    w = np.ones(3)
    A = LinearMap.from_matrix(np.diag([-1.0, -2.0, -3.0]), w)
    u0 = HilbertVector(np.array([0.5, 0.0, 0.0]), w)

    def h_map(t, u):
        return 0.1 * u.norm() * u

    def forcing(t):
        return HilbertVector(np.array([0.05 * np.exp(-t), 0.0, 0.0]), w)

    inst = ContinuousInequality(
        p=2.0,
        alpha=lambda t: 0.1 * np.ones_like(np.asarray(t, dtype=float)),
        beta=lambda t: 0.05 * np.exp(-np.asarray(t, dtype=float)),
        gamma=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        mu=lambda t: np.exp(np.asarray(t, dtype=float) / 2.0),
        mu_dot=lambda t: 0.5 * np.exp(np.asarray(t, dtype=float) / 2.0),
        g0=0.5,
        horizon=20.0,
    )
    return A, h_map, forcing, u0, inst


def _build_certify() -> list[Op]:
    ops = []
    for k in range(CERTIFY_CONTINUOUS):
        inst = random_continuous_instance(k)
        ops.append(Op(
            f"certify/bound_continuous/k={k}",
            lambda inst=inst: bound_continuous(
                inst, n_steps=CERTIFY_STEPS, n_condition_samples=CERTIFY_STEPS),
            checks.ContinuousBoundCheck(inst, CERTIFY_STEPS)))
    for k in range(CERTIFY_DISCRETE):
        inst = random_discrete_instance(k)
        ops.append(Op(
            f"certify/bound_discrete/k={k}",
            lambda inst=inst: bound_discrete(inst),
            lambda rep, inst=inst: checks.check_bound_discrete(inst, rep)))

    A, h_map, forcing, u0, inst = _forced_system()
    ops.append(Op(
        "certify/evolution_norm_bound",
        lambda: evolution_norm_bound(A, h_map, forcing, u0, inst, T=20.0,
                                     n_steps=CERTIFY_STEPS),
        checks.EvolutionCheck(20.0, CERTIFY_STEPS)))

    params = ValidationParams(m1=2.0, c0=1.0, c1=5.0, y_norm=1.0,
                              residual0=1.3, horizon=1e4)
    ops.append(Op(
        "certify/find_continuous",
        lambda: find_continuous(NEWTON_FLOW, b=1.0, c=7.0, params=params),
        checks.check_schedule_search))
    return ops
