"""Each independent check accepts a true output and rejects a corrupted one.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from monoreg.schedules import NEWTON_FLOW, ContinuousSchedule

BENCH = Path(__file__).resolve().parent.parent


def first_op(workload, prefix):
    return next(op for op in workloads.build(workload)
                if op.name.startswith(prefix))


@pytest.fixture(scope="module")
def iteration():
    op = first_op("table1", "table1/dr=0.05/k=0")
    return op, op.run()


@pytest.fixture(scope="module")
def flow():
    op = first_op("continuation", "continuation/flow_simple")
    return op, op.run()


def replace_stop(report, iterates):
    return dataclasses.replace(report, iterates=tuple(iterates),
                               u_final=iterates[-1])


def test_iteration_check_accepts_and_rejects(iteration):
    op, report = iteration
    assert op.check(report) == []
    its = report.iterates
    # stopped one step early: the residual is still above the threshold
    assert op.check(replace_stop(report, its[:-1]))
    # stopped one step late: the step before was already at the threshold
    assert op.check(replace_stop(report, its + (its[-1],)))
    # a wrong solution
    assert op.check(replace_stop(report, its[:-1] + (1.2 * its[-1],)))
    assert op.check(dataclasses.replace(report, status="exhausted_horizon"))


def test_noise_check_rejects_a_wrong_delta():
    ref = checks.HammersteinReference(50, "euclidean")
    f = ref.exact_data()
    noise = np.random.default_rng(0).standard_normal(50)
    delta = 0.01 * ref.norm(f)
    f_delta = f + delta * noise / ref.norm(noise)
    assert ref.check_noise(f_delta, delta, 0.01) == []
    assert ref.check_noise(f_delta, 1.01 * delta, 0.01)
    assert ref.check_noise(f + 2 * (f_delta - f), delta, 0.01)


def test_flow_check_rejects_a_rising_residual(flow):
    op, report = flow
    assert op.check(report) == []
    history = list(report.residual_history)
    t, r = history[1]
    history[1] = (t, r * (1 + 1e-9) + history[0][1] - r)
    assert op.check(dataclasses.replace(report,
                                        residual_history=tuple(history)))


def test_dp_check_rejects_a_mismatched_residual():
    op = first_op("continuation", "continuation/solve_dp")
    result = op.run()
    assert op.check(result) == []
    assert op.check(dataclasses.replace(result, V=result.V * (1 + 1e-4)))
    assert op.check(dataclasses.replace(result, status="already_compatible"))


def test_reference_table_window():
    ref = checks.HammersteinReference(50, "euclidean")
    fake = lambda steps, err: SimpleNamespace(
        iterates=[None] * (steps + 1),
        u_final=SimpleNamespace(values=np.full(50, 1.0 + err)))
    good = [fake(29, 0.0146)] * 11
    assert checks.check_reference_table(ref, 0.01, good) == []
    assert checks.check_reference_table(ref, 0.01, [fake(60, 0.0146)] * 11)
    assert checks.check_reference_table(ref, 0.01, [fake(29, 0.1)] * 11)


def test_continuous_bound_check():
    op = first_op("certify", "certify/bound_continuous/k=0")
    report = op.run()
    assert op.check(report) == []
    bent = report.trajectory.copy()
    bent[len(bent) // 2] += 1e-4
    assert op.check(dataclasses.replace(report, trajectory=bent))
    assert op.check(dataclasses.replace(report,
                                        min_margin=report.min_margin + 1e-3))
    assert op.check(dataclasses.replace(report, bound=report.bound * 1.001))


def test_discrete_bound_check():
    op = first_op("certify", "certify/bound_discrete/k=0")
    report = op.run()
    assert op.check(report) == []
    bent = report.trajectory.copy()
    bent[-1] *= 1 + 1e-9
    assert op.check(dataclasses.replace(report, trajectory=bent))
    assert op.check(dataclasses.replace(report, min_margin=0.5 * report.min_margin))


def test_evolution_check():
    op = first_op("certify", "certify/evolution_norm_bound")
    report = op.run()
    assert op.check(report) == []
    bent = report.norms.copy()
    bent[100] += 1e-5
    assert op.check(dataclasses.replace(report, norms=bent))


def test_schedule_check():
    op = first_op("certify", "certify/find_continuous")
    search = op.run()
    assert op.check(search) == []
    for b, c in ((1.0, 6.0), (1.5, 20.0)):
        bad = ContinuousSchedule(NEWTON_FLOW, b=b, c=c, d=search.schedule.d)
        assert op.check(dataclasses.replace(search, schedule=bad))


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert list(workloads.KERNEL) == names


def traced_counts(tmp_path, k):
    out = tmp_path / f"spans{k}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", "table1",
         "--seed", "3", "--mode", "measure", "--seconds", "0.01",
         "--trace-out", str(out)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1][len("RESULT "):])
    names = [json.loads(line)["name"] for line in out.read_text().splitlines()]
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] == "count"}
    return counts, names


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts, names = traced_counts(tmp_path, 1)
    assert (counts, names) == traced_counts(tmp_path, 2)
    # solve_shifted is reached through the name iterations imported
    assert counts["core.solve_shifted.count"] == counts["iterations.steps"] > 0
    assert counts["core.vector.count"] > 0
    assert {"iterations", "core.solve_shifted", "bench.apply",
            "bench.derivative", "core.from_matrix", "core.vector"} <= set(names)
