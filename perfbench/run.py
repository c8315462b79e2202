#!/usr/bin/env python3
"""Benchmark of the monoreg library: four workloads, each timed through
the library's public functions in fresh processes.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Workloads: table1, mesh, continuation, certify (see README.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones: ops_per_s and op_p50_ms over each input's median
repeat, every repeat scaled to a reference speed of the host (speed.py);
setup_s, the median over five fresh processes set up before and after
the measurement, scaled the same way; and peak_rss_mb.  With --trace 1
they are the per-layer metrics of a traced run, whose spans go to
perfbench/results/ as JSONL.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("table1", "mesh", "continuation", "certify")
SETUP_BEFORE, SETUP_AFTER = 3, 2  # set-up samples around the measurement
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def child_cmd(workload, seed, mode, *extra):
    return [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, *extra]


def wait_ready(proc, workload):
    if proc.stdout.readline().strip() != "READY":
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{workload} set-up failed (exit {proc.returncode})")


def read_scale(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("SCALE "):
            return float(line[len("SCALE "):])
    raise ChildFailed("set-up process printed no scale")


def wait_exit(proc, timeout) -> str:
    """Wait for a workload process to exit cleanly; return its output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed("workload process timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited with {proc.returncode}")
    return out


def finish(proc, timeout):
    """Wait for a measuring process and return its RESULT object."""
    for line in reversed(wait_exit(proc, timeout).splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise ChildFailed("workload process printed no result")


def setup_seconds(workload, seed, timeout):
    """Seconds from starting a fresh interpreter to every input built,
    scaled to the reference speed by kernel samples taken after it."""
    t0 = perf_counter()
    proc = subprocess.Popen(child_cmd(workload, seed, "setup"),
                            stdout=subprocess.PIPE, text=True)
    try:
        wait_ready(proc, workload)
        elapsed = perf_counter() - t0
        scale = read_scale(wait_exit(proc, timeout))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed * scale


def measure(workload, seed, seconds, timeout, trace_out=""):
    """Run the measuring process and return its result."""
    extra = ["--seconds", str(seconds)]
    if trace_out:
        extra += ["--trace-out", trace_out]
    proc = subprocess.Popen(child_cmd(workload, seed, "measure", *extra),
                            stdout=subprocess.PIPE, text=True)
    try:
        wait_ready(proc, workload)
        return finish(proc, timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_workload(workload, seed, seconds, trace):
    t_start = perf_counter()
    remaining = lambda: max(RUN_LIMIT_S - (perf_counter() - t_start), 1.0)
    if trace:
        RESULTS.mkdir(exist_ok=True)
        trace_out = RESULTS / f"trace-{workload}-seed{seed}.jsonl"
        return measure(workload, seed, seconds, remaining(), str(trace_out))

    setups = [setup_seconds(workload, seed, remaining())
              for _ in range(SETUP_BEFORE)]
    result = measure(workload, seed, seconds, remaining())
    setups += [setup_seconds(workload, seed, remaining())
               for _ in range(SETUP_AFTER)]
    ok = [statistics.median(times) for times in result["times"] if times]
    result["metrics"] = {
        "ops_per_s": {"value": len(ok) / sum(ok), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(ok), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        for problem in result["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        if args.workload == "all":
            print(f"{name}: passes {result['passes']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")

    if args.workload == "all":
        final = {
            "correct": all(r["wrong"] == 0 for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
        final = {
            "correct": result["wrong"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(final, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
