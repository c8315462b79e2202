"""One workload in its own process; started by run.py, not by hand.

Prints READY once every input is built.  In setup mode it then prints
SCALE <x>, the factor from raw seconds to seconds at the reference speed
read from the set-up calibration kernel (speed.py), and exits.  In
measure mode it runs whole passes over the inputs, in an order drawn
from the seed, for the given seconds and prints RESULT <json>.  In
traced mode the first half of the time is measured untraced and the
second half traced.
"""
import argparse
import json
import math
import os
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_PROBLEMS = 5
SETUP_SAMPLES = 9  # kernel samples after a set-up; SCALE uses their median


def run_passes(ops, order, seconds, kernel, tracer=None):
    """Whole passes over `ops` in `order` until `seconds` have passed.
    Records the time of every correct repeat scaled to the reference
    speed by the kernel samples taken before and after it (speed.py),
    the fastest raw time of each input and, with a tracer, the trace of
    that repeat."""
    import speed
    from monoreg import MonoregError

    best = [math.inf] * len(ops)
    times = [[] for _ in ops]
    kept = [None] * len(ops)
    attempted = failed = wrong = passes = 0
    problems = []
    groups = {}
    for i, op in enumerate(ops):
        if op.group_check is not None:
            groups.setdefault(op.group, []).append(i)
    pending = []  # (input, raw seconds) timed since the last sample
    before = kernel.sample()
    sampled_at = perf_counter()

    def scale_pending():
        nonlocal before, sampled_at
        after = kernel.sample()
        factor = kernel.factor(before, after)
        for i, elapsed in pending:
            times[i].append(elapsed * factor)
        pending.clear()
        before, sampled_at = after, perf_counter()

    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        outputs = {}
        for i in order:
            op = ops[i]
            attempted += 1
            if tracer is not None:
                tracer.begin()
            t0 = perf_counter()
            try:
                out = op.run()
            except MonoregError as exc:
                failed += 1
                problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            found = op.check(out)
            if found:
                failed += 1
                wrong += 1
                problems.append(f"{op.name}: {'; '.join(found)}")
                continue
            outputs[i] = out
            pending.append((i, elapsed))
            if elapsed < best[i]:
                best[i] = elapsed
                if tracer is not None:
                    kept[i] = tracer.record(t0)
            if perf_counter() - sampled_at >= speed.SAMPLE_INTERVAL_S:
                scale_pending()
        for members in groups.values():
            ok = [i for i in members if i in outputs]
            found = ops[members[0]].group_check([outputs[i] for i in ok])
            if found:
                failed += len(ok)
                wrong += len(ok)
                problems.append("; ".join(found))
        passes += 1
    if pending:
        scale_pending()
    return {"best": best, "times": times, "kept": kept, "attempted": attempted,
            "failed": failed, "wrong": wrong, "problems": problems,
            "passes": passes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    if not (SRC / "monoreg" / "__init__.py").is_file():
        print(f"monoreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    ops = workloads.build(args.workload)
    print("READY", flush=True)
    if args.mode == "setup":
        kernel = speed.Kernel(workloads.KERNEL[args.workload][1])
        mid = sorted(kernel.sample() for _ in range(SETUP_SAMPLES))[
            SETUP_SAMPLES // 2]
        print(f"SCALE {kernel.factor(mid, mid)!r}", flush=True)
        return 0

    kernel = speed.Kernel(workloads.KERNEL[args.workload][0])

    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    result = {}
    if not args.trace_out:
        run = run_passes(ops, order, args.seconds, kernel)
        result["times"] = run["times"]
        runs = [run]
    else:
        import tracing

        plain = run_passes(ops, order, args.seconds / 2.0, kernel)
        tracer = tracing.Tracer()
        tracing.install(tracer, [workloads])
        traced = run_passes(ops, order, args.seconds / 2.0, kernel, tracer)
        both = [(p, t) for p, t in zip(plain["best"], traced["best"])
                if math.isfinite(p) and math.isfinite(t)]
        overhead_ms = 1e3 * sum(t - p for p, t in both) / max(len(both), 1)
        kept = [(op.name, t) for op, t in zip(ops, traced["kept"]) if t]
        result["metrics"] = tracing.layer_metrics([t for _, t in kept],
                                                  overhead_ms)
        tracing.write_spans(args.trace_out, kept)
        runs = [plain, traced]

    problems = [p for r in runs for p in r["problems"]]
    result.update({
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "wrong": sum(r["wrong"] for r in runs),
        "passes": sum(r["passes"] for r in runs),
        "problems": problems[:MAX_PROBLEMS],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
