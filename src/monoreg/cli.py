"""Config-driven command-line front end.

Subcommands: `dp` (parameter choice), `flow` and `iterate` (continuation
runs over noise levels and seeds), `bench` (the reference table),
`schedule-check` (admissibility report), `ineq` (inequality bound check).
One JSON config file describes the experiment; selected flags override
config keys.  A sweep (`dp`, `flow`, `iterate`, `bench`) is one
`bench.sweep`: it checks every row's stop level before it solves any, and
writes a row whose run raised a solver error with that error.  Exit
codes: 0 success; 2 a solver error (in a sweep, a failed row, with the
file still written) or a failed schedule condition; 3 config or usage
error, before any row is solved.
"""
from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import bench, flows, inequalities, iterations, schedules, synthetic
from .core import HilbertVector, NonlinearOperator
from .discrepancy import DP_SCALARS, DPConfig, solve_dp
from .errors import (
    ConstraintViolated,
    GridMismatch,
    InvalidConfig,
    MonoregError,
    check_number,
)
from .reports import REPORT_SCALARS

_FLOAT_FMT = "%.17g"


# ----------------------------------------------------------------- emission


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return "" if value is None else str(value)


def emit_report(report, format: str, path, header=None) -> None:
    """Serialize a report (or list of row dicts) with stable field order,
    as JSON when `format` is "json" and as CSV otherwise.

    CSV floats carry 17 significant digits so values round-trip exactly,
    and a cell holding a comma or quote is quoted; the CSV columns are
    `header` when given, else the scalar fields of the first row.  The
    JSON mirror nests histories and per-seed detail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    if format == "json":
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return
    rows = [payload] if isinstance(payload, dict) else payload
    if header is None:
        first = rows[0] if rows else {}
        header = [k for k, v in first.items() if not isinstance(v, (list, dict))]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row.get(col)) for col in header] for row in rows)


# ------------------------------------------------------------ config loading


def _expect_keys(section: dict, allowed, where: str) -> None:
    """Raise InvalidConfig naming `where` unless section is an object whose
    keys are all in `allowed` (any keys when allowed is None)."""
    if not isinstance(section, dict):
        raise InvalidConfig(f"section must be an object, got {type(section).__name__}",
                            key=where)
    for key in section:
        if allowed is not None and key not in allowed:
            raise InvalidConfig(f"unknown key {key!r}", key=where)


def _keys(builder) -> set[str]:
    """The config keys of a section built as builder(**section): the
    parameters of a function, the fields of a config class."""
    return set(inspect.signature(builder).parameters)


def _dispatch(section: dict, choices: dict, where: str, tag: str = "kind"):
    """(section[tag], the section's other keys) once section[tag] is one of
    `choices` and each other key is one of the keys choices[section[tag]]."""
    _expect_keys(section, None, where)
    choice = section.get(tag)
    if choice not in choices:
        raise InvalidConfig(f"must be one of {sorted(choices)}, got {choice!r}",
                            key=f"{where}.{tag}")
    args = {key: value for key, value in section.items() if key != tag}
    _expect_keys(args, choices[choice], where)
    return choice, args


def _read(cfg: dict, where: str, allowed, build: Callable):
    """build(section) for the config section `where` after its key check
    (`allowed` None: build checks the keys of the kind it reads).

    A missing key, a value of the wrong type and a value out of range (an
    integer too large for a float included) all become one InvalidConfig
    that names the section, unless the error already names its key.
    """
    section = cfg.get(where, {})
    _expect_keys(section, allowed, where)
    try:
        return build(section)
    except KeyError as exc:
        raise InvalidConfig(f"missing key {exc}", key=where) from exc
    except (TypeError, ValueError, OverflowError, ConstraintViolated) as exc:
        if isinstance(exc, InvalidConfig) and exc.key is not None:
            raise
        raise InvalidConfig(str(exc), key=where) from exc


def load_config(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidConfig(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc


@dataclass(frozen=True)
class ProblemBundle:
    """A built problem: operator, exact solution and noisy-data maker."""

    name: str
    F: NonlinearOperator
    u_exact: HilbertVector
    make_noise: Callable[[float, int], tuple[HilbertVector, float]]


# problem kind -> its builder, whose parameters are the section's other keys
_PROBLEMS = {
    "rank_one": synthetic.rank_one_problem,
    "hammerstein": bench.make_hammerstein,
    "diagonal": synthetic.diagonal_problem,
    "random_monotone": synthetic.random_monotone_problem,
}


def build_problem(section: dict) -> ProblemBundle:
    kind, args = _dispatch(
        section, {kind: _keys(make) for kind, make in _PROBLEMS.items()}, "problem")
    prob = _PROBLEMS[kind](**args)
    if kind == "rank_one":
        # deterministic perpendicular perturbation; ||f|| = 1
        return ProblemBundle(
            kind, prob.F, prob.p, lambda delta_rel, seed: prob.noisy_data(delta_rel)
        )
    if kind == "hammerstein":
        F, u_exact = bench.hammerstein_operator(prob), prob.exact_solution
    else:
        F, u_exact = prob
    f = F(u_exact)

    def make_noise(delta_rel, seed):
        return bench.gen_noise(f, bench.NoiseSpec(delta_rel, seed))

    return ProblemBundle(kind, F, u_exact, make_noise)


def _levels_and_seeds(levels, seeds, args, where: str, level_key: str):
    """The noise levels and seeds of a sweep after the --delta-rel and --seed
    flags, each checked before any noise is drawn: nonempty lists of real
    levels > 0 and of integer seeds >= 0."""
    if args.delta_rel is not None:
        levels = [float(x) for x in args.delta_rel.split(",")]
    if args.seed is not None:
        seeds = [args.seed]
    for name, key, values, kind in (("delta_rel", level_key, levels, "float"),
                                    ("seeds", "seeds", seeds, "int")):
        key = f"{where}.{key}"
        if not isinstance(values, (list, tuple)) or not values:
            raise InvalidConfig(f"must be a nonempty list, got {values!r}", key)
        for value in values:
            check_number(name, value, kind, key)
            if not (value > 0 or (value == 0 and name == "seeds")):
                low = "nonnegative" if name == "seeds" else "positive"
                raise InvalidConfig(f"{name} must be {low}, got {value}", key)
    return levels, seeds


def _output(cfg: dict, args, default_stem: str, history: bool = False):
    """(path, format, output.history) of the `output` section; it takes the
    key `history` only when the command reads it (`history`)."""
    def build(section):
        fmt = args.format or section.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise InvalidConfig(f"unknown format {fmt!r}", key="output.format")
        out_dir = Path(args.out or section.get("dir", "out"))
        stem = section.get("stem", default_stem)
        keep = section.get("history", False)
        for key, value, kind in (("stem", stem, str), ("history", keep, bool)):
            if not isinstance(value, kind):
                raise InvalidConfig(f"{key} must be {kind.__name__}, got {value!r}")
        return out_dir / f"{stem}.{fmt}", fmt, keep

    keys = {"dir", "format", "stem", "history"} if history else {"dir", "format", "stem"}
    return _read(cfg, "output", keys, build)


def _write(path: Path, fmt: str, report, header=None) -> None:
    emit_report(report, fmt, path, header)
    print(f"wrote {path}")


def _sweep(cfg: dict, args, problem: ProblemBundle, stem: str, solve, columns, level,
           header, history: bool = False) -> int:
    """Write one row per noise level and seed of `problem` (`bench.sweep`,
    which checks every row's level(f_delta, delta), the stop level or the
    dp match tolerance, before the first solve(f_delta, delta)).
    columns(result, delta, history) gives a result's fields, its solution
    and the last columns, for a failed run's partial report too; `history`
    says whether it reads output.history.  The CSV columns are the noise
    columns and then `header`, whichever rows fail; a failed row's status
    names the error, which is printed, and the exit code is then 2."""
    delta_rels, seeds = _read(cfg, "noise", {"delta_rel", "seeds"}, lambda section: (
        _levels_and_seeds(section.get("delta_rel", [0.01]), section.get("seeds", [0]),
                          args, "noise", "delta_rel")))
    path, fmt, history = _output(cfg, args, stem, history)
    u_exact = problem.u_exact
    rows, failed = [], False
    for delta_rel, seed, delta, result, error in bench.sweep(
            problem.make_noise, delta_rels, seeds, level, solve, "noise.delta_rel"):
        row = {"delta_rel": delta_rel, "seed": seed, "delta": delta}
        report = result if error is None else error.report
        if report is not None:
            fields, u, extra = columns(report, delta, history)
            row.update(fields, rel_error=(u - u_exact).norm() / u_exact.norm(), **extra)
        if error is not None:
            failed = True
            row["status"] = f"{type(error).__name__}: {error}"
            print(f"solver error at delta_rel = {delta_rel:g}, seed {seed}: "
                  f"{row['status']}", file=sys.stderr)
        rows.append(row)
    _write(path, fmt, rows, ["delta_rel", "seed", "delta", *header])
    return _SOLVER_EXIT if failed else 0


# --------------------------------------------------------------- subcommands


def _cmd_dp(cfg: dict, args) -> int:
    dp_cfg = _read(cfg, "dp", _keys(DPConfig), lambda section: DPConfig(**section))
    problem = _read(cfg, "problem", None, build_problem)
    # the matched shift of the rank-one problem has a closed form at gamma 1
    analytic = problem.name == "rank_one" and dp_cfg.gamma == 1.0
    header = [*DP_SCALARS, "rel_error"] + (["analytic_a", "a_over_analytic"]
                                           if analytic else [])

    def columns(result, delta, history):
        if not analytic:
            return result.to_dict(), result.V, {}
        a = synthetic.RankOneProblem.matched_shift(delta, dp_cfg.C)
        return (result.to_dict(), result.V,
                {"analytic_a": a, "a_over_analytic": result.a_delta / a})

    return _sweep(cfg, args, problem, "dp",
                  lambda f_delta, delta: solve_dp(problem.F, f_delta, delta, dp_cfg),
                  columns, dp_cfg.inner_tol, header)


def _schedule(section: dict,
              kinds=schedules.CONTINUOUS_KINDS + schedules.DISCRETE_KINDS):
    """The schedule of the section; its kind, one of `kinds`, picks its
    builder, whose parameters are the section's keys."""
    builders = {kind: schedules.make_continuous if kind in schedules.CONTINUOUS_KINDS
                else schedules.make_discrete for kind in kinds}
    kind, args = _dispatch(
        section, {kind: _keys(make) for kind, make in builders.items()}, "schedule")
    return builders[kind](kind, **args)


# subcommand -> (runners by schedule kind, config class, allowed `stop`
# keys, start point from (problem, f_delta, schedule, stop.start)); the key
# "gamma" sets IterConfig's gamma_or_zeta
_CONTINUATION = {
    "flow": (
        dict(zip(schedules.CONTINUOUS_KINDS,
                 (flows.flow_newton, flows.flow_gradient, flows.flow_simple))),
        flows.FlowConfig,
        {"C1", "zeta", "step_init", "step_min", "step_max", "t_max",
         "inner_tol", "start"},
        lambda problem, f_delta, schedule, start: flows.init_u0(
            problem.F, f_delta, float(schedule.a(0.0)), zero=start == "zero"),
    ),
    "iterate": (
        dict(zip(schedules.DISCRETE_KINDS, (
            iterations.iter_newton, iterations.iter_gradient, iterations.iter_simple))),
        iterations.IterConfig,
        {"C1", "gamma", "n_max", "inner_tol"},
        lambda problem, f_delta, schedule, start: HilbertVector.zeros(
            problem.u_exact.weights),
    ),
}


def _cmd_continuation(command: str, cfg: dict, args) -> int:
    runners, config_class, stop_keys, make_start = _CONTINUATION[command]
    schedule = _read(cfg, "schedule", None,
                     functools.partial(_schedule, kinds=tuple(runners)))

    def build_stop(section):
        stop = dict(section)
        start = stop.pop("start", "regularized")
        if start not in ("regularized", "zero"):
            raise InvalidConfig(
                f"must be 'regularized' or 'zero', got {start!r}", key="stop.start"
            )
        if "gamma" in stop:
            stop["gamma_or_zeta"] = stop.pop("gamma")
        return config_class(schedule=schedule, **stop), start

    run_cfg, start = _read(cfg, "stop", stop_keys, build_stop)
    problem = _read(cfg, "problem", None, build_problem)

    def solve(f_delta, delta):
        u0 = make_start(problem, f_delta, schedule, start)
        return runners[schedule.kind](problem.F, f_delta, delta, run_cfg, u0)

    # the default stem names the method: flow_newton, iterate_simple, ...
    method = schedule.kind.split("_")[0]
    return _sweep(cfg, args, problem, f"{command}_{method}", solve,
                  lambda report, delta, history: (
                      report.to_dict(include_history=history), report.u_final, {}),
                  lambda f_delta, delta: run_cfg.threshold(delta),
                  [*REPORT_SCALARS, "rel_error"], history=True)


_TABLE1_HEADER = ["delta_rel", "n_iterations", "rel_error", "residual_at_stop",
                  "a_at_stop", "seed_count"]


def _cmd_bench(cfg: dict, args) -> int:
    def build(section):
        levels, seeds = _levels_and_seeds(
            section.get("delta_rel_list", bench.Table1Config.delta_rel_list),
            section.get("seeds", bench.Table1Config.seeds),
            args, "bench", "delta_rel_list")
        return bench.Table1Config(**{**section, "delta_rel_list": levels,
                                     "seeds": seeds})

    table_cfg = _read(cfg, "bench", _keys(bench.Table1Config), build)
    path, fmt, _ = _output(cfg, args, "table1")
    rows = bench.run_table1(table_cfg)
    for row in rows:
        print(
            f"delta_rel={row.delta_rel:g} n={row.n_iterations:g} "
            f"rel_error={row.rel_error:.4g} [{row.status}]"
        )
    _write(path, fmt, [r.to_dict() for r in rows], _TABLE1_HEADER)
    return 0 if all(row.status == "ok" for row in rows) else _SOLVER_EXIT


def _cmd_schedule_check(cfg: dict, args) -> int:
    schedule = _read(cfg, "schedule", None, _schedule)
    params = _read(
        cfg, "params", _keys(schedules.ValidationParams),
        lambda section: schedules.ValidationParams(**section),
    )
    path, fmt, _ = _output(cfg, args, "schedule_check")
    report = schedules.validate_conditions(schedule, params)
    print(f"kind={report.kind} lam={report.lam:g} passed={report.passed}")
    print(f"{'condition':<20} {'status':<8} {'worst margin':<16} at")
    for name, status, margin, at in report.rows():
        print(f"{name:<20} {status:<8} {margin:<16.6g} {at:g}")
    # the CSV has one row per condition and leaves out `strict`
    _write(path, fmt, report if fmt == "json" else [c.to_dict() for c in report.checks],
           ["name", "satisfied", "margin", "worst_at"])
    return 0 if report.passed else 2


# The coefficient descriptors: each form's builder returns the closed-form
# evaluator and its derivative, and its parameters are the form's keys.


def _const(value: float):
    return (lambda t: value * np.ones_like(np.asarray(t, dtype=float)),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)))


def _exp(coef: float, rate: float = 0.0):
    return (lambda t: coef * np.exp(rate * np.asarray(t, dtype=float)),
            lambda t: coef * rate * np.exp(rate * np.asarray(t, dtype=float)))


def _power(coef: float, exponent: float, offset: float = 1.0):
    return (lambda t: coef * (offset + np.asarray(t, dtype=float)) ** exponent,
            lambda t: coef * exponent
            * (offset + np.asarray(t, dtype=float)) ** (exponent - 1.0))


_FORMS = {"const": _const, "exp": _exp, "power": _power}


def _descriptor(section: dict, where: str):
    """(evaluator, derivative) of the descriptor at `where`; its numbers
    are finite floats."""
    form, args = _dispatch(
        section, {form: _keys(make) for form, make in _FORMS.items()}, where, "form")
    for key, value in args.items():
        check_number(key, value, "float", where)
        if not math.isfinite(value):
            raise InvalidConfig(f"{key} must be finite, got {value}", key=where)
    return _FORMS[form](**args)


# instance kind -> its keys: the fields of its inequality class (mu_dot
# comes from the mu descriptor) plus the step count of the continuous
# check and the last index of the discrete coefficients
_INSTANCES = {
    "continuous": (_keys(inequalities.ContinuousInequality) - {"mu_dot"}
                   | _keys(inequalities.check_n_steps)),
    "discrete": _keys(inequalities.DiscreteInequality) | {"n_last"},
}
_COEFFICIENTS = ("alpha", "beta", "gamma", "mu", "h")


def _bound_check(section: dict):
    """The bound check of the `instance` section, ready to run."""
    kind, args = _dispatch(section, _INSTANCES, "instance")
    fns = {key: _descriptor(args.pop(key), f"instance.{key}")
           for key in _COEFFICIENTS if key in args}
    if kind == "continuous":
        run = {}
        if "n_steps" in args:
            run["n_steps"] = args.pop("n_steps")
            inequalities.check_n_steps(run["n_steps"])
        inst = inequalities.ContinuousInequality(
            **args, **{key: fn for key, (fn, _) in fns.items()}, mu_dot=fns["mu"][1])
        return functools.partial(inequalities.bound_continuous, inst, **run)
    n_last = args.pop("n_last")
    check_number("n_last", n_last, "int")
    n = np.arange(n_last + 1, dtype=float)
    inst = inequalities.DiscreteInequality(
        **args, **{key: fn(n) for key, (fn, _) in fns.items()})
    return functools.partial(inequalities.bound_discrete, inst)


def _cmd_ineq(cfg: dict, args) -> int:
    check = _read(cfg, "instance", None, _bound_check)
    path, fmt, _ = _output(cfg, args, "ineq")
    report = check()
    print(
        f"bound holds: {report.passed}; min margin {report.min_margin:.6g} "
        f"at {report.margin_at:g}"
    )
    _write(path, fmt, report)
    return 0


# override flag -> its argparse options; each flag overrides the config
# keys named in its help
_FLAGS = {
    "--seed": dict(type=int, help="override noise seeds with a single seed"),
    "--delta-rel": dict(dest="delta_rel",
                        help="comma-separated relative noise levels"),
    "--out": dict(help="override output directory"),
    "--format": dict(choices=("csv", "json")),
}
_OUTPUT_FLAGS = ("--out", "--format")
_SWEEP_FLAGS = ("--seed", "--delta-rel", *_OUTPUT_FLAGS)
_CONTINUATION_SECTIONS = {"problem", "schedule", "stop", "noise", "output"}

# subcommand -> (allowed top-level sections, runner, the override flags it
# reads); a flag a subcommand does not read is a usage error
_COMMANDS = {
    "dp": ({"problem", "dp", "noise", "output"}, _cmd_dp, _SWEEP_FLAGS),
    "flow": (
        _CONTINUATION_SECTIONS, functools.partial(_cmd_continuation, "flow"),
        _SWEEP_FLAGS,
    ),
    "iterate": (
        _CONTINUATION_SECTIONS, functools.partial(_cmd_continuation, "iterate"),
        _SWEEP_FLAGS,
    ),
    "bench": ({"bench", "output"}, _cmd_bench, _SWEEP_FLAGS),
    "schedule-check": (
        {"schedule", "params", "output"}, _cmd_schedule_check, _OUTPUT_FLAGS
    ),
    "ineq": ({"instance", "output"}, _cmd_ineq, _OUTPUT_FLAGS),
}

_CONFIG_EXIT = 3
_SOLVER_EXIT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoreg",
        description="Stable solvers for monotone operator equations with "
        "noisy data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a failed solve
        if exc.code == 2:
            return _CONFIG_EXIT
        raise
    sections, command, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        _expect_keys(cfg, sections, "<top>")
        return command(cfg, args)
    except (InvalidConfig, ConstraintViolated, GridMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except MonoregError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _SOLVER_EXIT


if __name__ == "__main__":
    sys.exit(main())
