"""Config-driven command-line front end.

Subcommands: `dp` (parameter choice), `flow` and `iterate` (continuation
runs over noise levels and seeds), `bench` (the reference table),
`schedule-check` (admissibility report), `ineq` (inequality bound check).
One JSON config file describes the experiment; selected flags override
config keys.  Exit codes: 0 success, 2 solver non-convergence or
non-finite values, 3 config error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import bench, flows, inequalities, iterations, schedules
from .core import HilbertVector, NonlinearOperator
from .discrepancy import DPConfig, solve_dp
from .errors import (
    ConfigError,
    ConstraintViolated,
    GridMismatch,
    InvalidConfig,
    MonoregError,
)
from .synthetic import diagonal_problem, random_monotone_problem, rank_one_problem

_FLOAT_FMT = "%.17g"


# ----------------------------------------------------------------- emission


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return "" if value is None else str(value)


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in header))
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")


def emit_report(report, format: str, path) -> None:
    """Serialize a report (or list of row dicts) with stable field order.

    CSV floats carry 17 significant digits so values round-trip exactly;
    the JSON mirror nests histories and per-seed detail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if hasattr(report, "to_dict"):
        payload = report.to_dict()
    elif isinstance(report, list) and all(hasattr(r, "to_dict") for r in report):
        payload = [r.to_dict() for r in report]
    else:
        payload = report
    if format == "json":
        _write_json(path, payload)
        return
    if format != "csv":
        raise ConfigError(f"unknown format {format!r}", key="output.format")
    if isinstance(payload, dict):
        header = [k for k, v in payload.items() if not isinstance(v, (list, dict))]
        _write_csv(path, header, [payload])
    elif isinstance(payload, list) and payload:
        header = [
            k for k, v in payload[0].items() if not isinstance(v, (list, dict))
        ]
        _write_csv(path, header, payload)
    else:
        _write_csv(path, [], [])


# ------------------------------------------------------------ config loading


def _expect_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"section must be an object, got {type(section).__name__}",
                          key=where)
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", key=where)


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be an object")
    return cfg


@dataclass(frozen=True)
class ProblemBundle:
    """A built problem: operator, exact data, optional reference solution."""

    name: str
    F: NonlinearOperator
    f: HilbertVector
    u_exact: HilbertVector | None
    make_noise: Callable[[float, int], tuple[HilbertVector, float]]
    weights: np.ndarray


def build_problem(section: dict) -> ProblemBundle:
    _expect_keys(
        section,
        {"kind", "n_nodes", "norm_mode", "dim", "seed"},
        "problem",
    )
    kind = section.get("kind")
    if kind == "hammerstein":
        prob = bench.make_hammerstein(
            n_nodes=int(section.get("n_nodes", 50)),
            norm_mode=section.get("norm_mode", bench.TRAPEZOID),
        )
        F = bench.hammerstein_operator(prob)
        u_exact = prob.exact_solution
        f = F(u_exact)

        def make_noise(delta_rel, seed):
            return bench.gen_noise(f, bench.NoiseSpec(delta_rel, seed))

        return ProblemBundle("hammerstein", F, f, u_exact, make_noise, prob.weights)
    if kind == "rank_one":
        prob = rank_one_problem(int(section.get("dim", 2)))
        f = prob.F(prob.p)

        def make_noise(delta_rel, seed):
            # deterministic perpendicular perturbation; ||f|| = 1
            return prob.noisy_data(delta_rel)

        return ProblemBundle(
            "rank_one", prob.F, f, prob.p, make_noise, prob.p.weights
        )
    if kind == "diagonal":
        F, u_exact = diagonal_problem(int(section.get("dim", 8)))
    elif kind == "random_monotone":
        F, u_exact = random_monotone_problem(
            int(section.get("dim", 8)), int(section.get("seed", 0))
        )
    else:
        raise ConfigError(f"unknown problem kind {kind!r}", key="problem.kind")
    f = F(u_exact)

    def make_noise(delta_rel, seed):
        return bench.gen_noise(f, bench.NoiseSpec(delta_rel, seed))

    return ProblemBundle(kind, F, f, u_exact, make_noise, u_exact.weights)


def _noise_grid(cfg: dict, args) -> tuple[list[float], list[int]]:
    section = cfg.get("noise", {})
    _expect_keys(section, {"delta_rel", "seeds"}, "noise")
    delta_rel = section.get("delta_rel", [0.01])
    if isinstance(delta_rel, (int, float)):
        delta_rel = [delta_rel]
    seeds = section.get("seeds", [0])
    if isinstance(seeds, int):
        seeds = [seeds]
    if args.delta_rel is not None:
        delta_rel = [float(x) for x in args.delta_rel.split(",")]
    if args.seed is not None:
        seeds = [args.seed]
    if not delta_rel or not seeds:
        raise ConfigError("noise grid is empty", key="noise")
    return [float(x) for x in delta_rel], [int(s) for s in seeds]


def _output(cfg: dict, args, default_stem: str) -> tuple[Path, str, bool]:
    section = cfg.get("output", {})
    _expect_keys(section, {"dir", "format", "stem", "history"}, "output")
    out_dir = Path(args.out or section.get("dir", "out"))
    fmt = args.format or section.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}", key="output.format")
    stem = section.get("stem", default_stem)
    history = bool(section.get("history", False))
    return out_dir / f"{stem}.{fmt}", fmt, history


def _rel_error(u, u_exact) -> float | None:
    if u_exact is None:
        return None
    return (u - u_exact).norm() / u_exact.norm()


def _sweep(cfg: dict, args, problem: ProblemBundle, stem: str, solve) -> int:
    """One output row per noise level and seed; solve(f_delta, delta,
    history) returns the run's fields, its solution and the last columns."""
    delta_rels, seeds = _noise_grid(cfg, args)
    path, fmt, history = _output(cfg, args, stem)
    rows = []
    for delta_rel in delta_rels:
        for seed in seeds:
            f_delta, delta = problem.make_noise(delta_rel, seed)
            fields, u, extra = solve(f_delta, delta, history)
            rows.append(
                {
                    "delta_rel": delta_rel,
                    "seed": seed,
                    "delta": delta,
                    **fields,
                    "rel_error": _rel_error(u, problem.u_exact),
                    **extra,
                }
            )
    emit_report(rows, fmt, path)
    print(f"wrote {path}")
    return 0


# --------------------------------------------------------------- subcommands


def _cmd_dp(cfg: dict, args) -> int:
    _expect_keys(cfg, {"problem", "dp", "noise", "output"}, "<top>")
    problem = build_problem(cfg.get("problem", {}))
    section = cfg.get("dp", {})
    _expect_keys(
        section, {"C", "gamma", "theta", "C1", "C2", "dp_tol", "a_rtol"}, "dp"
    )
    try:
        dp_cfg = DPConfig(**section)
    except (InvalidConfig, TypeError) as exc:
        raise ConfigError(str(exc), key="dp") from exc

    def solve(f_delta, delta, history):
        result = solve_dp(problem.F, f_delta, delta, dp_cfg)
        extra = {}
        if problem.name == "rank_one" and dp_cfg.gamma == 1.0:
            c = math.sqrt(dp_cfg.C**2 - 1.0)
            analytic = c * delta / (1.0 - c * delta)
            extra = {"analytic_a": analytic,
                     "a_over_analytic": result.a_delta / analytic}
        return result.to_dict(), result.V, extra

    return _sweep(cfg, args, problem, "dp", solve)


def _schedule_from(section: dict, where: str):
    _expect_keys(section, {"form", "kind", "b", "c", "d", "d_or_c", "d0"}, where)
    form = section.get("form")
    try:
        if form == "continuous":
            return schedules.make_continuous(
                section["kind"], section["b"], section["c"], section["d"]
            )
        if form == "discrete":
            return schedules.make_discrete(
                section["kind"], section["b"], section["d_or_c"], section["d0"]
            )
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}", key=where) from exc
    except (ConstraintViolated, InvalidConfig) as exc:
        raise ConfigError(str(exc), key=where) from exc
    raise ConfigError("form must be 'continuous' or 'discrete'", key=where)


# subcommand -> (runners by method, config class, allowed `stop` keys,
# start point from (problem, f_delta, schedule, stop.start)); the key
# "gamma" sets IterConfig's gamma_or_zeta
_CONTINUATION = {
    "flow": (
        {"newton": flows.flow_newton, "gradient": flows.flow_gradient,
         "simple": flows.flow_simple},
        flows.FlowConfig,
        {"C1", "zeta", "step_init", "step_min", "step_max", "t_max",
         "inner_tol", "start"},
        lambda problem, f_delta, schedule, start: flows.init_u0(
            problem.F, f_delta, float(schedule.a(0.0)), zero=start == "zero"),
    ),
    "iterate": (
        {"newton": iterations.iter_newton, "gradient": iterations.iter_gradient,
         "simple": iterations.iter_simple},
        iterations.IterConfig,
        {"C1", "gamma", "n_max", "m1", "inner_tol"},
        lambda problem, f_delta, schedule, start: HilbertVector.zeros(
            problem.weights),
    ),
}


def _cmd_continuation(command: str, cfg: dict, args) -> int:
    runners, config_class, stop_keys, make_start = _CONTINUATION[command]
    _expect_keys(
        cfg, {"problem", "method", "schedule", "stop", "noise", "output"}, "<top>"
    )
    method = args.method or cfg.get("method")
    if method not in runners:
        raise ConfigError(
            f"method must be one of {sorted(runners)}, got {method!r}",
            key="method",
        )
    problem = build_problem(cfg.get("problem", {}))
    schedule = _schedule_from(cfg.get("schedule", {}), "schedule")
    stop = dict(cfg.get("stop", {}))
    _expect_keys(stop, stop_keys, "stop")
    start = stop.pop("start", "regularized")
    if "gamma" in stop:
        stop["gamma_or_zeta"] = stop.pop("gamma")
    try:
        run_cfg = config_class(schedule=schedule, **stop)
    except (InvalidConfig, TypeError) as exc:
        raise ConfigError(str(exc), key="stop") from exc
    runner = runners[method]

    def solve(f_delta, delta, history):
        u0 = make_start(problem, f_delta, schedule, start)
        report = runner(problem.F, f_delta, delta, run_cfg, u0)
        return report.to_dict(include_history=history), report.u_final, {}

    return _sweep(cfg, args, problem, f"{command}_{method}", solve)


_TABLE1_HEADER = [
    "delta_rel",
    "n_iterations",
    "rel_error",
    "residual_at_stop",
    "a_at_stop",
    "seed_count",
]


def _cmd_bench(cfg: dict, args) -> int:
    _expect_keys(cfg, {"bench", "output"}, "<top>")
    section = dict(cfg.get("bench", {}))
    _expect_keys(
        section,
        {"delta_rel_list", "n_nodes", "C0", "C", "gamma", "seeds", "norm_mode",
         "n_max"},
        "bench",
    )
    if args.delta_rel is not None:
        section["delta_rel_list"] = [float(x) for x in args.delta_rel.split(",")]
    if args.seed is not None:
        section["seeds"] = [args.seed]
    for key in ("delta_rel_list", "seeds"):
        if key in section:
            section[key] = tuple(section[key])
    try:
        table_cfg = bench.Table1Config(**section)
    except (InvalidConfig, TypeError) as exc:
        raise ConfigError(str(exc), key="bench") from exc
    rows = bench.run_table1(table_cfg)
    path, fmt, _ = _output(cfg, args, "table1")
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        _write_csv(path, _TABLE1_HEADER, [r.to_dict() for r in rows])
    else:
        _write_json(path, [r.to_dict(include_per_seed=True) for r in rows])
    for row in rows:
        print(
            f"delta_rel={row.delta_rel:g} n={row.n_iterations:g} "
            f"rel_error={row.rel_error:.4g} [{row.status}]"
        )
    print(f"wrote {path}")
    return 0


def _cmd_schedule_check(cfg: dict, args) -> int:
    _expect_keys(cfg, {"schedule", "params", "output"}, "<top>")
    schedule = _schedule_from(cfg.get("schedule", {}), "schedule")
    section = cfg.get("params", {})
    _expect_keys(
        section,
        {"m1", "c0", "c1", "y_norm", "residual0", "horizon", "lam",
         "alpha_tilde", "g0"},
        "params",
    )
    try:
        params = schedules.ValidationParams(**section)
    except (InvalidConfig, TypeError) as exc:
        raise ConfigError(str(exc), key="params") from exc
    report = schedules.validate_conditions(schedule, params)
    print(f"kind={report.kind} lam={report.lam:g} passed={report.passed}")
    print(f"{'condition':<20} {'status':<8} {'worst margin':<16} at")
    for name, status, margin, at in report.rows():
        print(f"{name:<20} {status:<8} {margin:<16.6g} {at:g}")
    path, fmt, _ = _output(cfg, args, "schedule_check")
    if fmt == "csv":
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(
            path,
            ["name", "satisfied", "margin", "worst_at"],
            [c.to_dict() for c in report.checks],
        )
    else:
        emit_report(report, fmt, path)
    print(f"wrote {path}")
    return 0 if report.passed else 2


_FORM_KEYS = {"form", "value", "coef", "rate", "offset", "exponent"}


def _build_fn(section: dict, where: str):
    """Closed-form evaluator from a descriptor: const, exp, or power."""
    _expect_keys(section, _FORM_KEYS, where)
    form = section.get("form")
    if form == "const":
        value = float(section["value"])
        fn = lambda t: value * np.ones_like(np.asarray(t, dtype=float))
        dfn = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        return fn, dfn
    if form == "exp":
        coef = float(section["coef"])
        rate = float(section.get("rate", 0.0))
        fn = lambda t: coef * np.exp(rate * np.asarray(t, dtype=float))
        dfn = lambda t: coef * rate * np.exp(rate * np.asarray(t, dtype=float))
        return fn, dfn
    if form == "power":
        coef = float(section["coef"])
        offset = float(section.get("offset", 1.0))
        expo = float(section["exponent"])
        fn = lambda t: coef * (offset + np.asarray(t, dtype=float)) ** expo
        dfn = (
            lambda t: coef
            * expo
            * (offset + np.asarray(t, dtype=float)) ** (expo - 1.0)
        )
        return fn, dfn
    raise ConfigError("form must be 'const', 'exp', or 'power'", key=where)


def _cmd_ineq(cfg: dict, args) -> int:
    _expect_keys(cfg, {"instance", "output"}, "<top>")
    section = cfg.get("instance", {})
    _expect_keys(
        section,
        {"kind", "p", "g0", "tau0", "horizon", "n_steps", "alpha", "beta",
         "gamma", "mu", "h", "n_last"},
        "instance",
    )
    kind = section.get("kind")
    if kind == "continuous":
        try:
            alpha, _ = _build_fn(section["alpha"], "instance.alpha")
            beta, _ = _build_fn(section["beta"], "instance.beta")
            gamma, _ = _build_fn(section["gamma"], "instance.gamma")
            mu, mu_dot = _build_fn(section["mu"], "instance.mu")
            inst = inequalities.ContinuousInequality(
                p=float(section["p"]),
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                mu=mu,
                mu_dot=mu_dot,
                g0=float(section["g0"]),
                tau0=float(section.get("tau0", 0.0)),
                horizon=float(section["horizon"]),
            )
        except KeyError as exc:
            raise ConfigError(f"missing key {exc}", key="instance") from exc
        report = inequalities.bound_continuous(
            inst, n_steps=int(section.get("n_steps", 20_000))
        )
    elif kind == "discrete":
        try:
            n_last = int(section["n_last"])
            n = np.arange(n_last + 1, dtype=float)

            def seq(key):
                fn, _ = _build_fn(section[key], f"instance.{key}")
                return fn(n)

            inst = inequalities.DiscreteInequality(
                p=float(section["p"]),
                alpha=seq("alpha"),
                beta=seq("beta"),
                gamma=seq("gamma"),
                mu=seq("mu"),
                h=seq("h"),
                g0=float(section["g0"]),
            )
        except KeyError as exc:
            raise ConfigError(f"missing key {exc}", key="instance") from exc
        report = inequalities.bound_discrete(inst)
    else:
        raise ConfigError(
            "kind must be 'continuous' or 'discrete'", key="instance.kind"
        )
    print(
        f"bound holds: {report.passed}; min margin {report.min_margin:.6g} "
        f"at {report.margin_at:g}"
    )
    path, fmt, _ = _output(cfg, args, "ineq")
    emit_report(report, fmt, path)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "dp": _cmd_dp,
    "flow": functools.partial(_cmd_continuation, "flow"),
    "iterate": functools.partial(_cmd_continuation, "iterate"),
    "bench": _cmd_bench,
    "schedule-check": _cmd_schedule_check,
    "ineq": _cmd_ineq,
}

_CONFIG_EXIT = 3
_SOLVER_EXIT = 2


def run_experiment(command: str, config_path: str, args=None) -> int:
    """Execute one subcommand against a config file; returns the exit code."""
    if args is None:
        args = argparse.Namespace(
            seed=None, out=None, format=None, method=None, delta_rel=None
        )
    cfg = load_config(config_path)
    return _COMMANDS[command](cfg, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoreg",
        description="Stable solvers for monotone operator equations with "
        "noisy data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override noise seeds with a single seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--method", default=None,
                       help="newton | gradient | simple (flow/iterate)")
        p.add_argument("--delta-rel", dest="delta_rel", default=None,
                       help="comma-separated relative noise levels")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(args.command, args.config, args)
    except (ConfigError, InvalidConfig, ConstraintViolated, GridMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except MonoregError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _SOLVER_EXIT


if __name__ == "__main__":
    sys.exit(main())
