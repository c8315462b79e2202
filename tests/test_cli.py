import copy
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monoreg
from monoreg.cli import emit_report, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_bench_config(tmp_path, out_dir, fmt="csv", name="cfg.json"):
    return write_config(
        tmp_path,
        {
            "bench": {
                "delta_rel_list": [0.05, 0.01],
                "n_nodes": 20,
                "seeds": [0, 1],
            },
            "output": {"dir": str(out_dir), "format": fmt},
        },
        name=name,
    )


def test_bench_subcommand_writes_csv(tmp_path, capsys):
    cfg = small_bench_config(tmp_path, tmp_path / "out")
    assert main(["bench", "--config", cfg]) == 0
    out = tmp_path / "out" / "table1.csv"
    text = out.read_text()
    header, *rows = text.strip().splitlines()
    assert header == (
        "delta_rel,n_iterations,rel_error,residual_at_stop,a_at_stop,seed_count"
    )
    assert len(rows) == 2


def test_bench_output_is_byte_identical_across_runs(tmp_path):
    cfg1 = small_bench_config(tmp_path, tmp_path / "out1", name="cfg1.json")
    cfg2 = small_bench_config(tmp_path, tmp_path / "out2", name="cfg2.json")
    assert main(["bench", "--config", cfg1]) == 0
    assert main(["bench", "--config", cfg2]) == 0
    a = (tmp_path / "out1" / "table1.csv").read_bytes()
    b = (tmp_path / "out2" / "table1.csv").read_bytes()
    assert a == b


def test_full_table_config_yields_six_rows(tmp_path):
    code = main(
        ["bench", "--config", str(CONFIGS / "table1.json"),
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    lines = (tmp_path / "out" / "table1.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6


def test_shipped_dp_configs_run(tmp_path):
    for name in ("dp_rank_one.json", "dp_hammerstein.json"):
        assert main(
            ["dp", "--config", str(CONFIGS / name),
             "--out", str(tmp_path / name)]
        ) == 0


def test_shipped_flow_config_runs(tmp_path):
    # the flow and iterate subcommands share one runner; run their configs
    # (iterate_newton_mesh is matrix-free at N = 100000)
    for command, name, stem in (
        ("flow", "flow_gradient_hammerstein.json", "flow_gradient"),
        ("flow", "flow_newton_hammerstein.json", "flow_newton"),
        ("flow", "flow_simple_hammerstein.json", "flow_simple"),
        ("iterate", "iterate_newton_hammerstein.json", "iterate_newton"),
        ("iterate", "iterate_newton_mesh.json", "iterate_newton_mesh"),
    ):
        code = main(
            [command, "--config", str(CONFIGS / name),
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        lines = (tmp_path / "out" / f"{stem}.csv").read_text().strip().splitlines()
        assert len(lines) > 1 and all(
            "stopped_by_discrepancy" in line for line in lines[1:]
        ), name


def test_every_shipped_config_is_run_by_a_test():
    # a config added without a test fails here; the tests that run these
    # are test_shipped_dp_configs_run, test_shipped_flow_config_runs,
    # test_full_table_config_yields_six_rows, test_schedule_check_prints_table
    # and test_ineq_subcommand
    assert sorted(path.name for path in CONFIGS.glob("*.json")) == [
        "dp_hammerstein.json",
        "dp_rank_one.json",
        "flow_gradient_hammerstein.json",
        "flow_newton_hammerstein.json",
        "flow_simple_hammerstein.json",
        "ineq_demo.json",
        "iterate_newton_hammerstein.json",
        "iterate_newton_mesh.json",
        "schedule_check.json",
        "table1.json",
    ]


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "bench": {"delta_rel_list": [0.05], "n_nodes": 20, "seeds": [0]},
            "outputs": {"dir": "x"},
        },
    )
    assert main(["bench", "--config", cfg]) == 3
    assert "unknown key" in capsys.readouterr().err


def test_dp_constant_range_is_enforced(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"kind": "rank_one"},
            "dp": {"C": 0.5, "gamma": 1.0},
            "noise": {"delta_rel": [0.1], "seeds": [0]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["dp", "--config", cfg]) == 3
    assert "C must exceed 1" in capsys.readouterr().err


_CONST = {"form": "const", "value": 1.0}


@pytest.mark.parametrize(
    "command, config, section",
    [
        # a value out of range inside the problem constructor
        ("dp", {"problem": {"kind": "rank_one", "dim": 1},
                "dp": {"C": 1.5, "gamma": 1.0}}, "problem: "),
        # a value of the wrong type
        ("ineq", {"instance": {"kind": "continuous", "p": "two", "g0": 0.5,
                               "horizon": 10.0, "alpha": _CONST, "beta": _CONST,
                               "gamma": _CONST, "mu": _CONST}}, "instance: "),
        # a misspelt start must not run as the regularized start
        ("flow", {"problem": {"kind": "diagonal", "dim": 6},
                  "schedule": {"kind": "simple_flow", "b": 0.5, "c": 9.0,
                               "d": 1.0},
                  "stop": {"start": "zeroo"}}, "stop.start: "),
        # values of the wrong type that no range check reads
        ("bench", {"bench": {"n_nodes": "20"}}, "bench: n_nodes"),
        ("flow", {"problem": {"kind": "diagonal", "dim": 6},
                  "schedule": {"kind": "simple_flow", "b": 0.5, "c": 9.0,
                               "d": 1.0},
                  "stop": {"t_max": "1e5"}}, "stop: t_max"),
        # a_rtol is a module constant, not a key of the dp section
        ("dp", {"problem": {"kind": "rank_one"},
                "dp": {"C": 1.5, "gamma": 1.0, "a_rtol": 1e-12}}, "dp: "),
        # solve_dp never reads the acceptance-test constants
        ("dp", {"problem": {"kind": "rank_one"},
                "dp": {"C": 1.5, "gamma": 1.0, "theta": 2.0}}, "dp: "),
        ("dp", {"problem": {"kind": "rank_one"},
                "dp": {"C": 1.5, "gamma": 1.0, "C1": 0.1}}, "dp: "),
        ("dp", {"problem": {"kind": "rank_one"},
                "dp": {"C": 1.5, "gamma": 1.0, "C2": 99.0}}, "dp: "),
        # an empty budget or horizon runs no step at all
        ("iterate", {"problem": {"kind": "diagonal", "dim": 6},
                     "schedule": {"kind": "simple_iter", "b": 0.5,
                                  "d_or_c": 1.0, "d0": 1.0},
                     "stop": {"n_max": 0}}, "stop: n_max must be positive"),
        ("flow", {"problem": {"kind": "diagonal", "dim": 6},
                  "schedule": {"kind": "simple_flow", "b": 0.5, "c": 9.0,
                               "d": 1.0},
                  "stop": {"t_max": -1.0}}, "stop: t_max must be positive"),
        ("bench", {"bench": {"n_max": 0}}, "bench: n_max must be positive"),
        # wrote a NaN row, "failed: seed 0: stop level ...", and exited 0
        ("bench", {"bench": {"delta_rel_list": [0.5], "seeds": [0, 1]}},
         "bench.delta_rel_list: stop level C * delta**e = 4.29007 must exceed "
         "delta = 4.31011 at delta_rel = 0.5"),
        # read "need at least 2 nodes", naming no section
        ("bench", {"bench": {"n_nodes": 1}}, "bench: n_nodes must be >= 2, got 1"),
        # m1 comes from the operator; a tolerance no solve can meet ran before
        ("iterate", {"problem": {"kind": "diagonal", "dim": 6},
                     "schedule": {"kind": "simple_iter", "b": 0.5,
                                  "d_or_c": 1.0, "d0": 1.0},
                     "stop": {"m1": -1}}, "stop: unknown key 'm1'"),
        ("iterate", {"problem": {"kind": "diagonal", "dim": 6},
                     "schedule": {"kind": "newton_iter", "b": 0.5,
                                  "d_or_c": 1.0, "d0": 1.0},
                     "stop": {"inner_tol": 0.0}},
         "stop: inner_tol must be positive"),
        # the bound check is built, with its step count checked, before it runs
        ("ineq", {"instance": {"kind": "continuous", "p": 2.0, "g0": 0.5,
                               "horizon": 10.0, "n_steps": 0, "alpha": _CONST,
                               "beta": _CONST, "gamma": _CONST, "mu": _CONST}},
         "instance: n_steps must be >= 1, got 0"),
        ("ineq", {"instance": {"kind": "continuous", "p": 2.0, "g0": 0.5,
                               "horizon": 10.0, "n_steps": -5, "alpha": _CONST,
                               "beta": _CONST, "gamma": _CONST, "mu": _CONST}},
         "instance: n_steps must be >= 1, got -5"),
        # NaN fails every range check, the coefficient descriptors included
        ("schedule-check",
         {"schedule": {"kind": "newton_flow", "b": 1.0, "c": 7.0,
                       "d": 32.0},
          "params": {"m1": 1.73, "c0": 0.53, "c1": 5.0, "y_norm": math.nan,
                     "residual0": 1.3, "horizon": 1e5}},
         "params: y_norm must be positive"),
        ("iterate", {"problem": {"kind": "diagonal", "dim": 6},
                     "schedule": {"kind": "simple_iter", "b": 0.5,
                                  "d_or_c": math.nan, "d0": 1.0}},
         "schedule: constraint 'd_or_c >= 1'"),
        ("flow", {"problem": {"kind": "diagonal", "dim": 6},
                  "schedule": {"kind": "simple_flow", "b": 0.5, "c": 9.0,
                               "d": 1.0},
                  "noise": {"delta_rel": [math.nan]}},
         "delta_rel must be positive, got nan"),
        # every noise level is checked before the first row is solved
        ("flow", {"problem": {"kind": "diagonal", "dim": 6},
                  "schedule": {"kind": "simple_flow", "b": 0.5, "c": 9.0,
                               "d": 1.0},
                  "noise": {"delta_rel": [0.01, math.nan]}},
         "noise.delta_rel: delta_rel must be positive, got nan"),
        ("dp", {"problem": {"kind": "rank_one"}, "dp": {"C": 1.5, "gamma": 1.0},
                "noise": {"seeds": [0, -1]}},
         "noise.seeds: seeds must be nonnegative, got -1"),
        ("ineq", {"instance": {"kind": "continuous", "p": 2.0, "g0": math.nan,
                               "horizon": 10.0, "alpha": _CONST, "beta": _CONST,
                               "gamma": _CONST, "mu": _CONST}},
         "instance: g0 must be nonnegative"),
        ("ineq", {"instance": {"kind": "continuous", "p": 2.0, "g0": 0.5,
                               "horizon": 10.0,
                               "alpha": {"form": "exp", "coef": math.nan},
                               "beta": _CONST, "gamma": _CONST, "mu": _CONST}},
         "instance.alpha: coef must be finite, got nan"),
        # an integer literal too large for a float
        ("ineq", {"instance": {"kind": "continuous", "p": 2.0, "g0": 0.5,
                               "horizon": 10.0, "alpha": _CONST, "beta": _CONST,
                               "gamma": {"form": "const", "value": 10**400},
                               "mu": _CONST}}, "instance: "),
        # dim 0 raised GridMismatch, which exited 3 without naming dim
        ("dp", {"problem": {"kind": "diagonal", "dim": 0},
                "dp": {"C": 1.5, "gamma": 0.9}}, "problem: dim must be >= 1, got 0"),
        ("dp", {"problem": {"kind": "rank_one"}, "dp": [1.5]},
         "dp: section must be an object, got list"),
        ("ineq", {"instance": {"kind": "continuous", "p": 2.0, "g0": 0.5,
                               "horizon": 10.0, "alpha": _CONST, "beta": _CONST,
                               "gamma": _CONST}}, "instance: missing key 'mu'"),
    ],
    ids=["out-of-range", "wrong-type", "unknown-start", "string-n-nodes",
         "string-t-max", "dp-a-rtol", "dp-theta", "dp-c1", "dp-c2",
         "zero-n-max", "negative-t-max", "zero-bench-n-max", "bench-stop-level",
         "bench-one-node", "negative-m1",
         "zero-inner-tol", "zero-n-steps", "negative-n-steps", "nan-y-norm",
         "nan-d-or-c", "nan-delta-rel", "nan-second-delta-rel",
         "negative-second-seed", "nan-g0",
         "nan-coef", "overflowing-int", "zero-dim", "list-section", "missing-mu"],
)
def test_malformed_config_exits_3(tmp_path, capsys, command, config, section):
    cfg = write_config(
        tmp_path, {**config, "output": {"dir": str(tmp_path / "out")}}
    )
    assert main([command, "--config", cfg]) == 3
    assert section in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [[], ["--delta-rel", "0.01,nan"]])
def test_every_noise_level_is_checked_before_the_first_solve(
    tmp_path, capsys, monkeypatch, flag
):
    # the first level is valid: no noise is drawn for it either
    drawn = []
    monkeypatch.setattr("monoreg.bench.gen_noise",
                        lambda *args: drawn.append(args))
    cfg = json.loads((CONFIGS / "flow_gradient_hammerstein.json").read_text())
    cfg["noise"]["delta_rel"] = [0.01, -0.5] if not flag else [0.01]
    path = write_config(tmp_path, {**cfg, "output": {"dir": str(tmp_path)}})
    assert main(["flow", "--config", path, *flag]) == 3
    bad = "-0.5" if not flag else "nan"
    assert (f"noise.delta_rel: delta_rel must be positive, got {bad}"
            in capsys.readouterr().err)
    assert drawn == []


_NEWTON_ITER_SCHEDULE = {"kind": "newton_iter", "b": 1.0, "d_or_c": 1.0,
                         "d0": 64.0}


@pytest.mark.parametrize(
    "schedule, key",
    [(None, "y_norm"), (_NEWTON_ITER_SCHEDULE, "c1"), (None, "lam")],
)
def test_schedule_check_zero_divisor_exits_3(tmp_path, capsys, schedule, key):
    # the conditions divide by y_norm, c1 and lam; 0 must not reach them
    cfg = json.loads((CONFIGS / "schedule_check.json").read_text())
    if schedule is not None:
        cfg["schedule"] = schedule
    cfg["params"][key] = 0.0
    out = tmp_path / "out"
    path = write_config(tmp_path, {**cfg, "output": {"dir": str(out)}})
    assert main(["schedule-check", "--config", path]) == 3
    err = capsys.readouterr().err
    assert f"params: {key} must be positive, got 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_checks_every_stop_level_before_the_first_solve(
    tmp_path, capsys, monkeypatch
):
    # delta_rel 50 puts the stop level 1.01 * delta**0.99 below delta; the
    # three 0.01 rows come first, and none of them may run
    def runner(*args):
        raise AssertionError("a row was solved")

    monkeypatch.setitem(monoreg.cli._CONTINUATION["iterate"][0], "newton_iter",
                        runner)
    out = tmp_path / "out"
    assert main(["iterate", "--config",
                 str(CONFIGS / "iterate_newton_hammerstein.json"),
                 "--delta-rel", "0.01,50", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "noise.delta_rel: stop level C * delta**e" in err
    assert "at delta_rel = 50" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, name, section, key, value, status",
    [
        # returned an exhausted_horizon row and exited 0
        ("flow", "flow_newton_hammerstein.json", "stop", "t_max", 0.5,
         "HorizonExceeded: stopping threshold not reached by the time horizon "
         "t_max = 0.5"),
        # exited 2 and wrote no file
        ("iterate", "iterate_newton_hammerstein.json", "stop", "n_max", 3,
         "HorizonExceeded: stopping threshold not reached within 3 steps"),
        # exited 0 with its failed seeds in the printed row status (the CSV
        # columns of a Table 1 row have none)
        ("bench", "table1.json", "bench", "n_max", 1,
         "[failed: seed 0: stopping threshold not reached within 1 steps; seed 1"),
    ],
    ids=["flow-t-max", "iterate-n-max", "bench-n-max"],
)
def test_a_run_that_misses_the_stop_is_written_and_exits_2(
    tmp_path, capsys, command, name, section, key, value, status
):
    cfg = json.loads((CONFIGS / name).read_text())
    cfg[section][key] = value
    out = tmp_path / "out"
    path = write_config(tmp_path, {**cfg, "output": {"dir": str(out)}})
    assert main([command, "--config", path]) == 2
    rows = (out / f"{cfg['output']['stem']}.csv").read_text().splitlines()[1:]
    printed = capsys.readouterr()
    if command == "bench":
        assert len(rows) == 6 and printed.out.count(status) == 6
        return
    assert rows and all(f",{status}," in row for row in rows)
    # one line per failed row, naming its level and seed
    assert printed.err.splitlines() == [
        f"solver error at delta_rel = 0.01, seed {seed}: {status}"
        for seed in cfg["noise"]["seeds"]]


def test_a_failed_row_leaves_the_other_rows_and_the_columns_as_they_are(tmp_path):
    # delta_rel 0.001 diverges from the zero start; the whole sweep used to
    # write nothing
    cfg = json.loads((CONFIGS / "iterate_newton_hammerstein.json").read_text())
    cfg["stop"]["n_max"] = 60

    def run(levels, out):
        path = write_config(tmp_path, {**cfg, "noise": {"delta_rel": levels,
                                                        "seeds": [0]},
                                       "output": {"dir": str(out)}})
        code = main(["iterate", "--config", path])
        return code, (out / "iterate_newton.csv").read_text().splitlines()

    code, (header, *rows) = run([0.01, 0.001, 0.05], tmp_path / "three")
    assert code == 2 and len(rows) == 3
    assert ",HorizonExceeded: stopping threshold not reached within 60 steps," in rows[1]
    # the failed row carries its partial report: 60 steps, n_stop 59
    assert rows[1].split(",")[5:7] == ["59", "60"]
    for level, row in ((0.01, rows[0]), (0.05, rows[2])):
        assert run([level], tmp_path / str(level)) == (0, [header, row])


def test_a_failed_first_row_without_a_partial_report_keeps_the_columns(
    tmp_path, monkeypatch
):
    # a dp solve has no partial report, so the row keeps only its noise
    # columns; the header must not come from it
    from monoreg import NonConvergence, cli

    solve_dp = cli.solve_dp

    def fail_first(F, f_delta, delta, cfg):
        if delta > 0.05:
            raise NonConvergence("residual match failed")
        return solve_dp(F, f_delta, delta, cfg)

    monkeypatch.setattr(cli, "solve_dp", fail_first)
    out = tmp_path / "out"
    assert main(["dp", "--config", str(CONFIGS / "dp_hammerstein.json"),
                 "--out", str(out)]) == 2
    header, first, *rest = (out / "dp_hammerstein.csv").read_text().splitlines()
    assert header == ("delta_rel,seed,delta,a_delta,achieved_residual,target,"
                      "bracket_evals,status,solution_norm,rel_error")
    assert first.split(",")[3:] == ["", "", "", "",
                                    "NonConvergence: residual match failed", "", ""]
    assert rest and all(",converged," in row for row in rest)


def test_a_failed_row_whose_message_has_commas_keeps_its_columns(
    tmp_path, monkeypatch
):
    # the status cells were joined with bare commas, so this message split
    # into four cells and pushed the rest of its row to the right
    from monoreg import cli
    from monoreg.errors import require_finite

    solve_dp, calls = cli.solve_dp, []

    def fail_second(F, f_delta, delta, cfg):
        calls.append(delta)
        if len(calls) % 4 == 2:
            require_finite(math.nan, "||F(0) - f_delta||, the ceiling of phi,")
        return solve_dp(F, f_delta, delta, cfg)

    monkeypatch.setattr(cli, "solve_dp", fail_second)
    status = ("NonFinite: ||F(0) - f_delta||, the ceiling of phi, is nan; check "
              "f_delta, the start and the operator for non-finite values")
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["dp", "--config", str(CONFIGS / "dp_hammerstein.json"),
                     "--out", str(out), "--format", fmt]) == 2
        text = (out / f"dp_hammerstein.{fmt}").read_text()
        if fmt == "json":
            rows = json.loads(text)
            assert rows[1]["status"] == status and len(rows) == 4
            continue
        header, *rows = csv.reader(io.StringIO(text))
        assert len(rows) == 4 and all(len(row) == len(header) for row in rows)
        assert rows[1][header.index("status")] == status
        assert f'"{status}"' in text


def test_dp_sweep_checks_every_match_tolerance_before_the_first_solve(
    tmp_path, capsys, monkeypatch
):
    # at delta_rel 1e-10 dp_tol * target lies below the inner-tolerance
    # floor; the 0.01 row comes first and used to be solved, then the second
    # ran its whole search and exited 2 blaming a discontinuous phi
    def solve(*args, **kwargs):
        raise AssertionError("a row was solved")

    monkeypatch.setattr("monoreg.discrepancy.solve_regularized", solve)
    out = tmp_path / "out"
    path = write_config(tmp_path, {"problem": {"kind": "diagonal", "dim": 8},
                                   "dp": {"C": 1.5, "gamma": 0.9},
                                   "noise": {"delta_rel": [0.01, 1e-10]},
                                   "output": {"dir": str(out)}})
    assert main(["dp", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "noise.delta_rel: dp_tol * target = " in err
    assert "inner-tolerance floor" in err
    assert "at delta_rel = 1e-10" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, flag",
    [
        ("ineq", "ineq_demo.json", ["--seed", "3"]),
        ("ineq", "ineq_demo.json", ["--method", "zzz"]),
        ("ineq", "ineq_demo.json", ["--delta-rel", "0.5"]),
        ("schedule-check", "schedule_check.json", ["--seed", "3"]),
        ("dp", "dp_rank_one.json", ["--method", "newton"]),
        ("bench", "table1.json", ["--method", "newton"]),
        # the schedule kind picks the method
        ("flow", "flow_newton_hammerstein.json", ["--method", "newton"]),
        ("iterate", "iterate_newton_hammerstein.json", ["--method", "newton"]),
    ],
)
def test_flag_the_subcommand_does_not_read_is_rejected(
    tmp_path, capsys, command, config, flag
):
    out = tmp_path / "out"
    # a usage error exits 3 like a config error; 2 means a failed solve
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out),
                 *flag]) == 3
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, edit, message",
    [
        ("flow", "flow_newton_hammerstein.json",
         lambda cfg: cfg.update(method="newton"), "<top>: unknown key 'method'"),
        ("iterate", "iterate_newton_hammerstein.json",
         lambda cfg: cfg["schedule"].update(form="discrete"),
         "schedule: unknown key 'form'"),
        ("schedule-check", "schedule_check.json",
         lambda cfg: cfg["schedule"].update(form="continuous"),
         "schedule: unknown key 'form'"),
    ],
    ids=["method", "iterate-form", "schedule-check-form"],
)
def test_the_kind_is_the_only_statement_of_the_method_and_form(
    tmp_path, capsys, command, config, edit, message
):
    cfg = json.loads((CONFIGS / config).read_text())
    edit(cfg)
    out = tmp_path / "out"
    path = write_config(tmp_path, {**cfg, "output": {"dir": str(out)}})
    assert main([command, "--config", path]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


_FLOW_KINDS = "['gradient_flow', 'newton_flow', 'simple_flow']"
_ITER_KINDS = "['gradient_iter', 'newton_iter', 'simple_iter']"


@pytest.mark.parametrize(
    "command, config, kind, kinds",
    [
        ("flow", "flow_newton_hammerstein.json", "newton_iter", _FLOW_KINDS),
        ("iterate", "iterate_newton_hammerstein.json", "gradient_flow",
         _ITER_KINDS),
        ("iterate", "iterate_newton_hammerstein.json", "newton", _ITER_KINDS),
    ],
)
def test_a_schedule_of_the_wrong_form_exits_3_before_the_problem_is_built(
    tmp_path, capsys, monkeypatch, command, config, kind, kinds
):
    def build_problem(section):
        raise AssertionError("the problem was built")

    monkeypatch.setattr("monoreg.cli.build_problem", build_problem)
    cfg = json.loads((CONFIGS / config).read_text())
    # a schedule of that kind, so only its kind can fail
    cfg["schedule"] = {"kind": kind, "b": 0.5, "c": 9.0, "d": 1.0,
                       "d_or_c": 1.0, "d0": 1.0}
    out = tmp_path / "out"
    path = write_config(tmp_path, {**cfg, "output": {"dir": str(out)}})
    assert main([command, "--config", path]) == 3
    err = capsys.readouterr().err
    assert f"schedule.kind: must be one of {kinds}, got {kind!r}" in err
    assert not out.exists()


def test_schedule_check_names_an_unknown_kind(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "schedule_check.json").read_text())
    cfg["schedule"]["kind"] = "newton"
    path = write_config(tmp_path, {**cfg, "output": {"dir": str(tmp_path)}})
    assert main(["schedule-check", "--config", path]) == 3
    assert ("schedule.kind: must be one of ['gradient_flow', 'gradient_iter', "
            "'newton_flow', 'newton_iter', 'simple_flow', 'simple_iter'], got "
            "'newton'" in capsys.readouterr().err)


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("iterate", "iterate_newton_hammerstein.json", "noise.seeds"),
        # the rank-one problem ignores the seed, and ran with seed -1
        ("dp", "dp_rank_one.json", "noise.seeds"),
        ("bench", "table1.json", "bench.seeds"),
    ],
)
def test_negative_seed_exits_3_before_any_noise_is_drawn(
    tmp_path, capsys, monkeypatch, command, config, key
):
    drawn = []
    monkeypatch.setattr("monoreg.bench.gen_noise",
                        lambda *args: drawn.append(args))
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--seed", "-1",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{key}: seeds must be nonnegative, got -1" in err
    assert "Traceback" not in err
    assert drawn == []
    assert not out.exists()


# config file name prefix -> subcommand
_SUBCOMMAND = {"table1": "bench", "dp": "dp", "flow": "flow",
               "iterate": "iterate", "schedule": "schedule-check", "ineq": "ineq"}


def test_small_shipped_configs_write_identical_csv_twice(tmp_path):
    # every shipped config on at most 50 nodes (or on no grid), run twice in
    # one process: per-problem caches and anything else kept between runs
    # must not move a bit of the CSV
    ran = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if cfg.get("problem", cfg.get("bench", {})).get("n_nodes", 50) > 50:
            continue
        command = _SUBCOMMAND[path.stem.split("_")[0]]
        csv = []
        for run in (1, 2):
            out = tmp_path / f"{path.stem}_{run}"
            assert main([command, "--config", str(path), "--out", str(out),
                         "--format", "csv"]) == 0
            (written,) = out.glob("*.csv")
            csv.append(written.read_bytes())
        assert csv[0] == csv[1], path.name
        ran.append(path.name)
    assert len(ran) == len(list(CONFIGS.glob("*.json"))) - 1


# the shipped configs whose bytes must not depend on the BLAS thread count
_THREAD_CHECKED = ("ineq_demo.json", "flow_gradient_hammerstein.json",
                   "iterate_newton_hammerstein.json", "dp_hammerstein.json")
_RUN_CONFIGS = """
import json, sys
from monoreg.cli import main
for command, path, out in json.loads(sys.argv[1]):
    for fmt in ("csv", "json"):
        assert main([command, "--config", path, "--out", out, "--format", fmt]) == 0
"""


def test_small_shipped_configs_write_the_same_bytes_at_one_and_two_threads(
    tmp_path,
):
    # one interpreter per thread count, run side by side; OpenBLAS reads
    # the count when numpy loads
    src = str(Path(monoreg.__file__).resolve().parents[1])
    procs = []
    for threads in ("1", "2"):
        runs = [(_SUBCOMMAND[name.split("_")[0]], str(CONFIGS / name),
                 str(tmp_path / threads / Path(name).stem))
                for name in _THREAD_CHECKED]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _RUN_CONFIGS, json.dumps(runs)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    try:
        errors = [proc.communicate(timeout=60)[1] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # a process that has exited ignores this
            proc.wait()
    for proc, err in zip(procs, errors):
        assert proc.returncode == 0, err
    written = sorted(p.relative_to(tmp_path / "1")
                     for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert len(written) == 2 * len(_THREAD_CHECKED)
    for path in written:
        assert ((tmp_path / "1" / path).read_bytes()
                == (tmp_path / "2" / path).read_bytes()), path


# sections in which a NaN is a config error; a NaN in any other section
# must not pass either
_CONFIG_SECTIONS = {"dp", "stop", "schedule", "params", "bench", "noise",
                    "instance"}


def _numeric_keys(section, path=()):
    """The key paths of the numbers and lists in a config section."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _numeric_keys(value, (*path, key))
        elif isinstance(value, list) or (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        ):
            yield (*path, key)


@pytest.mark.parametrize(
    "path",
    # the N = 1e5 mesh config builds its problem too slowly for a sweep
    [p for p in sorted(CONFIGS.glob("*.json"))
     if p.name != "iterate_newton_mesh.json"],
    ids=lambda p: p.stem,
)
def test_nan_in_any_numeric_key_of_a_shipped_config_fails(tmp_path, path):
    # one key at a time, a list as [NaN], the output section left alone
    cfg = json.loads(path.read_text())
    command = _SUBCOMMAND[path.stem.split("_")[0]]
    keys = list(_numeric_keys({k: v for k, v in cfg.items() if k != "output"}))
    assert keys
    for key in keys:
        bad = copy.deepcopy(cfg)
        *parents, last = key
        node = functools.reduce(dict.__getitem__, parents, bad)
        node[last] = [math.nan] if isinstance(node[last], list) else math.nan
        code = main([command, "--config", write_config(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        if key[0] in _CONFIG_SECTIONS:
            assert code == 3, key
        else:
            assert code != 0, key


def test_dp_rank_one_reports_analytic_comparison(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"kind": "rank_one"},
            "dp": {"C": math.sqrt(2.0), "gamma": 1.0},
            "noise": {"delta_rel": [0.1, 0.01], "seeds": [0]},
            "output": {"dir": str(tmp_path / "out"), "format": "json"},
        },
    )
    assert main(["dp", "--config", cfg]) == 0
    rows = json.loads((tmp_path / "out" / "dp.json").read_text())
    assert len(rows) == 2
    for row in rows:
        assert abs(row["a_over_analytic"] - 1.0) <= 1e-9
        c = math.sqrt(2.0 - 1.0)
        assert row["analytic_a"] == pytest.approx(
            c * row["delta"] / (1.0 - c * row["delta"])
        )


def test_iterate_subcommand_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"kind": "hammerstein", "n_nodes": 20,
                         "norm_mode": "euclidean"},
            "schedule": {"kind": "newton_iter", "b": 1.0, "d_or_c": 1.0,
                         "d0": 0.35},
            "stop": {"C1": 1.01, "gamma": 0.99, "n_max": 500},
            "noise": {"delta_rel": [0.05], "seeds": [0]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["iterate", "--config", cfg]) == 0
    text = (tmp_path / "out" / "iterate_newton.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert "rel_error" in header and "n_stop" in header


def test_flow_subcommand_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"kind": "diagonal", "dim": 6},
            "schedule": {"kind": "simple_flow", "b": 0.5, "c": 9.0, "d": 1.0},
            "stop": {"C1": 1.5, "zeta": 0.9, "t_max": 100000.0},
            "noise": {"delta_rel": [0.05], "seeds": [0]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["flow", "--config", cfg]) == 0
    text = (tmp_path / "out" / "flow_simple.csv").read_text()
    assert "stopped_by_discrepancy" in text


def test_schedule_check_prints_table(tmp_path, capsys):
    code = main(
        ["schedule-check", "--config", str(CONFIGS / "schedule_check.json"),
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "m1_ratio" in out and "pass" in out
    # the CSV has one row per condition and leaves out `strict`
    lines = (tmp_path / "out" / "schedule_check.csv").read_text().splitlines()
    assert lines[0] == "name,satisfied,margin,worst_at"
    assert len(lines) == 1 + 4


def test_ineq_subcommand(tmp_path):
    # the shipped demo, and an instance with the `power` form:
    # mu = (1 + t)**0.5, alpha = beta = 0, gamma = 1
    power = write_config(
        tmp_path,
        {
            "instance": {
                "kind": "continuous",
                "p": 2.0,
                "g0": 0.5,
                "horizon": 10.0,
                "n_steps": 2000,
                "alpha": {"form": "const", "value": 0.0},
                "beta": {"form": "const", "value": 0.0},
                "gamma": {"form": "const", "value": 1.0},
                "mu": {"form": "power", "coef": 1.0, "offset": 1.0,
                       "exponent": 0.5},
            },
            "output": {"stem": "ineq_demo"},
        },
    )
    for config in (str(CONFIGS / "ineq_demo.json"), power):
        for fmt in ("json", "csv"):
            out = tmp_path / "out" / Path(config).stem
            code = main(
                ["ineq", "--config", config, "--out", str(out), "--format", fmt]
            )
            assert code == 0
            text = (out / f"ineq_demo.{fmt}").read_text()
            if fmt == "json":
                assert json.loads(text)["passed"] is True
            else:
                header, row = text.splitlines()
                assert header == "passed,min_margin,margin_at"
                assert row.startswith("true,")


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_ineq_non_finite_feasibility_exits_2(tmp_path, capsys):
    # mu**3 underflows to 0: a failed hypothesis, not a traceback
    def const(value):
        return {"form": "const", "value": value}

    cfg = write_config(
        tmp_path,
        {
            "instance": {
                "kind": "continuous", "p": 3.0, "g0": 5e109, "horizon": 1.0,
                "n_steps": 10, "alpha": const(1e-221), "beta": const(0.0),
                "gamma": const(1.0), "mu": const(1e-110),
            },
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["ineq", "--config", cfg]) == 2
    assert "'feasibility'" in capsys.readouterr().err


def test_ineq_discrete_instance(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "instance": {
                "kind": "discrete",
                "p": 2.0,
                "g0": 0.5,
                "n_last": 50,
                "alpha": {"form": "const", "value": 0.0},
                "beta": {"form": "const", "value": 0.0},
                "gamma": {"form": "const", "value": 0.5},
                "mu": {"form": "const", "value": 2.0},
                "h": {"form": "const", "value": 1.0},
            },
            "output": {"dir": str(tmp_path / "out"), "format": "json"},
        },
    )
    assert main(["ineq", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "ineq.json").read_text())
    assert payload["passed"] is True


def test_iterate_history_in_json_output(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"kind": "hammerstein", "n_nodes": 20,
                         "norm_mode": "euclidean"},
            "schedule": {"kind": "newton_iter", "b": 1.0, "d_or_c": 1.0,
                         "d0": 0.35},
            "stop": {"C1": 1.01, "gamma": 0.99, "n_max": 500},
            "noise": {"delta_rel": [0.05], "seeds": [0]},
            "output": {"dir": str(tmp_path / "out"), "format": "json",
                        "history": True},
        },
    )
    assert main(["iterate", "--config", cfg]) == 0
    rows = json.loads((tmp_path / "out" / "iterate_newton.json").read_text())
    history = rows[0]["residual_history"]
    assert len(history) == rows[0]["steps_taken"] + 1
    assert all(r > 0 for _, r in history)


def test_delta_rel_flag_overrides_config(tmp_path):
    cfg = small_bench_config(tmp_path, tmp_path / "out")
    assert main(["bench", "--config", cfg, "--delta-rel", "0.05"]) == 0
    rows = (tmp_path / "out" / "table1.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + single row


def test_json_round_trip_is_exact(tmp_path):
    values = {
        "a": 0.1 + 0.2,
        "b": 1.0 / 3.0,
        "c": 1.2345678901234567e-101,
        "n": 42,
    }
    path = tmp_path / "report.json"
    emit_report(values, "json", path)
    back = json.loads(path.read_text())
    assert back == values


def test_csv_floats_round_trip(tmp_path):
    from monoreg.cli import _fmt

    for x in (0.1 + 0.2, 1.0 / 3.0, 2.0**-45, 1.792e300):
        assert float(_fmt(x)) == x


# ------------------------------------------------- one reading of each section

_DP_BASE = {"dp": {"C": 1.5, "gamma": 0.9}, "noise": {"delta_rel": [0.01]}}
_SCHEDULES = {
    "continuous": {"kind": "newton_flow", "b": 1.0, "c": 7.0, "d": 32.0},
    "discrete": _NEWTON_ITER_SCHEDULE,
}
_DISCRETE_INSTANCE = {"kind": "discrete", "p": 2.0, "g0": 0.5, "n_last": 50,
                      "alpha": _CONST, "beta": _CONST, "gamma": _CONST,
                      "mu": _CONST, "h": _CONST}


def _shipped(name, edit):
    cfg = json.loads((CONFIGS / name).read_text())
    edit(cfg)
    return cfg


def _foreign_key_cases():
    """(id, command, config, section, key) for each key of a section that
    another kind or command reads, given to one that does not read it."""
    cases = []
    foreign = {"rank_one": {"n_nodes": 20, "norm_mode": "euclidean", "seed": 1},
               "hammerstein": {"dim": 4, "seed": 1},
               "diagonal": {"n_nodes": 20, "norm_mode": "euclidean", "seed": 1},
               "random_monotone": {"n_nodes": 20, "norm_mode": "euclidean"}}
    for kind, keys in foreign.items():
        for key, value in keys.items():
            cases.append((f"problem-{kind}-{key}", "dp",
                          {**_DP_BASE, "problem": {"kind": kind, key: value}},
                          "problem", key))
    for form, keys in (("continuous", {"d_or_c": 1.0, "d0": 64.0}),
                       ("discrete", {"c": 7.0, "d": 32.0})):
        for key, value in keys.items():
            cfg = _shipped("schedule_check.json", lambda cfg: cfg.update(
                schedule={**_SCHEDULES[form], key: value}))
            cases.append((f"schedule-{form}-{key}", "schedule-check", cfg,
                          "schedule", key))
    for kind, keys in (("continuous", {"h": _CONST, "n_last": 50}),
                       ("discrete", {"tau0": 0.0, "horizon": 10.0,
                                     "n_steps": 100})):
        for key, value in keys.items():
            base = (json.loads((CONFIGS / "ineq_demo.json").read_text())["instance"]
                    if kind == "continuous" else _DISCRETE_INSTANCE)
            cases.append((f"instance-{kind}-{key}", "ineq",
                          {"instance": {**base, key: value}}, "instance", key))
    descriptors = {"const": {"value": 1.0}, "exp": {"coef": 0.25},
                   "power": {"coef": 0.25, "exponent": 1.0}}
    for form, keys in (("const", ("coef", "rate", "offset", "exponent")),
                       ("exp", ("value", "offset", "exponent")),
                       ("power", ("value", "rate"))):
        for key in keys:
            cfg = _shipped("ineq_demo.json", lambda cfg: cfg["instance"].update(
                alpha={"form": form, **descriptors[form], key: 0.5}))
            cases.append((f"descriptor-{form}-{key}", "ineq", cfg,
                          "instance.alpha", key))
    # only flow and iterate write histories
    for command, cfg in (
        ("dp", {**_DP_BASE, "problem": {"kind": "rank_one"}}),
        ("bench", {"bench": {"delta_rel_list": [0.05], "n_nodes": 20,
                             "seeds": [0]}}),
        ("schedule-check", json.loads((CONFIGS / "schedule_check.json")
                                      .read_text())),
        ("ineq", json.loads((CONFIGS / "ineq_demo.json").read_text())),
    ):
        cases.append((f"output-history-{command}", command,
                       {**cfg, "output": {"history": True}}, "output", "history"))
    return cases


_FOREIGN_KEYS = _foreign_key_cases()


def test_every_accepted_and_ignored_key_is_listed():
    # 10 problem, 4 schedule, 5 instance, 9 descriptor and 4 output keys
    assert len(_FOREIGN_KEYS) == 32


def _exits_3_naming(tmp_path, capsys, command, config, message):
    out = tmp_path / "out"
    output = {**config.get("output", {}), "dir": str(out)}
    path = write_config(tmp_path, {**config, "output": output})
    assert main([command, "--config", path]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, section, key",
    [case[1:] for case in _FOREIGN_KEYS], ids=[case[0] for case in _FOREIGN_KEYS],
)
def test_a_key_of_another_kind_is_unknown(tmp_path, capsys, command, config,
                                          section, key):
    _exits_3_naming(tmp_path, capsys, command, config,
                    f"{section}: unknown key '{key}'")


def _hammerstein_dp(**problem):
    return {**_DP_BASE, "problem": {"kind": "hammerstein", **problem}}


@pytest.mark.parametrize(
    "command, config, message",
    [
        # each ran at a size or seed other than the one written
        ("dp", {**_DP_BASE, "problem": {"kind": "diagonal", "n_nodes": 500}},
         "problem: unknown key 'n_nodes'"),
        ("dp", _hammerstein_dp(n_nodes=50.7),
         "problem: n_nodes must be int, got 50.7"),
        ("dp", _hammerstein_dp(n_nodes="20"),
         "problem: n_nodes must be int, got '20'"),
        ("dp", {**_DP_BASE, "problem": {"kind": "rank_one"},
                "noise": {"delta_rel": [0.01], "seeds": [1.7]}},
         "noise.seeds: seeds must be int, got 1.7"),
        ("dp", {**_DP_BASE, "problem": {"kind": "diagonal", "dim": True}},
         "problem: dim must be int, got True"),
        ("ineq", _shipped("ineq_demo.json",
                          lambda cfg: cfg["instance"].update(n_steps=2.5)),
         "instance: n_steps must be int, got 2.5"),
        # strings were converted to numbers
        ("ineq", _shipped("ineq_demo.json",
                          lambda cfg: cfg["instance"].update(p="2")),
         "instance: p must be float, got '2'"),
        ("ineq", _shipped("ineq_demo.json",
                          lambda cfg: cfg["instance"]["alpha"].update(coef="0.25")),
         "instance.alpha: coef must be float, got '0.25'"),
        ("dp", {**_DP_BASE, "problem": {"kind": "rank_one"},
                "noise": {"delta_rel": ["0.01"]}},
         "noise.delta_rel: delta_rel must be float, got '0.01'"),
        # noise levels and seeds are lists
        ("dp", {**_DP_BASE, "problem": {"kind": "rank_one"},
                "noise": {"delta_rel": [0.01], "seeds": 0}},
         "noise.seeds: must be a nonempty list, got 0"),
        ("dp", {**_DP_BASE, "problem": {"kind": "rank_one"},
                "noise": {"delta_rel": 0.01}},
         "noise.delta_rel: must be a nonempty list, got 0.01"),
        ("iterate", _shipped("iterate_newton_hammerstein.json",
                             lambda cfg: cfg["output"].update(history="no")),
         "output: history must be bool, got 'no'"),
        ("ineq", _shipped("ineq_demo.json",
                          lambda cfg: cfg["output"].update(stem=5)),
         "output: stem must be str, got 5"),
    ],
    ids=["diagonal-n-nodes", "fractional-n-nodes", "string-n-nodes",
         "fractional-seed", "bool-dim", "fractional-n-steps", "string-p",
         "string-coef", "string-delta-rel", "scalar-seeds", "scalar-delta-rel",
         "string-history", "numeric-stem"],
)
def test_a_value_is_never_converted(tmp_path, capsys, command, config, message):
    _exits_3_naming(tmp_path, capsys, command, config, message)


def test_random_monotone_problem_runs_from_the_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {**_DP_BASE, "problem": {"kind": "random_monotone", "dim": 6, "seed": 3},
         "output": {"dir": str(tmp_path / "out"), "format": "json"}},
    )
    assert main(["dp", "--config", cfg]) == 0
    [row] = json.loads((tmp_path / "out" / "dp.json").read_text())
    assert row["status"] == "converged"
    assert row["delta_rel"] == 0.01 and row["seed"] == 0


def test_an_unknown_output_format_exits_3(tmp_path, capsys):
    _exits_3_naming(tmp_path, capsys, "dp",
                    {**_DP_BASE, "problem": {"kind": "rank_one"},
                     "output": {"format": "xml"}},
                    "output.format: unknown format 'xml'")


def test_an_unreadable_config_exits_3(tmp_path, capsys):
    assert main(["dp", "--config", str(tmp_path / "missing.json")]) == 3
    assert "config error: cannot read config" in capsys.readouterr().err


def test_invalid_json_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"problem": ')
    assert main(["dp", "--config", str(path)]) == 3
    assert "config error: invalid JSON at line 1" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "schedule-check" in capsys.readouterr().out
