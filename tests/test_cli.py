import json
import math
from pathlib import Path

import numpy as np
import pytest

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
    # the flow and iterate subcommands share one runner; run both configs
    for command, name, stem in (
        ("flow", "flow_newton_hammerstein.json", "flow_newton"),
        ("iterate", "iterate_newton_hammerstein.json", "iterate_newton"),
    ):
        code = main(
            [command, "--config", str(CONFIGS / name),
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        text = (tmp_path / "out" / f"{stem}.csv").read_text()
        assert "stopped_by_discrepancy" in text


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
            "method": "newton",
            "schedule": {"form": "discrete", "kind": "newton_iter",
                          "b": 1.0, "d_or_c": 1.0, "d0": 0.35},
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
            "method": "simple",
            "schedule": {"form": "continuous", "kind": "simple_flow",
                          "b": 0.5, "c": 9.0, "d": 1.0},
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
    assert (tmp_path / "out" / "schedule_check.csv").exists()


def test_ineq_subcommand(tmp_path):
    code = main(
        ["ineq", "--config", str(CONFIGS / "ineq_demo.json"),
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    payload = json.loads((tmp_path / "out" / "ineq_demo.json").read_text())
    assert payload["passed"] is True


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
            "method": "newton",
            "schedule": {"form": "discrete", "kind": "newton_iter",
                          "b": 1.0, "d_or_c": 1.0, "d0": 0.35},
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
