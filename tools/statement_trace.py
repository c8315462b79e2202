"""List the statements of src/monoreg that nothing runs.

Traces, in one process, the lines of the package that run in

1. the Tier-1 suite (`tests` and `perfbench/tests`, through pytest.main),
   with Hypothesis derandomized and without its example database, so
   that the property tests draw the same examples in every trace;
2. the ten shipped configs under `configs/`, each in both output formats,
   through `monoreg.cli.main` into a temporary directory;
3. one pass of every operation of the four benchmark workloads
   (`perfbench/workloads.py`), each followed by its check.

It then compares them with the statements of `src/monoreg` (from the
AST; bare string expressions such as docstrings, `nonlocal` and `global`
are left out, since no line of theirs ever runs).  A statement that spans
several lines counts as run when any of its header lines runs: all of a
simple statement's lines, and the lines of a compound statement before
its body, decorators included.  Every unrun statement is printed as
`path:line` with its first line, then the count.

Last it prints the settable-value count: the defaulted parameters of the
public functions and of the public methods (`__init__` and `__call__`
included) of public classes, plus the defaulted fields of public
dataclasses, all in `src/monoreg`.

Usage: `python tools/statement_trace.py` from anywhere; it needs pytest,
hypothesis and scipy (the test extra).  Exits 1 when a statement is unrun
or a run fails: a test, a config's exit code or a workload's check.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monoreg"
COMMANDS = {"dp": "dp", "flow": "flow", "iterate": "iterate", "table1": "bench",
            "schedule": "schedule-check", "ineq": "ineq"}


def trace_lines(run):
    """run()'s result and the lines of each package file that ran in it."""
    prefix = str(PACKAGE) + os.sep
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, ran


def run_everything() -> list[str]:
    """Run the three parts; return what failed."""
    import pytest
    from hypothesis import settings

    settings.register_profile("statement-trace", derandomize=True, database=None)
    settings.load_profile("statement-trace")
    failed = []
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")])
    print(f"Tier-1 exit code {int(code)}")
    if code:
        failed.append("Tier-1")

    from monoreg import cli

    with tempfile.TemporaryDirectory() as out:
        for path in sorted((ROOT / "configs").glob("*.json")):
            command = COMMANDS[path.stem.split("_")[0]]
            for fmt in ("csv", "json"):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, "--config", str(path), "--out",
                                     os.path.join(out, fmt), "--format", fmt])
                print(f"{path.name} ({fmt}): exit code {code}")
                if code:
                    failed.append(f"{path.name} ({fmt})")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        ops = workloads.build(name)
        outputs, problems = {}, []
        for op in ops:
            outputs[op.name] = result = op.run()
            problems += op.check(result)
        for group in {op.group for op in ops if op.group_check is not None}:
            members = [op for op in ops if op.group == group]
            problems += members[0].group_check([outputs[op.name] for op in members])
        print(f"workload {name}: {len(ops)} ops, {len(problems)} check failures")
        if problems:
            failed.append(f"workload {name}")
    return failed


def statements(tree: ast.Module):
    """(first line, last header line) of each statement that can run."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Nonlocal, ast.Global)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(body, list) and body:
            yield first, max(node.lineno, body[0].lineno - 1)
        else:
            yield first, node.end_lineno


def settable_values(tree: ast.Module) -> int:
    def defaulted(fn) -> int:
        return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)

    def public(name: str) -> bool:
        return not name.startswith("_") or name in ("__init__", "__call__")

    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and public(node.name):
            count += defaulted(node)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            is_dataclass = any(
                "dataclass" in ast.unparse(d).split("(")[0] for d in node.decorator_list)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and public(item.name):
                    count += defaulted(item)
                if (is_dataclass and isinstance(item, ast.AnnAssign) and item.value is not None
                        and "ClassVar" not in ast.unparse(item.annotation)):
                    count += 1
    return count


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    failed, ran = trace_lines(run_everything)
    unrun, total, settable = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        settable += settable_values(tree)
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for first, last in sorted(statements(tree)):
            total += 1
            if hit.isdisjoint(range(first, last + 1)):
                unrun.append(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
    for line in unrun:
        print(line)
    print(f"unrun statements: {len(unrun)} of {total}")
    print(f"settable values: {settable}")
    if failed:
        print("failed: " + ", ".join(failed))
    return 1 if unrun or failed else 0


if __name__ == "__main__":
    sys.exit(main())
