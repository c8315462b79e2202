"""Print a sha256 digest of each output the library's numbers reach.

The items are

1. each of the ten shipped configs under `configs/`, in both output
   formats, through `monoreg.cli.main` into a temporary directory: the
   name and bytes of every file it writes, its stdout with the temporary
   directory replaced by `<out>`, its stderr and its exit code;
2. `repr(run_table1(Table1Config()))`, the reference table;
3. the ten `[criterion N]` lines of `pytest -s tests/test_acceptance.py`,
   without their trailing timings such as ` [0.4s]`.

It prints one line `<sha256>  <item>` per item, then the sha256 of those
lines as `total`.  Two checkouts print the same lines exactly when these
outputs are the same to the byte, so a change that must move no number is
checked by running the tool in a clone of the parent commit and in the
change, and comparing.  BLAS runs on one thread (OPENBLAS_NUM_THREADS=1,
set before NumPy loads), since threaded BLAS may round differently from
run to run.

Usage: `python tools/output_digest.py` from anywhere; the acceptance lines
need pytest (the test extra).  Exits 1 unless it finds ten criterion lines.
"""
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from statement_trace import COMMANDS, ROOT

# before NumPy loads: monoreg is imported inside the functions below
os.environ["OPENBLAS_NUM_THREADS"] = "1"

CRITERION = re.compile(r"\[criterion +\d+\].*?(?= \[\d+(\.\d+)?s\]$|$)")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def config_items():
    """(item, digest) of each shipped config in each format."""
    from monoreg import cli

    for path in sorted((ROOT / "configs").glob("*.json")):
        command = COMMANDS[path.stem.split("_")[0]]
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as tmp:
                out, stdout, stderr = Path(tmp) / fmt, io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, "--config", str(path), "--out", str(out),
                                     "--format", fmt])
                files = [(str(f.relative_to(out)), f.read_bytes())
                         for f in sorted(out.rglob("*")) if f.is_file()]
                seen = (files, stdout.getvalue().replace(tmp, "<out>"),
                        stderr.getvalue(), code)
            yield f"configs/{path.name} ({fmt})", sha256(repr(seen))


def table1_item():
    from monoreg import Table1Config, run_table1

    return "repr(run_table1(Table1Config()))", sha256(repr(run_table1(Table1Config())))


def criterion_items():
    """(item, digest) of each criterion line of the acceptance suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = [m[0] for m in map(CRITERION.search, run.stdout.splitlines()) if m]
    return [(line.split("]")[0] + "]", sha256(line)) for line in lines]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    items = [*config_items(), table1_item()]
    criteria = criterion_items()
    lines = [f"{digest}  {item}" for item, digest in items + criteria]
    for line in lines:
        print(line)
    print(f"{sha256(chr(10).join(lines))}  total")
    if len(criteria) != 10:
        print(f"found {len(criteria)} criterion lines, not 10")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
