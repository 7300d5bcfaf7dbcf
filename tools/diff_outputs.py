"""Byte-for-byte comparison of the psexp command outputs of two checkouts.

    python3 tools/diff_outputs.py --parent DIR --change DIR

DIR is a psexp checkout (its src/ is put on PYTHONPATH; a git archive is
enough).  Each run of RUNS goes once per checkout, in a fresh scratch
directory, as `python -m psexp.cli ARGV --out out.csv`, so the `out=` line of
the config echo is the same on both sides; a run that reads a config file
finds CONFIG_FILE there as run.cfg.  Every file the run leaves in its
directory, its stdout, its stderr and its exit code are compared.  One line
per run, `same` or `DIFF` with the parts that differ; the exit code is 1 if
any run differs.  Nothing is written into either checkout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

RUNS = (
    ["theorem", "--x-schedule", "1e5:1e7"],
    ["theorem"],
    ["region"],
    ["gamma5"],
    ["gamma5", "--x-schedule", "100,200,400"],
    ["vaaler", "--H", "50"],
    ["vdc"],
    ["hb"],
    ["suite"],
    ["theorem", "--x", "inf"],
    ["vaaler", "--seed", "-1"],
    ["vaaler", "--tol", "-1"],
    ["theorem", "--d", "1.5"],
    ["gamma5", "--x", "1e30"],
    ["theorem", "--config", "run.cfg", "--gamma", "0.99"],
    ["region", "--grid-step", "3/500"],
    ["vaaler", "--H", "0", "--seed", "-1"],
    ["theorem", "--gamma", "3/2"],
    ["theorem", "--t", "2e6"],
    ["hb", "--c", "3/2"],
)
CONFIG_FILE = "x=2e4\nc=1.1\n"


def outcome(checkout: str, argv: list) -> dict:
    """Exit code, stdout, stderr and every file written by one run, as bytes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "run.cfg"), "w") as fh:
            fh.write(CONFIG_FILE)
        proc = subprocess.run([sys.executable, "-m", "psexp.cli", *argv, "--out", "out.csv"],
                              cwd=tmp, env=env, capture_output=True)
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def differences(a: dict, b: dict) -> list:
    """The parts in which two outcomes differ: exit, stdout, stderr, file names."""
    parts = [k for k in ("exit", "stdout", "stderr") if a[k] != b[k]]
    return parts + sorted(name for name in set(a["files"]) | set(b["files"])
                          if a["files"].get(name) != b["files"].get(name))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent psexp checkout")
    ap.add_argument("--change", required=True, help="the changed psexp checkout")
    args = ap.parse_args(argv)
    failed = 0
    for run in RUNS:
        parent, change = outcome(args.parent, run), outcome(args.change, run)
        diff = differences(parent, change)
        failed += bool(diff)
        status = f"DIFF {', '.join(diff)}" if diff else "same"
        print(f"{status:<12} exit {change['exit']}  psexp {' '.join(run)}", flush=True)
    print(f"{len(RUNS) - failed} of {len(RUNS)} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
