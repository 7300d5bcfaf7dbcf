"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

DIR is a psexp checkout (src/ and perfbench/; a git archive is enough).  For
each (workload, seed) of PAIRS, pair i runs `perfbench/run.py --workload W
--seed S --seconds 40 --trace 0` in the parent first when i is even and in
the change first when i is odd; each run's metrics and value checksum are
kept under the key "W/seedS".  Seed 1 of the claimed workload is a held-out
input set, on which the claim must hold too.  Then, outside the benchmark,
each psexp command of SCALE (an argv list, run with `--out` in a scratch
directory) runs its count of alternating pairs, each in a fresh interpreter,
which reports its wall seconds, its CPU seconds (time.process_time, steadier
than wall time on a shared host) and its own ru_maxrss; scale_medians holds
their medians per command and side.  SETUP_PAIRS alternating pairs of the
benchmark's own set-up probe (the SETUP_PROBE of perfbench/run.py, in a fresh
interpreter without bytecode cache, timed until it prints ready) give each
side's median and quartiles under setup_probe, beside the setup_s readings
of the pairs, whose few runs a noisy host can move past the bound.  The
series block gives, per metric, both sides' values, their medians, the
parent's quartiles and the relative change of the median against the
BENCHMARK.json bound; CLAIM names the metric claimed to improve (None when
no gain is claimed, and then no claim_check is made).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = (("trend", 0, 10), ("trend", 1, 3), ("decomp20", 0, 10), ("decomp20", 1, 3),
         ("hsum", 0, 3), ("hsum", 1, 3))
SECONDS = 40
SCALE = ((["theorem", "--x-schedule", "1e5:1e8"], 6), (["theorem", "--x-schedule", "1e5:1e9"], 1),
         (["theorem", "--x-schedule", "1e5:1e10"], 1), (["gamma5", "--x", "1e8"], 1))
SETUP_PAIRS = 20
CLAIM = "decomp20.wall_s"
_SCALE_RUN = """
import resource, sys, time
from psexp import cli
t, cpu = time.perf_counter(), time.process_time()
code = cli.main(sys.argv[2:] + ["--out", sys.argv[1]])
print(code, time.perf_counter() - t, time.process_time() - cpu,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _env(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def bench_run(checkout: str, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=_env(checkout), capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["checksum"] = next(ln.split()[-1] for ln in lines if ln.startswith("checksum"))
    result["provenance"] = json.loads(next(ln.split(" ", 1)[1] for ln in lines
                                           if ln.startswith("provenance")))
    return result


def scale_run(checkout: str, argv: list) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run(
            [sys.executable, "-c", _SCALE_RUN, os.path.join(tmp, "out.csv"), *argv],
            cwd=tmp, env=_env(checkout), capture_output=True, text=True, check=True)
    code, seconds, cpu, rss = out.stdout.strip().splitlines()[-1].split()
    return {"argv": argv, "exit": int(code), "seconds": float(seconds),
            "cpu_seconds": float(cpu), "ru_maxrss_mb": float(rss)}


def setup_probe(checkout: str) -> str:
    """The SETUP_PROBE source of the checkout's perfbench/run.py, read without
    importing the benchmark."""
    with open(os.path.join(checkout, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SETUP_PROBE" for t in node.targets))


def setup_run(checkout: str, probe: str) -> float:
    """Seconds from starting an interpreter on probe until it prints ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", probe], cwd=checkout, env=_env(checkout),
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"the set-up probe failed in {checkout}")
    return seconds


def spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "quartiles": [q[0], q[2]]}


def src_loc(checkout: str) -> int:
    root = os.path.join(checkout, "src", "psexp")
    return sum(sum(1 for _ in open(os.path.join(root, f)))
               for f in sorted(os.listdir(root)) if f.endswith(".py"))


def series(runs: dict, bounds: dict) -> dict:
    out = {}
    for w in runs["parent"]:
        out[w] = {}
        for name, (better, bound) in bounds.items():
            par = [r["metrics"][name]["value"] for r in runs["parent"][w]]
            chg = [r["metrics"][name]["value"] for r in runs["change"][w]]
            pm, cm = statistics.median(par), statistics.median(chg)
            q = statistics.quantiles(par, n=4) if len(par) > 1 else [pm, pm, pm]
            rel = cm / pm - 1.0
            worse = rel if better == "lower" else -rel
            out[w][name] = {"parent": par, "change": chg, "parent_median": pm,
                            "change_median": cm, "parent_quartiles": [q[0], q[2]],
                            "change_vs_parent": rel, "bound": bound,
                            "within_bound": worse <= bound}
    return out


def claim_check(runs: dict, bounds: dict) -> dict:
    """CLAIM against the rule for a gain, per seed of the claimed workload:
    the change better in at least 9 of 10 pairs, and its median ahead by
    more than the parent's quartile spread."""
    w, name = CLAIM.split(".")
    return {key: _claim_shown([r["metrics"][name]["value"] for r in runs["parent"][key]],
                              [r["metrics"][name]["value"] for r in runs["change"][key]],
                              bounds[name][0])
            for key in runs["parent"] if key.startswith(w + "/")}


def _claim_shown(par: list, chg: list, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
    gap = sign * (statistics.median(par) - statistics.median(chg))
    q = statistics.quantiles(par, n=4)
    return {"pairs": len(par), "wins": wins, "median_gap": gap,
            "parent_iqr": q[2] - q[0],
            "shown": wins >= 0.9 * len(par) and gap > q[2] - q[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    keys = [f"{w}/seed{seed}" for w, seed, _ in PAIRS]
    runs = {side: {key: [] for key in keys} for side in sides}
    i = 0
    for key, (w, seed, n) in zip(keys, PAIRS):
        for _ in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side][key].append(bench_run(sides[side], w, seed))
                r = runs[side][key][-1]
                print(f"pair {i} {key} {side}: wall_s {r['metrics']['wall_s']['value']:.4f} "
                      f"correct {r['correct']} failed {r['failed']}", flush=True)
            i += 1
    probes = {side: setup_probe(path) for side, path in sides.items()}
    setup = {side: [] for side in sides}
    for j in range(SETUP_PAIRS):
        for side in (("parent", "change") if j % 2 == 0 else ("change", "parent")):
            setup[side].append(setup_run(sides[side], probes[side]))
        print(f"setup pair {j}: parent {setup['parent'][-1]:.4f} "
              f"change {setup['change'][-1]:.4f}", flush=True)
    scale = {side: [] for side in sides}
    for argv, n in SCALE:
        for j in range(n):
            for side in (("parent", "change") if j % 2 == 0 else ("change", "parent")):
                scale[side].append(scale_run(sides[side], argv))
                print(f"scale {' '.join(argv)} {side}: {scale[side][-1]}", flush=True)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    host = dict(runs["change"][keys[0]][0]["provenance"])
    for key in ("commit", "src_loc"):
        host.pop(key, None)
    doc = {
        "command": (f"python3 tools/bench_pairs.py --parent <parent checkout> "
                    f"--change <change checkout> --out {os.path.basename(args.out)}"),
        "bench_command": "python3 perfbench/run.py --workload <w> --seed <s> "
                         f"--seconds {SECONDS} --trace 0",
        "order": "parent and change alternate; pair i runs parent first when i is "
                 "even (pairs counted over all workloads in run order)",
        "claim": CLAIM,
        "claim_check": claim_check(runs, bounds) if CLAIM else None,
        "runs": runs,
        "series": series(runs, bounds),
        "checksums": {w: {side: sorted({r["checksum"] for r in runs[side][w]})
                          for side in sides} for w in keys},
        "setup_probe": {"probe": probes["change"], "pairs": SETUP_PAIRS,
                        "order": "alternating, parent first in even pairs",
                        **{side: {"seconds": setup[side], **spread(setup[side])}
                           for side in sides}},
        "scale": scale,
        "scale_medians": {" ".join(argv): {side: {key: statistics.median(
            r[key] for r in scale[side] if r["argv"] == argv)
            for key in ("seconds", "cpu_seconds", "ru_maxrss_mb")} for side in sides}
            for argv, _ in SCALE},
        "host": host,
        "src_loc": {side: src_loc(path) for side, path in sides.items()},
    }
    doc["checksums_equal"] = all(c["parent"] == c["change"] and len(c["parent"]) == 1
                                 for c in doc["checksums"].values())
    doc["all_correct"] = all(r["correct"] and r["failed"] == 0
                             for side in runs.values() for rs in side.values() for r in rs)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if doc["checksums_equal"] and doc["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
