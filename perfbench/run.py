"""psexp benchmark: one workload, one seed, every metric by name with its unit.

    python3 perfbench/run.py --workload trend --seed 0 --seconds 40 --trace 0

Run from the root of a psexp checkout; psexp is imported from its src/.
--trace 0 reports the end-to-end metrics: wall_s and terms_per_s (median over
repetitions of the workload body after warm-up), setup_s (median over fresh
interpreters until psexp and mpmath are imported) and peak_rss_mb (ru_maxrss
of the fresh process that ran the workload).  --trace 1 reports the per-layer
metrics of tracing.py, and writes the spans to .perfbench/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# one thread everywhere, before numpy is imported here or in any child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports numpy, so after the thread variables)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7          # measured interpreters per run, after one unmeasured start
DEADLINE_S = 170.0        # a run must end within 180 s

END_TO_END = {"wall_s": "s", "terms_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "elems": "count", "ints": "count",
                   "pieces": "count", "refined": "count", "mask_mismatches": "count",
                   "hooks_absent": "count", "max_prec_bits": "bits", "ns_per_elem": "ns",
                   "self_s": "s", "wall_s": "s"}

SETUP_PROBE = ("import psexp.cli, psexp.sums, psexp.sieve, psexp.heathbrown, mpmath; "
               "print('ready', flush=True)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds() -> float:
    """Median time from starting an interpreter until psexp and mpmath are loaded."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("the set-up probe could not import psexp")
    return statistics.median(times[1:])


def provenance() -> dict:
    import mpmath
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    loc = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": commit, "src_loc": loc}


def references(workload: str, seed: int):
    with open(BENCH / "reference.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()
    if not (ROOT / "src" / "psexp" / "__init__.py").is_file():
        print(f"error: no psexp sources under {ROOT / 'src'}; run from a psexp checkout",
              file=sys.stderr)
        return 2

    sieve = workloads.Sieve(10 ** 7 if args.workload == "trend" else 10 ** 6)
    spec = workloads.build(args.workload, args.seed, sieve)
    other = workloads.build(args.workload, args.seed + 1, sieve)
    invariant = other["terms"] == spec["terms"]
    refs = references(args.workload, args.seed)
    if refs:
        for op, ref in zip(spec["ops"], refs):
            op["ref"] = ref

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    setup_s = setup_seconds() if not args.trace else None
    with tempfile.TemporaryDirectory(dir=work, prefix="run-") as tmp:
        spec.update(root=str(ROOT), tmp=tmp, seconds=args.seconds, trace=args.trace,
                    trace_out=str(work / f"trace-{args.workload}-seed{args.seed}.json"))
        spec_path, result_path = Path(tmp, "spec.json"), Path(tmp, "result.json")
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                               str(result_path)], cwd=ROOT, env=child_env(),
                              timeout=max(DEADLINE_S - (perf_counter() - started), 1.0))
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: the workload process exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())

    problems = res["problems"]
    if not invariant:
        problems.append(f"seeds {args.seed} and {args.seed + 1} give different term "
                        f"counts: {spec['terms']} != {other['terms']}")
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()}
        absent = sorted(k for k, v in res["hooks"].items() if v != "ok")
        print(f"hooks absent: {', '.join(absent) or 'none'}")
        print(f"traced walls {res['traced_walls']}, untraced walls {res['walls']}")
    else:
        wall = statistics.median(res["walls"])
        values = {"wall_s": wall, "terms_per_s": spec["terms"] / wall, "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"walls {res['walls']}")
    print(f"provenance {json.dumps(provenance())}")
    print(f"inputs: {len(spec['ops'])} ops, {spec['terms']} terms, seed {args.seed}, "
          f"reference {'checked' if refs else 'none stored'}")
    print(f"checksum sha256 {res['checksum']}")
    print(f"fail_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    for p in problems[:20]:
        print(f"problem: {p}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(last, "ratio")


if __name__ == "__main__":
    sys.exit(main())
