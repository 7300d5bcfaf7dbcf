"""One benchmark run of one workload, in a fresh process.

Usage: worker.py SPEC.json RESULT.json (run.py writes the spec and reads the
result).  The worker imports psexp from the checkout's src/, warms up on a
reduced copy of the workload, then repeats the workload body for the
requested seconds (at least MIN_REPS times).  With tracing on, untraced and
traced repetitions alternate, so the overhead of tracing is measured in one
process.  Every op is checked after each repetition, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import psexp  # PYTHONPATH points at the checkout's src/
from psexp import cli, ddmath, heathbrown, numerics, sieve, sums

import tracing  # perfbench/tracing.py, next to this script

MIN_REPS = 2          # untraced repetitions; a traced run needs one pair
MODULES = {"ddmath": ddmath, "numerics": numerics, "sieve": sieve, "sums": sums,
           "heathbrown": heathbrown, "cli": cli}


def _params(o):
    return numerics.Parameters(x=float(o["x"]), c=o["c"], gamma=o["gamma"], t=o["t"],
                               d=o["d"], a=o["a"])


class Op:
    """One workload op: run() is timed; labeled(), digest_values() and
    problems() read its result afterwards."""

    def __init__(self, o: dict, tmp: str):
        self.o, self.tmp = o, tmp

    def run(self):
        o, kind = self.o, self.o["kind"]
        if kind == "theorem":
            out = os.path.join(self.tmp, "theorem_trend.csv")
            argv = ["theorem", "--x-schedule", o["schedule"], "--c", repr(o["c"]),
                    "--gamma", repr(o["gamma"]), "--t", repr(o["t"]),
                    "--d", str(o["d"]), "--a", str(o["a"]), "--out", out]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            with open(out, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
            return {"rc": rc, "stderr": err.getvalue(), "rows": rows[1:]}
        if kind == "decomposition":
            p = _params(o)
            return sums.gamma_decomposition(p), sums.rhs_main(p)
        if kind == "gamma11":
            return sums.gamma11_sum(o["x"], o["H"], _params(o))
        if kind == "gamma10":
            return sums.gamma10_sum(o["x"], o["H"], _params(o), o["k"])
        if kind == "type_sums":
            return heathbrown.type_sums(heathbrown.DyadicBox(*o["box"]), o["H"], _params(o),
                                        k=o["k"], variant=o["variant"])
        raise ValueError(f"unknown op kind {kind!r}")

    def warm(self) -> "Op":
        """A reduced copy of this op that reaches the same code paths."""
        o = dict(self.o)
        if o["kind"] == "theorem":
            o["schedule"] = "1e4:1e5"
        elif o["kind"] == "decomposition":
            o["x"] = 1e4
        elif o["kind"] in ("gamma11", "gamma10"):
            o["x"], o["H"] = 1e4, 1
        else:
            o["H"] = 1
        return Op(o, self.tmp)

    def labeled(self, res) -> dict:
        kind = self.o["kind"]
        if kind == "theorem":
            out = {}
            for row in res["rows"]:
                out[f"lhs@{row[0]}"] = complex(float(row[1]), float(row[2]))
                out[f"main@{row[0]}"] = complex(float(row[3]), float(row[4]))
            return out
        if kind == "decomposition":
            dec, pair = res
            return {"pi_gamma": dec.pi_gamma.value, "gamma1": dec.gamma1,
                    "gamma2": dec.gamma2, "closed_form": pair.closed_form}
        return {"value": res}

    def digest_values(self, res) -> list:
        if self.o["kind"] == "theorem":
            return [res["rc"], res["rows"]]
        if self.o["kind"] == "decomposition":
            dec, pair = res
            return [dec.pi_gamma.value, dec.pi_gamma.n_terms, dec.gamma1, dec.gamma2,
                    dec.identity_gap, dec.weight_sum, dec.mask_mismatches,
                    pair.quadrature, pair.closed_form, pair.rel_gap]
        return [res]

    def problems(self, res) -> list:
        o, kind, bad = self.o, self.o["kind"], []
        if kind == "theorem":
            if res["rc"] != 0:
                bad.append(f"psexp theorem exited {res['rc']}: {res['stderr'].strip()}")
            if [float(r[0]) for r in res["rows"]] != o["xs"]:
                bad.append("trend rows do not match the schedule")
        elif kind == "decomposition":
            dec, pair = res
            if not dec.identity_ok:
                bad.append(f"identity gap {dec.identity_gap:.3e} > {dec.tolerance:.3e}")
            if pair.flagged:
                bad.append(f"main-term methods differ by {pair.rel_gap:.3e}")
            if not dec.pi_gamma.invariant_ok or dec.pi_gamma.n_terms > o["terms"]:
                bad.append("pi_gamma breaks the triangle bound")
        else:
            slack = 2 * math.pi * sums.PHASE_BUDGET * o["phases"] * o["bound"]
            if not 0.0 <= res <= o["bound"] + slack:
                bad.append(f"{kind} = {res!r} outside [0, {o['bound']!r}]")
        values = self.labeled(res)
        if not all(math.isfinite(abs(v)) for v in values.values()):
            bad.append("non-finite value")
        for label, ref, phases, weight in o.get("ref", ()):
            got = values.get(label)
            tol = 2 * math.pi * sums.PHASE_BUDGET * phases * weight
            want = complex(*ref) if isinstance(ref, list) else ref
            if got is None or not abs(got - want) <= tol:
                bad.append(f"{label}: {got!r} differs from reference {want!r} by more than {tol:.3e}")
        return bad

    def spot_problems(self) -> list:
        """mpmath check of sampled per-element phases and PS memberships."""
        import mpmath

        o, bad = self.o, []
        budget = sums.PHASE_BUDGET
        c, g, t = mpmath.mpf(o["c"]), mpmath.mpf(o["gamma"]), mpmath.mpf(o["t"])

        def off(got, exact):
            e = abs(got - float(exact - mpmath.floor(exact)))
            return min(e, 1.0 - e)

        with mpmath.workdps(40):
            if o["kind"] in ("theorem", "decomposition"):
                ps = np.asarray(o["spot"], dtype=np.int64)
                phase = numerics.phase_mod1_vec(o["t"], ps, o["c"])
                member = sieve.ps_mask(ps, o["gamma"])
                for p, f, m in zip(o["spot"], phase, member):
                    if off(f, t * mpmath.mpf(p) ** c) > budget:
                        bad.append(f"{{t p^c}} at p={p}: {f!r}")
                    want = mpmath.ceil(mpmath.mpf(p + 1) ** g) - mpmath.ceil(mpmath.mpf(p) ** g) >= 1
                    if bool(m) != bool(want):
                        bad.append(f"PS membership of p={p}: {bool(m)}")
            else:
                for n, h in o["spot"]:
                    f1 = numerics.phase_mod1_vec(o["t"], np.array([n]), o["c"])[0]
                    f2 = numerics.phase_mod1_vec(float(h), np.array([n]), o["gamma"])[0]
                    if off(f1, t * mpmath.mpf(n) ** c) > budget:
                        bad.append(f"{{t n^c}} at n={n}: {f1!r}")
                    if off(f2, h * mpmath.mpf(n) ** g) > budget:
                        bad.append(f"{{h n^gamma}} at n={n}, h={h}: {f2!r}")
        return bad


def body(ops, tracer=None):
    """Run every op once; an op that raises is recorded as its exception."""
    results = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        try:
            results.append(tracer.run_op(i, op.run) if tracer else op.run())
        except Exception as exc:  # a raising op is a failed op, the run goes on
            results.append(exc)
    return perf_counter() - t0, results


def evaluate(ops, results, spot_bad):
    """(failed ops, problem strings, SHA-256 of the repr of every value)."""
    digest = hashlib.sha256()
    failed, problems = 0, []
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception):
            bad = [f"raised {type(res).__name__}: {res}"]
            digest.update(f"{i}:raised".encode())
        else:
            bad = op.problems(res)
            digest.update(f"{i}:{op.digest_values(res)!r}".encode())
        bad += spot_bad[i]
        failed += bool(bad)
        problems += [f"op {i} ({op.o['kind']}): {b}" for b in bad]
    return failed, problems, digest.hexdigest()


def layer_metrics(tracers, traced_walls, untraced_walls, spec) -> dict:
    wall = statistics.median(traced_walls)
    counts = tracers[0].counts
    selfs = [t.self_times() for t in tracers]

    def self_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs)

    def ratio(a, b):
        return a / b if b else 0.0

    # a layer that some workloads never reach reports its self time as a share
    # of the traced body, so no time metric reads a structural 0.0 every run
    def self_frac(name):
        return self_s(name) / wall

    pow_s, pow_elems = self_s("ddmath.pow"), counts["ddmath.pow.elems"]
    return {
        "ddmath.pow.calls": counts["ddmath.pow.calls"],
        "ddmath.pow.elems": pow_elems,
        "ddmath.pow.self_s": pow_s,
        "ddmath.pow.ns_per_elem": ratio(pow_s * 1e9, pow_elems),
        "ddmath.pow.elems_per_term": ratio(pow_elems, spec["terms"]),
        "ddmath.pow.self_frac": pow_s / wall,
        "numerics.phase.calls": counts["numerics.phase.calls"],
        "numerics.phase.elems": counts["numerics.phase.elems"],
        "numerics.phase.self_s": self_s("numerics.phase"),
        "numerics.expi.elems": counts["numerics.expi.elems"],
        "numerics.expi.self_s": self_s("numerics.expi"),
        "sieve.sieve.ints": counts["sieve.sieve.ints"],
        "sieve.sieve.self_s": self_s("sieve.sieve"),
        "sieve.sieve.ints_per_xmax": ratio(counts["sieve.sieve.ints"], spec["x_max"]),
        "sieve.psmask.elems": counts["sieve.psmask.elems"],
        "sieve.psmask.self_frac": self_frac("sieve.psmask"),
        "sieve.certified.calls": counts["sieve.certified.calls"],
        "sieve.certified.self_frac": self_frac("sieve.certified"),
        "sums.floorfrac.elems": counts["sums.floorfrac.elems"],
        "sums.floorfrac.self_frac": self_frac("sums.floorfrac"),
        "sums.certified.calls": counts["sums.certified.calls"],
        "sums.certified.self_frac": self_frac("sums.certified"),
        "sums.certified.frac": ratio(counts["sums.certified.calls"],
                                     counts["sums.floorfrac.elems"]),
        "certified.max_prec_bits": counts["certified.max_prec_bits"],
        "sums.quad.pieces": counts["sums.quad.pieces"],
        "sums.quad.refined": counts["sums.quad.refined"],
        "sums.quad.self_frac": self_frac("sums.quad"),
        "sums.accum.calls": counts["sums.accum.calls"],
        "sums.accum.self_s": self_s("sums.accum"),
        "sums.glue.self_s": self_s("sums.glue"),
        "sums.mask_mismatches": counts["sums.mask_mismatches"],
        "heathbrown.type_sums.self_frac": self_frac("heathbrown.type_sums"),
        "cli.self_frac": self_frac("cli"),
        "trace.overhead_frac": wall / statistics.median(untraced_walls) - 1.0,
        "trace.wall_s": wall,
        "trace.hooks_absent": sum(v != "ok" for v in tracers[0].hooks.values()),
    }


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    if os.path.commonpath([os.path.abspath(psexp.__file__), src]) != src:
        raise SystemExit(f"psexp imported from {psexp.__file__}, not from {src}")

    ops = [Op(o, spec["tmp"]) for o in spec["ops"]]
    body([op.warm() for op in ops])
    traced, seconds = spec["trace"], spec["seconds"]
    min_reps = 1 if traced else MIN_REPS

    walls, traced_walls, tracers = [], [], []
    digests, traced_digests = set(), set()
    attempted = failed = 0
    problems = []
    spot_bad = [op.spot_problems() for op in ops]
    start = perf_counter()
    while True:
        wall, results = body(ops)
        f, p, d = evaluate(ops, results, spot_bad)
        walls.append(wall)
        digests.add(d)
        attempted, failed, problems = attempted + len(ops), failed + f, problems + p
        if traced:
            tracer = tracing.Tracer()
            tracer.install(MODULES)
            try:
                wall, results = body(ops, tracer)
            finally:
                tracer.remove()
            f, p, d = evaluate(ops, results, spot_bad)
            traced_walls.append(wall)
            tracers.append(tracer)
            traced_digests.add(d)
            attempted, failed, problems = attempted + len(ops), failed + f, problems + p
        # stop before a repetition that would run past the requested seconds
        elapsed = perf_counter() - start
        if len(walls) >= min_reps and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if len(digests) != 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct checksums")
    if traced and traced_digests != digests:
        problems.append("traced checksum differs from the untraced checksum")
    result = {"walls": walls, "attempted": attempted, "failed": failed,
              "problems": problems, "checksum": sorted(digests)[0],
              "peak_rss_kb": peak_kb}
    if traced:
        result["traced_walls"] = traced_walls
        result["hooks"] = tracers[0].hooks
        result["per_layer"] = layer_metrics(tracers, traced_walls, walls, spec)
        with open(spec["trace_out"], "w") as fh:
            json.dump({"workload": spec["workload"], "seed": spec["seed"],
                       "span_fields": ["name", "start", "end", "parent", "op"],
                       "hooks": tracers[0].hooks,
                       "reps": [{"wall_s": w, "counts": t.counts, "spans": t.spans}
                                for w, t in zip(traced_walls, tracers)]}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
