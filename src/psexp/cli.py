"""Batch command-line front end.

Subcommands: theorem, region, gamma5, vaaler, vdc, hb, suite.  Each consumes
a RunConfig assembled from defaults, an optional key=value config file, and
command-line overrides (highest precedence), all keyed by one table, _KEYS;
writes plot-ready CSV with a leading #-comment block echoing the full config
(through numerics.write_csv, and findings through numerics.write_json); and
exits 0 on pass, 1 on runtime error, 2 on precondition failure, 3 on
invariant failure.

Every command is deterministic given (config, seed): randomized suites use a
seeded generator and CSV floats are written with repr, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import exponents, heathbrown, numerics, sieve, sums, vaaler, vdc
from .errors import (BoundaryError, InvariantError, LabError, PrecisionError,
                     PreconditionError, ScaleError)
from .numerics import Parameters

def _as(kind, ok=None, want=""):
    """The reader (key, raw) -> kind(raw): a PreconditionError that names the
    key if raw does not convert, or if ok is given and the value fails it."""
    def read(key: str, raw: str):
        try:
            value = kind(raw)
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"{key}: cannot read {raw!r} as {kind.__name__}") from None
        if ok is not None and not ok(value):
            raise PreconditionError(f"{key} must be {want}, got {value}")
        return value
    return read


# key: (default, reader of its typed view or None), in header order; each key
# but command is a --flag, and cfg.grid_step reads key grid-step
_KEYS = {
    "command": ("", None),
    "c": ("1.05", _as(Fraction)),
    "gamma": ("0.995", _as(Fraction)),
    "t": ("0.5", _as(float)),
    "d": ("3", _as(int)),
    "a": ("1", _as(int)),
    "x": ("10000", _as(float, math.isfinite, "finite")),
    "x-schedule": ("", None),
    "H": ("100", _as(int)),
    "out": ("", None),
    "seed": ("101", _as(int, lambda v: v >= 0, ">= 0")),
    "grid-step": ("1/200", _as(Fraction)),
    "tol": ("1e-9", _as(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")),
    "allow-outside": ("0", lambda key, raw: raw not in ("0", "", "false", "no")),
    "fixture": ("", lambda key, raw: raw or None),
}
_DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}
_FIELDS = tuple(_KEYS)


class RunConfig:
    """String-valued config; typed views are derived, so that parse and
    serialize round-trip byte-identically."""

    def __init__(self, values: dict):
        unknown = set(values) - set(_FIELDS)
        if unknown:
            raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
        self.values = dict(_DEFAULTS)
        self.values.update({k: str(v) for k, v in values.items()})

    def serialize(self) -> str:
        return "".join(f"{k}={self.values[k]}\n" for k in _FIELDS)

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values = {}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionError(f"config line {ln} is not key=value: {raw!r}")
            k, v = line.split("=", 1)
            values[k.strip()] = v.strip()
        return cls(values)

    def header_lines(self):
        return self.serialize().splitlines()

    def __getattr__(self, name: str):
        """The typed view of a key; a value that does not convert is a PreconditionError."""
        key = name.replace("_", "-")
        read = _KEYS.get(key, (None, None))[1]
        if read is None:
            raise AttributeError(name)
        return read(key, self.values[key])

    def out(self, default: str) -> str:
        return self.values["out"] or default

    def schedule(self):
        """x values: comma list, lo:hi[:factor] geometric, or None."""
        raw = self.values["x-schedule"]
        if not raw:
            return None
        read = _as(float)
        if ":" in raw:
            parts = raw.split(":")
            if len(parts) not in (2, 3):
                raise PreconditionError(f"bad x-schedule {raw!r}, want lo:hi[:factor]")
            lo, hi, *factor = (read("x-schedule", s) for s in parts)
            return sums.geometric_schedule(lo, hi, *factor)
        return [read("x-schedule", s) for s in raw.split(",")]

    def parameters(self) -> Parameters:
        return Parameters(x=self.x, c=self.c, gamma=self.gamma, t=self.t,
                          d=self.d, a=self.a)


def _findings_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".findings.json"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_theorem(cfg: RunConfig) -> int:
    trend = sums.theorem_trend(cfg.parameters(), cfg.schedule() or [cfg.x],
                               cfg.allow_outside)
    out = cfg.out("theorem_trend.csv")
    trend.write_csv(out, header_comments=cfg.header_lines())
    bad = []
    for r in trend.rows:
        print(f"x={r.x:<12g} |err|={r.abs_err:<12.6g} err/main={r.ratio_err_main:<10.4g} "
              f"log|err|/log x={r.log_err_over_log_x:.4f}")
        dec, pair = r.decomposition, r.main_term
        if not dec.identity_ok:
            bad.append(f"x={r.x:g}: decomposition gap {dec.identity_gap:.3e} "
                       f"> {dec.tolerance:.3e}")
        if pair.flagged:
            bad.append(f"x={r.x:g}: main-term methods differ by {pair.rel_gap:.3e} relative")
    print(f"wrote {out}")
    if bad:
        raise InvariantError("; ".join(bad))
    return 0


def cmd_region(cfg: RunConfig) -> int:
    rep = exponents.region_report(cfg.grid_step)
    out = cfg.out("region_map.csv")
    rep.write_csv(out, header_comments=cfg.header_lines())
    cat = exponents.derive_gamma5_catalogue()
    findings = {"region": rep.findings(), "catalogue": cat.findings()}
    fpath = _findings_path(out)
    numerics.write_json(fpath, findings)
    inside = sum(1 for r in rep.rows if r.condition)
    print(f"grid step {cfg.grid_step}: {len(rep.rows)} points, {inside} inside; "
          f"equivalence {'ok' if rep.equivalence_ok else 'FAILED'}; "
          f"dominance failures {len(rep.dominance_failures)}; "
          f"label mismatches {len(rep.label_mismatches)}")
    print(f"wrote {out} and {fpath}")
    if not rep.equivalence_ok or rep.dominance_failures:
        raise InvariantError(
            f"equivalence_ok={rep.equivalence_ok}, "
            f"dominance failures at {rep.dominance_failures[:3]}")
    return 0


def cmd_gamma5(cfg: RunConfig) -> int:
    sched = sums.gamma5_schedule(cfg.parameters(), cfg.schedule())
    out = cfg.out("gamma5_schedule.csv")
    sched.write_csv(out, header_comments=cfg.header_lines())
    for x, v, b in zip(sched.xs, sched.values, sched.claimed):
        print(f"x={x:<12g} |gamma5|={abs(v):<12.6g} claimed x^e={b:g}")
    print(f"wrote {out}")
    return 0


def cmd_vaaler(cfg: RunConfig) -> int:
    # every flag is read before H is checked, so a bad --seed or --tol wins
    H, rng, tol = cfg.H, np.random.default_rng(cfg.seed), cfg.tol
    coeffs = vaaler.build_coefficients(H)
    worst, worst_x, a_cap, b_cap, ok = vaaler.grid_check(coeffs, rng, tol)
    out = cfg.out("vaaler_coefficients.csv")
    vaaler.dump_coefficients_csv(coeffs, out, header=cfg.header_lines())
    print(f"H={H}: worst pointwise gap {worst:.3e} at x={worst_x:.6f}; "
          f"max |a(h) h| = {a_cap:.6f}; max b(h) H = {b_cap:.6f}")
    print(f"wrote {out}")
    if not ok:
        raise InvariantError(
            f"vaaler checks failed: gap={worst:.3e}, |a h|={a_cap}, b H={b_cap}")
    return 0


def cmd_vdc(cfg: RunConfig) -> int:
    reports = vdc.standard_sweep()
    out = cfg.out("vdc_sweep.csv")
    numerics.write_csv(out, cfg.header_lines(),
                       ["label", "kind", "a", "b", "lam", "bound", "empirical", "ratio"],
                       ([r.label, r.kind] + [repr(v) for v in (*r.interval, r.lam, r.bound,
                                                                r.empirical, r.ratio)]
                        for r in reports))
    worst = max(r.ratio for r in reports)
    trials, violations = vdc.square_out_trials(np.random.default_rng(cfg.seed))
    print(f"{len(reports)} derivative-test pairs, worst empirical/bound {worst:.4f}; "
          f"square-out {trials} trials, {violations} violations")
    print(f"wrote {out}")
    if worst > vdc.RATIO_CEILING or violations:
        raise InvariantError(
            f"vdc sweep failed: worst ratio {worst:.4f}, violations {violations}")
    return 0


def cmd_hb(cfg: RunConfig) -> int:
    cf = float(cfg.c)
    rep = heathbrown.uvz_preconditions(cfg.x, cf)
    limit = min(int(cfg.x), 10_000)
    worst, worst_n = heathbrown.identity_sweep(limit)
    rows = heathbrown.classification_map(cfg.x, cf)
    out = cfg.out("hb_classification.csv")
    heathbrown.write_classification_csv(out, rows, header_comments=cfg.header_lines())
    idents_ok = rep.identities_ok
    conds_ok = all(ok for ok, _ in rep.conditions.values())
    print(f"identity sweep n <= {limit}: worst scaled error {worst:.3e} at n={worst_n}")
    print(f"U={rep.windows.U:.6g} V={rep.windows.V:.6g} Z={rep.windows.Z:.6g} "
          f"({rep.ordering}); exponent identities {'ok' if idents_ok else 'FAILED'}; "
          f"window conditions {'ok' if conds_ok else 'FAILED'}; "
          f"first-line chain 2<=U<V<=Z<=x/2: {rep.chain_ok}")
    print(f"wrote {out} ({len(rows)} dyadic boxes)")
    if worst > heathbrown.SWEEP_TOL or not idents_ok or not conds_ok:
        raise InvariantError(
            f"hb failed: sweep {worst:.3e}, identities {idents_ok}, conditions {conds_ok}")
    return 0


def cmd_suite(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    results = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except LabError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))

    def check_fixture():
        n_rows, worst, failures = numerics.verify_phase_fixture(cfg.fixture, tol=cfg.tol)
        return not failures, f"{n_rows} rows, worst {worst:.3e}, {len(failures)} over tol"

    def check_sieve():
        n_primes = sieve.primes_up_to(10_000).size
        ps = sieve.primes_up_to(20_000)
        vec = sieve.ps_mask(ps, 0.9)
        scl = np.array([sieve.is_ps_prime(int(p), 0.9) for p in ps])
        agree = bool(np.all(vec == scl))
        return (n_primes == 1229 and agree,
                f"pi(1e4)={n_primes} (want 1229), mask/scalar agree={agree}")

    def check_vaaler():
        checks = [vaaler.grid_check(vaaler.build_coefficients(H), rng, cfg.tol)
                  for H in (1, 10, 100)]
        return (all(c[4] for c in checks),
                f"worst pointwise gap {max(c[0] for c in checks):.3e} at H = 1, 10, 100")

    def check_square_out():
        trials, bad = vdc.square_out_trials(rng)
        return bad == 0, f"{bad} violations in {trials} trials"

    def check_hb():
        worst, worst_n = heathbrown.identity_sweep(10_000)
        return worst <= heathbrown.SWEEP_TOL, f"worst scaled error {worst:.3e} at n={worst_n}"

    def check_vdc():
        worst = max(r.ratio for r in vdc.standard_sweep())
        return worst <= vdc.RATIO_CEILING, f"worst empirical/bound {worst:.4f}"

    def check_decomposition():
        sets = [Parameters(x=1e4, c=1.1, gamma=0.9, t=0.5, d=3, a=1),
                Parameters(x=1e4, c=1.05, gamma=0.995, t=-1.5, d=5, a=2),
                Parameters(x=1e5, c=1.2, gamma=0.95, t=0.0, d=1, a=0)]
        worst = max(sums.gamma_decomposition(p).identity_gap for p in sets)
        return worst <= 1e-10, f"worst identity gap {worst:.3e}"

    run("phase-fixture", check_fixture)
    run("sieve-oracles", check_sieve)
    run("vaaler-grid", check_vaaler)
    run("square-out", check_square_out)
    run("hb-identity", check_hb)
    run("vdc-ratios", check_vdc)
    run("decomposition", check_decomposition)

    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    failed = [name for name, ok, _ in results if not ok]
    if failed:
        raise InvariantError(f"suite failures: {', '.join(failed)}")
    return 0


_COMMANDS = {
    "theorem": cmd_theorem,
    "region": cmd_region,
    "gamma5": cmd_gamma5,
    "vaaler": cmd_vaaler,
    "vdc": cmd_vdc,
    "hb": cmd_hb,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psexp",
        description="Exponential sums over Piatetski-Shapiro primes: batch checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        for key in _FIELDS[1:]:
            if key == "allow-outside":
                p.add_argument("--allow-outside", action="store_const", const="1")
            else:
                p.add_argument(f"--{key}")
    return parser


def config_from_args(args) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            values.update(RunConfig.parse(fh.read()).values)
    for dest, v in vars(args).items():
        if v is not None and dest not in ("command", "config"):
            values[dest.replace("_", "-")] = v
    values["command"] = args.command
    return RunConfig(values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (PreconditionError, PrecisionError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
