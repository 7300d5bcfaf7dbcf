"""Regenerate perfbench/reference.json: independent values of every workload op.

    python3 perfbench/make_reference.py 0 1 2 ...      (seeds; default 0)

Imports nothing from psexp.  Primes and prime powers come from workloads.Sieve;
every phase {t n^c}, {n^gamma} and every PS membership comes from mpmath at 30
digits; only e(.) of the resulting fractional parts and the sums are float64,
whose rounding is far below the tolerance the benchmark applies.  Each entry is
[label, value, phases, weight]: run.py accepts the program's value when it is
within 2 pi * PHASE_BUDGET * phases * weight of the reference, the phase-error
budget psexp documents (weight is the number of terms, or the triangle bound
of an H-sum).  Seeds that are not stored get the mpmath spot checks only.
Runtime is about a minute per seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

import workloads

mp.mp.dps = 30
OUT = Path(__file__).resolve().parent / "reference.json"


def frac_of(y) -> float:
    return float(y - mp.floor(y))


def e(fracs) -> np.ndarray:
    return np.exp(2j * math.pi * np.asarray(fracs, dtype=np.float64))


def cpx(z: complex):
    return [z.real, z.imag]


def prime_terms(ps, c, g, t):
    """Per-prime {t p^c}, PS membership, (p+1)^g - p^g and psi(-(p+1)^g) - psi(-p^g)."""
    mc, mg, mt = mp.mpf(c), mp.mpf(g), mp.mpf(t)
    fc, member, w1, w2 = [], [], [], []
    for p in ps:
        p = int(p)
        y0, y1 = mp.mpf(p) ** mg, mp.mpf(p + 1) ** mg
        fc.append(frac_of(mt * mp.mpf(p) ** mc))
        member.append(mp.ceil(y1) - mp.ceil(y0) >= 1)
        w1.append(float(y1 - y0))
        f0, f1 = frac_of(y0), frac_of(y1)
        w2.append((0.5 - f1 if f1 > 0 else -0.5) - (0.5 - f0 if f0 > 0 else -0.5))
    return (np.asarray(fc), np.asarray(member, dtype=bool), np.asarray(w1),
            np.asarray(w2))


def ref_theorem(o, sieve):
    ps = sieve.ap(max(o["xs"]), o["d"], o["a"])
    fc, member, _, _ = prime_terms(ps, o["c"], o["gamma"], o["t"])
    z = e(fc)
    wmain = o["gamma"] * np.power(ps.astype(np.float64), o["gamma"] - 1.0)
    out = []
    for x in o["xs"]:
        k = int(np.searchsorted(ps, math.floor(x), side="right"))
        kept = member[:k]
        out.append([f"lhs@{x!r}", cpx(complex(np.sum(z[:k][kept]))), 1, int(kept.sum())])
        out.append([f"main@{x!r}", cpx(complex(np.sum(wmain[:k] * z[:k]))), 1, k])
    return out


def ref_decomposition(o, sieve, cache):
    key = (o["c"], o["gamma"], o["t"], o["d"], o["a"])
    if key not in cache:
        ps = sieve.ap(max(workloads.DECOMP_XS), o["d"], o["a"])
        cache[key] = (ps,) + prime_terms(ps, o["c"], o["gamma"], o["t"])
    ps, fc, member, w1, w2 = cache[key]
    k = int(np.searchsorted(ps, math.floor(o["x"]), side="right"))
    z = e(fc[:k])
    kept = member[:k]
    wmain = o["gamma"] * np.power(ps[:k].astype(np.float64), o["gamma"] - 1.0)
    return [["pi_gamma", cpx(complex(np.sum(z[kept]))), 1, int(kept.sum())],
            ["gamma1", cpx(complex(np.sum(w1[:k] * z))), 3, k],
            ["gamma2", cpx(complex(np.sum(w2[:k] * z))), 3, k],
            ["closed_form", cpx(complex(np.sum(wmain * z))), 1, k]]


def phase_parts(ns, c, g, t):
    """{t n^c} and {n^g} per n; {h n^g} = {h {n^g}} for integer h."""
    mc, mg, mt = mp.mpf(c), mp.mpf(g), mp.mpf(t)
    fc = np.array([frac_of(mt * mp.mpf(int(n)) ** mc) for n in ns])
    fg_hi, fg_lo = [], []
    for n in ns:
        f = mp.mpf(int(n)) ** mg
        f -= mp.floor(f)
        hi = float(f)
        fg_hi.append(hi)
        fg_lo.append(float(f - hi))
    return fc, np.array(fg_hi), np.array(fg_lo)


def shifted(h, fg_hi, fg_lo):
    return np.mod(h * fg_hi + h * fg_lo, 1.0)


def ref_hsum(o, sieve):
    kind, H, d = o["kind"], o["H"], o["d"]
    if kind == "gamma11":
        ns, lam = sieve.lambda_window(math.floor(o["x"] / 2), math.floor(o["x"]), d, o["a"])
        _, fg_hi, fg_lo = phase_parts(ns, o["c"], o["gamma"], o["t"])
        total = sum(abs(complex(np.sum(lam * e(shifted(-hh, fg_hi, fg_lo)))))
                    for h in range(1, H + 1) for hh in (h, -h))
        return [["value", total, 1, o["bound"]]]
    if kind == "gamma10":
        ns, lam = sieve.lambda_window(math.floor(o["x"] / 2), math.floor(o["x"]), 1, 0)
        mult = lam
    else:
        M, M1, L, L1 = o["box"]
        n_lo, n_hi, _ = workloads.type_sums_window(o["box"], o["x"], o["x"])
        ns = np.arange(n_lo + 1, n_hi + 1, dtype=np.int64)
        mult = np.zeros(ns.size)
        for m in range(M + 1, M1 + 1):
            ls = np.arange(L + 1, L1 + 1, dtype=np.int64)
            n = m * ls
            n = n[(n > n_lo) & (n <= n_hi)]
            np.add.at(mult, n - n_lo - 1, 1.0)
    fc, fg_hi, fg_lo = phase_parts(ns, o["c"], o["gamma"], o["t"])
    rat = ((o["k"] % d) * ns % d) / d if d > 1 else 0.0
    total = sum(abs(complex(np.sum(mult * e(fc + shifted(hh, fg_hi, fg_lo) + rat))))
                for h in range(1, H + 1) for hh in (h, -h))
    return [["value", total, o["phases"], o["bound"]]]


def main(seeds) -> int:
    refs = json.loads(OUT.read_text()) if OUT.is_file() else {}
    big, small = workloads.Sieve(10 ** 7), workloads.Sieve(10 ** 6)
    for seed in seeds:
        for name in workloads.WORKLOADS:
            sieve = big if name == "trend" else small
            spec = workloads.build(name, seed, sieve)
            cache = {}
            entries = []
            for o in spec["ops"]:
                if o["kind"] == "theorem":
                    entries.append(ref_theorem(o, sieve))
                elif o["kind"] == "decomposition":
                    entries.append(ref_decomposition(o, sieve, cache))
                else:
                    entries.append(ref_hsum(o, sieve))
            refs.setdefault(name, {})[str(seed)] = entries
            print(f"seed {seed} {name}: {len(entries)} ops", flush=True)
        OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [workloads.DEFAULT_SEED]))
