"""Seeded inputs of the benchmark workloads, their term counts and check bounds.

Nothing here imports psexp.  Term counts, triangle bounds and spot-check
samples come from this file's own sieve, so they do not depend on the program
being measured.  Seed 0 reproduces the paper/test parameters; any other seed
redraws only c, gamma and t, strictly inside 19(c-1) + 171(1-gamma) < 9 and
away from the exact c = 1 and gamma = 1 short-circuits.  The modulus d, the
residue a, every x and every H stay fixed, so the amount of work does not
depend on the seed: pi(x; d, a) depends on a (Chebyshev's bias), which is why
a is not redrawn.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

WORKLOADS = ("trend", "decomp20", "hsum")
DEFAULT_SEED = 0

# the CLI schedule "1e5:1e7" climbs by sqrt(10): five checkpoints
TREND_SCHEDULE = "1e5:1e7"
TREND_DEFAULT = (1.05, 0.995, 0.5, 3, 1)

# the ten criteria-1/2 combinations of tests/test_acceptance.py, each at two x
DECOMP_COMBOS = [
    (1.05, 0.995, 0.5, 3, 1),
    (1.01, 0.999, -1.5, 5, 2),
    (1.1, 0.99, 0.0, 1, 0),
    (1.2, 0.99, 2.25, 4, 3),
    (1.3, 0.995, 0.1, 7, 6),
    (1.35, 0.999, -0.75, 2, 1),
    (1.45, 0.9995, 3.0, 6, 1),
    (1.05, 0.96, 10.0, 9, 4),
    (1.0, 1.0, 0.5, 3, 2),          # degenerate set: fixed for every seed
    (1.15, 0.985, -0.25, 8, 5),
]
DECOMP_XS = (1e4, 1e6)

HSUM_DEFAULT = (1.05, 0.995, 0.5, 3, 1)
HSUM_G11 = (1e6, 32)                 # gamma11_sum(x, H)
HSUM_G10 = (1e6, 8, 1)               # gamma10_sum(x1, H, k) with params.x = x1
HSUM_BOX = (50, 100, 1000, 2000)     # DyadicBox(M, M1, L, L1)
HSUM_TS = (4, 1e5, 1, "SII")         # type_sums(box, H, params.x, k, variant)

SPOT_SAMPLES = 24                    # mpmath spot checks per op


def geometric_schedule(lo: float, hi: float, factor: float = math.sqrt(10.0)):
    """The x values the CLI derives from "lo:hi" (same float recurrence)."""
    xs = [float(lo)]
    while xs[-1] * factor < hi * (1.0 - 1e-12):
        xs.append(xs[-1] * factor)
    if xs[-1] < hi:
        xs.append(float(hi))
    return xs


def region_margin(c: float, gamma: float) -> float:
    """9 - 19(c-1) - 171(1-gamma), exact on the dyadic floats used."""
    cf, gf = Fraction(c), Fraction(gamma)
    return float(9 - 19 * (cf - 1) - 171 * (1 - gf))


def draw_exponents(rng: random.Random):
    """(c, gamma, t) strictly inside the region, off the degenerate edges."""
    c = round(rng.uniform(1.02, 1.40), 6)
    room = (9.0 - 19.0 * (c - 1.0)) / 171.0          # largest 1 - gamma allowed
    gamma = round(1.0 - rng.uniform(0.0005, 0.8 * room), 6)
    t = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 4.0), 4)
    return c, gamma, t


class Sieve:
    """Primes and prime powers up to n, from a plain boolean sieve."""

    def __init__(self, n: int):
        mask = np.ones(n + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if mask[p]:
                mask[p * p:: p] = False
        self.n = n
        self.primes = np.flatnonzero(mask).astype(np.int64)

    def ap(self, x: float, d: int, a: int) -> np.ndarray:
        """Primes p <= x with p = a (mod d)."""
        ps = self.primes[self.primes <= math.floor(x)]
        return ps if d == 1 else ps[ps % d == a % d]

    def sample_ap(self, rng: random.Random, x: float, d: int, a: int, k: int):
        ps = self.ap(x, d, a)
        return sorted(int(v) for v in rng.sample(list(ps), min(k, ps.size)))

    def lambda_window(self, lo: int, hi: int, d: int, a: int):
        """(n, Lambda(n)) for lo < n <= hi, n = a (mod d), Lambda(n) != 0."""
        ns, lams = [], []
        for p in self.primes[self.primes <= hi]:
            p = int(p)
            pk = p
            while pk <= hi:
                if pk > lo and (d == 1 or pk % d == a % d):
                    ns.append(pk)
                    lams.append(math.log(p))
                pk *= p
        order = np.argsort(ns)
        return np.asarray(ns, dtype=np.int64)[order], np.asarray(lams)[order]


def type_sums_window(box, x: float, x1: float):
    """(n_lo, n_hi, pairs): the n-window of type_sums and its (m, l) pairs."""
    M, M1, L, L1 = box
    n_lo = max(math.floor(x / 2), (M + 1) * (L + 1) - 1)
    n_hi = min(math.floor(x1), M1 * L1)
    ms = np.arange(M + 1, M1 + 1, dtype=np.int64)
    l_lo = np.maximum(L + 1, n_lo // ms + 1)
    l_hi = np.minimum(L1, n_hi // ms)
    pairs = int(np.sum(np.maximum(l_hi - l_lo + 1, 0)))
    return n_lo, n_hi, pairs


def build(workload: str, seed: int, sieve: Sieve | None = None) -> dict:
    """The full input spec of one workload at one seed, with its term count."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"psexp-bench/{workload}/{seed}")
    sieve = sieve or Sieve(10 ** 7 if workload == "trend" else 10 ** 6)
    spot = random.Random(f"psexp-bench/spot/{workload}/{seed}")
    if workload == "trend":
        c, g, t, d, a = TREND_DEFAULT
        if seed != DEFAULT_SEED:
            c, g, t = draw_exponents(rng)
        xs = geometric_schedule(1e5, 1e7)
        ops = [{"kind": "theorem", "schedule": TREND_SCHEDULE, "xs": xs,
                "c": c, "gamma": g, "t": t, "d": d, "a": a,
                "terms": [int(sieve.ap(x, d, a).size) for x in xs],
                "spot": sieve.sample_ap(spot, xs[-1], d, a, SPOT_SAMPLES)}]
        return _finish(workload, seed, ops, sum(ops[0]["terms"]), max(xs))
    if workload == "decomp20":
        ops = []
        for c, g, t, d, a in DECOMP_COMBOS:
            if seed != DEFAULT_SEED and (c, g) != (1.0, 1.0):
                c, g, t = draw_exponents(rng)
            for x in DECOMP_XS:
                ops.append({"kind": "decomposition", "x": x, "c": c, "gamma": g,
                            "t": t, "d": d, "a": a,
                            "terms": int(sieve.ap(x, d, a).size),
                            "spot": sieve.sample_ap(spot, x, d, a, SPOT_SAMPLES)})
        return _finish(workload, seed, ops, sum(o["terms"] for o in ops),
                       max(DECOMP_XS))
    c, g, t, d, a = HSUM_DEFAULT
    if seed != DEFAULT_SEED:
        c, g, t = draw_exponents(rng)
    base = {"c": c, "gamma": g, "t": t, "d": d, "a": a}
    x11, H11 = HSUM_G11
    n11, lam11 = sieve.lambda_window(math.floor(x11 / 2), math.floor(x11), d, a)
    x10, H10, k10 = HSUM_G10
    n10, lam10 = sieve.lambda_window(math.floor(x10 / 2), math.floor(x10), 1, 0)
    Hts, xts, kts, variant = HSUM_TS
    n_lo, n_hi, pairs = type_sums_window(HSUM_BOX, xts, xts)
    ops = [
        dict(base, kind="gamma11", x=x11, H=H11, terms=int(n11.size) * 2 * H11,
             bound=2 * H11 * float(np.sum(lam11)), phases=1,
             spot=_spot_pairs(spot, n11, H11)),
        dict(base, kind="gamma10", x=x10, H=H10, k=k10,
             terms=int(n10.size) * 2 * H10,
             bound=2 * H10 * float(np.sum(lam10)), phases=2,
             spot=_spot_pairs(spot, n10, H10)),
        dict(base, kind="type_sums", x=xts, H=Hts, k=kts, variant=variant,
             box=list(HSUM_BOX), terms=(n_hi - n_lo) * 2 * Hts,
             bound=2.0 * Hts * pairs, phases=2,
             spot=_spot_pairs(spot, np.arange(n_lo + 1, n_hi + 1), Hts)),
    ]
    return _finish(workload, seed, ops, sum(o["terms"] for o in ops), x10)


def _spot_pairs(rng: random.Random, ns: np.ndarray, H: int):
    """Sampled (n, h) pairs, 1 <= |h| <= H, for the {t n^c} and {h n^g} checks."""
    picks = rng.sample(range(ns.size), SPOT_SAMPLES)
    return [[int(ns[i]), rng.choice((-1, 1)) * rng.randint(1, H)] for i in picks]


def _finish(workload, seed, ops, terms, x_max):
    for op in ops:
        if (op["c"], op["gamma"]) != (1.0, 1.0):
            if not (1.0 < op["c"] and op["gamma"] < 1.0
                    and region_margin(op["c"], op["gamma"]) > 0):
                raise ValueError(f"generated parameters leave the region: {op}")
    return {"workload": workload, "seed": seed, "ops": ops, "terms": terms,
            "x_max": x_max}
