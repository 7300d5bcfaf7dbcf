"""Regenerate src/psexp/data/pow_tables.csv, the constants of ddmath.dd_pow_int.

Every value is a correctly rounded pair, hi = RN(v) and lo = RN(v - hi), from
mpmath at 200 bits, written with float.hex so that it reads back exactly:

    log2         j = 0 .. 2^7 - 1:  log2(1 + j/2^7), less 1 from row 53 on
    exp2         j = -2^7 .. 2^7:   2^(j/2^8)
    log2_series  i = 0 .. 6:        2 / ((2i + 1) ln 2): log2((1+z)/(1-z)) = z sum c_i z^2i
    expm1_series i = 0 .. 8:        1 / (i + 1)!:        exp(u) - 1 = u sum c_i u^i

The log2 rows from 53 on (1 + j/2^7 >= 1.414) carry 1 into the exponent, so
that every entry, and log2 m less its carry for each m of the row, lies
within [-0.51, 0.51].  Deterministic; run from the repository root:

    python tools/gen_pow_tables.py
"""

import os

from mpmath import factorial, ln, log, mp, mpf

LOG_BITS, LOG_CARRY, EXP_BITS = 7, 53, 8
LOG_TERMS, EXP_TERMS = 7, 9

OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                   "src", "psexp", "data", "pow_tables.csv")


def rounded_pair(v: mpf) -> tuple:
    """(RN(v), RN(v - RN(v))) as floats."""
    with mp.workprec(53):
        hi = +v
        lo = v - hi
    return float(hi), float(lo)


def rows() -> list:
    """(table, j, value) for every entry, at 200 bits."""
    half = 2 ** (EXP_BITS - 1)
    with mp.workprec(200):
        return ([("log2", j, log(1 + mpf(j) / 2 ** LOG_BITS, 2) - (j >= LOG_CARRY))
                 for j in range(2 ** LOG_BITS)]
                + [("exp2", j, mpf(2) ** (mpf(j) / 2 ** EXP_BITS)) for j in range(-half, half + 1)]
                + [("log2_series", i, 2 / ((2 * i + 1) * ln(2))) for i in range(LOG_TERMS)]
                + [("expm1_series", i, 1 / factorial(i + 1)) for i in range(EXP_TERMS)])


def render() -> str:
    lines = ["# ddmath.dd_pow_int constants: correctly rounded pairs (hi, lo), float.hex, "
             "from tools/gen_pow_tables.py",
             "table,j,hi,lo"]
    for table, j, v in rows():
        hi, lo = rounded_pair(v)
        lines.append(f"{table},{j},{hi.hex()},{lo.hex()}")
    return "\n".join(lines) + "\n"


def main() -> None:
    text = render()
    with open(OUT, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {text.count(chr(10)) - 2} rows to {os.path.normpath(OUT)}")


if __name__ == "__main__":
    main()
