"""Parameter validation, fractional-part kernels, and the phase fixture."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psexp import exponents, heathbrown, sieve, sums, vaaler, vdc
from psexp.errors import PrecisionError, PreconditionError
from psexp.numerics import (PHASE_CAP, T_CAP, Parameters, check_height, check_int,
                            check_n, check_real, e_of, e_of_frac_vec, frac, frac_pair,
                            frac_times, phase_mod1, phase_mod1_vec, psi,
                            verify_phase_fixture, weighted_e_sum, write_json)


# ---------------------------------------------------------------------------
# Parameters

def test_parameters_accepts_typical_point():
    p = Parameters(x=1e4, c=Fraction(21, 20), gamma=Fraction(199, 200),
                   t=0.5, d=3, a=1)
    assert p.c_float == 1.05
    assert p.region_ok


@pytest.mark.parametrize("kwargs", [
    dict(x=0.0, c=1.1, gamma=0.9),
    dict(x=-5.0, c=1.1, gamma=0.9),
    dict(x=math.inf, c=1.1, gamma=0.9),
    dict(x=10.0, c=1.1, gamma=0.0),
    dict(x=10.0, c=1.1, gamma=1.5),
    dict(x=10.0, c=0.9, gamma=0.9),
    dict(x=10.0, c=2.5, gamma=0.9),
    dict(x=10.0, c=1.1, gamma=0.9, d=0),
    dict(x=10.0, c=1.1, gamma=0.9, d=6, a=3),     # gcd(3, 6) = 3
    dict(x=10.0, c=1.1, gamma=0.9, d=3, a=1.0),
    dict(x=10.0, c=1.1, gamma=0.9, t=2e6),
    dict(x=10.0, c=1.1, gamma=0.9, t=math.nan),
])
def test_parameters_rejects_bad_input(kwargs):
    with pytest.raises(PreconditionError):
        Parameters(**kwargs)


def test_region_condition_is_exact_at_the_boundary():
    # 19(c-1) + 171(1-gamma) = 9 exactly at (1, 18/19): not strictly inside
    assert not Parameters(x=10, c=Fraction(1), gamma=Fraction(18, 19)).region_ok
    assert Parameters(x=10, c=Fraction(1), gamma=Fraction(18, 19) + Fraction(1, 10**9)).region_ok


def test_claimed_exponent_is_exact_rational():
    p = Parameters(x=10, c=Fraction(21, 20), gamma=Fraction(199, 200))
    want = Fraction(21, 20) / 18 + Fraction(199, 200) / 2 + Fraction(143, 342)
    assert p.claimed_exponent() == want
    assert 0.97 < float(want) < 0.98


# ---------------------------------------------------------------------------
# frac / psi / e_of

def test_frac_known_values():
    assert frac(-0.25) == 0.75
    assert frac(3) == 0.0
    assert frac(2.5) == 0.5
    assert frac(-3.0) == 0.0


def test_frac_rejects_nonfinite():
    with pytest.raises(PreconditionError):
        frac(math.inf)
    with pytest.raises(PreconditionError):
        frac(math.nan)


def test_psi_known_values():
    assert psi(0.75) == 0.25
    assert psi(17) == -0.5
    assert psi(0.5) == 0.0


def test_e_of_quarter_turns():
    assert abs(e_of(0.25) - 1j) < 1e-15
    assert abs(e_of(0.5) + 1.0) < 1e-15
    assert e_of(0.0) == 1.0


@given(st.floats(min_value=-1e12, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
def test_frac_lands_in_unit_interval(y):
    r = frac(y)
    assert 0.0 <= r < 1.0


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_e_of_sits_on_unit_circle(y):
    assert abs(abs(e_of(y)) - 1.0) < 1e-12


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_psi_is_one_periodic(y):
    assume((y + 1.0) - 1.0 == y)   # skip inputs that alias under float + 1
    assert psi(y + 1.0) == pytest.approx(psi(y), abs=1e-12)


# ---------------------------------------------------------------------------
# phase_mod1

def test_phase_exact_half():
    # 0.5 * 3^1 = 1.5: exactly representable all the way through
    assert phase_mod1(0.5, 3, 1.0) == 0.5


def test_phase_agrees_with_cmath_at_small_arguments():
    for n in (2, 3, 10, 97):
        got = e_of(phase_mod1(0.25, n, 1.5))
        want = cmath.exp(2j * math.pi * 0.25 * n ** 1.5)
        assert abs(got - want) < 1e-9


def test_phase_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        phase_mod1(0.5, 0, 1.5)
    with pytest.raises(PreconditionError):
        phase_mod1(0.5, 2.5, 1.5)
    with pytest.raises(PreconditionError):
        phase_mod1(2e6, 3, 1.5)
    with pytest.raises(PreconditionError):
        phase_mod1(0.5, 3, 2.5)


def test_phase_cap_raises_precision_error():
    # |t n^c| = 1e6 * (1e8)^2 = 1e22 > 2^70
    with pytest.raises(PrecisionError):
        phase_mod1(1e6, 10 ** 8, 2.0)
    with pytest.raises(PrecisionError):
        phase_mod1_vec(1e6, np.array([10, 10 ** 8]), 2.0)


def test_phase_vec_matches_scalar():
    n = np.arange(1, 400)
    v = phase_mod1_vec(0.37, n, 1.23)
    s = np.array([phase_mod1(0.37, int(k), 1.23) for k in n])
    assert np.max(np.abs(v - s)) == 0.0


def test_phase_vec_empty_input():
    assert phase_mod1_vec(0.5, np.zeros(0, dtype=np.int64), 1.1).size == 0


def test_kernel_entry_points_refuse_non_integral_n():
    # 2.5 used to be truncated to 2 without a word
    with pytest.raises(PreconditionError):
        phase_mod1_vec(0.5, np.array([2.5, 2.0]), 1.05)
    with pytest.raises(PreconditionError):
        frac_pair(np.array([7.0, 9.75]), 0.9, 4)
    with pytest.raises(PreconditionError):
        sieve.ps_floor(np.array([11.5]), 0.9)
    with pytest.raises(PreconditionError):
        phase_mod1_vec(0.5, np.array([np.nan]), 1.05)
    with pytest.raises(PreconditionError, match="integer array"):
        phase_mod1_vec(0.5, np.array(["3"]), 1.05)
    whole = np.array([2.0, 3.0, 1e6])
    assert phase_mod1_vec(0.5, whole, 1.05).tobytes() == \
        phase_mod1_vec(0.5, whole.astype(np.int64), 1.05).tobytes()


@pytest.mark.parametrize("c", [0.5, 0.9])
def test_kernel_entry_points_refuse_n_from_two_to_the_53(c):
    # at c = 1/2, n = 2^54 + 3 gave 1.49e-5 where mpmath gives 1.12e-5
    for n in (2 ** 53, 2 ** 54 + 3):
        with pytest.raises(PreconditionError):
            phase_mod1_vec(1000.0, np.array([n]), c)
        with pytest.raises(PreconditionError):
            phase_mod1(1000.0, n, c)
        with pytest.raises(PreconditionError):
            frac_pair(np.array([n]), c, 3)
        with pytest.raises(PreconditionError):
            sieve.ps_floor(np.array([n]), c)
    top = 2 ** 53 - 1
    with mpmath.workdps(40):
        y = 1000 * mpmath.mpf(top) ** mpmath.mpf(c)
        err = abs(phase_mod1(1000.0, top, c) - float(y - mpmath.floor(y)))
    assert min(err, 1.0 - err) <= 1e-9


def test_e_of_frac_vec_is_cos_plus_i_sin_bitwise():
    fr = np.concatenate([[0.0, 0.25, 0.5, 0.75], np.random.default_rng(9).uniform(0, 1, 5000)])
    ang = (2.0 * math.pi) * fr
    assert e_of_frac_vec(fr).tobytes() == (np.cos(ang) + 1j * np.sin(ang)).tobytes()
    assert e_of_frac_vec(np.zeros(0)).dtype == np.complex128


def test_e_of_frac_vec_matches_scalar():
    fr = np.array([0.0, 0.25, 0.5, 0.9])
    z = e_of_frac_vec(fr)
    for zi, fi in zip(z, fr):
        assert abs(zi - e_of(fi)) < 1e-15
    assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-15


def test_weighted_e_sum_matches_complex_sum():
    rng = np.random.default_rng(5)
    fr, w = rng.uniform(0.0, 1.0, 500), rng.uniform(-1.0, 2.0, 500)
    assert abs(weighted_e_sum(w, fr) - complex(np.sum(w * e_of_frac_vec(fr)))) < 1e-12
    assert weighted_e_sum(np.zeros(0), np.zeros(0)) == 0j


# ---------------------------------------------------------------------------
# {h n^c} for every 1 <= |h| <= H from one pair

@pytest.mark.parametrize("c", [0.5, 0.75, 0.9, 0.995])
def test_frac_times_matches_mpmath(c):
    rng = np.random.default_rng(int(c * 1000))
    n = np.unique(np.concatenate([rng.integers(2 ** (b - 1), 2 ** b, 3)
                                  for b in (4, 12, 20, 28, 36, 44)]
                                 + [[2 ** 45 - 1, 2 ** 45 - 12345]]))
    for H in (1, 9, 1000):
        pair = frac_pair(n, c, H)
        hs = sorted({1, -1, H, -H, *rng.integers(-H, H + 1, 4).tolist()} - {0})
        for h in hs:
            got = frac_times(pair, h)
            assert np.all((0.0 <= got) & (got < 1.0))
            with mpmath.workdps(40):
                for nn, g in zip(n, got):
                    y = h * mpmath.mpf(int(nn)) ** mpmath.mpf(c)
                    err = abs(g - float(y - mpmath.floor(y)))
                    assert min(err, 1.0 - err) <= 1e-12, (int(nn), h, c)


def test_frac_times_is_exactly_zero_at_perfect_squares():
    m = np.arange(1, 2 ** 22, 4099, dtype=np.int64)
    pair = frac_pair(m * m, 0.5, 1000)
    for h in (1, -1, 7, -999, 1000):
        assert not frac_times(pair, h).any()


def test_frac_pair_keeps_the_phase_cap():
    # n^gamma ~ 2^51.74 for n = 2^52 at gamma = 0.995: H = 2^18.3 reaches 2^70
    n = np.array([2 ** 52], dtype=np.int64)
    top = float(n[0]) ** 0.995
    H = int(PHASE_CAP / top) + 1
    with pytest.raises(PrecisionError):
        frac_pair(n, 0.995, H)
    frac_pair(n, 0.995, H - 2)                         # just under the cap
    with pytest.raises(PreconditionError):
        frac_pair(n, 0.995, 2 * 10 ** 6)               # |h| beyond T_CAP
    assert frac_pair(np.zeros(0, dtype=np.int64), 0.9, 5)[0].size == 0


def test_check_height_accepts_numpy_integers():
    assert check_height(np.int64(3)) == 3 and type(check_height(np.int64(3))) is int
    assert check_height(0) == 0 and check_height(10 ** 6) == 10 ** 6
    for bad in (-1, 2.0, "2", None, 10 ** 6 + 1, np.int64(2 * 10 ** 6)):
        with pytest.raises(PreconditionError, match="H must be"):
            check_height(bad)


def test_check_int_is_one_rule_with_one_message():
    assert check_int(np.int64(3), "d", 1) == 3 and type(check_int(np.uint8(3), "d", 1)) is int
    assert check_int(-7, "a") == -7 and check_int(2 ** 70, "hi") == 2 ** 70
    cases = [((True, "d", 1), "d must be an integer in [1, inf), got True"),
             ((np.True_, "a"), f"a must be an integer in (-inf, inf), got {np.True_!r}"),
             ((2.0, "J", 2, 3), "J must be an integer in [2, 3], got 2.0"),
             ((0, "k", 1, 3), "k must be an integer in [1, 3], got 0"),
             ((4, "k", None, 3), "k must be an integer in (-inf, 3], got 4"),
             ((2 * 10 ** 6, "h", -T_CAP, T_CAP),
              "h must be an integer in [-1e+06, 1e+06], got 2000000")]
    for args, message in cases:
        with pytest.raises(PreconditionError) as exc:
            check_int(*args)
        assert str(exc.value) == message


def test_check_real_is_one_rule_with_one_message():
    assert check_real(Fraction(1, 4), "gamma", 0, 1, "(]") == 0.25
    assert type(check_real(np.float32(0.5), "c")) is float and check_real(3, "x") == 3.0
    assert check_real(1.0, "gamma", 0, 1, "(]") == 1.0 and check_real(2, "x", 2) == 2.0
    cases = [((True, "t"), "t must be a finite real in (-inf, inf), got True"),
             ((0.0, "gamma", 0, 1, "(]"), "gamma must be a finite real in (0, 1], got 0.0"),
             ((1.0, "t", 0, 1, "[)"), "t must be a finite real in [0, 1), got 1.0"),
             ((0, "lam", 0, None, "()"), "lam must be a finite real in (0, inf), got 0"),
             ((1.5, "x", None, 1), "x must be a finite real in (-inf, 1], got 1.5"),
             ((2e6, "t", -T_CAP, T_CAP),
              "t must be a finite real in [-1e+06, 1e+06], got 2000000.0"),
             ((1.0, "c", 1, 28 / 19, "()"),
              f"c must be a finite real in (1, {28 / 19!r}), got 1.0"),
             (("0.5", "x"), "x must be a finite real in (-inf, inf), got '0.5'"),
             ((math.nan, "x", 2), "x must be a finite real in [2, inf), got nan"),
             ((10 ** 400, "x"), f"x must be a finite real in (-inf, inf), got {10 ** 400!r}"),
             ((Fraction(10 ** 400, 3), "x"),
              f"x must be a finite real in (-inf, inf), got {Fraction(10 ** 400, 3)!r}")]
    for args, message in cases:
        with pytest.raises(PreconditionError) as exc:
            check_real(*args)
        assert str(exc.value) == message


def test_integer_arguments_refuse_a_bool_everywhere():
    # True passed as 1 at every one of these sites
    p = Parameters(x=1e4, c=1.1, gamma=0.9, t=0.5, d=3, a=1)
    z = np.ones(8, dtype=complex)
    calls = [lambda: phase_mod1(0.5, True, 1.05),
             lambda: check_height(True),
             lambda: sums.gamma11_sum(1e4, True, p),
             lambda: sums.gamma10_sum(1e4, 1, p, True),
             lambda: sums.weighted_lambda_expsum(1e4, True, p, 1),
             lambda: sieve.is_ps_prime(True, 0.9),
             lambda: sieve.primes_in_ap(100, True, 0),
             lambda: sieve.primes_in_ap(100, 3, True),
             lambda: sieve.iter_primes_in_ap(False, 100, 3, 1),
             lambda: sieve.iter_primes_in_ap(0, True, 1, 0),
             lambda: Parameters(x=10.0, c=1.1, gamma=0.9, d=True),
             lambda: Parameters(x=10.0, c=1.1, gamma=0.9, a=True),
             lambda: heathbrown.hb_identity_value(True, 2, 4),
             lambda: heathbrown.DyadicBox(True, 1, 4, 8),
             lambda: heathbrown.DyadicBox(1, 1, 1, True),
             lambda: vaaler.build_coefficients(True),
             lambda: vdc.square_out_check(z, True)]
    for call in calls:
        with pytest.raises(PreconditionError, match="must be an integer in"):
            call()


def test_check_n_refuses_a_bool_array():
    for call in (check_n, lambda n: phase_mod1_vec(0.5, n, 1.05),
                 lambda n: sieve.ps_floor(n, 0.9)):
        with pytest.raises(PreconditionError, match="integer array"):
            call(np.array([True, True]))


def test_numpy_integers_are_stored_as_int():
    p = Parameters(x=10.0, c=1.1, gamma=0.9, d=np.int64(3), a=np.int32(2))
    assert (p.d, p.a) == (3, 2) and type(p.d) is int and type(p.a) is int
    assert p == Parameters(x=10.0, c=1.1, gamma=0.9, d=3, a=2)
    box = heathbrown.DyadicBox(np.int64(50), np.int64(100), np.uint16(50), 100)
    assert box == heathbrown.DyadicBox(50, 100, 50, 100)
    assert all(type(v) is int for v in (box.M, box.M1, box.L, box.L1))
    assert heathbrown.hb_identity_value(np.int64(12), np.int64(2), 4) == \
        heathbrown.hb_identity_value(12, 2, 4)
    assert phase_mod1(0.5, np.int64(7), 1.05) == phase_mod1(0.5, 7, 1.05)


# ---------------------------------------------------------------------------
# stored fixture

def test_phase_fixture_verifies_clean():
    n_rows, worst, failures = verify_phase_fixture()
    assert n_rows >= 50
    assert failures == []
    assert worst <= 1e-9


def test_phase_fixture_missing_file():
    with pytest.raises(OSError):
        verify_phase_fixture("no_such_fixture.csv")


def test_phase_fixture_reports_a_row_over_tolerance(tmp_path):
    p = tmp_path / "off.csv"
    p.write_text("t,n,c,frac\n0.5,2,1.0,0.25\n0.5,3,1.0,0.5\n")      # {0.5 * 2} = 0
    assert verify_phase_fixture(str(p)) == (2, 0.25, [(0.5, 2, 1.0, 0.25, 0.0)])


def test_phase_fixture_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# only a comment\nt,n,c,frac\n")
    with pytest.raises(PreconditionError):
        verify_phase_fixture(str(p))


# ---------------------------------------------------------------------------
# written bytes

def test_writers_pin_every_output_byte(tmp_path):
    # hand-built reports, no kernel values: '# ' comment lines end in \n, the
    # csv.writer rows in \r\n, floats are repr and Fractions str; the findings
    # JSON has indent 2 and a final newline
    def written(write):
        path = tmp_path / "out"
        write(str(path))
        return path.read_bytes()

    trend = sums.TrendReport([
        sums.TheoremReport(complex(0.1, -2e-17), complex(-2.5, 0.0), 0j, 1e5, None, 0.5),
        sums.TheoremReport(complex(1 / 3, 0.0), 0j, complex(-1.0, 0.0), 1e6, None, 0.5)], None)
    assert written(lambda p: trend.write_csv(p, header_comments=("c=1.05", "out="))) == (
        b"# c=1.05\n# out=\n"
        b"x,re_lhs,im_lhs,re_main,im_main,abs_err,ratio_err_main,log_err_over_log_x\r\n"
        b"100000.0,0.1,-2e-17,-2.5,0.0,0.0,0.0,-inf\r\n"
        b"1000000.0,0.3333333333333333,0.0,0.0,0.0,1.0,inf,0.0\r\n")

    sched = sums.Gamma5Schedule([8.0, 4.5], [complex(3.0, 4.0), -0.5j], [1.25, 2e-300])
    assert written(sched.write_csv) == (
        b"x,abs_gamma5,claimed_bound\r\n8.0,5.0,1.25\r\n4.5,0.5,2e-300\r\n")

    F = Fraction
    region = exponents.RegionReport(F(1, 2), True, "", [
        exponents.RegionRow(F(21, 20), F(199, 200), True, F(3, 4), ("A", "B2"), False, True),
        exponents.RegionRow(F(1), F(1), False, F(-2), ("C",), True, False)], [], [], [])
    assert written(lambda p: region.write_csv(p, header_comments=("grid-step=1/2",))) == (
        b"# grid-step=1/2\n"
        b"c,gamma,cond_1_3,dominant_value_num,dominant_value_den,dominant_label,matches_claim\r\n"
        b"21/20,199/200,1,3,4,A;B2,0\r\n1,1,0,-2,1,C,1\r\n")

    rows = [(1e6, 1.1, 12.5, 0.1, 3e20, 1, 2, "type I")]
    assert written(lambda p: heathbrown.write_classification_csv(p, rows)) == (
        b"x,c,U,V,Z,L_lo,L_hi,kind\r\n1000000.0,1.1,12.5,0.1,3e+20,1,2,type I\r\n")

    catalogue = exponents.CatalogueReport(None, [("R1", "lemma", "x^(1/2)")], [], [], [],
                                          [], ["a note"])
    assert written(lambda p: write_json(p, catalogue.findings())) == (
        b'[\n  {\n    "term": "x^(1/2)",\n    "status": "matched",\n'
        b'    "reference": "R1",\n    "via": "lemma",\n    "witness_point": null\n  },\n'
        b'  {\n    "term": null,\n    "status": "note",\n    "detail": "a note",\n'
        b'    "witness_point": null\n  }\n]\n')
