"""End-to-end runs of the batch front end, in process through cli.main."""

import csv
import json
from fractions import Fraction

import pytest

from psexp import cli, exponents, heathbrown, sieve, sums, vaaler, vdc
from psexp.cli import RunConfig
from psexp.errors import PreconditionError
from psexp.numerics import Parameters


def run(argv):
    return cli.main(argv)


def split_csv(path):
    """(comment_lines, header, data_rows) of a #-prefixed CSV file."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("# ")]
    return comments, body[0], body[1:]


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_runconfig_roundtrip():
    cfg = RunConfig({"command": "theorem", "x": "5000"})
    text = cfg.serialize()
    assert len(text.splitlines()) == 15
    assert text.splitlines()[0] == "command=theorem"
    assert RunConfig.parse(text).serialize() == text


def test_runconfig_rejects_unknown_key():
    with pytest.raises(PreconditionError):
        RunConfig({"bogus": "1"})
    with pytest.raises(PreconditionError):
        RunConfig.parse("bogus=1\n")
    with pytest.raises(AttributeError, match="bogus"):
        RunConfig({}).bogus                  # a typed view only for a key
    assert not hasattr(RunConfig({}), "no_such_key")


def test_runconfig_parse_is_lenient_about_layout():
    cfg = RunConfig.parse("# a note\n\n  x = 250 \n")
    assert cfg.values["x"] == "250"
    with pytest.raises(PreconditionError, match="line 1"):
        RunConfig.parse("not a key value pair\n")


def test_schedule_forms():
    assert RunConfig({"x-schedule": "1e3,1e4"}).schedule() == [1000.0, 10000.0]
    geo = RunConfig({"x-schedule": "1e3:1e5:10"}).schedule()
    assert geo == pytest.approx([1e3, 1e4, 1e5], rel=1e-12)
    # two-part form defaults to half-decade steps
    half = RunConfig({"x-schedule": "1e3:1e4"}).schedule()
    assert len(half) == 3
    assert half[1] == pytest.approx(10.0 ** 3.5, rel=1e-12)
    assert RunConfig({}).schedule() is None
    with pytest.raises(PreconditionError):
        RunConfig({"x-schedule": "1:2:3:4"}).schedule()


def test_every_config_key_is_set_by_its_flag():
    parser = cli.build_parser()
    for key in cli._FIELDS[1:]:
        flag = [f"--{key}"] if key == "allow-outside" else [f"--{key}", "v"]
        cfg = cli.config_from_args(parser.parse_args(["theorem", *flag]))
        want = "1" if key == "allow-outside" else "v"
        assert cfg.values == {**cli._DEFAULTS, "command": "theorem", key: want}, key
    assert RunConfig({"command": "theorem"}).serialize() == (
        "command=theorem\nc=1.05\ngamma=0.995\nt=0.5\nd=3\na=1\nx=10000\n"
        "x-schedule=\nH=100\nout=\nseed=101\ngrid-step=1/200\ntol=1e-9\n"
        "allow-outside=0\nfixture=\n")


def test_allow_outside_parsing():
    for raw, want in [("0", False), ("", False), ("false", False),
                      ("no", False), ("1", True), ("yes", True)]:
        assert RunConfig({"allow-outside": raw}).allow_outside is want


# ---------------------------------------------------------------------------
# theorem
# ---------------------------------------------------------------------------

def test_theorem_writes_csv_and_reruns_byte_identical(tmp_path):
    out = tmp_path / "trend.csv"
    assert run(["theorem", "--out", str(out)]) == 0
    comments, header, rows = split_csv(out)
    assert len(comments) == 15
    assert comments[0] == "# command=theorem"
    assert header == ("x,re_lhs,im_lhs,re_main,im_main,abs_err,"
                      "ratio_err_main,log_err_over_log_x")
    assert len(rows) == 1          # no schedule: single default x
    assert rows[0].split(",")[0] == "10000.0"
    first = out.read_bytes()
    assert run(["theorem", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_theorem_schedule_rows(tmp_path):
    out = tmp_path / "trend.csv"
    assert run(["theorem", "--x-schedule", "1e3,1e4", "--out", str(out)]) == 0
    _, _, rows = split_csv(out)
    assert [r.split(",")[0] for r in rows] == ["1000.0", "10000.0"]


def test_theorem_at_a_prime_x_exits_0(tmp_path):
    # 10009 is a prime = 1 (mod 3): the last term of pi(x) sits at x itself
    out = tmp_path / "trend.csv"
    assert run(["theorem", "--x", "10009", "--out", str(out)]) == 0


def test_theorem_schedule_below_two_exits_2(tmp_path, capsys):
    out = tmp_path / "trend.csv"
    assert run(["theorem", "--x-schedule", "1,10", "--out", str(out)]) == 2
    assert "schedule x must be a finite real in [2, inf), got 1.0" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(PreconditionError):
        sums.theorem_trend(Parameters(x=10.0, c=1.05, gamma=0.995), [1.0, 10.0])


@pytest.mark.parametrize("schedule", ["1e5,inf", "1e3:inf", "1e5,nan"])
def test_theorem_nonfinite_schedule_exits_2(tmp_path, capsys, schedule):
    out = tmp_path / "trend.csv"
    for command in ("theorem", "gamma5"):
        assert run([command, "--x-schedule", schedule, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("theorem", "x-schedule", "abc"), ("theorem", "x-schedule", "1e5:"),
    ("theorem", "c", "abc"), ("theorem", "c", "1/0"), ("theorem", "d", "1.5"),
    ("vaaler", "H", "1e3"), ("vaaler", "seed", "x"), ("vaaler", "seed", "-1"),
    ("region", "grid-step", "x"), ("hb", "x", "inf"), ("hb", "x", "nan"),
    ("hb", "x", "-5"), ("vaaler", "tol", "nan"), ("vaaler", "tol", "-1")])
def test_malformed_value_exits_2(tmp_path, capsys, command, key, value):
    # the same conversion serves a flag and a config-file line
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key}={value}\n")
    out = tmp_path / "out.csv"
    for argv in ([f"--{key}", value], ["--config", str(cfgfile)]):
        assert run([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_theorem_beyond_the_sieve_cap_exits_2(tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the sieve allocated past its cap")

    monkeypatch.setattr(sieve.np, "ones", no_allocation)
    out = tmp_path / "trend.csv"
    for command in ("theorem", "gamma5"):
        assert run([command, "--x", "1e30", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


def test_theorem_unsorted_schedule_keeps_its_order(tmp_path):
    out = tmp_path / "trend.csv"
    assert run(["theorem", "--x-schedule", "1e4,1e3,1e4", "--out", str(out)]) == 0
    _, _, rows = split_csv(out)
    assert [r.split(",")[0] for r in rows] == ["10000.0", "1000.0", "10000.0"]
    assert rows[0] == rows[2]
    single = tmp_path / "single.csv"
    assert run(["theorem", "--x", "1e3", "--out", str(single)]) == 0
    assert split_csv(single)[2] == [rows[1]]     # bitwise the one-point row


def test_theorem_outside_region_exits_2(tmp_path, capsys):
    out = tmp_path / "trend.csv"
    code = run(["theorem", "--c", "1.3", "--gamma", "0.8", "--out", str(out)])
    assert code == 2
    assert "--allow-outside" in capsys.readouterr().err
    assert not out.exists()        # refused before writing anything
    code = run(["theorem", "--c", "1.3", "--gamma", "0.8", "--x", "2000",
                "--allow-outside", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("c=1.2\ngamma=0.99\nx=5000\n")
    out = tmp_path / "trend.csv"
    code = run(["theorem", "--config", str(cfgfile), "--x", "3000",
                "--out", str(out)])
    assert code == 0
    comments, _, rows = split_csv(out)
    assert "# c=1.2" in comments       # file value survives
    assert "# x=3000" in comments      # flag wins over file
    assert rows[0].split(",")[0] == "3000.0"


def test_missing_config_file_exits_1(tmp_path):
    assert run(["theorem", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_unknown_config_key_exits_2(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("bogus=1\n")
    assert run(["theorem", "--config", str(cfgfile)]) == 2


# ---------------------------------------------------------------------------
# region / gamma5 / vaaler / vdc / hb
# ---------------------------------------------------------------------------

def test_region_writes_csv_and_findings(tmp_path):
    out = tmp_path / "region.csv"
    assert run(["region", "--grid-step", "1/40", "--out", str(out)]) == 0
    comments, header, rows = split_csv(out)
    assert len(comments) == 15
    assert header == ("c,gamma,cond_1_3,dominant_value_num,"
                      "dominant_value_den,dominant_label,matches_claim")
    assert len(rows) == 18 * 39
    fpath = tmp_path / "region.findings.json"
    with open(fpath) as fh:
        findings = json.load(fh)
    assert set(findings) == {"region", "catalogue"}
    assert findings["region"] == []
    status = [f["status"] for f in findings["catalogue"]]
    assert status.count("matched") == 33
    assert status.count("dominated") == 1


def test_gamma5_explicit_schedule(tmp_path):
    out = tmp_path / "g5.csv"
    assert run(["gamma5", "--x-schedule", "100,200,400", "--out", str(out)]) == 0
    _, header, rows = split_csv(out)
    assert header == "x,abs_gamma5,claimed_bound"
    assert len(rows) == 3
    p = Parameters(x=1e4, c=Fraction("1.05"), gamma=Fraction("0.995"),
                   t=0.5, d=3, a=1)
    want = abs(sums.gamma5_sum(100.0, p))
    assert float(rows[0].split(",")[1]) == want


def test_gamma5_default_halving_ladder(tmp_path):
    out = tmp_path / "g5.csv"
    assert run(["gamma5", "--x", "4000", "--out", str(out)]) == 0
    _, _, rows = split_csv(out)
    xs = [float(r.split(",")[0]) for r in rows]
    # halves down to the x >= 4 floor
    assert xs == [4000.0 / 2 ** i for i in range(10)]


def test_vaaler_coefficient_dump(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run(["vaaler", "--H", "50", "--out", str(out)]) == 0
    comments, header, rows = split_csv(out)
    assert len(comments) == 15
    assert header == "h,re_a,im_a,b"
    assert len(rows) == 51
    first = rows[0].split(",")
    assert first[0] == "0"
    assert float(first[3]) == 1.0 / 51.0


def test_vaaler_builds_its_coefficients_once(tmp_path, monkeypatch):
    # the grid check and the CSV dump share one build
    calls = []
    build = vaaler.build_coefficients
    monkeypatch.setattr(vaaler, "build_coefficients", lambda H: calls.append(H) or build(H))
    assert run(["vaaler", "--H", "5", "--out", str(tmp_path / "coeffs.csv")]) == 0
    assert calls == [5]


def test_invariant_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a coefficient cap no Vaaler coefficient can meet (a negative --tol is a
    # malformed flag, which exits 2)
    monkeypatch.setattr(vaaler, "A_CAP", 0.0)
    out = tmp_path / "coeffs.csv"
    code = run(["vaaler", "--H", "10", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("invariant failure:")


def _break_theorem(monkeypatch):
    # a negative identity tolerance and a flagged main-term pair: both trend checks fail
    monkeypatch.setattr(sums.DecompositionReport, "tolerance", property(lambda self: -1.0))
    pair = sums.MainTermPair
    monkeypatch.setattr(sums, "MainTermPair", lambda *fields: pair(*fields[:3], True))


def _break_region(monkeypatch):
    # x^1 in the final catalogue beats gamma at every point inside the condition
    cats = exponents.reference_catalogues()
    cats["gamma5_final"].add(exponents.term(1, label="Z1"))
    monkeypatch.setattr(exponents, "reference_catalogues", lambda: cats)


@pytest.mark.parametrize("argv, breaks, messages", [
    (["theorem", "--x", "1000"], _break_theorem,
     ("decomposition gap", "main-term methods differ")),
    (["region", "--grid-step", "1/40"], _break_region, ("dominance failures at",)),
    (["vdc"], lambda mp: mp.setattr(vdc, "RATIO_CEILING", 0.0), ("vdc sweep failed",)),
    (["hb", "--x", "2000"], lambda mp: mp.setattr(heathbrown, "SWEEP_TOL", -1.0),
     ("hb failed",)),
    (["suite"], lambda mp: mp.setattr(vdc, "RATIO_CEILING", 0.0),
     ("suite failures: vdc-ratios",)),
], ids=["theorem", "region", "vdc", "hb", "suite"])
def test_each_command_exits_3_on_its_invariant_failure(tmp_path, capsys, monkeypatch, argv,
                                                        breaks, messages):
    breaks(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant failure:") and all(m in err for m in messages)


def test_an_uncertifiable_floor_exits_1(tmp_path, capsys, monkeypatch):
    # 4^gamma = 2 + 3.2e-10 sits near an integer, so the walk to x = 100 certifies
    # {(3 + 1)^gamma}; a one-step 16-bit ladder cannot
    argv = ["theorem", "--x", "100", "--gamma", "0.5000000001164153", "--d", "1", "--a", "0",
            "--allow-outside", "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 0
    monkeypatch.setattr(sieve, "_CERTIFY_BITS", (16,))
    assert run(argv) == 1
    assert "boundary: cannot certify floor(4^0.5000000001164153)" in capsys.readouterr().err


def test_vdc_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["vdc", "--out", str(out)]) == 0
    _, header, rows = split_csv(out)
    assert header == "label,kind,a,b,lam,bound,empirical,ratio"
    assert len(rows) == 42
    parsed = list(csv.reader(rows))    # labels contain commas, hence quoting
    assert all(len(p) == 8 for p in parsed)
    assert all(float(p[7]) <= 10.0 for p in parsed)


def test_hb_classification_csv(tmp_path):
    out = tmp_path / "map.csv"
    assert run(["hb", "--x", "2000", "--out", str(out)]) == 0
    _, header, rows = split_csv(out)
    assert header == "x,c,U,V,Z,L_lo,L_hi,kind"
    assert len(rows) >= 5
    kinds = {r.split(",")[7] for r in rows}
    assert kinds <= {"type_i", "type_ii", "unclassified"}


def test_suite_reports_a_lab_error_as_a_fail_row(capsys, monkeypatch):
    def refuse(limit):
        raise PreconditionError("refused")

    monkeypatch.setattr(heathbrown, "identity_sweep", refuse)
    assert run(["suite"]) == 3
    out, err = capsys.readouterr()
    fails = [ln for ln in out.splitlines() if "  FAIL  " in ln]
    assert fails == ["hb-identity    FAIL  PreconditionError: refused"]
    assert "suite failures: hb-identity" in err


def test_suite_passes(capsys):
    assert run(["suite"]) == 0
    lines = capsys.readouterr().out.splitlines()
    passes = [ln for ln in lines if "  PASS  " in ln]
    assert len(passes) == 7
    assert not any("  FAIL  " in ln for ln in lines)
