import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinchext
from pinchext import DomainError, RingFunction, cli, gallery
from pinchext.cli import main


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


TEST_LINES = """
[function]
name = remark1
epsilon = 0.3

[curves]
generator = scaled_monomial
power = 1
indices = 1:5

[analysis]
grid = 128
n_max = 10
"""

HORIZONTAL = """
[function]
name = remark1
epsilon = 0.3

[curves]
curve_1 = 0.2,0

[analysis]
grid = 128
"""

LADDER_EXP = """
[function]
name = remark1
epsilon = 0.3

[curves]
generator = scaled_monomial
power = 1
indices = 1:12

[analysis]
grid = 64
depth = 4
n_max = 10
"""

# an extended-precision Laurent ring: the coefficient file is written by
# write_laurent_terms beside the config
LADDER_LAURENT = LADDER_EXP.replace("name = remark1",
                                    "name = laurent\ncoeffs = poly.json")
LADDER_TERMS = [{"n": 1, "l": -1, "c": [1, 0]}, {"n": 2, "l": -2, "c": [0.5, 0]}]

# example 1 on the lines phi_k = lam / (2k)
LADDER_EXAMPLE1 = """
[function]
name = example1
epsilon = 0.3

[curves]
generator = scaled_monomial
scale = 0.5
indices = 1:8

[analysis]
grid = 64
depth = 3
n_max = 16
"""


def write_laurent_terms(tmp_path, terms=LADDER_TERMS):
    (tmp_path / "poly.json").write_text(json.dumps({"terms": terms}))


VALIDATE_GEOMETRIC = """
[function]
name = remark1

[curves]
generator = geometric_power
scale = 0.6666666666666666
indices = 1:12

[analysis]
n_bound = 10
"""

VALIDATE_LINES = """
[function]
name = remark1

[curves]
generator = scaled_monomial
power = 1
indices = 1:6

[analysis]
n_bound = 10
probes = 0,0 0.5,0
"""


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_cmd_test_holomorphic_curves(tmp_path):
    cfg = write_config(tmp_path, TEST_LINES)
    code = main(["test", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "test_report.json")
    assert len(report["curves"]) == 5
    assert all(c["kind"] == "holomorphic" for c in report["curves"])


def test_cmd_test_not_extendable(tmp_path):
    cfg = write_config(tmp_path, HORIZONTAL)
    code = main(["test", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    report = read_json(tmp_path, "test_report.json")
    assert report["curves"][0]["kind"] == "not-extendable"


def test_missing_config_is_usage_error(tmp_path):
    assert main(["test", "--config", str(tmp_path / "absent.ini")]) == 1


def test_argparse_usage_error_exits_1(capsys):
    # argparse's own exit status 2 would read as "analysis negative"
    assert main(["test"]) == 1
    assert "--config" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: pinchext" in capsys.readouterr().out


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one argparse parser serves every call in a process: a second round of
    # the same commands, a usage error and --help included, prints and
    # returns exactly what the first round did
    validate = write_config(tmp_path, VALIDATE_LINES, "validate.ini")
    test = write_config(tmp_path, TEST_LINES, "test.ini")
    ladder = write_config(tmp_path, LADDER_EXP, "ladder.ini")
    calls = [["validate", "--config", validate, "--format", "csv"],
             ["test", "--config", test],
             ["gallery", "remark1", "--lam", "0.5,0", "--z", "0.1,0"],
             ["ladder", "--config", ladder],
             ["validate", "--format", "csv"],
             ["--help"]]
    rounds = []
    for _ in range(2):
        seen = []
        for argv in calls:
            code = main(argv)
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        rounds.append(seen)
    assert [code for code, _, _ in rounds[0]] == [0, 0, 0, 0, 1, 0]
    assert "--config" in rounds[0][4][2] and "usage: pinchext" in rounds[0][5][1]
    assert rounds[1] == rounds[0]
    assert cli._build_parser() is cli._build_parser()


def test_ladder_has_no_format_option(tmp_path):
    # the ladder writes JSON and a CSV profile whatever --format says, so
    # the option is not offered
    cfg = write_config(tmp_path, LADDER_EXP)
    assert main(["ladder", "--config", cfg, "--format", "csv"]) == 1


@pytest.mark.parametrize("generator", ["scaled_monomial", "horizontal"])
def test_generator_index_below_1_is_config_error(tmp_path, capsys, generator):
    # index 0 would divide the scale by zero
    cfg = write_config(tmp_path, TEST_LINES.replace(
        "scaled_monomial", generator).replace("indices = 1:5", "indices = 0:3"))
    assert main(["test", "--config", cfg]) == 1
    assert "error: curve indices must start at 1" in capsys.readouterr().err


def test_generator_negative_power_is_config_error(tmp_path, capsys):
    # [0j] * -1 is empty: the curves would silently be constants
    cfg = write_config(tmp_path, TEST_LINES.replace("power = 1", "power = -1"))
    assert main(["test", "--config", cfg]) == 1
    assert "error: power must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("n_max", [0, 17])
def test_n_max_out_of_range_is_config_error(tmp_path, capsys, n_max):
    # every restriction here is holomorphic, so detect_rational, which
    # checks the same range, is never reached
    cfg = write_config(tmp_path, TEST_LINES.replace("n_max = 10",
                                                    f"n_max = {n_max}"))
    assert main(["test", "--config", cfg]) == 1
    assert (f"error: n_max must be in 1..16, got {n_max}"
            in capsys.readouterr().err)


def test_negative_n_bound_is_config_error(tmp_path, capsys):
    # a negative winding bound would make every sequence "not a test
    # sequence" (exit 2) instead of a refused config
    cfg = write_config(tmp_path, VALIDATE_LINES.replace("n_bound = 10",
                                                        "n_bound = -1"))
    assert main(["validate", "--config", cfg]) == 1
    assert (capsys.readouterr().err
            == "error: n_bound must be at least 0, got -1\n")
    cfg = write_config(tmp_path, VALIDATE_LINES.replace("n_bound = 10",
                                                        "n_bound = 0"))
    assert cli.parse_config(cfg).n_bound == 0


def test_depth_cap(tmp_path):
    cfg = write_config(tmp_path, LADDER_EXP.replace("depth = 4", "depth = 30"))
    assert main(["ladder", "--config", cfg]) == 1


def test_no_curves_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[function]\nname = remark1\n")
    for command in ("test", "ladder", "validate"):
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: no curves configured\n"


def test_config_defaults_without_analysis_or_output(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, HORIZONTAL.replace(
        "[analysis]\ngrid = 128\n", "")))
    assert (cfg.grid, cfg.depth, cfg.n_max, cfg.n_bound) == (256, 6, 10, 10)
    assert cfg.probes == [0j] and cfg.ray_angle == 0.0


def test_default_section_supplies_analysis_keys(tmp_path):
    # configparser's [DEFAULT] reaches [analysis] even where the config
    # has no such section
    cfg = cli.parse_config(write_config(tmp_path, "[DEFAULT]\ngrid = 128\n"
                                        + HORIZONTAL.replace(
                                            "[analysis]\ngrid = 128\n", "")))
    assert cfg.grid == 128


@pytest.mark.parametrize("line, message", [
    ("grid = abc", "invalid literal for int() with base 10: 'abc'"),
    ("n_bound = x", "invalid literal for int() with base 10: 'x'"),
    ("[output]\nray_angle = x", "could not convert string to float: 'x'"),
    # a non-finite angle would write an all-nan profile CSV, and a
    # non-finite probe would be reported as a failed probe
    ("[output]\nray_angle = nan", "ray_angle must be finite, got nan"),
    ("[output]\nray_angle = -inf", "ray_angle must be finite, got -inf"),
    ("probes = 0,0 nan,0", "probe point nan,0 is not finite"),
    ("probes = 0,inf", "probe point 0,inf is not finite"),
    # validate would report a probe off the disc as ok
    ("probes = 0,0 1e308,1e308",
     "probe point 1e+308,1e+308 lies outside the closed unit disc"),
    ("probes = 0.8,0.6000001",
     "probe point 0.8,0.6 lies outside the closed unit disc"),
])
def test_malformed_number_is_config_error(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, HORIZONTAL.replace("grid = 128", line))
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


LAURENT = HORIZONTAL.replace("name = remark1",
                             "name = laurent\ncoeffs = poly.json")
GENERATED = HORIZONTAL.replace("curve_1 = 0.2,0",
                               "generator = scaled_monomial\nindices = 1:5")


@pytest.mark.parametrize("body, terms, message", [
    (HORIZONTAL.replace("grid = 128", "probes = 0,0 0.5;0"), None,
     "cannot parse complex pair '0.5;0'"),
    (GENERATED.replace("1:5", "1-5"), None,
     "cannot parse index range '1-5'"),
    (GENERATED.replace("scaled_monomial", "spiral"), None,
     "unknown curve generator 'spiral'"),
    (HORIZONTAL + "grid = 64\n", None,
     "cannot parse config: While reading from {ini!r} [line 11]: "
     "option 'grid' in section 'analysis' already exists"),
    (HORIZONTAL.replace("[function]", "[ring]"), None,
     "missing [function] section"),
    (HORIZONTAL.replace("name = remark1", "kind = remark1"), None,
     "missing function.name"),
    (LAURENT.replace("coeffs = poly.json\n", ""), None,
     "function.name = laurent requires function.coeffs"),
    (LAURENT.replace("poly.json", "nowhere.json"), None,
     "coefficient file {dir}/nowhere.json does not exist"),
    (HORIZONTAL.replace("remark1", "remark2"), None,
     "unknown function 'remark2'"),
    (HORIZONTAL.replace("grid = 128", "grid = 100"), None,
     "grid must be a power of two >= 16, got 100"),
    (HORIZONTAL.replace("grid = 128", "probes_file = nowhere.csv"), None,
     "probe file {dir}/nowhere.csv does not exist"),
    (LAURENT, [{"n": -1, "l": 0, "c": [1.0, 0.0]}],
     "z-degrees must be nonnegative"),
    # json reads Infinity as a float, so the ring must refuse it
    (LAURENT, [{"n": 1, "l": -1, "c": [math.inf, 0.0]}],
     "term 0: coefficient (inf+0j) is not finite"),
], ids=["pair", "indices", "generator", "ini", "no-function", "no-name",
        "no-coeffs", "no-coeff-file", "function", "grid", "no-probe-file",
        "z-degree", "non-finite-term"])
def test_config_refusal_is_config_error(tmp_path, capsys, body, terms,
                                        message):
    (tmp_path / "poly.json").write_text(json.dumps({"terms": terms or []}))
    cfg = write_config(tmp_path, body)
    assert main(["test", "--config", cfg]) == 1
    text = message.format(dir=tmp_path.resolve(), ini=str(Path(cfg)))
    assert capsys.readouterr() == ("", f"error: {text}\n")


def _overflow_config(tmp_path, terms):
    (tmp_path / "poly.json").write_text(json.dumps({"terms": terms}))
    return write_config(tmp_path, LAURENT.replace(
        "curve_1 = 0.2,0", "curve_1 = 0,0 1,0\ncurve_2 = 0,0 0.5,0\n"
        "curve_3 = 0,0 0.25,0").replace("grid = 128", "grid = 64\ndepth = 1"))


def test_laurent_overflow_is_non_convergence(tmp_path, capsys):
    # two finite terms whose sum overflows on the curve z = lam: the float
    # evaluator raises FloatingPointError, as the gallery kernels do
    term = {"n": 1, "l": -1, "c": [1e308, 0.0]}
    cfg = _overflow_config(tmp_path, [term, term])
    for command in ("test", "ladder"):
        assert main([command, "--config", cfg]) == 3
        assert capsys.readouterr() == (
            "", "non-convergence: overflow encountered in add\n")


def test_fft_overflow_is_non_convergence(tmp_path, capsys):
    # one such term: finite values of 1e308 whose sum overflows in the FFT
    # of the extension test, which raises the same error instead of
    # printing numpy's warnings and refusing the non-finite coefficients
    cfg = _overflow_config(tmp_path, [{"n": 1, "l": -1, "c": [1e308, 0.0]}])
    for command in ("test", "ladder"):
        assert main([command, "--config", cfg]) == 3
        assert capsys.readouterr() == (
            "", "non-convergence: overflow encountered in fft\n")


def test_holo_tol_is_fixed(tmp_path, capsys):
    # test and ladder share the threshold 1e-8; only that value is accepted
    cfg = write_config(tmp_path, HORIZONTAL + "holo_tol = 1e-8\n")
    assert cli.parse_config(cfg).grid == 128
    cfg = write_config(tmp_path, HORIZONTAL + "holo_tol = 1e-6\n")
    assert main(["test", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: holo_tol is not configurable: test and ladder use the fixed "
        "holomorphy threshold 1e-08, got 1e-06\n")


def test_bad_epsilon(tmp_path):
    cfg = write_config(tmp_path, TEST_LINES.replace("epsilon = 0.3",
                                                    "epsilon = 0.8"))
    assert main(["test", "--config", cfg]) == 1


def test_cmd_ladder_exponential(tmp_path):
    cfg = write_config(tmp_path, LADDER_EXP)
    code = main(["ladder", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "ladder_report.json")
    pinches = report["pinch"]["pinches"]
    assert len(pinches) == 1
    assert pinches[0]["order"] == 1
    assert abs(pinches[0]["a"][0]) < 1e-8
    assert report["bound_violations"] == []
    csv_text = (tmp_path / "ladder_profiles.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,r,abs_An"
    assert len(lines) == 1 + 5 * 48


def test_cmd_ladder_polynomial(tmp_path):
    coeffs = tmp_path / "poly.json"
    coeffs.write_text(json.dumps({"terms": [{"n": 2, "l": 1, "c": [1, 0]}]}))
    cfg = write_config(tmp_path, f"""
[function]
name = laurent
coeffs = {coeffs.name}
epsilon = 0.3

[curves]
generator = scaled_monomial
power = 1
indices = 1:6

[analysis]
grid = 64
depth = 3
""")
    code = main(["ladder", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "ladder_report.json")
    assert report["pinch"]["pinches"] == []
    assert report["pinch"]["c"] == 1.0


def test_cmd_ladder_example1_extended_precision(tmp_path):
    # example 1 on the lines phi_k = lam / (2k): the extended-precision path
    # through Example1.eval_block.  The exact z-coefficients of the series
    # are A_0 = 0, A_1 = -2/243 and A_2 = (1/81 + 8 * 3^-35) / lam; A_3 is
    # about 1.5e-15 at |lam| = 0.7, near the 1e-12 share of the data scale
    # below which the ladder cleans a coefficient to zero
    cfg = write_config(tmp_path, LADDER_EXAMPLE1)
    assert main(["ladder", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path, "ladder_report.json")
    pinches = report["pinch"]["pinches"]
    assert [(p["a"], p["order"]) for p in pinches] == [([0.0, 0.0], 1)]
    entries = [pinchext.LadderEntry(
        n=e["n"], rational=pinchext.RationalPart.from_dict(e["rational"]),
        tail=tuple(complex(re, im) for re, im in e["tail"]))
        for e in report["ladder"]["entries"]]
    assert [e.n for e in entries] == [0, 1, 2, 3]
    lam = pinchext.unit_circle_grid(32, 0.7)
    exact = [np.zeros_like(lam), np.full_like(lam, -2 / 243),
             (1 / 81 + 8 * 3.0 ** -35) / lam]
    grid = pinchext.unit_circle_grid(64)
    scale = max(np.abs(gallery.example1_eval(grid, grid / (2 * k))).max()
                for k in range(1, 9))
    for n in range(3):
        np.testing.assert_allclose(entries[n](lam), exact[n], rtol=1e-12, atol=0)
    assert np.abs(entries[3](lam)).max() <= 1e-12 * scale


@pytest.mark.parametrize("term", [{"n": 2, "l": 1, "c": [1.0]},
                                  {"n": None, "l": 1, "c": [1, 0]}])
def test_malformed_laurent_term_is_config_error(tmp_path, capsys, term):
    coeffs = tmp_path / "poly.json"
    coeffs.write_text(json.dumps({"terms": [term]}))
    cfg = write_config(tmp_path, HORIZONTAL.replace(
        "name = remark1", f"name = laurent\ncoeffs = {coeffs.name}"))
    assert main(["test", "--config", cfg]) == 1
    # RingFunction.from_laurent refuses a degree that is not an integer
    assert capsys.readouterr().err.startswith(
        "error: term 0: degree n = None " if term["n"] is None
        else "error: malformed coefficient file: ")


LOOSE_TERM = {"n": 1.5, "l": 1, "c": [1, 0, 7]}


@pytest.mark.parametrize("term, message", [
    # int() would truncate 1.5 (RingFunction.from_laurent refuses it), and
    # the third entry of c would be ignored (the coefficient file's check)
    (dict(LOOSE_TERM, c=[1, 0]), "term 0: degree n = 1.5 is not an integer"),
    (dict(LOOSE_TERM, n=1), "term 0: c = [1, 0, 7] is not a pair [re, im]")])
def test_loose_laurent_term_is_config_error(tmp_path, capsys, term, message):
    coeffs = tmp_path / "poly.json"
    coeffs.write_text(json.dumps({"terms": [term]}))
    cfg = write_config(tmp_path, HORIZONTAL.replace(
        "name = remark1", f"name = laurent\ncoeffs = {coeffs.name}"))
    assert main(["test", "--config", cfg]) == 1
    source = "" if "degree" in message else "malformed coefficient file: "
    assert capsys.readouterr().err == f"error: {source}{message}\n"


def test_integral_float_laurent_degree_is_accepted():
    term = {"n": 1.0, "l": -1.0, "c": [0.5, 2]}
    assert cli._laurent_term(0, term) == (1.0, -1.0, 0.5 + 2j)
    ring = RingFunction.from_laurent([cli._laurent_term(0, term)], 0.3)
    assert ring.laurent == ((1, -1, 0.5 + 2j),)
    assert all(type(d) is int for d in ring.laurent[0][:2])


def test_empty_probes_is_config_error(tmp_path, capsys):
    # zero probes would make validate report all_probes_ok over nothing
    cfg = write_config(tmp_path, VALIDATE_LINES.replace(
        "probes = 0,0 0.5,0", "probes ="))
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: no probe points: ")


def test_cmd_validate_geometric_not_test(tmp_path):
    cfg = write_config(tmp_path, VALIDATE_GEOMETRIC)
    code = main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    report = read_json(tmp_path, "validate_report.json")
    assert report["test_sequence"]["is_test"] is False
    assert report["test_sequence"]["windings"] == list(range(1, 13))


def test_cmd_validate_lines(tmp_path):
    cfg = write_config(tmp_path, VALIDATE_LINES)
    code = main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "validate_report.json")
    assert report["test_sequence"]["is_test"] is True
    probes = report["general_position"]["probes"]
    assert probes[0]["ok"] is False   # all zeros at the origin probe
    assert probes[1]["ok"] is True


def test_cmd_validate_coincident_curves_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[function]
name = remark1

[curves]
curve_1 = -0.1,0 0.7,0
curve_2 = 0,0 0.5,0
curve_3 = 0,0 0.5,0
""")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "curves 1 and 2 coincide" in capsys.readouterr().err


def test_subnormal_curve_coefficient_is_config_error(tmp_path, capsys):
    # the zeros of curve_2 are not computable in floating point; the
    # config is refused naming the curve, before any warning
    cfg = write_config(tmp_path, """
[function]
name = remark1

[curves]
curve_1 = -0.1,0 0.7,0
curve_2 = 0,3.4e-308 0,2.2e-311
curve_3 = 0,0 0.5,0
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: invalid curve: curve_2: highest kept coefficient" in err


@pytest.mark.parametrize("command", ["test", "ladder"])
def test_restriction_errors_name_the_curve(tmp_path, capsys, command):
    # curve_2 is either 0.9 lam^23, which needs more than 64 points, or
    # c (1 + e^{-i pi/256} lam^31) with 2|c| = 1 + 1e-6: the 256 points of
    # the into-disc check sample at most 0.99998, but that times
    # sec(31 pi / 512) cannot bound the sup by 1, so parsing refuses it
    high = " ".join(["0,0"] * 23) + " 0.9,0"
    c0 = (1 + 1e-6) / 2
    c31 = c0 * cmath.exp(-1j * math.pi / 256)
    peaked = " ".join([f"{c0!r},0"] + ["0,0"] * 30
                      + [f"{c31.real!r},{c31.imag!r}"])
    for curve, grid, message in (
            (high, 64, "curve 1: effective bandwidth"),
            (peaked, 1024, "invalid curve: curve_2: curve has sampled sup "
                           "0.999982 on 256 circle points")):
        cfg = write_config(tmp_path, f"""
[function]
name = remark1

[curves]
curve_1 = 0,0 0.5,0
curve_2 = {curve}
curve_3 = 0,0 0.25,0

[analysis]
grid = {grid}
depth = 1
""")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_curve_leaving_disc_between_grid_points_is_config_error(tmp_path,
                                                                capsys):
    # degree 128 with sup 1 + 1e-7 at lam^128 = 1, which 256 circle points
    # miss (they sample 0.7071); the into-disc check samples 2048 points
    peaked = " ".join(["0.50000005,0"] + ["0,0"] * 127 + ["0,0.50000005"])
    cfg = write_config(tmp_path, f"""
[function]
name = remark1

[curves]
curve_1 = 0,0 0.5,0
curve_2 = {peaked}
curve_3 = 0,0 0.25,0
""")
    assert main(["test", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("error: invalid curve: curve_2: curve has sup 1.000000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["test", "ladder"])
def test_evaluator_domain_error_names_the_curve(tmp_path, capsys,
                                                monkeypatch, command):
    # a ring whose evaluator refuses z beyond 0.4 fails on curve_2 alike
    # in both commands
    def evaluator(lam, z):
        if np.abs(z).max() > 0.4:
            raise DomainError("z outside the evaluator's range")
        return np.exp(z / lam)

    monkeypatch.setattr(cli, "_build_ring",
                        lambda cfg: RingFunction(evaluator, 0.3))
    cfg = write_config(tmp_path, """
[function]
name = remark1

[curves]
curve_1 = 0,0 0.1,0
curve_2 = 0,0 0.5,0
curve_3 = 0,0 0.05,0

[analysis]
grid = 64
depth = 1
""")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("error: curve 1: z outside the evaluator's range"
            in capsys.readouterr().err)


@pytest.mark.parametrize("ring", ["remark1", "example1"])
def test_non_finite_curve_coefficient_is_config_error(tmp_path, capsys, ring):
    cfg = write_config(tmp_path, f"""
[function]
name = {ring}

[curves]
curve_1 = nan,0 0.5,0
""")
    assert main(["test", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("error: invalid curve: curve_1: coefficient c_0 = (nan+0j) "
            "is not finite") in capsys.readouterr().err


def test_curve_difference_error_names_the_curves(tmp_path, capsys):
    # each curve is valid, but curve_1 - curve_2 has the subnormal top
    # coefficient 1e-309 above a nonzero constant
    cfg = write_config(tmp_path, """
[function]
name = remark1

[curves]
curve_1 = 1e-300,0 3e-308,0
curve_2 = 0,0 2.9e-308,0
curve_3 = 0,0 0.5,0
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert ("error: curves 0 and 1: highest kept coefficient "
            "c_1 = (1e-309+0j)") in err


def test_cli_import_does_not_load_scipy():
    # importing scipy.linalg would cost about half of the CLI start-up
    env = dict(os.environ,
               PYTHONPATH=str(Path(pinchext.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, pinchext.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


_FLOAT_ONLY_RUN = """
import contextlib, io, sys
import numpy as np
from pinchext.cli import main, parse_config
from pinchext.extension import DiscFunction, RingFunction, coefficient_ladder
cfg = sys.argv[1]
parse_config(cfg)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["test", "--config", cfg]),
             main(["validate", "--config", cfg]),
             main(["gallery", "example1", "--lam", "0.9,0.1", "--z", "0.2,0"])]
ring = RingFunction(lambda lam, z: np.exp(z / lam), 0.3)
coefficient_ladder(ring, [DiscFunction([0, 1.0 / k]) for k in range(1, 9)],
                   2, 10, m=64, ladder_tol=1e-5)
print(codes, "mpmath" in sys.modules)
"""


def test_float_only_commands_do_not_load_mpmath(tmp_path):
    # only the extended-precision path needs mpmath; a fresh interpreter
    # is used because this one has imported it already
    cfg = write_config(tmp_path, VALIDATE_LINES.replace(
        "name = remark1", "name = example1").replace(
        "[analysis]", "[analysis]\ngrid = 64"))
    env = dict(os.environ,
               PYTHONPATH=str(Path(pinchext.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", _FLOAT_ONLY_RUN, cfg],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[0, 0, 0] False"


_LADDER_RUN = """
import contextlib, io, sys
from pinchext.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["ladder", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, "mpmath" in sys.modules)
"""


def test_extended_precision_ladders_do_not_load_mpmath(tmp_path):
    # every ring's extended-precision ladder runs in decimal alone, by its
    # block evaluator; a fresh interpreter is used because this one has
    # imported mpmath already
    write_laurent_terms(tmp_path)
    env = dict(os.environ,
               PYTHONPATH=str(Path(pinchext.__file__).resolve().parents[1]))
    for body in (LADDER_EXP, LADDER_LAURENT, LADDER_EXAMPLE1):
        cfg = write_config(tmp_path, body)
        result = subprocess.run(
            [sys.executable, "-c", _LADDER_RUN, cfg, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "0 False"


def test_byte_determinism(tmp_path):
    # every report file of a command has the same bytes on a second run;
    # the validate config's six lines all meet at the origin, so its
    # report carries a triple-intersection record; the ladders cover the
    # block evaluators of remark 1, a Laurent ring and example 1
    write_laurent_terms(tmp_path)
    ladder_files = ["ladder_report.json", "ladder_profiles.csv"]
    runs = [(TEST_LINES, ["test"], ["test_report.json"]),
            (VALIDATE_LINES, ["validate"], ["validate_report.json"]),
            (VALIDATE_LINES, ["validate", "--format", "csv"],
             ["validate_report.json", "validate_report.csv"]),
            (LADDER_EXP, ["ladder"], ladder_files),
            (LADDER_LAURENT, ["ladder"], ladder_files),
            (LADDER_EXAMPLE1, ["ladder"], ladder_files)]
    for idx, (body, command, files) in enumerate(runs):
        cfg = write_config(tmp_path, body, name=f"run{idx}.ini")
        outs = [tmp_path / f"{idx}{copy}" for copy in "ab"]
        for out in outs:
            assert main([*command, "--config", cfg, "--out", str(out)]) == 0
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = read_json(tmp_path / "1a", "validate_report.json")
    assert report["general_position"]["triple_violations"]


def test_gallery_command(tmp_path, capsys):
    assert main(["gallery", "remark1", "--lam", "1,0", "--z", "0,0"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["value"] == [1.0, 0.0]
    assert main(["gallery", "unknown", "--lam", "1,0", "--z", "0,0"]) == 1


@pytest.mark.parametrize("name", ["example1", "example2", "remark1"])
def test_gallery_negative_trunc_is_usage_error(name, capsys):
    # a negative depth would sum no term and print the value 0
    assert main(["gallery", name, "--lam", "0.9,0.1", "--z", "0.3,0",
                 "--trunc", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: trunc must be at least 0, "
                                   "got -3\n")


@pytest.mark.parametrize("name, point, message", [
    # remark 1 would print nan values; examples 1 and 2 would exit 3 as if
    # the series had failed numerically
    ("remark1", ["--lam", "0.5,0", "--z", "nan,0"],
     "z must be finite, got nan,0"),
    ("example1", ["--lam", "0.5,0", "--z", "inf,0"],
     "z must be finite, got inf,0"),
    ("example2", ["--lam", "nan,0", "--z", "0.1,0"],
     "lam must be finite, got nan,0"),
])
def test_gallery_non_finite_point_is_usage_error(name, point, message, capsys):
    assert main(["gallery", name] + point) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_gallery_example2_depth_limit(capsys):
    # P_l carries 1/l!, and 171! is past the float range: depth 171 is the
    # deepest example-2 sum, and a deeper one is refused, not a traceback
    args = ["gallery", "example2", "--lam", "0.5,0", "--z", "0.1,0"]
    assert main(args + ["--trunc", "171"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == [
        gallery.example2_eval(0.5, 0.1, 171).real, 0.0]
    assert main(args + ["--trunc", "172"]) == 1
    assert capsys.readouterr() == (
        "", "error: example 2's series depth must be at most 171 (1/l! of "
        "P_l overflows past l = 170), got 172\n")


@pytest.mark.parametrize("name", ["example1", "example2", "remark1"])
def test_gallery_float_overflow_exit_code(name, capsys):
    # at lambda = 1e-8 doubles overflow (the series terms of examples 1
    # and 2, exp(z/lambda) of remark 1): the evaluator raises
    # FloatingPointError, reported as non-convergence
    assert main(["gallery", name, "--lam", "1e-8,0", "--z", "0.1,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: ") and "encountered" in err


def test_ladder_nonconvergence_exit_code(tmp_path):
    # contracting monomials: the curve zeros at 0 gain multiplicity with k,
    # so the ladder's stabilization check fails -> numerical exit code 3
    cfg = write_config(tmp_path, """
[function]
name = remark1

[curves]
generator = geometric_power
scale = 0.6666666666666666
indices = 1:8

[analysis]
grid = 256
depth = 3
""")
    assert main(["ladder", "--config", cfg]) == 3


def test_ladder_not_extendable_exit_code(tmp_path, capsys):
    # phi_1 == 1 misses the origin, so exp(z/lam) does not extend along
    # it: analysis negative, as for pinchext test, not non-convergence
    cfg = write_config(tmp_path, """
[function]
name = remark1

[curves]
generator = horizontal
indices = 1:8

[analysis]
grid = 64
depth = 3
""")
    assert main(["ladder", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "analysis negative: curve 0 is not extendable with at most 10 "
        "poles; not a valid test-sequence scenario\n")


def test_pole_budget_overflow_exit_code(tmp_path):
    # curves lambda^3 / k share a zero of order 3 at 0: depth 6 needs a
    # pole budget of 6 * 3 > 16, a numerical limit -> exit code 3
    cfg = write_config(tmp_path, LADDER_EXP.replace("power = 1", "power = 3")
                       .replace("depth = 4", "depth = 6")
                       .replace("grid = 64", "grid = 256"))
    assert main(["ladder", "--config", cfg]) == 3


def test_csv_format_outputs(tmp_path):
    cfg = write_config(tmp_path, TEST_LINES)
    code = main(["test", "--config", cfg, "--out", str(tmp_path),
                 "--format", "csv"])
    assert code == 0
    lines = (tmp_path / "test_report.csv").read_text().strip().splitlines()
    assert lines[0] == "curve,kind,residual,poles"
    assert len(lines) == 6
    cfg2 = write_config(tmp_path, VALIDATE_LINES, name="val.ini")
    main(["validate", "--config", cfg2, "--out", str(tmp_path),
          "--format", "csv"])
    lines = (tmp_path / "validate_report.csv").read_text().strip().splitlines()
    assert lines[0] == "curve,winding"
    assert lines[1] == "0,1"


def test_probe_csv_file(tmp_path):
    probe_file = tmp_path / "probes.csv"
    probe_file.write_text("re,im\n0,0\n0.5,0\n")
    cfg = write_config(tmp_path, VALIDATE_LINES.replace(
        "probes = 0,0 0.5,0", "probes_file = probes.csv"))
    code = main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "validate_report.json")
    probes = report["general_position"]["probes"]
    assert [p["probe"] for p in probes] == [[0.0, 0.0], [0.5, 0.0]]


def test_malformed_probe_row_is_config_error(tmp_path, capsys):
    # a bad row fails like a bad inline probe: exit 1, naming file and line
    probe_file = tmp_path / "probes.csv"
    probe_file.write_text("re,im\n0,0\n0.1,x\n")
    cfg = write_config(tmp_path, VALIDATE_LINES.replace(
        "probes = 0,0 0.5,0", "probes_file = probes.csv"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert (f"error: probe file {probe_file.resolve()}: line 3: cannot parse "
            "probe row '0.1,x'") in err


def test_non_finite_probe_row_is_config_error(tmp_path, capsys):
    # validate would report the probe as failed and exit 0; a probe file
    # is held to the rule of the inline probes
    (tmp_path / "probes.csv").write_text("re,im\n0,0\nnan,0\n")
    cfg = write_config(tmp_path, VALIDATE_LINES.replace(
        "probes = 0,0 0.5,0", "probes_file = probes.csv"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (capsys.readouterr().err
            == "error: probe point nan,0 is not finite\n")
    assert not (tmp_path / "validate_report.json").exists()


def test_probe_row_outside_disc_is_config_error(tmp_path, capsys):
    # a probe file is held to the closed unit disc like the inline probes;
    # a probe on the unit circle is accepted
    (tmp_path / "probes.csv").write_text("re,im\n0.6,0.8\n0,-1\n1.5,0\n")
    cfg = write_config(tmp_path, VALIDATE_LINES.replace(
        "probes = 0,0 0.5,0", "probes_file = probes.csv"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (capsys.readouterr().err
            == "error: probe point 1.5,0 lies outside the closed unit disc\n")
    assert not (tmp_path / "validate_report.json").exists()
    (tmp_path / "probes.csv").write_text("re,im\n0.6,0.8\n0,-1\n")
    assert [abs(p) for p in cli.parse_config(cfg).probes] == [1.0, 1.0]


def test_explicit_curve_parsing(tmp_path):
    cfg = write_config(tmp_path, """
[function]
name = remark1
; retired key: still accepted, no longer read
trunc = 40

[curves]
curve_1 = 0,0 0.5,0
curve_2 = 0,0 0.25,0

[analysis]
grid = 128
; retired key: still accepted, no longer read
seed = 0
""")
    code = main(["test", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "test_report.json")
    assert len(report["curves"]) == 2
    assert all(c["kind"] == "holomorphic" for c in report["curves"])
