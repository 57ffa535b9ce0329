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
from pinchext import DomainError, RingFunction, cli
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


def test_depth_cap(tmp_path):
    cfg = write_config(tmp_path, LADDER_EXP.replace("depth = 4", "depth = 30"))
    assert main(["ladder", "--config", cfg]) == 1


def test_no_curves_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "[function]\nname = remark1\n")
    assert main(["test", "--config", cfg]) == 1


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
    # before any grid sees it leave the z-range
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


def test_byte_determinism(tmp_path):
    # every report file of a command has the same bytes on a second run;
    # the validate config's six lines all meet at the origin, so its
    # report carries a triple-intersection record
    runs = [(TEST_LINES, ["test"], ["test_report.json"]),
            (VALIDATE_LINES, ["validate"], ["validate_report.json"]),
            (VALIDATE_LINES, ["validate", "--format", "csv"],
             ["validate_report.json", "validate_report.csv"]),
            (LADDER_EXP, ["ladder"],
             ["ladder_report.json", "ladder_profiles.csv"])]
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


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_gallery_float_overflow_exit_code(name, capsys):
    # at lambda = 1e-8 the double-precision series terms overflow: the
    # evaluator raises FloatingPointError, reported as non-convergence
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
