import json

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


def test_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, TEST_LINES)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["test", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["test", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "test_report.json").read_bytes()
    b2 = (out2 / "test_report.json").read_bytes()
    assert b1 == b2


def test_gallery_command(tmp_path, capsys):
    assert main(["gallery", "remark1", "--lam", "1,0", "--z", "0,0"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["value"] == [1.0, 0.0]
    assert main(["gallery", "unknown", "--lam", "1,0", "--z", "0,0"]) == 1


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
