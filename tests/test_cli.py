import json

import numpy as np
import pytest

from conegeo import (
    CircularCone,
    RectifyingParams,
    generate_circular_geodesic,
    latitude_circle,
    line_curve,
    perturbed_circle_base,
    write_base_csv,
    write_curve_csv,
)
from conegeo.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def quarter_cone_json(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"kind": "circular", "psi0": np.pi / 4}))
    return path


# ----------------------------------------------------------------------
# generate -> classify round trip


def test_generate_classify_roundtrip(tmp_path):
    out = tmp_path / "curve.csv"
    rep = tmp_path / "rep.json"
    assert run_cli("generate", "--a", 1.5, "--b", 0.75, "--c", 0.2,
                   "--psi0", 0.8, "--out", out) == 0
    assert run_cli("classify", "--in", out, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert data["label"] == "rectifying"
    assert abs(data["fitted_a"] - 1.5) < 1e-3 * 1.5
    assert abs(data["fitted_b"] - 0.75) < 1e-3
    for key in ("label", "cross_magnitude_mean", "cross_magnitude_relvar",
                "fitted_a", "fitted_b", "axis", "cos_angle_mean", "residual"):
        assert key in data


def test_generate_general_base(tmp_path):
    base = perturbed_circle_base(0.8, seed=3, amplitude=0.03)
    t = np.linspace(0.0, base.period, 4097)
    base_csv = tmp_path / "base.csv"
    write_base_csv(base_csv, t, base.evaluate(t))
    out = tmp_path / "curve.csv"
    assert run_cli("generate", "--a", 1.0, "--b", 0.0, "--c", 1.0,
                   "--base", base_csv, "--out", out) == 0
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", out, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert data["label"] == "rectifying"
    assert abs(data["fitted_a"] - 1.0) < 1e-3


# ----------------------------------------------------------------------
# crosscheck


def test_crosscheck_reference(tmp_path):
    rep = tmp_path / "cc.json"
    assert run_cli("crosscheck", "--a", 1, "--b", 0, "--c", 0,
                   "--psi0", 0.7853981634, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert data["consistent"] is True
    assert data["verdict"] == "geodesic"
    # flat metric names match the geodesy report fields
    for key in ("max_abs_kg", "clairaut_relvar", "normal_alignment_min",
                "development_straightness_residual", "verdict"):
        assert key in data


# ----------------------------------------------------------------------
# verify


def test_verify_latitude_circle(tmp_path, quarter_cone_json):
    cone6 = tmp_path / "cone6.json"
    cone6.write_text(json.dumps({"kind": "circular", "psi0": np.pi / 6}))
    lat = latitude_circle(CircularCone(np.pi / 6), 2.0)
    s = np.linspace(0.0, lat.length, 1025)
    csv = tmp_path / "lat.csv"
    write_curve_csv(csv, s, lat.evaluate(s))
    rep = tmp_path / "v.json"
    assert run_cli("verify", "--cone", cone6, "--in", csv, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert data["verdict"] == "not-geodesic"
    assert abs(data["max_abs_kg"] - 0.5) < 1e-6


def test_verify_generated_csv(tmp_path, quarter_cone_json):
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 4)
    s = np.linspace(*cur.domain, 1025)
    csv = tmp_path / "geo.csv"
    write_curve_csv(csv, s, cur.evaluate(s))
    rep = tmp_path / "v.json"
    assert run_cli("verify", "--cone", quarter_cone_json, "--in", csv,
                   "--report", rep) == 0
    assert json.loads(rep.read_text())["verdict"] == "geodesic"


def test_verify_threshold_overrides(tmp_path):
    cone6 = tmp_path / "cone6.json"
    cone6.write_text(json.dumps({"kind": "circular", "psi0": np.pi / 6}))
    lat = latitude_circle(CircularCone(np.pi / 6), 2.0)
    s = np.linspace(0.0, lat.length, 1025)
    csv = tmp_path / "lat.csv"
    write_curve_csv(csv, s, lat.evaluate(s))
    rep = tmp_path / "v.json"
    # loose gates flip the verdict: overrides must reach the checker
    assert run_cli("verify", "--cone", cone6, "--in", csv, "--report", rep,
                   "--kg-tol", 10, "--clairaut-tol", 10,
                   "--align-tol", 0.9, "--straight-tol", 10) == 0
    assert json.loads(rep.read_text())["verdict"] == "geodesic"


def test_generate_custom_window(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("generate", "--a", 1.0, "--b", 0.0, "--c", 0.0,
                   "--psi0", 0.8, "--smin", -1.0, "--smax", 3.0,
                   "--samples", 128, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 129
    first = float(lines[1].split(",")[0])
    last = float(lines[-1].split(",")[0])
    assert first == -1.0 and last == 3.0
    rep = tmp_path / "r.json"
    assert run_cli("classify", "--in", out, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert data["label"] == "rectifying"
    assert abs(data["fitted_a"] - 1.0) < 1e-3


def test_verify_wrong_cone_exits_2(tmp_path):
    cone6 = tmp_path / "cone6.json"
    cone6.write_text(json.dumps({"kind": "circular", "psi0": np.pi / 6}))
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 3)
    s = np.linspace(*cur.domain, 257)
    csv = tmp_path / "geo.csv"
    write_curve_csv(csv, s, cur.evaluate(s))
    rep = tmp_path / "v.json"
    assert run_cli("verify", "--cone", cone6, "--in", csv, "--report", rep) == 2
    assert json.loads(rep.read_text())["error"] == "NotOnCone"


# ----------------------------------------------------------------------
# integrate and develop


def test_integrate_then_develop(tmp_path, quarter_cone_json):
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps(
        {"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}))
    curve_csv = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--out", curve_csv) == 0
    head = curve_csv.read_text().splitlines()[0]
    assert head == "s,x,y,z"
    dev_csv = tmp_path / "dev.csv"
    assert run_cli("develop", "--cone", quarter_cone_json, "--in", curve_csv,
                   "--out", dev_csv) == 0
    lines = dev_csv.read_text().splitlines()
    assert lines[0] == "s,px,py"
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # developed geodesic is straight: check collinearity via cross products
    d = pts[:, 1:] - pts[0, 1:]
    crosses = d[1:, 0] * d[-1, 1] - d[1:, 1] * d[-1, 0]
    assert np.max(np.abs(crosses)) < 1e-5
    # s column is passed through from the input
    src = np.array([float(l.split(",")[0]) for l in curve_csv.read_text().splitlines()[1:]])
    assert np.array_equal(pts[:, 0], src)


def test_integrate_vertex_approach_exits_2(tmp_path, quarter_cone_json):
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps(
        {"t0": 0.0, "u0": 0.4, "dt0": 0.0, "du0": -1.0, "length": 2.0}))
    out = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--out", out) == 2
    assert not out.exists()


# ----------------------------------------------------------------------
# error paths and determinism


def test_classify_line_exits_2(tmp_path):
    line = line_curve([0.2, 0.0, 0.0], [1.0, 1.0, 0.0], 3.0)
    s = np.linspace(0.0, 3.0, 257)
    csv = tmp_path / "line.csv"
    write_curve_csv(csv, s, line.evaluate(s))
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", csv, "--report", rep) == 2
    assert json.loads(rep.read_text())["error"] == "VanishingCurvature"


def test_missing_required_flag_exits_1(tmp_path):
    assert run_cli("generate", "--a", 1.0, "--out", tmp_path / "x.csv") == 1
    assert not (tmp_path / "x.csv").exists()


def test_missing_input_file_exits_1(tmp_path):
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", tmp_path / "nope.csv", "--report", rep) == 1
    assert not rep.exists()


def test_bad_half_angle_exits_2_without_output(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("generate", "--a", 1.0, "--psi0", 2.5, "--out", out) == 2
    assert not out.exists()


def test_unwritable_output_dir_exits_1(tmp_path):
    out = tmp_path / "missing-dir" / "x.csv"
    assert run_cli("generate", "--a", 1.0, "--psi0", 0.7, "--out", out) == 1


def test_determinism_byte_identical(tmp_path):
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    for out in (a1, a2):
        assert run_cli("generate", "--a", 1.2, "--b", -0.4, "--c", 0.1,
                       "--psi0", 0.9, "--out", out) == 0
    assert a1.read_bytes() == a2.read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for rep in (r1, r2):
        assert run_cli("crosscheck", "--a", 2.0, "--b", 0.3, "--c", 0.0,
                       "--psi0", 0.5, "--report", rep) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {"psi0": 0.9, "samples": 64}}))
    out = tmp_path / "c.csv"
    # psi0 and samples come from the config file
    assert run_cli("--config", cfg, "generate", "--a", 1.0, "--out", out) == 0
    assert len(out.read_text().splitlines()) == 65
    # command line overrides the config file
    assert run_cli("--config", cfg, "generate", "--a", 1.0, "--samples", 32,
                   "--out", out) == 0
    assert len(out.read_text().splitlines()) == 33
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generate": {"unknown-key": 1}}))
    assert run_cli("--config", bad, "generate", "--a", 1.0, "--psi0", 0.9,
                   "--out", out) == 1


def test_unknown_command_exits_1():
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1


def test_negative_numbers_in_exponent_form(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_cli("generate", "--a", 1.0, "--b", "-1E3", "--c", "-7.25e-05",
                   "--psi0", 0.8, "--samples", 64, "--out", spaced) == 0
    assert run_cli("generate", "--a", 1.0, "--b=-1000", "--c=-0.0000725",
                   "--psi0", 0.8, "--samples", 64, "--out", joined) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_cone_json_not_an_object_exits_1(tmp_path, capsys):
    cone = tmp_path / "cone.json"
    cone.write_text("[1, 2]")
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps(
        {"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}))
    out = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", cone, "--ivp", ivp, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"kind": "circular", "psi0": null}',
    '{"kind": "circular", "psi0": [1]}',
    '{"kind": "circular", "psi0": NaN}',
    '{"kind": "circular", "psi0": -Infinity}',
    '{"kind": "circular", "psi0": 1e400}',
    '{"kind": "circular", "psi0": 1' + "0" * 400 + '}',
    '{"kind": "general", "base_csv": 5}',
    '{"kind": "general", "base_csv": null}',
])
def test_cone_json_bad_field_exits_1(tmp_path, capsys, text):
    cone = tmp_path / "cone.json"
    cone.write_text(text)
    out = tmp_path / "dev.csv"
    assert run_cli("develop", "--cone", cone, "--in", tmp_path / "c.csv", "--out", out) == 1
    err = _assert_invalid_config(capsys, out)
    assert "Traceback" not in err and "--cone: bad descriptor" in err


def test_cone_json_out_of_range_half_angle_exits_2(tmp_path, capsys):
    cone = tmp_path / "cone.json"
    cone.write_text('{"kind": "circular", "psi0": 2.0}')
    out = tmp_path / "dev.csv"
    assert run_cli("develop", "--cone", cone, "--in", tmp_path / "c.csv", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidHalfAngle: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("samples,code", [(1, 2), (2, 2), (4, 2), (5, 2), (6, 0), (7, 0)])
def test_verify_samples_below_chart_stencil_exit_2(tmp_path, capsys, samples, code):
    curve = tmp_path / "c.csv"
    assert run_cli("generate", "--a", 1.2, "--b", 0.3, "--c", 0.1, "--psi0", 0.8,
                   "--samples", 256, "--out", curve) == 0
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    rep = tmp_path / "rep.json"
    assert run_cli("verify", "--cone", cone, "--in", curve, f"--samples={samples}",
                   "--report", rep) == code
    report = json.loads(rep.read_text())
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: InsufficientSamples: ") and len(err.splitlines()) == 1
        assert report["error"] == "InsufficientSamples"
    else:
        assert report["verdict"] == "geodesic"


@pytest.mark.parametrize("key", ["dt0", "length"])
def test_integrate_nonfinite_ivp_exits_1(tmp_path, quarter_cone_json, capsys, key):
    data = {"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}
    data[key] = float("nan") if key == "dt0" else float("inf")
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps(data))
    out = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig: ")
    assert not out.exists()


def _assert_invalid_config(capsys, *paths):
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: ") and len(err.splitlines()) == 1
    for path in paths:
        assert not path.exists()
    return err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_csv_value_exits_1(tmp_path, quarter_cone_json, capsys, bad):
    rows = [f"{0.1 * k!r},{1.0 + k},0.5,0.25" for k in range(6)]
    rows[3] = rows[3].replace("0.5", bad)
    csv = tmp_path / "c.csv"
    csv.write_text("s,x,y,z\n" + "\n".join(rows) + "\n")
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", csv, "--report", rep) == 1
    assert "non-finite value" in _assert_invalid_config(capsys, rep)
    base = tmp_path / "base.csv"
    base.write_text(csv.read_text().replace("s,x,y,z", "t,x,y,z"))
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--a", 1.0, "--base", base, "--out", out) == 1
    assert "non-finite value" in _assert_invalid_config(capsys, out)
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "general", "base_csv": "base.csv"}))
    assert run_cli("develop", "--cone", cone, "--in", csv, "--out", out) == 1
    assert "non-finite value" in _assert_invalid_config(capsys, out)


@pytest.mark.parametrize("args", [
    ("--a=inf", "--psi0=0.5"),
    ("--a=nan", "--psi0=0.5"),
    ("--a=1", "--psi0=nan"),
    ("--a=1", "--b=-inf", "--psi0=0.5"),
    ("--a=1", "--psi0=0.5", "--smin=-inf", "--smax=1"),
])
def test_nonfinite_float_option_exits_1(tmp_path, capsys, args):
    out = tmp_path / "c.csv"
    assert run_cli("generate", *args, "--out", out) == 1
    assert "must be finite" in _assert_invalid_config(capsys, out)


def test_nonfinite_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {"psi0": float("inf")}}))
    out = tmp_path / "c.csv"
    assert run_cli("--config", cfg, "generate", "--a", 1.0, "--out", out) == 1
    assert "--psi0 must be finite" in _assert_invalid_config(capsys, out)


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_generate_needs_two_samples(tmp_path, capsys, samples):
    out = tmp_path / "c.csv"
    assert run_cli("generate", "--a", 1.0, "--psi0", 0.8, f"--samples={samples}",
                   "--out", out) == 1
    assert "--samples must be at least 2" in _assert_invalid_config(capsys, out)


def test_one_row_curve_csv_exits_1(tmp_path, quarter_cone_json, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("s,x,y,z\n0.0,1.0,0.0,1.0\n")
    rep = tmp_path / "rep.json"
    assert run_cli("verify", "--cone", quarter_cone_json, "--in", csv,
                   "--report", rep) == 1
    assert "need at least two samples" in _assert_invalid_config(capsys, rep)
