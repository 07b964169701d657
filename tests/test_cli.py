import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conegeo import (
    CircularCone,
    RectifyingParams,
    SpaceCurve,
    base_from_samples,
    generate_circular_geodesic,
    latitude_circle,
    line_curve,
    perturbed_circle_base,
    read_curve_csv,
    sample_arclength,
    sample_grid,
    write_base_csv,
    write_curve_csv,
)
from conegeo import GATES, cli, curves
from conegeo.cli import main
from conegeo.errors import DegenerateBase, DegenerateFit, InvalidConfig
from helpers import (
    count_curve_jet_passes,
    count_speed_points,
    legacy_build_config,
    named_speed_refusal,
)


def run_cli(*args):
    return main([str(a) for a in args])


# command -> {dest: type}, the option table's types
_TYPES = {command: {dest: row.type for dest, row in options.items()}
          for command, options in cli._OPTIONS.items()}


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


@pytest.fixture(scope="module")
def geodesic_verify(tmp_path_factory):
    """A generated geodesic's curve CSV, cone JSON and default verify report."""
    work = tmp_path_factory.mktemp("gates")
    curve, cone, rep = work / "c.csv", work / "cone.json", work / "v.json"
    assert run_cli("generate", "--a", 1.3, "--b", 0.2, "--c", 0.1, "--psi0", 0.8,
                   "--out", curve) == 0
    cone.write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    assert run_cli("verify", "--cone", cone, "--in", curve, "--report", rep) == 0
    return curve, cone, json.loads(rep.read_text())


def test_verify_options_come_from_the_gate_table():
    assert list(GATES.items()) == [
        ("max_abs_kg", ("kg_tol", 1e-4)),
        ("clairaut_relvar", ("clairaut_tol", 1e-5)),
        ("normal_alignment_min", ("align_tol", 1e-5)),
        ("development_straightness_residual", ("straight_tol", 1e-6))]
    assert _TYPES["verify"] == {
        "cone": str, "in": str, "samples": int, "kg_tol": float, "clairaut_tol": float,
        "align_tol": float, "straight_tol": float, "report": str}
    assert list(cli._OPTIONS["verify"])[3:7] == [option for option, _ in GATES.values()]
    # an absent gate option reads the gate's own limit
    assert [cli._OPTIONS["verify"][option].default for option, _ in GATES.values()] == [
        limit for _, limit in GATES.values()]


@pytest.mark.parametrize("via", ["option", "config"])
@pytest.mark.parametrize("gate", list(GATES))
def test_verify_one_tight_gate_flips_the_verdict(tmp_path, geodesic_verify, gate, via):
    # half the measured value fails the gate; twice it passes, and fails any
    # other gate the option might reach, as their values are far apart
    curve, cone, report = geodesic_verify
    assert report["verdict"] == "geodesic"
    option, _ = GATES[gate]
    value = report[gate]
    excess = 1.0 - value if gate == "normal_alignment_min" else value
    assert excess > 0.0
    rep = tmp_path / "v.json"
    for limit, verdict in ((excess / 2, "not-geodesic"), (excess * 2, "geodesic")):
        args = ["verify", "--cone", cone, "--in", curve, "--report", rep]
        if via == "option":
            args += [f"--{option.replace('_', '-')}={limit!r}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"verify": {option: limit}}))
            args = ["--config", cfg] + args
        assert run_cli(*args) == 0
        assert json.loads(rep.read_text()) == {**report, "verdict": verdict}


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


_RANGE = "outside the chart range [0.001, 1e+06]"


@pytest.mark.parametrize("u0,du0,message", [
    (1e10, 0.7, "u = 1e+10"),  # the initial u0
    (1e-4, 0.7, "u = 0.0001"),
    (999995.0, 1.0, "u = 1e+06"),  # the trajectory crosses U_MAX halfway
])
def test_integrate_outside_the_chart_range_exits_2(tmp_path, quarter_cone_json, capsys,
                                                    u0, du0, message):
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps({"t0": 0.0, "u0": u0, "dt0": 0.0, "du0": du0, "length": 10.0}))
    out = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--out", out) == 2
    assert capsys.readouterr().err == f"error: VertexPoint: {message} {_RANGE}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["circular", "general"])
def test_develop_rows_above_the_chart_range_exit_2(tmp_path, capsys, kind):
    curve_csv = tmp_path / "curve.csv"
    assert run_cli("generate", "--a", 1.3, "--psi0", 0.8, "--samples", 64,
                   "--out", curve_csv) == 0
    s, points = read_curve_csv(curve_csv)
    write_curve_csv(curve_csv, s, points * 1e100)
    t = np.linspace(0.0, 2 * np.pi * np.sin(0.8), 257)
    write_base_csv(tmp_path / "base.csv", t, CircularCone(0.8).base.evaluate(t))
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "circular", "psi0": 0.8} if kind == "circular"
                               else {"kind": "general", "base_csv": "base.csv"}))
    out = tmp_path / "dev.csv"
    assert run_cli("develop", "--cone", cone, "--in", curve_csv, "--out", out) == 2
    u = float(np.linalg.norm(points[0])) * 1e100
    assert capsys.readouterr().err == f"error: VertexPoint: |point| = {u:.3g} {_RANGE}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def angle_labelled_cone(tmp_path_factory):
    """A general cone over the psi0 = 0.8 circle as 2049 rows labelled by angle.

    Its speed is sin 0.8, not 1, so t is not arc length.  Returns the
    directory holding base.csv, cone.json, ivp.json and a true geodesic
    curve.csv, and the one error line every command must print.
    """
    root = tmp_path_factory.mktemp("angle-base")
    theta = np.linspace(0.0, 2 * np.pi, 2049)
    pts = CircularCone(0.8).base.evaluate(theta * np.sin(0.8))
    pts[-1] = pts[0]
    write_base_csv(root / "base.csv", theta, pts)
    (root / "cone.json").write_text(json.dumps({"kind": "general", "base_csv": "base.csv"}))
    (root / "ivp.json").write_text(json.dumps(
        {"t0": 0.1, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}))
    assert run_cli("generate", "--psi0=0.8", "--a=0.5", "--b=0.0", "--c=0.1",
                   "--samples=512", "--out", root / "curve.csv") == 0
    with pytest.raises(DegenerateBase) as info:
        base_from_samples(theta, pts)
    return root, f"error: DegenerateBase: {info.value}\n"


@pytest.mark.parametrize("command", ["generate", "verify", "develop", "integrate"])
def test_a_base_not_labelled_by_arc_length_exits_2(angle_labelled_cone, capsys, command):
    # the base is refused, not reparametrized: at 2049 rows that repair
    # misplaced the seam, and verify read not-geodesic on a true geodesic
    root, line = angle_labelled_cone
    argv = {"generate": ["--a=0.5", "--c=0.1", "--samples=512", "--base", root / "base.csv"],
            "verify": ["--cone", root / "cone.json", "--in", root / "curve.csv"],
            "develop": ["--cone", root / "cone.json", "--in", root / "curve.csv"],
            "integrate": ["--cone", root / "cone.json", "--ivp", root / "ivp.json"]}[command]
    out = root / f"{command}.out"
    assert run_cli(command, *argv, "--report" if command == "verify" else "--out", out) == 2
    assert capsys.readouterr().err == line
    assert line.startswith("error: DegenerateBase: base speed is off 1 by 0.283 at t = ")
    assert line.endswith("; t must be arc length\n")
    if command == "verify":
        assert json.loads(out.read_text())["error"] == "DegenerateBase"
    else:
        assert not out.exists()


def _refused_at(err, csv):
    """The deviation and the s of a one-line arc-length refusal; s is a label of the CSV."""
    assert err.startswith("error: SingularSpeed: ") and err.count("\n") == 1, err
    off, s = named_speed_refusal(err.removeprefix("error: SingularSpeed: ")[:-1])
    assert s in read_curve_csv(csv)[0], err
    return off, s


def test_classify_of_a_reparametrized_csv_keeps_its_parameter_labels(tmp_path, capsys):
    # 128 rows are off unit speed past the FD noise, a CSV that classify once
    # reparametrized, shifting its labels and fitted_b; s must be arc length,
    # so it is refused, and the refusal names a label of the file's s column
    csv, rep = tmp_path / "c.csv", tmp_path / "r.json"
    assert run_cli("generate", "--psi0=0.8", "--a=1.3", "--b=0.2", "--c=0.1",
                   "--samples=128", "--out", csv) == 0
    assert run_cli("classify", "--in", csv, "--report", rep) == 2
    err = capsys.readouterr().err
    assert _refused_at(err, csv) == ("1.5e-05", -0.1841308298001212)
    assert json.loads(rep.read_text()) == {
        "error": "SingularSpeed", "message": err.removeprefix("error: SingularSpeed: ")[:-1]}


def test_integrate_and_develop_hold_one_text_block(tmp_path, quarter_cone_json):
    # the CSV text is written in blocks of curves.TABLE_BLOCK_ROWS rows and
    # the RK4 samples are kept as doubles, so a 20,001-row run peaks near
    # 2.7 MiB of Python allocations
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps({"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 5.0}))
    traj, dev = tmp_path / "ig.csv", tmp_path / "dev.csv"
    for argv in (["integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                  "--step", 2.5e-4, "--out", traj],
                 ["develop", "--cone", quarter_cone_json, "--in", traj, "--out", dev]):
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{argv[0]} peaked at {peak / 2**20:.2f} MiB"
    assert len(dev.read_text().splitlines()) == 1 + 20001


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


def test_curves_under_101_rows_keep_their_step_under_the_cap(tmp_path, capsys):
    # a node table's step is its node spacing, capped at length/100, so under
    # 101 rows the stencil taps fall between the rows, where this geodesic's
    # interpolant is off unit speed: both commands refuse it, naming a row
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), 0.8)
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    csv = tmp_path / "curve.csv"
    rep = tmp_path / "rep.json"
    for rows in range(90, 101):
        s = np.linspace(*cur.domain, rows)
        write_curve_csv(csv, s, cur.evaluate(s))
        assert SpaceCurve.from_samples(*read_curve_csv(csv)).h == cur.length / 100.0
        for argv in (["classify"], ["verify", "--cone", cone]):
            assert run_cli(*argv, "--in", csv, "--report", rep) == 2, rows
            _refused_at(capsys.readouterr().err, csv)
            assert json.loads(rep.read_text())["error"] == "SingularSpeed"


def _generated_on_cone(tmp_path, psi0, *args):
    csv, cone = tmp_path / "curve.csv", tmp_path / "cone.json"
    assert run_cli("generate", f"--psi0={psi0}", *args, "--out", csv) == 0
    cone.write_text(json.dumps({"kind": "circular", "psi0": psi0}))
    return csv, cone


@pytest.mark.parametrize("psi0,rows,gate", [(1.2, 64, "max_abs_kg"),
                                            (1.1, 96, "clairaut_relvar")])
def test_coarse_csv_with_unit_node_speeds_is_read_on_its_nodes(tmp_path, psi0, rows, gate):
    # the speeds at the sampled nodes are within 1e-5 of 1 (5.6e-6, 9.4e-6),
    # where the 2049-point scan read 1.3e-5 and 1.2e-5 and resampled the
    # curve off its nodes (NotOnCone); kept on its nodes, the curve stays on
    # the cone and verify names the gate that its resolution misses
    csv, cone = _generated_on_cone(tmp_path, psi0, "--a=1", "--samples", rows)
    rep = tmp_path / "rep.json"
    assert run_cli("verify", "--cone", cone, "--in", csv, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert data["verdict"] == "not-geodesic"
    assert [name for name in ("max_abs_kg", "clairaut_relvar")
            if data[name] >= GATES[name][1]] == [gate]
    assert run_cli("classify", "--in", csv, "--report", rep) == 0
    if psi0 == 1.1:
        data = json.loads(rep.read_text())
        assert data["label"] == "rectifying"
        assert abs(data["fitted_a"] - 1.0) < 5e-8


def test_readme_coarse_csv_sweep(tmp_path, capsys):
    # README "A curve CSV is arc length by contract": under 160 rows the grid
    # speeds are off 1 past the FD noise, and both commands refuse the file.
    # From 160 rows the file is read on its rows, as it always was: fitted_a
    # and fitted_b are the values measured before the refusal existed
    refused = {32: "0.00168", 48: "0.000243", 64: "3.84e-05", 96: "3.6e-05", 128: "1.5e-05"}
    kept = {160: (1.3000000623712984, 0.20000000959558428),
            192: (1.3000000297353578, 0.20000000457467018),
            256: (1.3000000092738306, 0.2000000014267433)}
    rep = tmp_path / "rep.json"
    for rows in (*refused, *kept):
        csv, cone = _generated_on_cone(tmp_path, 0.8, "--a=1.3", "--b=0.2", "--c=0.1",
                                       "--samples", rows)
        argvs = (["classify"], ["verify", "--cone", cone])
        if rows in refused:
            for argv in argvs:
                assert run_cli(*argv, "--in", csv, "--report", rep) == 2, rows
                assert _refused_at(capsys.readouterr().err, csv)[0] == refused[rows]
                assert json.loads(rep.read_text())["error"] == "SingularSpeed"
            continue
        assert run_cli(*argvs[0], "--in", csv, "--report", rep) == 0
        data = json.loads(rep.read_text())
        assert data["label"] == "rectifying", rows
        assert (data["fitted_a"], data["fitted_b"]) == pytest.approx(kept[rows], abs=1e-12)
        assert run_cli(*argvs[1], "--in", csv, "--report", rep) == 0
        assert json.loads(rep.read_text())["verdict"] == "geodesic", rows


@pytest.mark.parametrize("scale", [1e80, 1e105, 1e140])
def test_curve_csv_with_scaled_points_is_refused(tmp_path, monkeypatch, capsys, scale):
    # the points scaled and s not: the speed is the scale, and the refusal
    # reads it off the one sampled jet, with no speed scan or quadrature
    csv, cone = _generated_on_cone(tmp_path, 0.8, "--a=1.3", "--b=0.2", "--c=0.1")
    s, pts = read_curve_csv(csv)
    write_curve_csv(csv, s, scale * pts)
    sizes = count_speed_points(monkeypatch)
    rep = tmp_path / "rep.json"
    for argv in (["classify"], ["verify", "--cone", cone]):
        assert run_cli(*argv, "--in", csv, "--report", rep) == 2
        assert _refused_at(capsys.readouterr().err, csv)[0] == f"{scale:.3g}"
        assert json.loads(rep.read_text())["error"] == "SingularSpeed"
    assert sizes == [257]  # verify's one speed scan: the cone base's own check


def test_classify_of_a_bad_row_names_a_parameter_of_the_file(tmp_path, capsys):
    # data row 22's x set to 1000.0 is a tap of the grid's stencils: the
    # refusal names an s of the file (it once named -4.001384978199358, a
    # parameter of a reparametrized curve that no row holds)
    csv, _ = _spiked_rows(tmp_path, 5001, 22, "1000.0")
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", csv, "--report", rep) == 2
    _refused_at(capsys.readouterr().err, csv)
    assert json.loads(rep.read_text())["error"] == "SingularSpeed"


@pytest.mark.parametrize("rows", range(2, 11))
def test_curve_csv_too_short_for_node_stencils_exits_2(tmp_path, quarter_cone_json,
                                                      capsys, rows):
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), np.pi / 4)
    s = np.linspace(*cur.domain, rows)
    csv = tmp_path / "curve.csv"
    write_curve_csv(csv, s, cur.evaluate(s))
    rep = tmp_path / "rep.json"
    code = run_cli("classify", "--in", csv, "--report", rep)
    if rows == 10:
        # long enough for the stencils, whose taps fall between the rows
        # (the step is capped at length/100), where the speed is off 1
        assert code == 2 and _refused_at(capsys.readouterr().err, csv)[0] == "0.042"
        return
    message = (f"error: InsufficientMargin: sampled curve of {rows} rows too short "
               f"for derivative stencils: needs at least 10\n")
    assert code == 2 and capsys.readouterr().err == message
    assert run_cli("verify", "--cone", quarter_cone_json, "--in", csv,
                   "--report", rep) == 2
    assert capsys.readouterr().err == message
    assert json.loads(rep.read_text())["error"] == "InsufficientMargin"


def test_verify_reads_unit_speed_off_its_one_stencil_pass(tmp_path, monkeypatch):
    # one Hermite pass over the node table, 7 stencil taps per grid point,
    # and no arc-length scan
    from conegeo import curves, jets

    csv, cone = _generated_on_cone(tmp_path, 0.8, "--a=1.2", "--b=0.3", "--c=0.1")
    nodes = read_curve_csv(csv)
    assert nodes[0].size == 1024
    grid = sample_grid(SpaceCurve.from_samples(*nodes), 256)
    calls = []
    plain = jets.hermite

    def counted(s, values, slopes, q):
        if np.array_equal(s, nodes[0]):
            calls.append(np.size(q))
        return plain(s, values, slopes, q)

    def refused(curve, tol=1e-10):
        raise AssertionError("reparametrize_arclength called on a unit-speed curve")

    monkeypatch.setattr(jets, "hermite", counted)
    monkeypatch.setattr(curves, "reparametrize_arclength", refused)
    monkeypatch.setattr(cli, "reparametrize_arclength", refused, raising=False)
    rep = tmp_path / "rep.json"
    assert run_cli("verify", "--cone", cone, "--in", csv, "--report", rep) == 0
    assert json.loads(rep.read_text())["verdict"] == "geodesic"
    assert calls == [7 * grid.size]


def _spiked_rows(tmp_path, rows, data_row, value):
    """A rows-row geodesic CSV on the psi0 = 0.8 cone, x of data_row set to value."""
    csv = tmp_path / "curve.csv"
    assert run_cli("generate", "--psi0=0.8", "--a=1.3", "--b=0.2", "--c=0.1",
                   f"--samples={rows}", "--out", csv) == 0
    lines = csv.read_text().splitlines()
    cells = lines[data_row].split(",")
    lines[data_row] = ",".join([cells[0], value, *cells[2:]])
    csv.write_text("\n".join(lines) + "\n")
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    return csv, cone


@pytest.mark.parametrize("rows,data_row", [(256, 1), (5001, 21)])
def test_verify_reads_every_row(tmp_path, capsys, rows, data_row):
    # the gates read every k-th row, and at 256 rows the first and last rows
    # sit outside the grid: an off-cone row there made no gate move
    csv, cone = _spiked_rows(tmp_path, rows, data_row, "1000.0")
    rep, out = tmp_path / "rep.json", tmp_path / "dev.csv"
    message = "error: NotOnCone: chart residual 749 exceeds 1e-08 * u\n"
    assert run_cli("verify", "--cone", cone, "--in", csv, "--report", rep) == 2
    assert capsys.readouterr().err == message
    assert json.loads(rep.read_text())["error"] == "NotOnCone"
    assert run_cli("develop", "--cone", cone, "--in", csv, "--out", out) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("kind", ["circular", "general"])
def test_verify_charts_each_row_once(tmp_path, monkeypatch, kind):
    # the gates read the sampled rows' (t, u) off the one chart of every row
    from conegeo import cones, geodesics

    if kind == "circular":
        csv, cone = _generated_on_cone(tmp_path, 0.8, "--a=1.2", "--b=0.3", "--c=0.1")
    else:
        base = perturbed_circle_base(1.1, seed=5, amplitude=0.03)
        t = np.linspace(0.0, base.period, 2049)
        write_base_csv(tmp_path / "base.csv", t, base.evaluate(t))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"kind": "general", "base_csv": "base.csv"}))
        csv = tmp_path / "curve.csv"
        assert run_cli("generate", "--a=1.2", "--b=0.3", "--c=0.1", "--base",
                       tmp_path / "base.csv", "--samples=256", "--out", csv) == 0
    charted = []
    plain = cones.chart_points

    def counted(cone, points):
        charted.append(len(points))
        return plain(cone, points)

    monkeypatch.setattr(cli, "chart_points", counted)
    monkeypatch.setattr(geodesics, "chart_points", counted)
    rep = tmp_path / "rep.json"
    assert run_cli("verify", "--cone", cone, "--in", csv, "--report", rep) == 0
    assert json.loads(rep.read_text())["verdict"] == "geodesic"
    assert charted == [read_curve_csv(csv)[0].size]


def test_large_scale_curve_classifies_in_bounded_work(tmp_path, monkeypatch, capsys):
    # a 1e80-scale curve, its s scaled with its points so that s stays arc
    # length, is read on its rows: no speed is scanned or integrated (the
    # quadrature's own bound is a test_curves test), and its curvature of
    # about 1e-82 is below the floor
    csv = tmp_path / "curve.csv"
    assert run_cli("generate", "--psi0=0.8", "--a=1.3", "--b=0.2", "--c=0.1",
                   "--samples=256", "--out", csv) == 0
    s, pts = read_curve_csv(csv)
    write_curve_csv(csv, 1e80 * s, 1e80 * pts)
    sizes = count_speed_points(monkeypatch, limit=40_000)
    assert run_cli("classify", "--in", csv, "--report", tmp_path / "rep.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: VanishingCurvature: curvature ") and err.count("\n") == 1
    assert sizes == []


@pytest.mark.parametrize("scale", [1e105, 1e140])
def test_stencil_step_overflow_is_named(tmp_path, capsys, scale):
    # s scaled with the points stays arc length; the stencil step, the node
    # spacing, then passes 5.6e102, where h**3 overflows a float
    csv = tmp_path / "curve.csv"
    assert run_cli("generate", "--psi0=0.8", "--a=1.3", "--b=0.2", "--c=0.1",
                   "--samples=1024", "--out", csv) == 0
    s, pts = read_curve_csv(csv)
    write_curve_csv(csv, scale * s, scale * pts)
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", csv, "--report", rep) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: order-3 stencil step h = ")
    assert err.endswith(": h**3 overflows\n") and err.count("\n") == 1
    assert json.loads(rep.read_text())["error"] == "OverflowError"


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
    '{"kind": "circular", "psi0": true}',
    '{"kind": "circular", "psi0": "0.5"}',
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


@pytest.mark.parametrize("samples", [6, 7])
def test_verify_refuses_a_nonuniform_grid(tmp_path, capsys, samples):
    # a true geodesic with every third row dropped is read on its nodes at
    # these --samples; the stencil taps of the mean step miss those nodes
    csv, cone = _generated_on_cone(tmp_path, 0.8, "--a=1.2", "--b=0.3", "--c=0.1",
                                   "--samples=256")
    s, pts = read_curve_csv(csv)
    keep = np.arange(s.size) % 3 != 2
    write_curve_csv(csv, s[keep], pts[keep])
    rep = tmp_path / "rep.json"
    assert run_cli("verify", "--cone", cone, "--in", csv, f"--samples={samples}",
                   "--report", rep) == 2
    assert capsys.readouterr().err == "error: ValueError: verify needs a uniform sample grid\n"
    assert json.loads(rep.read_text())["error"] == "ValueError"


# the three JSON inputs of integrate, valid, and a duplicate-key form of each
_JSON_INPUTS = {
    "cone": ('{"kind": "circular", "psi0": 0.8}',
             '{"kind": "circular", "psi0": 0.8, "psi0": 0.9}', "'psi0'"),
    "ivp": ('{"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}',
            '{"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0, "length": 3.0}',
            "'length'"),
    "config": ('{"integrate": {"step": 0.001}}',
               '{"integrate": {"step": 0.001, "step": 0.002}}', "'step'"),
}


@pytest.mark.parametrize("case", ["deep", "bom", "non-ascii", "duplicate"])
@pytest.mark.parametrize("option", list(_JSON_INPUTS))
def test_malformed_json_input_exits_1(tmp_path, capsys, option, case):
    paths = {name: tmp_path / f"{name}.json" for name in _JSON_INPUTS}
    for name, (valid, _, _) in _JSON_INPUTS.items():
        paths[name].write_text(valid)
    argv = ["--config", paths["config"], "integrate", "--cone", paths["cone"],
            "--ivp", paths["ivp"], "--out", tmp_path / "ig.csv"]
    assert run_cli(*argv) == 0
    valid, duplicate, key = _JSON_INPUTS[option]
    paths[option].write_bytes({
        "deep": b"[" * 200_000 + b"]" * 200_000,
        "bom": b"\xef\xbb\xbf" + valid.encode(),
        "non-ascii": valid[:-1].encode() + ', "note": "caf\u00e9"}'.encode("utf-8"),
        "duplicate": duplicate.encode(),
    }[case])
    out = tmp_path / "ig2.csv"
    assert run_cli(*argv[:-1], out) == 1
    err = _assert_invalid_config(capsys, out)
    assert err.startswith(f"error: InvalidConfig: --{option}: not valid JSON: ")
    if case == "duplicate":
        assert err.endswith(f"not valid JSON: duplicate key {key}\n")


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


# a valid cone or IVP JSON, and one key that nothing reads
_UNKNOWN_KEY = {
    "circular": ("cone", {"kind": "circular", "psi0": 0.8}, "psi",
                 "--cone: bad descriptor: unknown keys ['psi']; "
                 "a circular cone takes ['kind', 'psi0']"),
    "general": ("cone", {"kind": "general", "base_csv": "base.csv"}, "psi0",
                "--cone: bad descriptor: unknown keys ['psi0']; "
                "a general cone takes ['kind', 'base_csv']"),
    "ivp": ("ivp", {"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}, "step",
            "--ivp: bad initial data: unknown keys ['step']; "
            "an IVP takes ['t0', 'u0', 'dt0', 'du0', 'length']"),
}


@pytest.mark.parametrize("case", list(_UNKNOWN_KEY))
def test_unknown_json_key_exits_1(tmp_path, capsys, case):
    t = np.linspace(0.0, 2 * np.pi * np.sin(0.8), 257)
    write_base_csv(tmp_path / "base.csv", t, CircularCone(0.8).base.evaluate(t))
    option, data, key, message = _UNKNOWN_KEY[case]
    paths = {"cone": tmp_path / "cone.json", "ivp": tmp_path / "ivp.json"}
    paths["cone"].write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    paths["ivp"].write_text(json.dumps(_UNKNOWN_KEY["ivp"][1]))
    paths[option].write_text(json.dumps(data))
    argv = ["integrate", "--cone", paths["cone"], "--ivp", paths["ivp"], "--out"]
    assert run_cli(*argv, tmp_path / "ig.csv") == 0
    paths[option].write_text(json.dumps({**data, key: 0.9}))
    out = tmp_path / "ig2.csv"
    assert run_cli(*argv, out) == 1
    assert _assert_invalid_config(capsys, out) == f"error: InvalidConfig: {message}\n"


@pytest.mark.parametrize("command,prefix", [("generate", "--base: "),
                                            ("develop", "--cone: bad descriptor: {root}/")])
def test_header_only_base_csv_exits_1(tmp_path, monkeypatch, capsys, command, prefix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.csv").write_text("t,x,y,z\n\n")
    (tmp_path / "cone.json").write_text(json.dumps({"kind": "general", "base_csv": "base.csv"}))
    write_curve_csv(tmp_path / "curve.csv", [0.0, 1.0], [[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
    args = {"generate": ["--a=1.3", "--base=base.csv"],
            "develop": ["--cone=cone.json", "--in=curve.csv"]}[command]
    assert run_cli(command, *args, "--out=out.csv") == 1
    assert _assert_invalid_config(capsys, tmp_path / "out.csv") == (
        f"error: InvalidConfig: {prefix.format(root=tmp_path)}base.csv: no data rows\n")


@pytest.mark.parametrize("command", ["generate", "develop"])
def test_a_huge_base_value_is_refused_in_one_line(tmp_path, command):
    # 1e308 is finite, so the CSV reader takes it; the base's node radii
    # refuse it before its interpolant overflows.  A fresh interpreter shows
    # stderr as a user sees it: here numpy's warnings are not errors.
    t = np.linspace(0.0, 2 * np.pi * np.sin(0.8), 257)
    pts = CircularCone(0.8).base.evaluate(t)
    pts[-1] = pts[0]
    pts[100, 0] = 1e308
    write_base_csv(tmp_path / "base.csv", t, pts)
    (tmp_path / "cone.json").write_text(json.dumps({"kind": "general", "base_csv": "base.csv"}))
    s = np.linspace(0.0, 1.0, 64)
    write_curve_csv(tmp_path / "curve.csv", s, 2.0 * CircularCone(0.8).base.evaluate(s))
    args = {"generate": ["--a=1.3", "--base=base.csv", "--out=out.csv"],
            "develop": ["--cone=cone.json", "--in=curve.csv", "--out=out.csv"]}[command]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "conegeo.cli", command, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: DegenerateBase: base curve leaves the unit sphere by 1e+308\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("key,value", [("t0", True), ("u0", "1.0")])
def test_integrate_mistyped_ivp_exits_1(tmp_path, quarter_cone_json, capsys, key, value):
    data = {"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0, key: value}
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps(data))
    out = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--out", out) == 1
    err = _assert_invalid_config(capsys, out)
    assert err.startswith(f"error: InvalidConfig: --ivp: bad initial data: {key} must "
                          f"be a number, got {value!r}")


@pytest.mark.parametrize("length,code", [(0.003, 2), (0.0055, 2), (0.0065, 0)])
def test_integrate_fewer_than_six_steps_exits_2(tmp_path, quarter_cone_json, capsys,
                                                length, code):
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps({"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7,
                               "length": length}))
    out = tmp_path / "ig.csv"
    assert run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--step", 1e-3, "--out", out) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: InsufficientSamples: a sampled chart needs at "
                              "least 6 steps (7 nodes), got ")
        assert "steps of 0.001 over length" in err and len(err.splitlines()) == 1
        assert not out.exists()
    else:
        assert err == "" and len(out.read_text().splitlines()) == 1 + 7


@pytest.mark.parametrize("command,args", [
    ("generate", ["--a=1.3", "--psi0=0.8", "--out=out.json"]),
    ("classify", ["--in=curve.csv", "--report=out.json"]),
    ("verify", ["--cone=cone.json", "--in=curve.csv", "--report=out.json"]),
    ("crosscheck", ["--a=1.3", "--psi0=0.8", "--report=out.json"]),
])
@pytest.mark.parametrize("source", ["argv", "config"])
def test_samples_above_the_bound_exit_1_before_anything_is_allocated(
        tmp_path, monkeypatch, capsys, command, args, source):
    monkeypatch.chdir(tmp_path)
    assert cli.build_config([command, *args, f"--samples={cli.MAX_SAMPLES}"])
    n = cli.MAX_SAMPLES + 1
    argv = [command, *args, f"--samples={n}"]
    if source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({command: {"samples": n}}))
        argv = ["--config=cfg.json", command, *args]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**20
    assert capsys.readouterr().err == ("error: InvalidConfig: --samples must be at most "
                                       f"1000000, got {n}\n")
    assert not (tmp_path / "out.json").exists()


def test_step_above_the_rk4_bound_exits_1_naming_step(tmp_path, monkeypatch, capsys,
                                                      quarter_cone_json):
    # the IVP's length sets the bound, so it is read first; the library's
    # ValueError for the same bound stays with library callers
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps({"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 5.0}))
    out = tmp_path / "o.csv"
    args = ["integrate", "--cone", quarter_cone_json, "--ivp", ivp, "--out", out]
    assert run_cli(*args, "--step", 1e-9) == 1
    assert capsys.readouterr().err == ("error: InvalidConfig: --step must be at least "
                                       "length/1000000 = 5e-06, got 1e-09\n")
    assert not out.exists()
    monkeypatch.setattr(cli, "MAX_RK4_STEPS", 5000)
    assert run_cli(*args, "--step", 1e-3) == 0
    assert len(out.read_text().splitlines()) == 1 + 5001
    assert run_cli(*args, "--step", 0.999e-3) == 1
    assert "--step must be at least length/5000 = 0.001, got 0.000999" in capsys.readouterr().err


_STAGE_AT_VERTEX = ("VertexApproach: u = 0 in an RK4 stage, below the chart range "
                    "[0.001, 1e+06], at s = 0.004")


@pytest.mark.parametrize("u0,length,step,message", [
    # 49 whole steps reach u = 0.01; the remainder of 0.0095 is not integrated,
    # so the u_min it would cross cannot fail the run
    (0.5, 0.4995, 0.01, None),
    # 5 steps are refused before the first, which would fall below u_min
    (0.0035, 0.005, 1e-3, "InsufficientSamples: a sampled chart needs at least 6 steps "
                          "(7 nodes), got 5 steps of 0.001 over length 0.005"),
    # the fourth stage of the fourth step lands on u = 0.0 exactly
    (0.004, 0.01, 1e-3, _STAGE_AT_VERTEX),
    (0.004, 0.0105, 1e-3, _STAGE_AT_VERTEX),
], ids=["remainder", "short", "stage-at-vertex", "stage-at-vertex-remainder"])
def test_integrate_radial_ivp_toward_the_vertex(tmp_path, quarter_cone_json, capsys,
                                                u0, length, step, message):
    ivp = tmp_path / "ivp.json"
    ivp.write_text(json.dumps({"t0": 0.0, "u0": u0, "dt0": 0.0, "du0": -1.0,
                               "length": length}))
    out = tmp_path / "ig.csv"
    code = run_cli("integrate", "--cone", quarter_cone_json, "--ivp", ivp,
                   "--step", step, "--out", out)
    err = capsys.readouterr().err
    if message is None:
        assert (code, err) == (0, "")
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 50 and float(rows[-1].split(",")[0]) == pytest.approx(0.49)
    else:
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("samples,code", [(8, 2), (15, 2), (16, 0)])
def test_classify_slant_floor_reads_requested_samples(tmp_path, capsys, samples, code):
    curve = tmp_path / "c.csv"
    assert run_cli("generate", "--a", 1.2, "--b", 0.3, "--c", 0.1, "--psi0", 0.8,
                   "--out", curve) == 0
    nodes = read_curve_csv(curve)
    assert nodes[0].size == 1024
    # the floor reads --samples, not the grid, which a 1024-row file rounds up
    assert sample_grid(SpaceCurve.from_samples(*nodes), 15).size >= 16
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", curve, f"--samples={samples}", "--report", rep) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: InsufficientSamples: axis fitting needs at least 16")
    else:
        assert json.loads(rep.read_text())["label"] == "rectifying"


@pytest.mark.parametrize("rows,code", [(10, 2), (12, 2), (20, 2), (24, 0)])
def test_classify_slant_floor_reads_the_grid(tmp_path, capsys, rows, code):
    # rows 0.01 apart are unit speed at their nodes, so classify reads them on
    # their own nodes: a grid of rows - 8, inside the order-3 stencil reach
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), np.pi / 4)
    s = 0.01 * np.arange(rows)
    curve = tmp_path / "c.csv"
    write_curve_csv(curve, s, cur.evaluate(s))
    assert sample_arclength(SpaceCurve.from_samples(*read_curve_csv(curve)), 256).s.size \
        == rows - 8
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", curve, "--report", rep) == code
    if code:
        # grids under 7 points stop at classify's floor, before the slant fit
        floor = "classify needs a grid of at least 7 points" if rows - 8 < 7 else \
            "axis fitting needs at least 16 frame samples"
        err = capsys.readouterr().err
        assert err == f"error: InsufficientSamples: {floor}, got {rows - 8}\n"
        assert json.loads(rep.read_text())["error"] == "InsufficientSamples"
    else:
        report = json.loads(rep.read_text())
        assert report["label"] == "rectifying" and len(report["axis"]) == 3


def test_generate_composes_no_jets(tmp_path, monkeypatch):
    # a generated point is u(s) * y(t(s)): one base evaluation, no chain rule
    from conegeo import jets

    calls = []
    plain = jets.jet_compose

    def counted(*args):
        calls.append(1)
        return plain(*args)

    base = perturbed_circle_base(0.95, seed=8, amplitude=0.03)
    t = np.linspace(0.0, base.period, 2049)
    base_csv = tmp_path / "base.csv"
    write_base_csv(base_csv, t, base.evaluate(t))
    monkeypatch.setattr(jets, "jet_compose", counted)
    abc = ("--a", 1.3, "--b", 0.2, "--c", 0.1)
    assert run_cli("generate", *abc, "--psi0", 0.8, "--out", tmp_path / "c.csv") == 0
    assert run_cli("generate", *abc, "--base", base_csv, "--samples", 256,
                   "--out", tmp_path / "g.csv") == 0
    assert calls == []
    assert len(read_curve_csv(tmp_path / "c.csv")[0]) == 1024
    assert len(read_curve_csv(tmp_path / "g.csv")[0]) == 256


def test_classify_report_keys_with_and_without_slant_fit(tmp_path, monkeypatch):
    curve, rep = tmp_path / "c.csv", tmp_path / "rep.json"
    assert run_cli("generate", "--a", 1.2, "--b", 0.3, "--c", 0.1, "--psi0", 0.8,
                   "--out", curve) == 0
    assert run_cli("classify", "--in", curve, "--report", rep) == 0
    keys = ["label", "cross_magnitude_mean", "cross_magnitude_relvar", "fitted_a",
            "fitted_b", "axis", "cos_angle_mean", "residual"]
    fitted = json.loads(rep.read_text())
    assert list(fitted) == keys

    def degenerate(cs):
        raise DegenerateFit("smallest eigenvalue not isolated")

    monkeypatch.setattr(cli, "fit_slant_axis", degenerate)
    assert run_cli("classify", "--in", curve, "--report", rep) == 0
    data = json.loads(rep.read_text())
    assert list(data) == keys + ["slant_fit_error"]
    assert data == {**fitted, "axis": None, "cos_angle_mean": None, "residual": None,
                    "slant_fit_error": "DegenerateFit"}


def test_classify_evaluates_the_curve_once(tmp_path, monkeypatch):
    curve = tmp_path / "c.csv"
    assert run_cli("generate", "--a", 1.2, "--b", 0.3, "--c", 0.1, "--psi0", 0.8,
                   "--out", curve) == 0
    passes = count_curve_jet_passes(monkeypatch)
    assert run_cli("classify", "--in", curve, "--report", tmp_path / "rep.json") == 0
    assert len(passes) == 1


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


def test_non_ascii_csv_byte_exits_1_naming_its_row(tmp_path, capsys):
    # a file of 600 rows: its byte is past the first chunk the decoder reads
    rows = [f"{0.1 * k!r},{1.0 + k},0.5,0.25" for k in range(600)]
    rows[400] = rows[400].replace("0.5", "0.é")
    csv = tmp_path / "c.csv"
    csv.write_bytes(("s,x,y,z\n\n" + "\n".join(rows) + "\n").encode("utf-8"))
    rep = tmp_path / "rep.json"
    assert run_cli("classify", "--in", csv, "--report", rep) == 1
    assert _assert_invalid_config(capsys, rep) == (
        f"error: InvalidConfig: --in: {csv}: non-ASCII byte 0xc3 in data row 401, column 3\n")
    csv.write_bytes("s,é,y,z\n0,1,2,3\n".encode("utf-8"))
    assert run_cli("classify", "--in", csv, "--report", rep) == 1
    assert _assert_invalid_config(capsys, rep) == (
        f"error: InvalidConfig: --in: {csv}: expected header 's,x,y,z'\n")


@pytest.fixture(scope="module")
def spiked_csv(tmp_path_factory):
    """A 256-row geodesic CSV and a writer that sets x of its data row 21 to a value."""
    root = tmp_path_factory.mktemp("spiked")
    curve = root / "curve.csv"
    assert run_cli("generate", "--psi0=0.8", "--a=1.3", "--b=0.2", "--c=0.1",
                   "--samples=256", "--out", curve) == 0
    (root / "cone.json").write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    rows = curve.read_text().splitlines()

    def write(value):
        spiked = rows.copy()
        cells = spiked[21].split(",")
        spiked[21] = ",".join([cells[0], value, *cells[2:]])
        (root / "bad.csv").write_text("\n".join(spiked) + "\n")
        return root

    return write


_SPIKED_ARGV = {
    "classify": ["--in=bad.csv", "--report=out"],
    "verify": ["--cone=cone.json", "--in=bad.csv", "--report=out"],
    "develop": ["--cone=cone.json", "--in=bad.csv", "--out=out"],
}


@pytest.mark.parametrize("value", ["1e308", "1e200", "-1e200", "2e150", "-2e150"])
@pytest.mark.parametrize("command", list(_SPIKED_ARGV))
def test_huge_curve_csv_value_exits_1_naming_its_row(spiked_csv, monkeypatch, capsys,
                                                      command, value):
    root = spiked_csv(value)
    monkeypatch.chdir(root)
    (root / "out").unlink(missing_ok=True)
    assert run_cli(command, *_SPIKED_ARGV[command]) == 1
    assert _assert_invalid_config(capsys, root / "out") == (
        f"error: InvalidConfig: --in: bad.csv: value {float(value)} in data row 21, "
        f"column 2 exceeds 1e+150 in magnitude\n")


_SPIKE_REFUSED = ("SingularSpeed: curve speed is off 1 by 2.21e+151 at s = -3.3665158371040724; "
                  "s must be arc length")


@pytest.mark.parametrize("command,message", [
    pytest.param("classify", _SPIKE_REFUSED, id="classify-SingularSpeed"),
    pytest.param("verify", _SPIKE_REFUSED, id="verify-SingularSpeed"),
    ("develop", "VertexPoint: |point| = 1e+150 " + _RANGE),
])
def test_curve_csv_value_at_the_bound_reaches_the_numerics(spiked_csv, monkeypatch, capsys,
                                                          command, message):
    # CURVE_VALUE_MAX is the largest value read: the stages that run after
    # the reader name what is wrong with it
    root = spiked_csv("1e150")
    monkeypatch.chdir(root)
    assert run_cli(command, *_SPIKED_ARGV[command]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def _valid_options(command, paths):
    """{dest: value} of a `command` run that passes every option rule; and its artifact."""
    curve, cone, ivp = paths
    options = {"generate": {"a": 1.3, "psi0": 0.8},
               "crosscheck": {"a": 1.3, "psi0": 0.8},
               "integrate": {"cone": cone, "ivp": ivp},
               "develop": {"cone": cone, "in": curve},
               "classify": {"in": curve},
               "verify": {"cone": cone, "in": curve}}[command]
    artifact = curve.parent / f"{command}.out"
    output = next(dest for dest, row in cli._OPTIONS[command].items() if row is cli._OUTPUT)
    return {**options, output: artifact}, artifact


def _argv(command, options):
    return [command, *(f"--{dest.replace('_', '-')}={value}" for dest, value in options.items())]


@pytest.fixture(scope="module")
def option_paths(geodesic_verify):
    curve, cone, _ = geodesic_verify
    ivp = curve.parent / "ivp.json"
    ivp.write_text(json.dumps({"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 2.0}))
    return curve, cone, ivp


@pytest.mark.parametrize("command,option,value", [
    (command, dest.replace("_", "-"), value)
    for command, options in cli._OPTIONS.items()
    for dest, row in options.items() if row.rule is cli._check_positive
    for value in (0, -1)
])
def test_nonpositive_option_exits_1_naming_it(option_paths, capsys, command, option, value):
    # without the guard, classify --tol=0 says neither and verify --kg-tol=0
    # not-geodesic on a true geodesic, both at exit 0
    options, artifact = _valid_options(command, option_paths)
    assert run_cli(*_argv(command, {**options, option.replace("-", "_"): value})) == 1
    assert _assert_invalid_config(capsys, artifact) == (
        f"error: InvalidConfig: --{option} must be positive, got {float(value)!r}\n")


# values each option type is probed with; its row's rule names which it refuses
_PROBES = {int: [-1, 0, 1, cli.MAX_SAMPLES + 1], float: [-1.0, 0.0], str: ["no-dir/x.out"]}


@pytest.mark.parametrize("command,dest", [(command, dest) for command, options
                                          in cli._OPTIONS.items() for dest in options])
def test_each_option_rule_refuses_through_main(option_paths, tmp_path, monkeypatch, capsys,
                                               command, dest):
    # a required row left out, and each probe its rule refuses, exit 1 with
    # one line before any artifact is written; a row with a rule of its own
    # must refuse some probe, so a new rule cannot go untested
    monkeypatch.chdir(tmp_path)
    row = cli._OPTIONS[command][dest]
    flag = "--" + dest.replace("_", "-")
    options, artifact = _valid_options(command, option_paths)
    cases = []
    if row.default is cli._REQUIRED:
        cases.append(({k: v for k, v in options.items() if k != dest},
                      f"missing required option {flag}"))
    for value in _PROBES[row.type]:
        try:
            row.rule(flag, value)
        except InvalidConfig as exc:
            cases.append(({**options, dest: value}, str(exc)))
    assert cases or row.rule is cli._check_nothing
    for given, message in cases:
        assert run_cli(*_argv(command, given)) == 1
        assert _assert_invalid_config(capsys, artifact) == f"error: InvalidConfig: {message}\n"


@pytest.mark.parametrize("given,missing", [("--smin=0", "--smax"), ("--smax=0", "--smin")])
def test_generate_window_needs_both_ends(tmp_path, capsys, given, missing):
    out = tmp_path / "c.csv"
    assert run_cli("generate", "--a=1.3", "--psi0=0.8", given, "--out", out) == 1
    assert _assert_invalid_config(capsys, out) == (
        f"error: InvalidConfig: missing required option {missing}\n")


@pytest.mark.parametrize("smin,smax", [(2.0, 1.0), (1.0, 1.0)])
def test_generate_window_must_not_be_empty(tmp_path, capsys, smin, smax):
    out = tmp_path / "c.csv"
    assert run_cli("generate", "--a=1.3", "--psi0=0.8", f"--smin={smin}", f"--smax={smax}",
                   "--out", out) == 1
    assert _assert_invalid_config(capsys, out) == (
        "error: InvalidConfig: --smin must be below --smax\n")


def test_negative_seed_exits_1(tmp_path, capsys):
    rep = tmp_path / "cc.json"
    assert run_cli("crosscheck", "--a", 1, "--psi0", 0.7, "--seed", -1, "--report", rep) == 1
    assert _assert_invalid_config(capsys, rep) == (
        "error: InvalidConfig: --seed must be non-negative, got -1\n")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_get_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        out, rep = tmp_path / "curve.csv", tmp_path / "rep.json"
        assert run_cli("generate", "--psi0=0.8", "--a=1.3", "--out", out) == 0
        assert run_cli("classify", "--in", out, "--report", rep) == 0
        for path in (out, rep):
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.umask(umask) == umask  # the write left the umask as it found it

        def chunks():
            yield "s,x,y,z\n"
            raise ValueError("chunk failed")

        before = rep.read_text()
        with pytest.raises(ValueError, match="chunk failed"):
            curves.write_text(rep, chunks())
        assert rep.read_text() == before
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "rep.json"]


# ----------------------------------------------------------------------
# the option table against the per-command subparsers it replaced


def _outcome(build, argv):
    try:
        return build(argv)
    except InvalidConfig as exc:
        return f"InvalidConfig: {exc}"


_VALUES = {
    float: ["0.25", "3", "-1E3", "-7.25e-05", "-.5", "1e400", "nan", "abc", "", "--"],
    int: ["64", "-3", "0", "-1E3", "7.0", "abc", "", "--"],
    str: ["curve.csv", "-x", "", "a b", "--"],
}


def _option_argvs():
    for command, options in _TYPES.items():
        for dest, kind in options.items():
            flag = "--" + dest.replace("_", "-")
            for value in _VALUES[kind]:
                yield [command, flag, value]
                yield [command, f"{flag}={value}"]


def test_build_config_matches_legacy_parser():
    argvs = list(_option_argvs()) + [
        [], ["frobnicate"], ["--config"], ["generate", "--config", "x.json"],
        ["--conf", "missing.json", "generate"], ["--config=missing.json", "develop"],
        ["generate", "stray"], ["generate", "--bogus", "1"], ["generate", "--samp", "9"],
        ["generate", "--c", "1"], ["verify", "--kg", "1"], ["generate", "--a"],
        ["generate", "--a", "1", "--a", "2"], ["generate", "-a", "1"],
        ["generate", "--a", "--b", "1"],
        ["generate", "--a", "1.5", "--b", "-1E3", "--c=-7.25e-05", "--psi0", "0.8",
         "--smin=-1", "--smax", "2", "--samples", "64", "--out", "c.csv"],
        ["verify", "--cone", "k.json", "--in=c.csv", "--samples", "99", "--kg-tol", "1e-3",
         "--clairaut-tol=-2E-5", "--align-tol", "0.5", "--straight-tol", "1", "--report", "r"],
    ]
    for argv in argvs:
        assert _outcome(cli.build_config, argv) == _outcome(legacy_build_config, argv), argv


def test_build_config_config_merge_matches_legacy_parser(tmp_path):
    typed = {float: -2.5, int: 64, str: "curve.csv"}
    cfg = tmp_path / "cfg.json"
    for command, options in _TYPES.items():
        for dest, kind in options.items():
            flag = "--" + dest.replace("_", "-")
            for key in {dest, dest.replace("_", "-")}:
                for value in (typed[kind], None) + ((7,) if kind is float else ()):
                    cfg.write_text(json.dumps({command: {key: value}, "other": 1}))
                    for argv in (["--config", str(cfg), command],
                                 [f"--config={cfg}", command, flag, _VALUES[kind][0]]):
                        assert (_outcome(cli.build_config, argv)
                                == _outcome(legacy_build_config, argv)), (argv, value)
    for text in ("[1]", "{", '{"generate": 3}', '{"generate": {"nope": 1}}',
                 '{"generate": {"psi0": Infinity}}'):
        cfg.write_text(text)
        argv = ["--config", str(cfg), "generate"]
        assert _outcome(cli.build_config, argv) == _outcome(legacy_build_config, argv), text
    argv = ["--config", str(tmp_path / "missing.json"), "generate"]
    assert _outcome(cli.build_config, argv) == _outcome(legacy_build_config, argv)


# every command's flags, and --config, which is a flag only before the command
_FLAGS = sorted({"--config": str, **{"--" + dest.replace("_", "-"): kind
                                     for options in _TYPES.values()
                                     for dest, kind in options.items()}}.items())
# every flag's proper prefixes, none of which abbreviates --help
_PREFIXES = sorted({flag[:k] for flag, _ in _FLAGS for k in range(3, len(flag))})
_ANY_VALUE = sorted({value for values in _VALUES.values() for value in values})


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    (root / "cfg.json").write_text(json.dumps({"generate": {"psi0": 0.9, "samples": 64},
                                               "verify": {"kg-tol": 1e-3}}))
    (root / "bad.json").write_text('{"develop": {"nope": 1}}')
    return [str(root / "cfg.json"), str(root / "bad.json"), str(root / "missing.json"), ""]


@st.composite
def _argvs(draw, config_paths):
    """An argv from the table's commands, flags, flag prefixes and values.

    About half give only the command's own flags, each with a value from its
    kind's list; the rest also mix in other flags, prefixes, stray and
    missing values and `--`, also before or right after the command.
    """
    plain = draw(st.booleans())
    path = draw(st.sampled_from(config_paths))
    prefixes = [[], ["--config", path], [f"--config={path}"]]
    if not plain:
        prefixes += [["--config"], ["--conf", path], ["--config", path, "--config", path]]
    argv = draw(st.sampled_from(prefixes))
    command = draw(st.sampled_from(sorted(cli._OPTIONS)))
    named = plain or (argv != ["--config"] and draw(st.sampled_from([True, True, False])))
    head = [command] if named else draw(st.sampled_from([[], ["stray"]]))
    if not plain and draw(st.booleans()):
        head.insert(draw(st.integers(0, len(head))), "--")
    argv += head
    for _ in range(draw(st.integers(0, 6))):
        dest, kind = draw(st.sampled_from(list(_TYPES[command].items())))
        flag = "--" + dest.replace("_", "-")
        value = draw(st.sampled_from(_VALUES[kind]))
        items = [[flag, value], [f"{flag}={value}"]]
        if not plain and draw(st.booleans()):
            # one flaw: another flag, a prefix or the dest's spelling; any
            # value; a missing or stray value; or `--`
            other, other_kind = draw(st.sampled_from(_FLAGS))
            spelled = draw(st.sampled_from([other, draw(st.sampled_from(_PREFIXES)), "--" + dest]))
            odd = draw(st.sampled_from(_VALUES[other_kind] + _ANY_VALUE))
            items = [[spelled, value], [f"{spelled}={value}"], [flag, odd], [f"{flag}={odd}"],
                     [flag], [value], ["--"]]
        argv += draw(st.sampled_from(items))
    return argv


def test_build_config_matches_legacy_parser_on_generated_argvs(config_paths):
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_argvs(config_paths))
    @example(["verify", "--kg_tol", "1e-3"])
    @example(["classify", "--in", "x", "--"])
    @example(["develop", "--in=--"])
    @example(["--config=--", "develop"])
    @example(["classify", "--", "--in", "x"])
    @example(["--", "classify", "--in", "x"])
    @example(["--config", "x", "--"])
    @example(["generate", "--a", "-1\n", "--b", "-"])
    @example(["--config=", "crosscheck", "--seed=-3", "--seed", "4"])
    def check(argv):
        assert _outcome(cli.build_config, argv) == _outcome(legacy_build_config, argv), argv

    check()


def test_build_config_builds_each_parser_once(monkeypatch):
    made = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    builders = (cli._top_parser, cli._command_parser)
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    typed = {float: "-7.25e-05", int: "64", str: "curve.csv"}
    # emptied before and after, so no other test builds or reads a CountingParser
    for builder in builders:
        builder.cache_clear()
    try:
        for _ in range(2):
            for command, options in _TYPES.items():
                every = []
                for i, (dest, kind) in enumerate(options.items()):
                    flag = "--" + dest.replace("_", "-")
                    every += [f"{flag}={typed[kind]}"] if i % 2 else [flag, typed[kind]]
                last = "--" + list(options)[-1]
                # plain, with --config, an abbreviation, an unknown option, a
                # missing value and a trailing `--`
                for argv in ([command], [command, *every], ["--config=", command, *every],
                             [command, last[:-1], "x"], [command, "--bogus", "1"],
                             [command, last], [command, *every, "--"]):
                    _outcome(cli.build_config, argv)
    finally:
        for builder in builders:
            builder.cache_clear()
    assert sorted(made) == sorted(["conegeo", *(f"conegeo {command}" for command in _TYPES)])


@pytest.mark.parametrize("text,bad", [
    ('{"generate": {"psi0": true}}', "'psi0': expected float, got True"),
    ('{"generate": {"psi0": "0.5"}}', "'psi0': expected float, got '0.5'"),
    ('{"generate": {"samples": false}}', "'samples': expected int, got False"),
    ('{"generate": {"samples": 64.5}}', "'samples': expected int, got 64.5"),
    ('{"generate": {"samples": Infinity}}', "'samples': expected int, got inf"),
    ('{"generate": {"samples": 1' + "0" * 400 + "}}", "'samples': expected int"),
    ('{"generate": {"a": 1' + "0" * 400 + "}}", "'a': expected float"),
    ('{"generate": {"out": 5}}', "'out': expected str, got 5"),
    ('{"generate": {"base": ["b.csv"]}}', "'base': expected str"),
])
def test_config_value_of_wrong_type_exits_1(tmp_path, capsys, text, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "c.csv"
    for overrides in ((), ("--a", 1.0, "--psi0", 0.8, "--samples", 8, "--base", "b.csv")):
        assert run_cli("--config", cfg, "generate", *overrides, "--out", out) == 1
        assert f"--config: bad value for {bad}" in _assert_invalid_config(capsys, out)


def test_config_integral_float_is_an_int(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"generate": {"samples": 64.0, "psi0": 1}}')
    config = cli.build_config(["--config", str(cfg), "generate"])
    assert config.params["samples"] == 64 and type(config.params["samples"]) is int
    assert config.params["psi0"] == 1.0 and type(config.params["psi0"]) is float


def test_run_config_is_frozen():
    config = cli.build_config(["generate", "--a", "1.0"])
    for name in ("command", "params"):
        with pytest.raises(AttributeError):
            setattr(config, name, None)
    assert config == cli.RunConfig("generate", dict(config.params))


def test_config_after_command_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {"psi0": 0.9}}))
    out = tmp_path / "c.csv"
    assert run_cli("generate", "--config", cfg, "--a", 1.0, "--out", out) == 1
    assert "unrecognized arguments: --config" in _assert_invalid_config(capsys, out)


@pytest.mark.parametrize("argv,option", [
    (["classify", "--in=--", "--report", "r.json"], "--in"),
    (["generate", "--a=--", "--psi0", "0.8", "--out", "c.csv"], "--a"),
    (["--config=--", "generate", "--a", "1", "--psi0", "0.8", "--out", "c.csv"], "--config"),
])
def test_dashdash_as_an_equals_value_is_a_missing_value(tmp_path, monkeypatch, capsys,
                                                        argv, option):
    # argparse reads `--name=--` as an empty list, which no option takes
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = _assert_invalid_config(capsys, tmp_path / "r.json", tmp_path / "c.csv")
    assert err == f"error: InvalidConfig: argument {option}: expected one argument\n"


def test_dashdash_beside_the_command_is_refused(tmp_path, capsys):
    # nothing after `--` is an option, so neither run reads --in or --report
    curve, rep = tmp_path / "c.csv", tmp_path / "r.json"
    assert run_cli("generate", "--a", 1.3, "--psi0", 0.8, "--out", curve) == 0
    assert run_cli("classify", "--", "--in", curve, "--report", rep) == 1
    err = _assert_invalid_config(capsys, rep)
    assert err.endswith(f"unrecognized arguments: -- --in {curve} --report {rep}\n")
    assert run_cli("--", "classify", "--in", curve, "--report", rep) == 1
    err = _assert_invalid_config(capsys, rep)
    assert "argument command: invalid choice: '--' (choose from 'generate', " in err


def test_no_command_message(capsys):
    assert run_cli("--config", "cfg.json") == 1
    assert capsys.readouterr().err == "error: InvalidConfig: no command given; see --help\n"


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_top_level_help_lists_commands(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main([flag])
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "--config" in out
    for name, (_, text) in cli._COMMANDS.items():
        assert f"  {name:<12}{text}" in out


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_command_help_lists_table_options(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main(["--config", "unread.json", command, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: conegeo {command} ")
    for dest in cli._OPTIONS[command]:
        assert f"--{dest.replace('_', '-')} " in out


# ----------------------------------------------------------------------
# errors nobody anticipated still end in a defined exit


@pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                 TypeError("unsupported operand type(s)\nfor +")])
def test_unexpected_handler_error_exits_2(tmp_path, monkeypatch, capsys, exc):
    def broken(params):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "crosscheck", (broken, "broken"))
    rep = tmp_path / "cc.json"
    assert run_cli("crosscheck", "--a", 1, "--psi0", 0.7, "--report", rep) == 2
    name = type(exc).__name__
    err = capsys.readouterr().err
    assert err == f"error: {name}: {' '.join(str(exc).splitlines())}\n"
    assert json.loads(rep.read_text()) == {"error": name, "message": str(exc)}
    monkeypatch.setitem(cli._COMMANDS, "develop", (broken, "broken"))
    # the option rules run before the handler, so the run names every required option
    assert run_cli("develop", "--cone", tmp_path / "cone.json", "--in", tmp_path / "c.csv",
                   "--out", tmp_path / "d.csv") == 2
    assert len(capsys.readouterr().err.splitlines()) == 1

