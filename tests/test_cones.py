
import numpy as np
import pytest

from conegeo import (
    ChartCurve,
    CircularCone,
    Cone,
    RectifyingParams,
    SpaceCurve,
    base_from_samples,
    chart_coordinates,
    chart_curve,
    clairaut_invariant,
    cone_from_descriptor,
    cone_point,
    curve_from_chart,
    develop,
    generate_rectifying,
    geodesic_curvature,
    latitude_circle,
    line_fit,
    perturbed_circle_base,
    rectifying_chart,
    reparametrize_arclength,
    ruling,
    surface_normal,
    write_base_csv,
)
from conegeo.errors import (
    NonpositiveRadialCoordinate,
    NotOnCone,
    VertexPoint,
)
from conegeo import cones as cones_module
from helpers import count_vector_hermite_calls, sequential_chart_curve


@pytest.fixture(scope="module")
def quarter_cone():
    return CircularCone(np.pi / 4)


@pytest.fixture(scope="module")
def wavy_cone():
    return Cone(perturbed_circle_base(0.8, seed=12, amplitude=0.04))


# ----------------------------------------------------------------------
# cone_point


def test_cone_point_circular(quarter_cone):
    p = cone_point(quarter_cone, 0.0, 1.0)
    assert np.allclose(p, [np.sqrt(2) / 2, 0.0, np.sqrt(2) / 2])


def test_cone_point_homogeneous(wavy_cone):
    p1 = cone_point(wavy_cone, 0.7, 1.3)
    p2 = cone_point(wavy_cone, 0.7, 3.9)
    assert np.allclose(3.0 * p1, p2, atol=1e-14)


def test_cone_point_norm_is_u(wavy_cone):
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, wavy_cone.base.period, 16)
    u = rng.uniform(0.2, 5.0, 16)
    pts = cone_point(wavy_cone, t, u)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - u)) < 1e-12


def test_cone_point_rejects_nonpositive_u(quarter_cone):
    with pytest.raises(NonpositiveRadialCoordinate):
        cone_point(quarter_cone, 0.0, -1.0)


# ----------------------------------------------------------------------
# surface_normal


def test_normal_third_component_is_half_angle_sine():
    cone = CircularCone(np.pi / 6)
    t = np.linspace(0.0, 2.0, 9)
    N = surface_normal(cone, t)
    assert np.max(np.abs(np.abs(N[:, 2]) - 0.5)) < 1e-14
    # oracle: recompute y x y' from evaluations, independent of the module
    y = cone.base.evaluate(t)
    y1 = cone.base.derivative(t, 1)
    oracle = np.cross(y1, y)
    assert np.max(np.abs(np.abs(oracle[:, 2]) - np.sin(np.pi / 6))) < 1e-12
    assert np.max(np.linalg.norm(N - oracle / np.linalg.norm(oracle, axis=-1)[:, None],
                                 axis=-1)) < 1e-12


def test_normal_orthogonal_to_tangent_plane(wavy_cone):
    t = np.linspace(0.0, wavy_cone.base.period, 17)
    N = surface_normal(wavy_cone, t)
    y = wavy_cone.base.evaluate(t)
    y1 = wavy_cone.base.derivative(t, 1)
    assert np.max(np.abs(np.sum(N * y, axis=-1))) < 1e-9
    assert np.max(np.abs(np.sum(N * y1, axis=-1))) < 1e-9


def test_normal_independent_of_u(wavy_cone):
    t = np.linspace(0.0, 2.0, 7)
    assert np.array_equal(surface_normal(wavy_cone, t, 1.0),
                          surface_normal(wavy_cone, t, 7.0))


# ----------------------------------------------------------------------
# chart_coordinates


def test_chart_roundtrip(quarter_cone, wavy_cone):
    for cone in (quarter_cone, wavy_cone):
        rng = np.random.default_rng(1)
        for _ in range(8):
            t0 = rng.uniform(0.1, 1.5)
            u0 = rng.uniform(0.3, 4.0)
            t, u = chart_coordinates(cone, cone_point(cone, t0, u0))
            assert abs(u - u0) < 1e-8 * u0
            period = cone.base.period
            dt = abs(t - t0) % period
            assert min(dt, period - dt) < 1e-8


def test_chart_circular_azimuth_formula():
    cone = CircularCone(0.6)
    p = cone_point(cone, 0.4, 2.0)
    phi = np.arctan2(p[1], p[0])
    t, _ = chart_coordinates(cone, p)
    assert abs(t - phi * np.sin(0.6)) < 1e-12


def test_chart_rejects_off_cone_point(quarter_cone):
    p = cone_point(quarter_cone, 0.2, 2.0) * np.array([1.0, 1.0, 1.01])
    with pytest.raises(NotOnCone):
        chart_coordinates(quarter_cone, p)


def test_chart_rejects_vertex(quarter_cone):
    with pytest.raises(VertexPoint):
        chart_coordinates(quarter_cone, np.array([0.0, 0.0, 1e-12]))


# ----------------------------------------------------------------------
# batched chart inversion


def test_chart_curve_matches_sequential_oracle(wavy_cone):
    period = wavy_cone.base.period
    geodesic = generate_rectifying(RectifyingParams(1.5, -0.5, 0.2), wavy_cone.base)
    # winds 2.3 periods, so t must stay continuous across the seam
    latitude = latitude_circle(wavy_cone, 1.7, t_span=2.3 * period)
    for curve, n in ((geodesic, 256), (latitude, 700)):
        s = np.linspace(*curve.domain, n)
        t_ref, u_ref = sequential_chart_curve(wavy_cone, curve, s)
        chart = chart_curve(wavy_cone, curve, s=s)
        assert np.max(np.abs(chart.samples[1] - t_ref)) < 1e-12
        np.testing.assert_allclose(chart.samples[2], u_ref, rtol=1e-14, atol=0.0)
    assert np.ptp(chart.samples[1]) > 2.2 * period


@pytest.mark.parametrize("vertex_first", [True, False])
def test_chart_curve_first_offending_sample_raises(wavy_cone, vertex_first):
    base = wavy_cone.base
    s = np.linspace(0.0, 3.0, 40)
    pts = 2.0 * base.evaluate(s)
    i_vertex, i_off = (10, 25) if vertex_first else (25, 10)
    pts[i_vertex] *= 1e-6
    pts[i_off] *= np.array([1.0, 1.0, 1.01])
    curve = SpaceCurve.from_samples(s, pts)
    with pytest.raises((VertexPoint, NotOnCone)) as ref:
        sequential_chart_curve(wavy_cone, curve, s)
    with pytest.raises((VertexPoint, NotOnCone)) as got:
        chart_curve(wavy_cone, curve, s=s)
    assert type(got.value) is type(ref.value)
    assert type(got.value) is (VertexPoint if vertex_first else NotOnCone)
    assert str(got.value) == str(ref.value)


def test_chart_t_scalar_and_batch(wavy_cone):
    t0 = np.array([0.3, 1.1, 2.9])
    dirs = wavy_cone.base.evaluate(t0)
    one = wavy_cone.chart_t(dirs[1])
    many = wavy_cone.chart_t(dirs)
    assert isinstance(one, float)
    assert isinstance(many, np.ndarray) and many.shape == (3,)
    assert abs(one - t0[1]) < 1e-12
    assert np.max(np.abs(many - t0)) < 1e-12


def _sampled_closed_cone():
    base = perturbed_circle_base(0.8, seed=12, amplitude=0.04)
    t = np.linspace(0.0, base.period, 2049)
    pts = base.evaluate(t)
    pts[-1] = pts[0]
    return Cone(base_from_samples(t, pts))


@pytest.mark.parametrize("sampled", [False, True])
def test_chart_curve_base_calls_do_not_grow_with_samples(wavy_cone, monkeypatch, sampled):
    # a per-sample solve would call the base evaluators once or more per sample
    cone = _sampled_closed_cone() if sampled else wavy_cone
    base = cone.base
    calls = []
    for name in ("evaluate", "derivative", "derivatives", "jet"):
        method = getattr(base, name)

        def counted(*args, _method=method, **kwargs):
            calls.append(1)
            return _method(*args, **kwargs)

        monkeypatch.setattr(base, name, counted)
    curve = generate_rectifying(RectifyingParams(1.2, 0.4, -0.1), base)
    counts = []
    for n in (64, 1024):
        calls.clear()
        chart_curve(cone, curve, samples=n)
        counts.append(len(calls))
    assert counts[1] <= counts[0]
    assert counts[1] < 200


@pytest.mark.parametrize("closed", [True, False])
def test_newton_iteration_evaluates_each_base_offset_once(monkeypatch, closed):
    # value, y' and y'' of a sampled base come from one 5-tap stencil pass
    full = perturbed_circle_base(0.8, seed=12, amplitude=0.04)
    if closed:
        cone = _sampled_closed_cone()
    else:
        t_nodes = np.linspace(0.0, 0.6 * full.period, 801)
        cone = Cone(base_from_samples(t_nodes, full.evaluate(t_nodes)))
    t_true = np.linspace(0.5, 1.5, 40)
    dirs = cone.base.evaluate(t_true)
    calls = count_vector_hermite_calls(monkeypatch)
    monkeypatch.setattr(cones_module, "_NEWTON_CAP", 1)
    cone.chart_t(dirs, t_hint=t_true + 0.01)
    assert 1 <= len(calls) <= 6


def test_chart_latitude_on_open_sampled_base():
    full = perturbed_circle_base(0.8, seed=3, amplitude=0.04)
    t_nodes = np.linspace(0.0, 0.6 * full.period, 801)
    cone = Cone(base_from_samples(t_nodes, full.evaluate(t_nodes)))
    assert not cone.base.periodic
    u0 = 1.5
    lat = latitude_circle(cone, u0)
    s = np.linspace(*lat.domain, 200)
    chart = chart_curve(cone, lat, s=s)
    t_start = cone.base.domain[0] + cone.base.curve.fd_margin(3)
    assert np.max(np.abs(chart.samples[1] - (t_start + s / u0))) < 1e-9
    # between nodes the Hermite base sits slightly off the unit sphere
    assert np.max(np.abs(chart.samples[2] - u0)) < 1e-9 * u0


# ----------------------------------------------------------------------
# geodesic_curvature


def test_latitude_circle_curvature(quarter_cone, wavy_cone):
    for cone in (quarter_cone, wavy_cone):
        lat = latitude_circle(cone, 2.0)
        s = np.linspace(0.0, lat.length, 24)
        kg = geodesic_curvature(cone, lat, s)
        assert np.max(np.abs(np.abs(kg) - 0.5)) < 1e-9


def test_ruling_curvature_zero(quarter_cone):
    r = ruling(quarter_cone, 0.3, (0.5, 3.0))
    s = np.linspace(0.0, r.length, 9)
    assert np.max(np.abs(geodesic_curvature(quarter_cone, r, s))) < 1e-12


def test_generated_geodesic_curvature_vanishes(wavy_cone):
    cur = generate_rectifying(RectifyingParams(1.5, -0.5, 0.2), wavy_cone.base)
    s = np.linspace(*cur.domain, 48)
    assert np.max(np.abs(geodesic_curvature(wavy_cone, cur, s))) < 1e-5


# ----------------------------------------------------------------------
# clairaut_invariant


def test_clairaut_generated_chart():
    chart = rectifying_chart(RectifyingParams(2.0, 0.3, 0.1))
    s = np.linspace(*chart.domain, 33)
    inv = clairaut_invariant(CircularCone(0.5), chart, s)
    assert np.max(np.abs(np.abs(inv) - 0.5)) < 1e-14


def test_clairaut_latitude(quarter_cone):
    u0 = 2.0
    lat = latitude_circle(quarter_cone, u0)
    chart = chart_curve(quarter_cone, lat, samples=64)
    s = chart.samples[0]
    inv = clairaut_invariant(quarter_cone, chart, s)
    assert np.max(np.abs(inv - u0)) < 1e-6


def test_clairaut_ruling(quarter_cone):
    r = ruling(quarter_cone, 0.4, (0.5, 2.5))
    chart = chart_curve(quarter_cone, r, samples=64)
    inv = clairaut_invariant(quarter_cone, chart, chart.samples[0])
    assert np.max(np.abs(inv)) < 1e-9


# ----------------------------------------------------------------------
# develop


def test_develop_generated_chart_is_line():
    chart = rectifying_chart(RectifyingParams(1.0, 0.0, 0.0))
    s = np.linspace(*chart.domain, 65)
    pts = develop(chart).point(s)
    # closed-form image: (1, s) for a=1, b=0, c=0
    assert np.max(np.abs(pts[:, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(pts[:, 1] - s)) < 1e-12
    _, _, _, residual, distance = line_fit(pts)
    assert residual < 1e-8
    assert abs(distance - 1.0) < 1e-12


def test_develop_ruling_is_radial(quarter_cone):
    r = ruling(quarter_cone, 0.8, (0.5, 3.0))
    chart = chart_curve(quarter_cone, r, samples=48)
    pts = develop(chart).point(chart.samples[0])
    _, _, _, residual, distance = line_fit(pts)
    assert residual < 1e-9
    assert distance < 1e-9  # radial lines pass through the origin
    radii = np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(radii - chart.samples[2])) < 1e-12


def test_develop_latitude_is_arc(quarter_cone):
    u0 = 1.5
    lat = latitude_circle(quarter_cone, u0)
    chart = chart_curve(quarter_cone, lat, samples=128)
    pts = develop(chart).point(chart.samples[0])
    radii = np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(radii - u0)) < 1e-9
    _, _, _, residual, _ = line_fit(pts)
    assert residual > 0.1  # an arc, not a line


def test_develop_preserves_speed(quarter_cone):
    # analytic chart: exact jets
    chart = rectifying_chart(RectifyingParams(1.3, 0.7, -0.2))
    s = np.linspace(*chart.domain, 97)
    v = np.linalg.norm(develop(chart).velocity(s), axis=-1)
    assert np.max(np.abs(v - 1.0)) < 1e-8
    # sampled chart: series stencils, finite-difference tolerance
    cur = generate_rectifying(RectifyingParams(1.3, 0.7, -0.2), quarter_cone.base)
    sampled = chart_curve(quarter_cone, cur, samples=512)
    v2 = np.linalg.norm(develop(sampled).velocity(sampled.samples[0]), axis=-1)
    assert np.max(np.abs(v2 - 1.0)) < 1e-5


# ----------------------------------------------------------------------
# ruling


def test_ruling_on_cone(quarter_cone):
    r = ruling(quarter_cone, 1.1, (0.25, 2.0))
    s = np.linspace(0.0, r.length, 16)
    for p in r.evaluate(s):
        chart_coordinates(quarter_cone, p)  # must not raise


def test_ruling_straight(quarter_cone):
    r = ruling(quarter_cone, 1.1, (0.25, 2.0))
    s = np.linspace(0.0, r.length, 16)
    assert np.max(np.linalg.norm(r.derivative(s, 2), axis=-1)) == 0.0


def test_ruling_is_geodesic(quarter_cone):
    r = ruling(quarter_cone, 0.2, (0.5, 2.5))
    s = np.linspace(0.0, r.length, 32)
    assert np.max(np.abs(geodesic_curvature(quarter_cone, r, s))) < 1e-12
    chart = chart_curve(quarter_cone, r, s=s)
    _, _, _, residual, _ = line_fit(develop(chart).point(s))
    assert residual < 1e-9


# ----------------------------------------------------------------------
# structural identities


def test_remark_identity_on_cone_curves(wavy_cone):
    # |alpha x alpha' + u^2 t' N| ~ 0 for any unit-speed curve on the cone
    def t_jet(sig):
        return np.stack([sig + 0.3 * np.sin(sig), 1 + 0.3 * np.cos(sig),
                         -0.3 * np.sin(sig), -0.3 * np.cos(sig)])

    def u_jet(sig):
        return np.stack([1.5 + 0.4 * np.cos(0.7 * sig),
                         -0.28 * np.sin(0.7 * sig),
                         -0.196 * np.cos(0.7 * sig),
                         0.1372 * np.sin(0.7 * sig)])

    raw = curve_from_chart(wavy_cone.base, ChartCurve(t_jet, u_jet, (0.0, 4.0)))
    cur = reparametrize_arclength(raw)
    s = np.linspace(*cur.domain, 64)
    chart = chart_curve(wavy_cone, cur, s=s)
    t_arr, u_arr = chart.samples[1], chart.samples[2]
    N = surface_normal(wavy_cone, t_arr)
    # chart velocity decomposition gives dt/ds pointwise
    d1 = cur.derivative(s, 1)
    dt = np.sum(d1 * wavy_cone.base.derivative(t_arr, 1), axis=-1) / u_arr
    lhs = np.cross(cur.evaluate(s), d1) + (u_arr**2 * dt)[:, None] * N
    assert np.max(np.linalg.norm(lhs, axis=-1)) < 1e-6


def test_metric_compatibility(wavy_cone):
    cur = generate_rectifying(RectifyingParams(0.8, 0.3, 0.5), wavy_cone.base)
    chart = chart_curve(wavy_cone, cur, samples=512)
    speed = chart.speed(chart.samples[0][4:-4])
    assert np.max(np.abs(speed - 1.0)) < 1e-5


# ----------------------------------------------------------------------
# descriptors


def test_base_from_samples_rejects_off_sphere():
    from conegeo import base_from_samples
    from conegeo.errors import DegenerateBase

    t = np.linspace(0.0, 2 * np.pi, 256)
    pts = 1.01 * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
    with pytest.raises(DegenerateBase):
        base_from_samples(t, pts)


def test_develop_rejects_nonpositive_radius():
    def t_jet(s):
        return np.stack([s, np.ones_like(s), np.zeros_like(s), np.zeros_like(s)])

    def u_jet(s):
        z = np.zeros_like(s)
        return np.stack([s - 0.5, np.ones_like(s), z, z])  # u crosses zero

    chart = ChartCurve(t_jet, u_jet, (0.0, 1.0))
    with pytest.raises(NonpositiveRadialCoordinate):
        develop(chart)


def test_cone_descriptor_roundtrip(tmp_path):
    cone = cone_from_descriptor({"kind": "circular", "psi0": 0.9})
    assert isinstance(cone, CircularCone) and cone.psi0 == 0.9

    base = perturbed_circle_base(0.7, seed=4)
    t = np.linspace(0.0, base.period, 2049)
    write_base_csv(tmp_path / "base.csv", t, base.evaluate(t))
    desc = {"kind": "general", "base_csv": str(tmp_path / "base.csv")}
    general = cone_from_descriptor(desc)
    p = cone_point(general, 1.0, 2.0)
    assert abs(np.linalg.norm(p) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        cone_from_descriptor({"kind": "hyperbolic"})
