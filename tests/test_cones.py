import itertools
import tracemalloc

import numpy as np
import pytest

from conegeo import (
    ChartCurve,
    CircularCone,
    Cone,
    RectifyingParams,
    SpaceCurve,
    SphericalBaseCurve,
    base_from_samples,
    chart_coordinates,
    chart_curve,
    chart_points,
    circular_base,
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
    spherical_curve,
    surface_normal,
    write_base_csv,
)
from conegeo.errors import (
    DegenerateBase,
    NonpositiveRadialCoordinate,
    NotOnCone,
    VertexPoint,
)
from conegeo import cones as cones_module
from conegeo import jets
from helpers import (
    assert_bitwise,
    count_vector_hermite_calls,
    reference_circular_base,
    reference_spherical_curve,
    sequential_chart_curve,
    sequential_chart_t,
)


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
    y1 = cone.base.derivatives(t, (1,))[0]
    oracle = np.cross(y1, y)
    assert np.max(np.abs(np.abs(oracle[:, 2]) - np.sin(np.pi / 6))) < 1e-12
    assert np.max(np.linalg.norm(N - oracle / np.linalg.norm(oracle, axis=-1)[:, None],
                                 axis=-1)) < 1e-12


def test_normal_orthogonal_to_tangent_plane(wavy_cone):
    t = np.linspace(0.0, wavy_cone.base.period, 17)
    N = surface_normal(wavy_cone, t)
    y = wavy_cone.base.evaluate(t)
    y1 = wavy_cone.base.derivatives(t, (1,))[0]
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


def _chart_cone(kind):
    if kind == "circular":
        return CircularCone(0.8)
    return _sampled_closed_cone() if kind == "closed" else _open_sampled_cone()


@pytest.mark.parametrize("kind", ["circular", "closed", "open"])
def test_chart_coordinates_is_one_point_of_chart_points(kind):
    cone = _chart_cone(kind)
    for t0, u0 in ((0.2, 0.5), (0.9, 3.0), (1.6, 1e5), (2.3, 0.01)):
        p = cone_point(cone, t0, u0)
        t, u = chart_coordinates(cone, p)
        ts, us = chart_points(cone, p)
        assert type(t) is float and type(u) is float
        assert_bitwise([t, u], [ts[0], us[0]])
    off = cone_point(cone, 0.9, 2.0) * np.array([1.0, 1.0, 1.01])
    for bad, error in ((np.array([0.0, 0.0, 1e-12]), VertexPoint), (off, NotOnCone)):
        with pytest.raises(error) as one:
            chart_coordinates(cone, bad)
        with pytest.raises(error) as many:
            chart_points(cone, bad)
        assert str(one.value) == str(many.value)


@pytest.mark.parametrize("kind", ["circular", "closed", "open"])
def test_nan_point_is_outside_the_chart_range(kind):
    # a NaN |point| is outside the chart range, not a bad base parameter
    cone = _chart_cone(kind)
    rows = np.stack([cone_point(cone, 0.7, 2.0), [0.3, np.nan, 0.4]])
    for chart in (chart_points, chart_coordinates):
        with pytest.raises(VertexPoint) as err:
            chart(cone, rows)
        assert str(err.value) == "|point| = nan outside the chart range [0.001, 1e+06]"


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
        assert np.max(np.abs(chart.t - t_ref)) < 1e-12
        np.testing.assert_allclose(chart.u, u_ref, rtol=1e-14, atol=0.0)
    assert np.ptp(chart.t) > 2.2 * period


@pytest.mark.parametrize("vertex_first", [True, False])
def test_chart_curve_first_offending_sample_raises(wavy_cone, quarter_cone, vertex_first):
    # circular cones chart in closed form but share the first-offender rule;
    # a sample past U_MAX is outside the chart range as the vertex is
    for cone, scale in itertools.product((wavy_cone, quarter_cone), (1e-6, 1e7)):
        s = np.linspace(0.0, 3.0, 40)
        pts = 2.0 * cone.base.evaluate(s)
        i_vertex, i_off = (10, 25) if vertex_first else (25, 10)
        pts[i_vertex] *= scale
        pts[i_off] *= np.array([1.0, 1.0, 1.01])
        curve = SpaceCurve.from_samples(s, pts)
        with pytest.raises((VertexPoint, NotOnCone)) as ref:
            sequential_chart_curve(cone, curve, s)
        with pytest.raises((VertexPoint, NotOnCone)) as got:
            chart_curve(cone, curve, s=s)
        assert type(got.value) is type(ref.value)
        assert type(got.value) is (VertexPoint if vertex_first else NotOnCone)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("block", [1, 8, 16384])
def test_chart_points_first_off_cone_point_raises_past_the_first_block(
        wavy_cone, quarter_cone, monkeypatch, block):
    # the residual is checked block by block: the first off-cone point, in
    # order, raises even where a worse one follows it in a later block
    monkeypatch.setattr(cones_module, "_CHECK_BLOCK", block)
    for cone in (wavy_cone, quarter_cone):
        s = np.linspace(0.0, 3.0, 40)
        pts = 2.0 * cone.base.evaluate(s)
        pts[10] *= np.array([1.0, 1.0, 1.01])
        pts[25] *= np.array([1.0, 1.0, 1.5])
        with pytest.raises(NotOnCone) as ref:
            sequential_chart_curve(cone, SpaceCurve.from_samples(s, pts), s)
        with pytest.raises(NotOnCone) as got:
            chart_points(cone, pts)
        assert str(got.value) == str(ref.value)


def _peak_above(fn):
    """Peak traced bytes of fn() above what was held when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_chart_points_peak_memory_is_bounded(quarter_cone):
    # the on-cone residual's (n, 3) temporaries are built one block at a
    # time: 56 bytes per point here, against 104 with one whole-curve pass
    n = 200_000
    pts = 2.0 * quarter_cone.base.evaluate(np.linspace(0.0, 20.0, n))
    assert _peak_above(lambda: chart_points(quarter_cone, pts)) / n <= 64


def test_chart_points_peak_memory_on_a_bench_sized_curve(quarter_cone):
    # 5,001 points, an RK4 trajectory of the bench, fit in three residual
    # blocks: 76 bytes per point, against 118 in one 16,384-point block
    n = 5_001
    pts = 2.0 * quarter_cone.base.evaluate(np.linspace(0.0, 20.0, n))
    chart_points(quarter_cone, pts[:4])
    assert _peak_above(lambda: chart_points(quarter_cone, pts)) / n <= 96


def test_chart_points_seed_scores_are_blocked():
    # 256 directions against the 1024-point base grid were one 2 MiB score
    # matrix; in seed blocks the whole chart stays under 1 MiB
    cone = _sampled_closed_cone()
    pts = 2.0 * cone.base.evaluate(np.linspace(0.1, 3.0, 256))
    chart_points(cone, pts[:4])
    assert _peak_above(lambda: chart_points(cone, pts)) <= 2**20


def test_perturbed_circle_base_peak_is_bounded():
    # its arc-length quadrature evaluates the speed in blocks (2.7 MiB at
    # one call per Simpson level)
    perturbed_circle_base(0.5, seed=1)
    assert _peak_above(lambda: perturbed_circle_base(0.93, seed=77, amplitude=0.03)) \
        <= 1.5 * 2**20


def test_chart_t_over_seed_blocks_matches_sequential():
    cone = _sampled_closed_cone()
    rng = np.random.default_rng(3)
    dirs = cone.base.evaluate(rng.uniform(0.0, cone.base.period, 100))
    dirs += 1e-3 * rng.normal(size=dirs.shape)
    dirs /= np.linalg.norm(dirs, axis=-1)[:, None]
    # Newton stops this one on a step between 1e-13 and 1e-12, where one more
    # iteration would move its t by an ulp
    dirs = np.vstack([dirs, [-0.559846760326614, -0.5271943092058483, 0.6392478121141778]])
    assert dirs.shape[0] > 3 * cones_module._SEED_BLOCK
    assert_bitwise(cone.chart_t(dirs), [sequential_chart_t(cone, d) for d in dirs])


def test_chart_t_scalar_and_batch(wavy_cone):
    t0 = np.array([0.3, 1.1, 2.9])
    dirs = wavy_cone.base.evaluate(t0)
    one = wavy_cone.chart_t(dirs[1:2])
    many = wavy_cone.chart_t(dirs)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert isinstance(many, np.ndarray) and many.shape == (3,)
    assert abs(one[0] - t0[1]) < 1e-12
    assert np.max(np.abs(many - t0)) < 1e-12


def _sampled_closed_cone():
    base = perturbed_circle_base(0.8, seed=12, amplitude=0.04)
    t = np.linspace(0.0, base.period, 2049)
    pts = base.evaluate(t)
    pts[-1] = pts[0]
    return Cone(base_from_samples(t, pts))


def _open_sampled_cone():
    full = perturbed_circle_base(0.8, seed=12, amplitude=0.04)
    t_nodes = np.linspace(0.0, 0.6 * full.period, 801)
    return Cone(base_from_samples(t_nodes, full.evaluate(t_nodes)))


@pytest.mark.parametrize("sampled", [False, True])
def test_chart_curve_base_calls_do_not_grow_with_samples(wavy_cone, monkeypatch, sampled):
    # a per-sample solve would call the base evaluators once or more per sample
    cone = _sampled_closed_cone() if sampled else wavy_cone
    base = cone.base
    calls = []
    for name in ("evaluate", "derivatives", "jet"):
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
    # value, y' and y'' of a sampled base come from one 5-tap stencil pass,
    # after one pass over the seed grid
    cone = _sampled_closed_cone() if closed else _open_sampled_cone()
    t_true = np.linspace(0.5, 1.5, 40)
    dirs = cone.base.evaluate(t_true)
    calls = count_vector_hermite_calls(monkeypatch)
    monkeypatch.setattr(cones_module, "_NEWTON_CAP", 1)
    cone.chart_t(dirs)
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
    assert np.max(np.abs(chart.t - (t_start + s / u0))) < 1e-9
    # between nodes the Hermite base sits slightly off the unit sphere
    assert np.max(np.abs(chart.u - u0)) < 1e-9 * u0


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


def test_geodesic_curvature_of_a_scalar_and_of_few_points(quarter_cone, wavy_cone):
    # the points are charted without a sampled chart, which needs 7 nodes
    for cone in (quarter_cone, wavy_cone):
        lat = latitude_circle(cone, 2.0)
        s = 0.3 + 0.15 * np.arange(9)
        kg = geodesic_curvature(cone, lat, s)
        scalar = geodesic_curvature(cone, lat, 0.3)
        assert isinstance(scalar, float)
        assert abs(scalar - kg[0]) <= 1e-12
        assert np.max(np.abs(geodesic_curvature(cone, lat, s[:5]) - kg[:5])) <= 1e-12


def test_generated_geodesic_curvature_vanishes(wavy_cone):
    cur = generate_rectifying(RectifyingParams(1.5, -0.5, 0.2), wavy_cone.base)
    s = np.linspace(*cur.domain, 48)
    assert np.max(np.abs(geodesic_curvature(wavy_cone, cur, s))) < 1e-5


# ----------------------------------------------------------------------
# the Clairaut invariant u^2 t', read off the chart jets or, at charted
# samples, off the velocity decomposition alpha' = u' y(t) + u t' y'(t)


def _clairaut(chart, s):
    return chart.u_jet(s, 0)[0] ** 2 * chart.t_jet(s, 1)[1]


def _velocity_parts(cone, curve, chart):
    """(u', u t') at the chart's samples: alpha' read on the orthonormal y(t), y'(t)."""
    d1 = curve.derivative(chart.s, 1)
    y, y1 = cone.base.derivatives(chart.t, (0, 1))
    return np.sum(d1 * y, axis=-1), np.sum(d1 * y1, axis=-1)


def test_clairaut_generated_chart():
    chart = rectifying_chart(RectifyingParams(2.0, 0.3, 0.1))
    s = np.linspace(*chart.domain, 33)
    inv = _clairaut(chart, s)
    assert np.max(np.abs(np.abs(inv) - 0.5)) < 1e-14


def test_clairaut_latitude(quarter_cone):
    u0 = 2.0
    lat = latitude_circle(quarter_cone, u0)
    chart = chart_curve(quarter_cone, lat, samples=64)
    inv = chart.u * _velocity_parts(quarter_cone, lat, chart)[1]
    assert np.max(np.abs(inv - u0)) < 1e-6


def test_clairaut_ruling(quarter_cone):
    r = ruling(quarter_cone, 0.4, (0.5, 2.5))
    chart = chart_curve(quarter_cone, r, samples=64)
    inv = chart.u * _velocity_parts(quarter_cone, r, chart)[1]
    assert np.max(np.abs(inv)) < 1e-9


# ----------------------------------------------------------------------
# develop


def test_develop_generated_chart_is_line():
    chart = rectifying_chart(RectifyingParams(1.0, 0.0, 0.0))
    s = np.linspace(*chart.domain, 65)
    pts = develop(chart.t_jet(s, 0)[0], chart.u_jet(s, 0)[0])
    # closed-form image: (1, s) for a=1, b=0, c=0
    assert np.max(np.abs(pts[:, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(pts[:, 1] - s)) < 1e-12
    _, _, _, residual, distance = line_fit(pts)
    assert residual < 1e-8
    assert abs(distance - 1.0) < 1e-12


def test_line_fit_residual_is_the_largest_deviation():
    # 101 points on the x axis, one moved 1e-3 off it: the fitted line moves
    # by about 1e-5, so only the largest deviation sees the moved point
    pts = np.stack([np.linspace(0.0, 1.0, 101), np.zeros(101)], axis=-1)
    pts[50, 1] = 1e-3
    centroid, _, normal, residual, _ = line_fit(pts)
    assert residual == float(np.max(np.abs((pts - centroid) @ normal)))
    assert 0.98e-3 < residual < 1e-3


def test_unit_normal_refuses_a_tangent_parallel_to_its_position():
    # no base reaches this from the command line: a base is unit speed on the
    # unit sphere, so <y, y'> = 0 and |y' x y| = 1, and one that retraces
    # itself stops at a zero speed (SingularSpeed).  The guard checks the
    # function's own input.
    y = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateBase, match="parallel to position"):
        cones_module.unit_normal(y, np.array([[0.0, 1.0, 0.0], [2.0, 1e-7, 0.0]]))


def test_develop_ruling_is_radial(quarter_cone):
    r = ruling(quarter_cone, 0.8, (0.5, 3.0))
    chart = chart_curve(quarter_cone, r, samples=48)
    pts = develop(chart.t, chart.u)
    _, _, _, residual, distance = line_fit(pts)
    assert residual < 1e-9
    assert distance < 1e-9  # radial lines pass through the origin
    radii = np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(radii - chart.u)) < 1e-12


def test_develop_latitude_is_arc(quarter_cone):
    u0 = 1.5
    lat = latitude_circle(quarter_cone, u0)
    chart = chart_curve(quarter_cone, lat, samples=128)
    pts = develop(chart.t, chart.u)
    radii = np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(radii - u0)) < 1e-9
    _, _, _, residual, _ = line_fit(pts)
    assert residual > 0.1  # an arc, not a line


# ----------------------------------------------------------------------
# closed forms built from the shared curves, against their hand-written forms


@pytest.mark.parametrize("psi0", [0.05, 0.4, np.pi / 4, 1.2, 1.55])
def test_circular_base_is_the_hand_written_circle_bitwise(psi0):
    base, ref = circular_base(psi0), reference_circular_base(psi0)
    assert (base.domain, base.period, base.periodic) == (ref.domain, ref.period, True)
    # across the seam and several turns, both signs, and the period itself
    t = np.concatenate([np.linspace(-2.5, 3.5, 997) * ref.period, [0.0, ref.period]])
    for order in range(4):
        assert_bitwise(base.jet(t, order), ref.jet(t, order))
    assert_bitwise(base.evaluate(t), ref.evaluate(t))
    assert_bitwise(base.evaluate(0.7), ref.evaluate(0.7))


def _open_sampled_base():
    full = perturbed_circle_base(0.8, seed=5, amplitude=0.03)
    t = np.linspace(0.0, 0.6 * full.period, 1201)
    return base_from_samples(t, full.evaluate(t))


@pytest.mark.parametrize("make", [lambda: circular_base(0.8),
                                  lambda: perturbed_circle_base(1.1, seed=3),
                                  _open_sampled_base],
                         ids=["circular", "perturbed", "open-sampled"])
@pytest.mark.parametrize("radius", [0.3, 1.0, 2.7])
def test_spherical_curve_is_the_hand_chained_chart_bitwise(make, radius):
    base = make()
    sph, ref = spherical_curve(base, radius), reference_spherical_curve(base, radius)
    assert sph.domain == ref.domain and sph.derivative_mode == ref.derivative_mode
    # inside the order-3 stencil margin of an open finite-difference base
    m = radius * base.curve.fd_margin(3) * 1.01
    s = np.linspace(sph.domain[0] + m, sph.domain[1] - m, 301)
    for order in range(4):
        assert_bitwise(sph.jet(s, order), ref.jet(s, order))
    assert_bitwise(sph.evaluate(s), ref.evaluate(s))


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


@pytest.mark.parametrize("cone_kind", ["circular", "wavy"])
def test_ruling_is_u_times_the_base_point(quarter_cone, wavy_cone, cone_kind):
    cone = quarter_cone if cone_kind == "circular" else wavy_cone
    y0 = cone.base.evaluate(0.9)
    r = ruling(cone, 0.9, (0.4, 2.9))
    assert r.domain == (0.0, 2.5) and r.derivative_mode == "analytic"
    s = np.linspace(0.0, 2.5, 41)
    p, d1, d2, d3 = r.jet(s)
    assert np.max(np.abs(p - (0.4 + s)[:, None] * y0)) < 1e-15
    assert np.max(np.abs(d1 - y0)) < 1e-15
    assert not d2.any() and not d3.any()


def test_ruling_is_geodesic(quarter_cone):
    r = ruling(quarter_cone, 0.2, (0.5, 2.5))
    s = np.linspace(0.0, r.length, 32)
    assert np.max(np.abs(geodesic_curvature(quarter_cone, r, s))) < 1e-12
    chart = chart_curve(quarter_cone, r, s=s)
    _, _, _, residual, _ = line_fit(develop(chart.t, chart.u))
    assert residual < 1e-9


# ----------------------------------------------------------------------
# structural identities


def test_remark_identity_on_cone_curves(wavy_cone):
    # |alpha x alpha' + u^2 t' N| ~ 0 for any unit-speed curve on the cone
    def t_jet(sig, order=3):
        return np.stack([sig + 0.3 * np.sin(sig), 1 + 0.3 * np.cos(sig),
                         -0.3 * np.sin(sig), -0.3 * np.cos(sig)])

    def u_jet(sig, order=3):
        return np.stack([1.5 + 0.4 * np.cos(0.7 * sig),
                         -0.28 * np.sin(0.7 * sig),
                         -0.196 * np.cos(0.7 * sig),
                         0.1372 * np.sin(0.7 * sig)])

    raw = curve_from_chart(wavy_cone.base, ChartCurve(t_jet, u_jet, (0.0, 4.0)))
    cur = reparametrize_arclength(raw)
    s = np.linspace(*cur.domain, 64)
    chart = chart_curve(wavy_cone, cur, s=s)
    N = surface_normal(wavy_cone, chart.t)
    # chart velocity decomposition gives u t' pointwise
    u_dt = _velocity_parts(wavy_cone, cur, chart)[1]
    lhs = np.cross(cur.evaluate(s), cur.derivative(s, 1)) + (chart.u * u_dt)[:, None] * N
    assert np.max(np.linalg.norm(lhs, axis=-1)) < 1e-6


def test_metric_compatibility(wavy_cone):
    cur = generate_rectifying(RectifyingParams(0.8, 0.3, 0.5), wavy_cone.base)
    chart = chart_curve(wavy_cone, cur, samples=512)
    # |alpha'|^2 = u'^2 + u^2 t'^2: a velocity off the tangent plane reads short
    speed = np.hypot(*_velocity_parts(wavy_cone, cur, chart))
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


def _sped_up(curve, k):
    """y(k t): the curve at k times its speed, its jet chain-ruled."""
    d0, d1 = curve.domain
    scale = k ** np.arange(4)[:, None, None]

    def jet(t, order):
        return curve.jet(k * t, order) * scale[:order + 1]

    return SpaceCurve(jet, (d0 / k, d1 / k))


def _named_speed(message):
    """The deviation and the t that a DegenerateBase speed message names."""
    head, _, rest = message.partition(" at t = ")
    assert head.startswith("base speed is off 1 by ") and rest.endswith("; t must be arc length")
    return float(head.rsplit(" ", 1)[1]), float(rest.split(";")[0])


@pytest.mark.parametrize("k", [np.sin(0.8), 1.0 + 1e-9, 1.3])
def test_analytic_base_off_unit_speed_is_refused(monkeypatch, k):
    # analytic bases are held to UNIT_TOL["analytic"] = 1e-12, and none is repaired
    monkeypatch.setattr(cones_module, "reparametrize_arclength", None)
    curve = _sped_up(circular_base(0.8).curve, k)
    with pytest.raises(DegenerateBase) as info:
        SphericalBaseCurve(curve, periodic=True)
    named, t = _named_speed(str(info.value))
    off = abs(np.linalg.norm(curve.derivative(t, 1)) - 1.0)
    assert named == float(f"{abs(k - 1.0):.3g}") and f"{off:.3g}" == f"{named:.3g}"
    assert curve.domain[0] <= t <= curve.domain[1]


def _circle_rows(theta):
    """Rows of the psi0 = 0.8 circle at polar angles theta, the last one the first."""
    pts = circular_base(0.8).evaluate(theta * np.sin(0.8))
    pts[-1] = pts[0]
    return pts


@pytest.mark.parametrize("rows", [257, 2049])
@pytest.mark.parametrize("stretch,off", [(1.0 / np.sin(0.8), "0.283"), (1.0 + 1e-4, "0.0001")])
def test_sampled_base_off_unit_speed_is_refused(rows, stretch, off):
    # stretch 1/sin(0.8) labels the circle by its angle; 1 + 1e-4 is past
    # the derivative noise UNIT_TOL["finite-difference"] = 1e-5.  The named
    # t is a row, and the speed there is that of the row's node slope.
    theta = np.linspace(0.0, 2 * np.pi, rows)
    t = theta * np.sin(0.8) * stretch
    with pytest.raises(DegenerateBase) as info:
        base_from_samples(t, _circle_rows(theta))
    named, at = _named_speed(str(info.value))
    row = int(np.argmin(np.abs(t - at)))
    real = abs(np.linalg.norm(jets.node_slopes(t, _circle_rows(theta))[row]) - 1.0)
    assert f"{named:.3g}" == off == f"{real:.3g}" and f"{t[row]:.6g}" == f"{at:.6g}"


def test_sampled_base_with_one_mislabelled_row_is_refused():
    # row 1004 of a 2,049-row arc-length circle, its t moved by 0.1 of a
    # step, lies between two points of a 257-point scan; its neighbour's
    # node slope reads 0.0585 off unit speed
    theta = np.linspace(0.0, 2 * np.pi, 2049)
    t = theta * np.sin(0.8)
    t[1004] += 0.1 * (t[1] - t[0])
    with pytest.raises(DegenerateBase) as info:
        base_from_samples(t, _circle_rows(theta))
    named, at = _named_speed(str(info.value))
    assert named == 0.0585 and f"{at:.6g}" == f"{t[1005]:.6g}"


@pytest.mark.parametrize("rows", [257, 2049])
@pytest.mark.parametrize("stretch", [1.0, 1.0 + 1e-6])
def test_sampled_base_labelled_by_arc_length_is_kept_as_it_is(monkeypatch, rows, stretch):
    # a sampled base need only be unit speed to its derivative noise,
    # UNIT_TOL["finite-difference"] = 1e-5, and it keeps its nodes and labels
    monkeypatch.setattr(cones_module, "reparametrize_arclength", None)
    theta = np.linspace(0.0, 2 * np.pi, rows)
    t = theta * np.sin(0.8) * stretch
    base = base_from_samples(t, _circle_rows(theta))
    assert base.curve.nodes is not None and base.domain == (t[0], t[-1])
    assert base.period == t[-1] - t[0]
    assert_bitwise(base.curve.nodes[0], t)


def test_sampled_base_takes_the_node_slopes_of_its_curve(monkeypatch):
    # the interpolant's slopes are computed once, and the speed check reads them
    calls = []
    node_slopes = jets.node_slopes
    monkeypatch.setattr(jets, "node_slopes", lambda *a: calls.append(1) or node_slopes(*a))
    theta = np.linspace(0.0, 2 * np.pi, 2049)
    t = theta * np.sin(0.8)
    base = base_from_samples(t, _circle_rows(theta))
    assert len(calls) == 1
    assert_bitwise(base.curve.node_slopes, node_slopes(t, _circle_rows(theta)))


def test_develop_rejects_nonpositive_radius():
    s = np.linspace(0.0, 1.0, 16)
    with pytest.raises(NonpositiveRadialCoordinate):
        develop(s, s - 0.5)  # u crosses zero


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
