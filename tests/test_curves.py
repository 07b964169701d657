import warnings

import numpy as np
import pytest

from conegeo import (
    DerivativeSettings,
    RectifyingParams,
    SpaceCurve,
    circle_curve,
    cross_magnitude,
    frenet_apparatus,
    generate_circular_geodesic,
    helix_curve,
    line_curve,
    read_curve_csv,
    reparametrize_arclength,
    sample_grid,
    spherical_curve,
    perturbed_circle_base,
    write_curve_csv,
)
from conegeo import jets as jt
from conegeo.curves import _adaptive_simpson_segments, read_table, table_text
from conegeo.errors import (
    InsufficientMargin,
    ParameterOutOfDomain,
    SingularSpeed,
    VanishingCurvature,
)
from helpers import random_unit_speed_curve


# ----------------------------------------------------------------------
# evaluate


def test_evaluate_unit_circle_origin():
    circ = circle_curve(1.0)
    assert np.allclose(circ.evaluate(0.0), [1.0, 0.0, 0.0])


def test_evaluate_circular_cone_geodesic_start():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 4)
    expect = [np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)]
    assert np.allclose(cur.evaluate(0.0), expect, atol=1e-12)
    assert np.allclose(cur.evaluate(0.0), [0.70711, 0.0, 0.70711], atol=5e-6)


def test_evaluate_sampled_between_nodes_matches_hermite_oracle():
    s = np.linspace(0.0, 1.0, 9)
    pts = np.stack([np.sin(2 * s), s**2, np.cos(s)], axis=-1)
    poly = SpaceCurve.from_samples(s, pts)
    q = 0.5 * (s[3] + s[4])
    # independent recomputation of the cubic Hermite weights on [s3, s4]
    h = s[4] - s[3]
    th = (q - s[3]) / h
    m = jt.node_slopes(s, pts)
    w = np.array([2 * th**3 - 3 * th**2 + 1, th**3 - 2 * th**2 + th,
                  -2 * th**3 + 3 * th**2, th**3 - th**2])
    oracle = w[0] * pts[3] + w[1] * h * m[3] + w[2] * pts[4] + w[3] * h * m[4]
    assert np.allclose(poly.evaluate(q), oracle, atol=1e-15)


def test_evaluate_out_of_domain():
    circ = circle_curve(1.0)
    with pytest.raises(ParameterOutOfDomain):
        circ.evaluate(100.0)


def test_nan_parameter_is_out_of_domain():
    circ = circle_curve(1.0)
    for s in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ParameterOutOfDomain):
            circ.evaluate(s)
        with pytest.raises(ParameterOutOfDomain):
            circ.derivative(s, 1)


# ----------------------------------------------------------------------
# derivative


def test_derivative_unit_circle():
    circ = circle_curve(1.0)
    assert np.allclose(circ.derivative(0.0, 1), [0.0, 1.0, 0.0])


def test_derivative_fd_order2_matches_analytic():
    hx = helix_curve(0.6, 0.8)
    fd_twin = SpaceCurve.from_function(
        lambda s: hx.evaluate(s), hx.domain,
        settings=DerivativeSettings(h=1e-4, scheme=2),
    )
    s = np.linspace(1.0, 5.0, 11)
    assert np.max(np.abs(fd_twin.derivative(s, 1) - hx.derivative(s, 1))) < 1e-6


def test_derivative_constant_curve_is_zero():
    # h large enough that round-off amplification 1/h^3 stays negligible
    const = SpaceCurve.from_function(
        lambda s: np.broadcast_to([1.0, 2.0, 3.0], s.shape + (3,)).copy(), (0.0, 1.0),
        settings=DerivativeSettings(h=0.005),
    )
    for order in (1, 2, 3):
        assert np.allclose(const.derivative(0.5, order), 0.0, atol=1e-8)


def _counting_fd_helix():
    hx = helix_curve(0.6, 0.8)
    calls = []

    def evaluator(q):
        calls.append(q.size)
        return hx.evaluate(q)

    return SpaceCurve.from_function(evaluator, hx.domain), calls


@pytest.mark.parametrize("scalar", [False, True])
def test_derivatives_bitwise_equal_to_single_orders(scalar):
    hx = helix_curve(0.6, 0.8)
    fd, _ = _counting_fd_helix()
    s = 2.5 if scalar else np.linspace(1.0, 5.0, 11)
    for curve in (hx, fd):
        got = curve.derivatives(s, (0, 1, 2, 3))
        expect = [curve.evaluate(s)] + [curve.derivative(s, k) for k in (1, 2, 3)]
        for g, e in zip(got, expect):
            assert g.shape == e.shape
            assert g.tobytes() == e.tobytes()
        assert curve.jet(s).tobytes() == np.stack(
            [np.atleast_2d(e) for e in expect]).tobytes()


def test_fd_frames_and_jet_evaluate_each_offset_once():
    # one evaluator call per distinct stencil offset -3..3, not one per term
    fd, calls = _counting_fd_helix()
    s = np.linspace(1.0, 5.0, 11)
    frenet_apparatus(fd, s)
    assert len(calls) == 7
    calls.clear()
    fd.jet(s)
    assert len(calls) == 7


def test_derivatives_margin_of_highest_order():
    fd, _ = _counting_fd_helix()
    s0 = fd.domain[0]
    edge = s0 + fd.fd_margin(2)
    fd.derivatives(edge, (0, 1, 2))
    with pytest.raises(InsufficientMargin):
        fd.derivatives(edge, (0, 1, 2, 3))


def test_derivative_margin_enforced():
    fd = SpaceCurve.from_function(
        lambda s: np.stack([s, s**2, np.zeros_like(s)], axis=-1), (0.0, 1.0)
    )
    with pytest.raises(InsufficientMargin):
        fd.derivative(0.0, 3)


# ----------------------------------------------------------------------
# reparametrize_arclength


def test_reparametrize_unit_speed_is_identity():
    circ = circle_curve(3.0)
    assert reparametrize_arclength(circ) is circ


def test_reparametrize_circle_by_angle():
    def jet(t):
        zero = np.zeros_like(t)
        p = np.stack([2 * np.cos(t), 2 * np.sin(t), zero], axis=-1)
        d1 = np.stack([-2 * np.sin(t), 2 * np.cos(t), zero], axis=-1)
        d2 = np.stack([-2 * np.cos(t), -2 * np.sin(t), zero], axis=-1)
        d3 = np.stack([2 * np.sin(t), -2 * np.cos(t), zero], axis=-1)
        return np.stack([p, d1, d2, d3])

    raw = SpaceCurve.from_function(lambda t: jet(t)[0], (0.0, 2 * np.pi), jet=jet)
    unit = reparametrize_arclength(raw)
    assert abs(unit.length - 4 * np.pi) < 1e-9
    s = np.linspace(*unit.domain, 65)
    speeds = np.linalg.norm(unit.derivative(s, 1), axis=-1)
    assert np.max(np.abs(speeds - 1.0)) < 1e-12


def test_reparametrize_cubic_against_quadrature_oracle():
    def jet(t):
        zero = np.zeros_like(t)
        p = np.stack([t**3 + t, zero, zero], axis=-1)
        d1 = np.stack([3 * t**2 + 1, zero, zero], axis=-1)
        d2 = np.stack([6 * t, zero, zero], axis=-1)
        d3 = np.stack([6 * np.ones_like(t), zero, zero], axis=-1)
        return np.stack([p, d1, d2, d3])

    raw = SpaceCurve.from_function(lambda t: jet(t)[0], (0.0, 1.0), jet=jet)
    unit = reparametrize_arclength(raw)
    # oracle: dense trapezoid quadrature of the speed 3 t^2 + 1
    t = np.linspace(0.0, 1.0, 200001)
    oracle = np.trapezoid(3 * t**2 + 1, t)
    assert abs(oracle - 2.0) < 1e-9  # analytic arc length
    assert abs(unit.length - oracle) < 1e-8


def test_reparametrize_idempotent_property():
    rng = np.random.default_rng(11)
    for _ in range(4):
        unit = random_unit_speed_curve(rng)
        again = reparametrize_arclength(unit)
        s = np.linspace(*unit.domain, 33)
        assert np.max(np.abs(again.evaluate(s) - unit.evaluate(s))) < 1e-8


def test_reparametrize_singular_speed():
    def jet(t):
        zero = np.zeros_like(t)
        p = np.stack([t**2, zero, zero], axis=-1)
        d1 = np.stack([2 * t, zero, zero], axis=-1)
        d2 = np.stack([2 * np.ones_like(t), zero, zero], axis=-1)
        return np.stack([p, d1, d2, np.zeros_like(p)])

    cusp = SpaceCurve.from_function(lambda t: jet(t)[0], (-1.0, 1.0), jet=jet)
    with pytest.raises(SingularSpeed):
        reparametrize_arclength(cusp)


def test_simpson_stops_on_nonfinite_integrand():
    # a NaN update never meets the tolerance; refining it would only grow
    # the panel count, so such intervals stop after the first doubling
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    out = _adaptive_simpson_segments(f, np.array([0.0, 0.5, 1.0]), 1e-10)
    assert np.all(np.isnan(out))
    assert len(calls) == 2


def test_reparametrize_rejects_nonfinite_speed():
    nan_curve = SpaceCurve.from_function(
        lambda s: np.where(s[:, None] > 0.5, np.nan, s[:, None] * [1.0, 0.0, 0.0]),
        (0.0, 1.0))
    with pytest.raises(SingularSpeed):
        reparametrize_arclength(nan_curve)


# ----------------------------------------------------------------------
# frenet_apparatus


def test_frenet_helix():
    hx = helix_curve(0.6, 0.8)  # R^2 + P^2 = 1 -> kappa = R, tau = P
    fr = frenet_apparatus(hx, np.linspace(0.5, 6.0, 16))
    assert np.max(np.abs(fr.kappa - 0.6)) < 1e-12
    assert np.max(np.abs(fr.tau - 0.8)) < 1e-12


def test_frenet_circle():
    circ = circle_curve(4.0)
    fr = frenet_apparatus(circ, np.linspace(0.0, 8.0, 9))
    assert np.max(np.abs(fr.kappa - 0.25)) < 1e-12
    assert np.max(np.abs(fr.tau)) < 1e-12


def test_frenet_generated_torsion_ratio_is_arclength():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 4)
    s = np.linspace(-4.0, 4.0, 41)
    fr = frenet_apparatus(cur, s)
    assert np.max(np.abs(fr.tau / fr.kappa - s)) < 1e-6


def test_frame_orthonormality_analytic_and_fd():
    rng = np.random.default_rng(7)
    unit = random_unit_speed_curve(rng)
    s = sample_grid(unit, 64)
    fr = frenet_apparatus(unit, s)
    for u, v in ((fr.tangent, fr.normal), (fr.tangent, fr.binormal),
                 (fr.normal, fr.binormal)):
        assert np.max(np.abs(np.sum(u * v, axis=-1))) < 1e-8
    for u in (fr.tangent, fr.normal, fr.binormal):
        assert np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) < 1e-8
    assert np.max(np.linalg.norm(np.cross(fr.tangent, fr.normal) - fr.binormal,
                                 axis=-1)) < 1e-8

    fd_twin = SpaceCurve.from_function(lambda q: unit.evaluate(q), unit.domain)
    s2 = sample_grid(fd_twin, 64)
    fr2 = frenet_apparatus(fd_twin, s2)
    for u, v in ((fr2.tangent, fr2.normal), (fr2.tangent, fr2.binormal),
                 (fr2.normal, fr2.binormal)):
        assert np.max(np.abs(np.sum(u * v, axis=-1))) < 1e-5


def test_frenet_system_residual():
    # numerically differentiate the frame fields: t' = kappa n,
    # n' = -kappa t + tau b, b' = -tau n
    rng = np.random.default_rng(3)
    unit = random_unit_speed_curve(rng)
    s = np.linspace(*unit.domain, 2001)
    fr = frenet_apparatus(unit, s)
    dx = s[1] - s[0]
    dt_, reach = jt.series_derivative(fr.tangent, dx, 1)
    dn_, _ = jt.series_derivative(fr.normal, dx, 1)
    db_, _ = jt.series_derivative(fr.binormal, dx, 1)
    sl = slice(reach, s.size - reach)
    k, tau = fr.kappa[sl, None], fr.tau[sl, None]
    t, n, b = fr.tangent[sl], fr.normal[sl], fr.binormal[sl]
    assert np.max(np.abs(dt_ - k * n)) < 1e-5
    assert np.max(np.abs(dn_ - (-k * t + tau * b))) < 1e-5
    assert np.max(np.abs(db_ - (-tau * n))) < 1e-5


def test_frenet_refuses_straight_line():
    line = line_curve([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], 2.0)
    with pytest.raises(VanishingCurvature):
        frenet_apparatus(line, np.linspace(0.1, 1.9, 9))


# ----------------------------------------------------------------------
# cross_magnitude


def test_cross_magnitude_generated_rectifying():
    cur = generate_circular_geodesic(RectifyingParams(2.0, 0.0, 0.0), 0.7)
    s = np.linspace(*cur.domain, 33)
    assert np.max(np.abs(cross_magnitude(cur, s) - 0.5)) < 1e-12


def test_cross_magnitude_origin_circle():
    circ = circle_curve(3.0)
    s = np.linspace(0.0, circ.length, 17)
    assert np.max(np.abs(cross_magnitude(circ, s) - 3.0)) < 1e-12


def test_cross_magnitude_line_through_origin():
    line = line_curve([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 3.0)
    s = np.linspace(0.0, 3.0, 9)
    assert np.max(cross_magnitude(line, s)) < 1e-14


def test_cross_magnitude_spherical_equals_radius():
    rng = np.random.default_rng(19)
    for _ in range(3):
        r = rng.uniform(0.5, 3.0)
        base = perturbed_circle_base(rng.uniform(0.4, 1.1),
                                     seed=int(rng.integers(1 << 31)))
        sph = spherical_curve(base, r)
        s = np.linspace(*sph.domain, 33)
        assert np.max(np.abs(cross_magnitude(sph, s) - r)) < 1e-10


# ----------------------------------------------------------------------
# CSV interchange


def test_curve_csv_roundtrip(tmp_path):
    path = tmp_path / "c.csv"
    s = np.linspace(0.0, 1.0, 12)
    pts = np.stack([np.sin(s), np.cos(s), s / 7], axis=-1)
    write_curve_csv(path, s, pts)
    s2, pts2 = read_curve_csv(path)
    assert np.array_equal(s, s2)
    assert np.array_equal(pts, pts2)
    head = path.read_text().splitlines()[0]
    assert head == "s,x,y,z"


def test_curve_csv_rejects_decreasing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,x,y,z\n1.0,0,0,0\n0.5,1,1,1\n")
    with pytest.raises(ValueError):
        read_curve_csv(path)


def _old_curve_csv_text(s, points):
    # the per-row f-string emitter the table layer replaced
    lines = ["s,x,y,z"]
    for si, (x, y, z) in zip(s, points):
        lines.append(f"{float(si)!r},{float(x)!r},{float(y)!r},{float(z)!r}")
    return "\n".join(lines) + "\n"


def test_table_text_matches_row_emitter_on_awkward_values():
    awkward = [-0.0, 0.0, 1e16, 1e15, -1e15, 1e-5, 5e-324, 2.5e-310, -1e-310,
               0.1 + 0.2, 1 / 3, 123456789.123, 2.0**53 + 2, -7.25e-05, 1e300]
    vals = np.array(awkward)
    s = np.arange(vals.size, dtype=float) - 0.5
    points = np.stack([vals, vals[::-1], -vals], axis=-1)
    assert table_text("s,x,y,z", s, points) == _old_curve_csv_text(s, points)
    # float32 and integer inputs widen exactly, as float() did
    fits = np.max(np.abs(points), axis=1) < 1e30
    p32 = points[fits].astype(np.float32)
    assert table_text("s,x,y,z", s[fits], p32) == _old_curve_csv_text(s[fits], p32)
    si = np.arange(vals.size)
    assert table_text("s,x,y,z", si, points) == _old_curve_csv_text(si, points)


def test_read_table_parses_like_float(tmp_path):
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                           [5e-324, -0.0, 2.2250738585072014e-308, 0.1 + 0.2]])
    s = np.arange(vals.size, dtype=float)
    path = tmp_path / "c.csv"
    write_curve_csv(path, s, np.stack([vals, -vals, vals / 3], axis=-1))
    text = path.read_text().splitlines()[1:]
    expect = np.array([[float(v) for v in row.split(",")] for row in text])
    got = read_table(path, "s,x,y,z")
    assert got.tobytes() == expect.tobytes()
    odd = tmp_path / "odd.csv"
    odd.write_text("s,x,y,z\n 1 ,+2.5E+3,  -1e-320,7\n2,10,0,0\n")
    assert read_table(odd, "s,x,y,z").tolist() == [[1.0, 2500.0, -1e-320, 7.0],
                                                  [2.0, 10.0, 0.0, 0.0]]


def test_read_table_accepts_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"\r\ns,x,y,z\r\n\r\n0,1,2,3\r\n\r\n1,4,5,6\r\n\r\n")
    s, pts = read_curve_csv(path)
    assert s.tolist() == [0.0, 1.0]
    assert pts.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


@pytest.mark.parametrize("body,message", [
    ("0,1,2,3#c\n1,1,1,1\n", "could not convert"),
    ("#0,1,2,3\n1,1,1,1\n", "could not convert"),
    ("0,1,2,3\n1,1,1\n", "number of columns"),
    ("0,1,2,3,\n1,1,1,1,\n", "could not convert"),
    ("0,1,2\n1,1,1\n", "expected four columns per row"),
    ("0,1,nan,3\n1,1,1,1\n", "non-finite value nan in data row 1, column 3"),
    ("0,1,2,3\n1,inf,1,1\n", "non-finite value inf in data row 2, column 2"),
    ("0,1,2,3\n1,1,1,-Infinity\n", "non-finite value -inf"),
    ("0,1,2,3\n1,1,1,1e400\n", "non-finite value inf"),
    ("nan,1,2,3\n1,1,1,1\n", "non-finite value nan"),
    ("", "expected four columns per row"),
    ("\n\n", "expected four columns per row"),
])
def test_read_table_rejects(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("s,x,y,z\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            read_curve_csv(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text", ["", "\n", "x,y,z\n0,1,2\n", "s,x,y\n0,1,2,3\n"])
def test_read_table_rejects_header(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="expected header 's,x,y,z'"):
        read_curve_csv(path)
