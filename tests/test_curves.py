import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conegeo import (
    RectifyingParams,
    SpaceCurve,
    circle_curve,
    frenet_apparatus,
    generate_circular_geodesic,
    helix_curve,
    line_curve,
    read_curve_csv,
    reparametrize_arclength,
    sample_arclength,
    sample_curve,
    sample_grid,
    spherical_curve,
    perturbed_circle_base,
    write_curve_csv,
)
from conegeo import jets as jt
from conegeo.curves import (
    TABLE_BLOCK_ROWS,
    _adaptive_simpson_segments,
    read_table,
    position_cross,
    table_chunks,
)
from conegeo.errors import (
    InsufficientMargin,
    ParameterOutOfDomain,
    SingularSpeed,
    VanishingCurvature,
)
from conegeo import cones as cones_module
from conegeo import curves as curves_module
from helpers import (
    assert_bitwise,
    count_speed_points,
    named_speed_refusal,
    random_trig_curve,
    random_unit_speed_curve,
    reference_adaptive_simpson_segments,
    reference_reparametrize_arclength,
    reparametrized_curve,
    reparametrized_node_table,
)


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


def test_sampled_curve_keeps_one_copy_of_its_table():
    # the interpolant reads the nodes' own contiguous copies, so a curve
    # built from the column views of a CSV table frees the table: 56 bytes
    # a row (nodes and slopes) are held, not 88
    n = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = np.empty((n, 4))
        table[:, 0] = np.linspace(0.0, 1.0, n)
        table[:, 1:] = np.stack([np.cos(table[:, 0]), np.sin(table[:, 0]), table[:, 0]], -1)
        curve = SpaceCurve.from_samples(table[:, 0], table[:, 1:])
        del table
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert curve.nodes[0].flags.c_contiguous and curve.nodes[1].flags.c_contiguous
    assert held / n <= 64


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


def _fd_helix():
    """helix_curve(0.6, 0.8) as a 2,001-row node table: its finite-difference twin."""
    hx = helix_curve(0.6, 0.8)
    s = np.linspace(*hx.domain, 2001)
    return SpaceCurve.from_samples(s, hx.evaluate(s))


def test_derivative_fd_matches_analytic():
    hx = helix_curve(0.6, 0.8)
    fd_twin = _fd_helix()
    s = np.linspace(1.0, 5.0, 11)
    assert np.max(np.abs(fd_twin.derivative(s, 1) - hx.derivative(s, 1))) < 1e-9


def test_step_and_kind_follow_the_constructor():
    # a curve is a node table or a closed form, and its step follows from that:
    # the mean node spacing at every row count, or none
    s = np.linspace(0.0, 1.0, 201)
    sampled = SpaceCurve.from_samples(s, np.stack([s, s * s, s**3], axis=-1))
    coarse = SpaceCurve.from_samples(s[::4], sampled.nodes[1][::4])
    closed = circle_curve(1.0)
    assert (sampled.nodes is not None, sampled.h) == (True, float(np.mean(np.diff(s))))
    assert (coarse.nodes[0].size, coarse.h) == (51, float(np.mean(np.diff(s[::4]))))
    assert coarse.h > coarse.length / 100
    assert (closed.nodes, closed.h, closed.fd_margin(3)) == (None, None, 0.0)
    with pytest.raises(TypeError, match="'h'"):
        SpaceCurve(closed.jet, (0.0, 2.0), h=0.02)
    with pytest.raises(TypeError, match="'jet'"):
        SpaceCurve(np.sin, (0.0, 2.0), jet=closed.jet)
    with pytest.raises(TypeError, match="^SpaceCurve takes a jet"):
        SpaceCurve(None, (0.0, 2.0))


def test_derivative_constant_curve_is_zero():
    # h large enough that round-off amplification 1/h^3 stays negligible
    s = np.linspace(0.0, 50.0, 10_001)
    const = SpaceCurve.from_samples(s, np.broadcast_to([1.0, 2.0, 3.0], s.shape + (3,)))
    assert const.h == 0.005
    for order in (1, 2, 3):
        assert np.allclose(const.derivative(0.5, order), 0.0, atol=1e-8)


def _count_interpolant_calls(monkeypatch):
    """The parameters of every jets.hermite call, as node tables evaluate."""
    calls = []
    plain = jt.hermite

    def counted(s, values, slopes, q):
        calls.append(np.array(q))
        return plain(s, values, slopes, q)

    monkeypatch.setattr(jt, "hermite", counted)
    return calls


@pytest.mark.parametrize("scalar", [False, True])
def test_derivatives_bitwise_equal_to_single_orders(scalar):
    hx = helix_curve(0.6, 0.8)
    fd = _fd_helix()
    s = 2.5 if scalar else np.linspace(1.0, 5.0, 11)
    for curve in (hx, fd):
        got = curve.derivatives(s, (0, 1, 2, 3))
        expect = [curve.evaluate(s)] + [curve.derivative(s, k) for k in (1, 2, 3)]
        for g, e in zip(got, expect):
            assert g.shape == e.shape
            assert g.tobytes() == e.tobytes()
        assert curve.jet(s).tobytes() == np.stack(
            [np.atleast_2d(e) for e in expect]).tobytes()


def test_fd_frames_and_jet_evaluate_each_offset_once(monkeypatch):
    # one interpolant call holding the parameters of each distinct offset -3..3 once
    fd = _fd_helix()
    calls = _count_interpolant_calls(monkeypatch)
    s = np.linspace(1.0, 5.0, 11)
    for pass_ in (lambda: frenet_apparatus(fd, s), lambda: fd.jet(s)):
        calls.clear()
        pass_()
        assert len(calls) == 1 and calls[0].shape == (7 * s.size,)
        starts = np.round((calls[0][::s.size] - s[0]) / fd.h)
        assert sorted(starts) == [-3, -2, -1, 0, 1, 2, 3]


def test_derivatives_margin_of_highest_order():
    fd = _fd_helix()
    s0 = fd.domain[0]
    edge = s0 + fd.fd_margin(2)
    fd.derivatives(edge, (0, 1, 2))
    with pytest.raises(InsufficientMargin):
        fd.derivatives(edge, (0, 1, 2, 3))


def test_derivative_margin_enforced():
    s = np.linspace(0.0, 1.0, 201)
    fd = SpaceCurve.from_samples(s, np.stack([s, s**2, np.zeros_like(s)], axis=-1))
    with pytest.raises(InsufficientMargin):
        fd.derivative(0.0, 3)


# ----------------------------------------------------------------------
# reparametrize_arclength


def test_reparametrize_unit_speed_is_identity():
    circ = circle_curve(3.0)
    assert reparametrize_arclength(circ) is circ


def test_reparametrize_circle_by_angle():
    def jet(t, order=3):
        zero = np.zeros_like(t)
        p = np.stack([2 * np.cos(t), 2 * np.sin(t), zero], axis=-1)
        d1 = np.stack([-2 * np.sin(t), 2 * np.cos(t), zero], axis=-1)
        d2 = np.stack([-2 * np.cos(t), -2 * np.sin(t), zero], axis=-1)
        d3 = np.stack([2 * np.sin(t), -2 * np.cos(t), zero], axis=-1)
        return np.stack([p, d1, d2, d3])

    raw = SpaceCurve(jet, (0.0, 2 * np.pi))
    unit = reparametrize_arclength(raw)
    assert abs(unit.length - 4 * np.pi) < 1e-9
    s = np.linspace(*unit.domain, 65)
    speeds = np.linalg.norm(unit.derivative(s, 1), axis=-1)
    assert np.max(np.abs(speeds - 1.0)) < 1e-12


def test_reparametrize_cubic_against_quadrature_oracle():
    def jet(t, order=3):
        zero = np.zeros_like(t)
        p = np.stack([t**3 + t, zero, zero], axis=-1)
        d1 = np.stack([3 * t**2 + 1, zero, zero], axis=-1)
        d2 = np.stack([6 * t, zero, zero], axis=-1)
        d3 = np.stack([6 * np.ones_like(t), zero, zero], axis=-1)
        return np.stack([p, d1, d2, d3])

    raw = SpaceCurve(jet, (0.0, 1.0))
    unit = reparametrize_arclength(raw)
    # oracle: dense trapezoid quadrature of the speed 3 t^2 + 1
    t = np.linspace(0.0, 1.0, 200001)
    f = 3 * t**2 + 1
    oracle = np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t))
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
    def jet(t, order=3):
        zero = np.zeros_like(t)
        p = np.stack([t**2, zero, zero], axis=-1)
        d1 = np.stack([2 * t, zero, zero], axis=-1)
        d2 = np.stack([2 * np.ones_like(t), zero, zero], axis=-1)
        return np.stack([p, d1, d2, np.zeros_like(p)])

    cusp = SpaceCurve(jet, (-1.0, 1.0))
    message = (r"^speed 0 below regularity threshold 2e-12 "
               r"\(1e-12 times the largest speed, 2\)$")
    with pytest.raises(SingularSpeed, match=message):
        reparametrize_arclength(cusp)


def test_simpson_stops_on_nonfinite_integrand():
    # a NaN update never meets the tolerance; refining it would only grow
    # the panel count, so such intervals stop after the first doubling
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    nodes = np.array([0.0, 0.5, 1.0])
    out = _adaptive_simpson_segments(f, nodes, np.full(3, np.nan), 1e-10)
    assert np.all(np.isnan(out))
    assert len(calls) == 2


def test_reparametrize_rejects_nonfinite_speed():
    def jet(s, order):
        # the line s * e_x, NaN past s = 0.5
        x = [s, np.ones_like(s), np.zeros_like(s), np.zeros_like(s)][:order + 1]
        line = np.stack([np.stack([xk, 0.0 * s, 0.0 * s], axis=-1) for xk in x])
        return np.where(s[:, None] > 0.5, np.nan, line)

    nan_curve = SpaceCurve(jet, (0.0, 1.0))
    with pytest.raises(SingularSpeed):
        reparametrize_arclength(nan_curve)


# ----------------------------------------------------------------------
# nested Simpson levels and the shared speed table, bitwise against the
# reference that evaluates every level and the table slopes afresh

_DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=12)

_INTEGRANDS = {
    # the kink at 0.3 keeps its interval refining past the first doubling
    "kink": lambda x: 1.0 + np.abs(x - 0.3),
    "nan": lambda x: np.where(x > 0.55, np.nan, np.cos(x)),
    "sign": lambda x: np.copysign(2.0, x) + np.sqrt(np.abs(x)),
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nodes=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=2,
                      max_size=6, unique=True).map(sorted),
       kind=st.sampled_from(sorted(_INTEGRANDS)))
@example(nodes=[1.0, 2.0**53 + 2], kind="sign")  # a + (b - a) is 2**53, not b
@example(nodes=[-0.0, 0.3, 1.0], kind="sign")  # a + 0 * (b - a) is +0.0, not a
@example(nodes=[0.0, 0.25, 0.5, 1.0], kind="kink")
@example(nodes=[0.0, 0.5, 1.0], kind="nan")
def test_simpson_matches_reference(nodes, kind):
    f = _INTEGRANDS[kind]
    nodes = np.array(nodes)
    with np.errstate(invalid="ignore"):
        out = _adaptive_simpson_segments(f, nodes, f(nodes), 1e-10)
        ref = reference_adaptive_simpson_segments(f, nodes, 1e-10)
    assert_bitwise(out, ref)


def test_simpson_evaluates_only_new_points():
    calls = []

    def f(x):
        calls.append(x.copy())
        return 1.0 + np.abs(x - 0.3)

    nodes = np.array([0.0, 0.25, 0.5, 1.0, 2.0**53 + 2])
    _adaptive_simpson_segments(f, nodes, f(nodes), 1e-10)
    seen = np.concatenate(calls)
    assert np.unique(seen).size == seen.size
    assert len(calls) > 3  # the kink's interval refined past the first doubling
    assert 2.0**53 in calls[1]  # 1e0 + (2**53 + 2 - 1e0) rounds off the last node


def test_simpson_blocks_match_reference_and_bound_each_call():
    # 3000 midpoints at the first level and 6000 points at the doubling each
    # span several blocks; blocking changes no bit of the integrals
    calls = []

    def f(x):
        calls.append(x.size)
        return 2.0 + np.sin(9.0 * x) + np.abs(x - 0.3)

    nodes = np.linspace(0.0, 2.0, 3001)
    values = f(nodes)
    calls.clear()
    out = _adaptive_simpson_segments(f, nodes, values, 1e-10)
    assert max(calls) <= curves_module._SIMPSON_BLOCK and sum(calls) == 3 * 3000
    assert_bitwise(out, reference_adaptive_simpson_segments(f, nodes, 1e-10))


def test_simpson_tolerance_floor_is_the_integral_rounding():
    # at a scale of 1e80 the absolute tol is below every interval's rounding;
    # without the floor each interval ran all 14 doublings (370,076 points)
    calls = []

    def f(x):
        calls.append(x.size)
        return 1e80 * (2.0 + np.sin(9.0 * x))

    nodes = np.linspace(0.0, 2.0, 101)
    out = _adaptive_simpson_segments(f, nodes, f(nodes), 1e-10)
    exact = 1e80 * (2.0 * np.diff(nodes) - np.diff(np.cos(9.0 * nodes)) / 9.0)
    assert sum(calls[1:]) < 30_000
    assert np.max(np.abs(out - exact) / exact) < 1e-13


def _assert_same_reparametrization(curve):
    """reparametrize_arclength is the reference bit for bit."""
    unit = reparametrize_arclength(curve)
    ref = reference_reparametrize_arclength(curve)
    assert (unit is curve) == (ref is curve)
    assert unit.domain == ref.domain and unit.h == ref.h
    q = np.linspace(*unit.domain, 301)
    assert_bitwise(unit.evaluate(q), ref.evaluate(q))
    g = sample_grid(unit, 129)
    assert_bitwise(unit.derivatives(g, (1, 2, 3)), ref.derivatives(g, (1, 2, 3)))


@_DERANDOMIZED
@given(rows=st.integers(20, 400), seed=st.integers(0, 2**31 - 1),
       geodesic=st.booleans())
@example(rows=64, seed=0, geodesic=True)
@example(rows=96, seed=0, geodesic=True)
def test_reparametrize_refuses_a_node_table(rows, seed, geodesic):
    # a node table's parameter is arc length by contract, so it is never
    # rescanned: unit speed at its nodes (a geodesic's rows) or not
    if geodesic:
        closed_form = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), 0.8)
    else:
        closed_form = random_trig_curve(np.random.default_rng(seed))
    s = np.linspace(*closed_form.domain, rows)
    with pytest.raises(ValueError, match="^a node table is not reparametrized"):
        reparametrize_arclength(SpaceCurve.from_samples(s, closed_form.evaluate(s)))


def test_reparametrize_kinked_speed_matches_reference(monkeypatch):
    # x' = 1 + |t - 0.3| has a kink, so Simpson refines past its first doubling
    c = 0.3

    def jet(t, order):
        x = [t + 0.5 * np.sign(t - c) * (t - c) ** 2, 1.0 + np.abs(t - c), np.sign(t - c),
             np.zeros_like(t)]
        return np.stack([np.stack([xk, np.zeros_like(t), np.zeros_like(t)], axis=-1)
                         for xk in x[:order + 1]])

    curve = SpaceCurve(jet, (0.0, 1.0))
    sizes = count_speed_points(monkeypatch)
    reparametrize_arclength(curve)
    # the scan, the odd table nodes and two full Simpson levels are 16,385
    assert sum(sizes) > 2049 + 2048 + 4096 + 8192
    _assert_same_reparametrization(curve)


def test_large_scale_curve_reparametrizes_in_bounded_work():
    # an absolute quadrature tolerance alone refined a 1e80-scale curve's
    # intervals past their first doubling (74,013 speed points); each stops
    # there, as at speed 2: the scan, the odd table nodes and two Simpson levels
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), 0.8)
    for scale in (2.0, 1e80):
        raw = SpaceCurve(lambda s, order, k=scale: k * cur.jet(s, order), cur.domain)
        with pytest.MonkeyPatch.context() as mp:
            sizes = count_speed_points(mp, limit=40_000)
            unit = reparametrize_arclength(raw)
        assert sum(sizes) == 2049 + 2048 + 4096 + 8192
        assert abs(unit.length / (scale * cur.length) - 1.0) < 1e-12


@pytest.mark.parametrize("scale", [1e107, 1e140])
def test_stencil_step_overflow_is_named_on_a_node_table(scale):
    # a unit-speed 1,024-row node table over a domain of 7.7 scale has the
    # step 7.5e-3 scale, past 5.6e102, where h**3 overflows a float
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), 0.8)
    s = np.linspace(*cur.domain, 1024)
    wide = SpaceCurve.from_samples(scale * s, scale * cur.evaluate(s))
    with pytest.raises(OverflowError, match=r"^order-3 stencil step h = .*: h\*\*3 overflows$"):
        sample_arclength(wide, 64)


@_DERANDOMIZED
@given(psi0=st.floats(0.35, 1.2), seed=st.integers(0, 2**31 - 1),
       amplitude=st.floats(0.01, 0.05))
@example(psi0=0.8, seed=7, amplitude=0.03)  # a base as the general workload draws it
def test_perturbed_base_matches_reference(psi0, seed, amplitude):
    # the reference reads its points through the raw curve's evaluate at
    # the inverse map; the curve reads them off its jet, to the same bits
    base = perturbed_circle_base(psi0, seed=seed, amplitude=amplitude)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones_module, "reparametrize_arclength",
                   reference_reparametrize_arclength)
        ref = perturbed_circle_base(psi0, seed=seed, amplitude=amplitude)
    assert base.domain == ref.domain
    # the 2,049-point grid on which a base CSV is written
    t = np.linspace(*base.domain, 2049)
    assert_bitwise(base.jet(t), ref.jet(t))
    assert_bitwise(base.evaluate(t), ref.evaluate(t))


def test_perturbed_base_point_evaluator_is_the_jet_value():
    unit = perturbed_circle_base(0.9, seed=5, amplitude=0.03).curve
    q = np.random.default_rng(3).uniform(*unit.domain, 2501)
    assert_bitwise(unit.evaluate(q), unit.jet(q)[0])


def test_perturbed_base_evaluates_each_speed_sample_once(monkeypatch):
    # scan 2049 + odd table nodes 2048 + two Simpson levels 4096 + 8192, and
    # the base's own 257-point unit-speed check; evaluating every level and
    # the table slopes afresh passes 39,171
    sizes = count_speed_points(monkeypatch)
    perturbed_circle_base(0.9, seed=5, amplitude=0.03)
    assert sum(sizes) <= 16642


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

    nodes = np.linspace(*unit.domain, 2001)
    fd_twin = SpaceCurve.from_samples(nodes, unit.evaluate(nodes))
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
# sample_curve


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
def test_sample_curve_is_one_pass_of_the_per_order_data(mode):
    cur = generate_circular_geodesic(RectifyingParams(1.1, 0.2, 0.3), 0.8)
    if mode == "sampled":
        s_nodes = np.linspace(*cur.domain, 1024)
        cur = SpaceCurve.from_samples(s_nodes, cur.evaluate(s_nodes))
    cs = sample_curve(cur, 100)
    s = sample_grid(cur, 100)
    assert cs.curve is cur and cs.samples == 100 and np.array_equal(cs.s, s)
    assert cs.jet.shape == (4, s.size, 3)
    for k, d in enumerate(cur.derivatives(s, (0, 1, 2, 3))):
        assert np.array_equal(cs.jet[k], d)
    fr = frenet_apparatus(cur, s)
    for name in ("tangent", "normal", "binormal", "kappa", "tau"):
        assert np.array_equal(getattr(cs.frames, name), getattr(fr, name))
    assert cs.frames is cs.frames
    assert not cs.jet.flags.writeable and not cs.s.flags.writeable


def _assert_same_samples(cs, ref):
    assert cs.samples == ref.samples
    assert_bitwise(cs.s, ref.s)
    assert_bitwise(cs.jet, ref.jet)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_sample_arclength_is_the_samples_of_the_unit_speed_curve(scale):
    # unit speed keeps the nodes; the s column scaled by 2 halves the speed,
    # and the refusal names the worst grid point by its label in the table
    cur = generate_circular_geodesic(RectifyingParams(1.1, 0.2, 0.3), 0.8)
    s_nodes = np.linspace(*cur.domain, 1024)
    sampled = SpaceCurve.from_samples(scale * s_nodes, cur.evaluate(s_nodes))
    if scale == 2.0:
        with pytest.raises(SingularSpeed) as info:
            sample_arclength(sampled, 200)
        off, s = named_speed_refusal(str(info.value))
        assert off == "0.5" and s in sampled.nodes[0]
        return
    cs = sample_arclength(sampled, 200)
    assert cs.curve is sampled
    _assert_same_samples(cs, sample_curve(sampled, 200))
    assert np.max(np.abs(np.linalg.norm(cs.jet[1], axis=-1) - 1.0)) < 1e-5


def test_sample_arclength_keeps_an_analytic_unit_speed_curve():
    circ = circle_curve(3.0)
    cs = sample_arclength(circ, 64)
    assert cs.curve is circ
    _assert_same_samples(cs, sample_curve(circ, 64))


@pytest.mark.parametrize("excess,kept", [(5e-13, True), (5e-12, False)])
def test_sample_arclength_reads_an_analytic_speed_to_1e_12(excess, kept):
    # the circle traced at speed 1 + excess: UNIT_TOL["analytic"] = 1e-12 decides
    circ, speed = circle_curve(3.0), 1.0 + excess
    powers = speed ** np.arange(4)[:, None, None]
    fast = SpaceCurve(lambda s, order: circ.jet(speed * s, order) * powers[:order + 1],
                      (0.0, 10.0))
    assert fast.derivative_mode == "analytic"
    if kept:
        assert sample_arclength(fast, 64).curve is fast
        return
    with pytest.raises(SingularSpeed) as info:
        sample_arclength(fast, 64)
    off, s = named_speed_refusal(str(info.value))
    assert off == "5e-12" and s in sample_grid(fast, 64)


@pytest.mark.parametrize("kappa,vanishes", [(5e-10, True), (5e-9, False)])
def test_frenet_frame_curvature_floor_is_1e_9(kappa, vanishes):
    d1, d2, d3 = np.array([[1.0, 0.0, 0.0], [0.0, kappa, 0.0], [0.0, 0.0, 0.0]])[:, None]
    if vanishes:
        with pytest.raises(VanishingCurvature, match="at or below floor 1e-09"):
            curves_module.frenet_frame(d1, d2, d3)
    else:
        assert curves_module.frenet_frame(d1, d2, d3).kappa[0] == kappa


def test_sample_curve_of_a_ruling_builds_frames_on_read():
    line = line_curve([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], 2.0)
    cs = sample_curve(line, 32)
    assert np.max(np.linalg.norm(cs.jet[2], axis=-1)) == 0.0
    with pytest.raises(VanishingCurvature):
        cs.frames


def _generated_rows(n):
    # the curve read from an n-row `generate --psi0=0.8 --a=1.3 --b=0.2 --c=0.1` CSV
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), 0.8)
    s = np.linspace(*cur.domain, n)
    return SpaceCurve.from_samples(s, cur.evaluate(s))


def test_sample_curve_holds_one_block_of_jet_temporaries():
    # in one curve.jet call the stencil and Hermite temporaries of every
    # grid point are held at once, about 990 bytes a sample
    curve, n = reparametrized_node_table(100_008), 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cs = sample_curve(curve, n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cs.s.size == n
    assert peak <= 300 * n, f"sample_curve peaked at {peak / n:.0f} bytes per sample"


@pytest.mark.parametrize("make", [
    lambda: generate_circular_geodesic(RectifyingParams(1.1, 0.2, 0.3), 0.8),
    lambda: perturbed_circle_base(1.1, seed=3).curve,
    lambda: _generated_rows(1024),
    reparametrized_curve,
], ids=["analytic", "perturbed-base", "sampled", "reparametrized"])
def test_sample_curve_blocks_are_one_jet_call_bitwise(monkeypatch, make):
    curve = make()
    monkeypatch.setattr(curves_module, "_JET_BLOCK", 97)
    cs = sample_curve(curve, 1000)
    assert cs.s.size >= 3 * 97
    assert_bitwise(cs.jet, curve.jet(cs.s, 3))


# ----------------------------------------------------------------------
# |alpha x alpha'|, by position_cross


def test_cross_magnitude_generated_rectifying():
    cur = generate_circular_geodesic(RectifyingParams(2.0, 0.0, 0.0), 0.7)
    s = np.linspace(*cur.domain, 33)
    assert np.max(np.abs(position_cross(*cur.derivatives(s, (0, 1)))[1] - 0.5)) < 1e-12


def test_cross_magnitude_origin_circle():
    circ = circle_curve(3.0)
    s = np.linspace(0.0, circ.length, 17)
    assert np.max(np.abs(position_cross(*circ.derivatives(s, (0, 1)))[1] - 3.0)) < 1e-12


def test_cross_magnitude_line_through_origin():
    line = line_curve([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 3.0)
    s = np.linspace(0.0, 3.0, 9)
    assert np.max(position_cross(*line.derivatives(s, (0, 1)))[1]) < 1e-14


def test_cross_magnitude_spherical_equals_radius():
    rng = np.random.default_rng(19)
    for _ in range(3):
        r = rng.uniform(0.5, 3.0)
        base = perturbed_circle_base(rng.uniform(0.4, 1.1),
                                     seed=int(rng.integers(1 << 31)))
        sph = spherical_curve(base, r)
        s = np.linspace(*sph.domain, 33)
        assert np.max(np.abs(position_cross(*sph.derivatives(s, (0, 1)))[1] - r)) < 1e-10


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
    assert "".join(table_chunks("s,x,y,z", s, points)) == _old_curve_csv_text(s, points)
    # float32 and integer inputs widen exactly, as float() did
    fits = np.max(np.abs(points), axis=1) < 1e30
    p32 = points[fits].astype(np.float32)
    assert "".join(table_chunks("s,x,y,z", s[fits], p32)) == _old_curve_csv_text(s[fits], p32)
    si = np.arange(vals.size)
    assert "".join(table_chunks("s,x,y,z", si, points)) == _old_curve_csv_text(si, points)
    # rows on both sides of every block edge, and no rows at all
    B = TABLE_BLOCK_ROWS
    many = np.resize(points, (2 * B + 1, 3))
    many_s = np.arange(2 * B + 1, dtype=float) / 7.0
    for n in (0, 1, B - 1, B, B + 1, 2 * B + 1):
        assert "".join(table_chunks("s,x,y,z", many_s[:n], many[:n])) == \
            _old_curve_csv_text(many_s[:n], many[:n])
    chunks = list(table_chunks("s,x,y,z", many_s, many))
    assert [c.count("\n") for c in chunks] == [1, B, B, 1]


def test_table_chunks_hold_one_block_of_the_table():
    # each block is stacked from the columns as it is written: a whole
    # 200,000 x 4 table would be 6.1 MiB
    n = 200_000
    s = np.linspace(0.0, 1.0, n)
    points = np.stack([np.cos(s), np.sin(s), s / 3.0], axis=-1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = sum(chunk.count("\n") for chunk in table_chunks("s,x,y,z", s, points))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rows == 1 + n
    assert peak < 1.5 * 2**20, f"table_chunks peaked at {peak / 2**20:.2f} MiB"


def test_table_chunks_refuse_columns_of_different_lengths():
    # blocks are stacked one at a time: the rows of a longer column past
    # the shorter one's last block must not be dropped
    for n in (1024, 1100):
        with pytest.raises(ValueError):
            "".join(table_chunks("s,x,y,z", np.zeros(n), np.zeros((2148 - n, 3))))


def test_write_curve_csv_failing_after_its_first_block_keeps_the_old_file(tmp_path):
    # the columns disagree only in the second block, after the header and
    # the first block of text are written
    path = tmp_path / "c.csv"
    path.write_bytes(b"s,x,y,z\n0.0,1.0,2.0,3.0\n")
    s = np.arange(TABLE_BLOCK_ROWS + 10, dtype=float)
    with pytest.raises(ValueError):
        write_curve_csv(path, s, np.zeros((TABLE_BLOCK_ROWS + 5, 3)))
    assert path.read_bytes() == b"s,x,y,z\n0.0,1.0,2.0,3.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


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
    # float() reads spaces around a field, the grammar does not
    odd = tmp_path / "odd.csv"
    odd.write_text("s,x,y,z\n 1 ,+2.5E+3,  -1e-320,7\n2,10,0,0\n")
    with pytest.raises(ValueError, match=r": ' 1 ' in data row 1, column 1 is not a decimal"):
        read_table(odd, "s,x,y,z")


@pytest.mark.parametrize("body,message", [
    pytest.param("0,1,2,3#c\n1,1,1,1\n", "'3#c' in data row 1, column 4 is not a decimal number",
                 id="hash-ends-a-field"),
    pytest.param("#0,1,2,3\n1,1,1,1\n", "'#0' in data row 1, column 1 is not a decimal number",
                 id="hash-starts-a-row"),
    pytest.param("0,1,2,3\n1,1,1\n", "3 fields in data row 2, expected 4", id="short-row-2"),
    pytest.param("0,1,2,3,\n1,1,1,1,\n", "5 fields in data row 1, expected 4",
                 id="trailing-commas"),
    pytest.param("0,1,2\n1,1,1\n", "3 fields in data row 1, expected 4", id="short-rows"),
    ("0,1,nan,3\n1,1,1,1\n", "non-finite value nan in data row 1, column 3"),
    ("0,1,2,3\n1,inf,1,1\n", "non-finite value inf in data row 2, column 2"),
    ("0,1,2,3\n1,1,1,-Infinity\n", "non-finite value -inf"),
    ("0,1,2,3\n1,1,1,1e400\n", "non-finite value inf"),
    ("nan,1,2,3\n1,1,1,1\n", "non-finite value nan"),
    ("", "no data rows"),
    ("\n\n", "no data rows"),
])
def test_read_table_rejects(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("s,x,y,z\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            read_curve_csv(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text", ["", "\n", "x,y,z\n0,1,2\n", "s,x,y\n0,1,2,3\n",
                                  "\ns,x,y,z\n0,1,2,3\n", "s,x,y,z\r\n0,1,2,3\n",
                                  " s,x,y,z\n0,1,2,3\n"])
def test_read_table_rejects_header(tmp_path, text):
    # line 1 is exactly the header: no blank line before it, no CR, no space
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="expected header 's,x,y,z'"):
        read_curve_csv(path)


# one file for each line a CSV fault can get, PATH standing for its path
@pytest.mark.parametrize("text,line", [
    pytest.param(b"s,x,y,z\r\n0,1,2,3\r\n", "PATH: expected header 's,x,y,z'", id="header"),
    pytest.param(b"s,x,y,z\n\n", "PATH: no data rows", id="no-data-rows"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1,4,\xff5,6\n",
                 "PATH: non-ASCII byte 0xff in data row 2, column 3", id="non-ascii"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1,4,5,1e400\n",
                 "PATH: non-finite value inf in data row 2, column 4", id="non-finite"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n\n1,4,5,6\n", "PATH: 0 fields in data row 2, expected 4",
                 id="blank-line"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1,4,5,6,\n", "PATH: 5 fields in data row 2, expected 4",
                 id="trailing-comma"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1\n", "PATH: 1 field in data row 2, expected 4",
                 id="one-field"),
    pytest.param(b"s,x,y,z\n0,1,2,3\r\n1,4,5,6\r\n",
                 "PATH: '3\\r' in data row 1, column 4 is not a decimal number", id="crlf"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1,4, 5,6\n",
                 "PATH: ' 5' in data row 2, column 3 is not a decimal number", id="space"),
    pytest.param(b"s,x,y,z\n0,0x1p3,2,3\n",
                 "PATH: '0x1p3' in data row 1, column 2 is not a decimal number", id="hex"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1,2,3," + b"4" * 70000 + b"\n",
                 "PATH: data row 2 is 65536 bytes or longer", id="long-row"),
    pytest.param(b"s,x,y,z\n0,1,2,3\n1,4,5,6\n1,7,8,9\n",
                 "PATH: parameter column must be strictly increasing: data row 3 is not above "
                 "data row 2", id="not-increasing"),
])
def test_read_curve_csv_names_each_fault(tmp_path, text, line):
    path = tmp_path / "c.csv"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            read_curve_csv(path)
    assert str(info.value).replace(str(path), "PATH") == line


def test_read_table_names_a_decline_without_a_fault(tmp_path, monkeypatch):
    # _read_block declines only a block that holds a fault the refusal pass
    # names; should it decline a clean one, the line still names the file
    # and the first row the pass read
    path = tmp_path / "c.csv"
    path.write_text("s,x,y,z\n0,1,2,3\n1,4,5,6\n")
    monkeypatch.setattr(curves_module, "_read_block", lambda *args: None)
    with pytest.raises(ValueError, match=r": data row 1 or a later one could not be read$"):
        read_table(path, "s,x,y,z")


def test_read_table_refusal_pass_starts_at_the_declined_block(tmp_path, monkeypatch):
    # a 5,000-row file spans six blocks; with its last row bad, the pass
    # checks the fields of that last block only, not of every row
    n = 5000
    s = np.linspace(0.0, 1.0, n)
    text = "".join(table_chunks("s,x,y,z", s, np.stack([s, -s, s / 3.0], axis=-1)))
    assert len(text) > 4 * curves_module._READ_BLOCK
    path = tmp_path / "c.csv"
    path.write_text(text[:-1] + "#\n")
    fields, grammar = [], curves_module._FIELD

    class Counted:
        def fullmatch(self, field):
            fields.append(field)
            return grammar.fullmatch(field)

    monkeypatch.setattr(curves_module, "_FIELD", Counted())
    with pytest.raises(ValueError, match=f"in data row {n}, column 4 is not a decimal number"):
        read_table(path, "s,x,y,z")
    # the last block's rows all end in the file's last _READ_BLOCK bytes
    assert 0 < len(fields) <= 4 * text.count("\n", len(text) - curves_module._READ_BLOCK) < n


def test_read_table_names_a_non_finite_value_before_the_declined_block(tmp_path):
    # the block reader reads data row 1's 1e400 as inf and declines a later
    # block at its last row's `#`: the first fault is still row 1's
    s = np.linspace(0.0, 1.0, 2000)
    rows = "".join(table_chunks("s,x,y,z", s, np.stack([s, -s, s / 3.0], axis=-1))).split("\n")
    rows[1] = "0.0,0.0,1e400,0.0"
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows[:-2] + [rows[-2] + "#", ""]))
    with pytest.raises(ValueError, match=r": non-finite value inf in data row 1, column 3$"):
        read_table(path, "s,x,y,z")


# ----------------------------------------------------------------------
# the block reader against float() and an oracle of its own


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       final_newline=st.booleans(), finite=st.booleans())
@example(rows=5000, seed=3, final_newline=False, finite=True)
def test_read_table_round_trips_random_bit_patterns_bitwise(tmp_path, rows, seed,
                                                            final_newline, finite):
    # random bit patterns: every sign and exponent and subnormals; unless
    # `finite`, one value in 2,048 is an inf or nan, which table_chunks
    # writes and the reader refuses.  Tables over 700 rows or so span
    # several blocks.  _read_rows leaves the first column unchecked, as the
    # patterns put in for non-finite ones repeat
    rng = np.random.default_rng(seed)
    table = np.frombuffer(rng.bytes(rows * 32), dtype=np.float64).reshape(rows, 4).copy()
    if finite:
        table[~np.isfinite(table)] = 0.5
    table[:, 0] = np.sort(table[:, 0])
    text = "".join(table_chunks("s,x,y,z", table[:, 0], table[:, 1:]))
    path = tmp_path / "c.csv"
    path.write_text(text if final_newline else text[:-1])
    if np.isfinite(table).all():
        assert curves_module._read_rows(path, "s,x,y,z").tobytes() == table.tobytes()
        return
    row, col = np.argwhere(~np.isfinite(table))[0]
    with pytest.raises(ValueError, match=f": non-finite value {table[row, col]} in data row "
                                         f"{row + 1}, column {col + 1}$"):
        curves_module._read_rows(path, "s,x,y,z")


# the grammar as the reader documents it, written out again for the oracle
_DECIMAL = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _oracle(data):
    """float() of every field of a curve CSV by str.split, or the first faulty data row.

    Returns the table, "header" or "no data rows" for the first line, or
    the 1-based data row of the first row with a fault, a parameter not
    above the one before it among them.
    """
    text = data.decode("latin-1")
    head, newline, body = text.partition("\n")
    if head != "s,x,y,z":
        return "header"
    if not body.strip("\n"):
        return "no data rows"
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline
    table = []
    for row, line in enumerate(lines, 1):
        fields = line.split(",")
        if (len(line) >= 65536 or not line.isascii() or len(fields) != 4
                or not all(_DECIMAL.fullmatch(f) and math.isfinite(float(f)) for f in fields)):
            return row
        table.append([float(f) for f in fields])
    table = np.array(table)
    back = np.flatnonzero(np.diff(table[:, 0]) <= 0)
    return table if not back.size else int(back[0]) + 2


_SPLICES = [" ", "\r", "\n", "", ",", "nan", "inf", "0x10", "#", "1e", b"\xff"]


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1), fixed=st.booleans(),
       final_newline=st.booleans(),
       splices=st.lists(st.tuples(st.sampled_from(_SPLICES),
                                  st.one_of(st.integers(-8, 8), st.floats(0.0, 1.0))),
                        min_size=1, max_size=2))
@example(rows=1400, seed=1, fixed=False, final_newline=True, splices=[(" ", 0)])
@example(rows=1400, seed=1, fixed=True, final_newline=True, splices=[("\n", -1), ("#", 1)])
def test_read_table_is_float_of_each_field_or_names_the_oracles_row(tmp_path, rows, seed, fixed,
                                                                    final_newline, splices):
    # a table_chunks body with one or two texts spliced in: at a fraction of
    # the file, or at an offset from the end of the first block of the body
    rng = np.random.default_rng(seed)
    if fixed:
        table = rng.uniform(-1e3, 1e3, (rows, 4))
    else:
        table = np.frombuffer(rng.bytes(rows * 32), dtype=np.float64).reshape(rows, 4).copy()
        table[~np.isfinite(table)] = 0.5
    table[:, 0] = np.sort(table[:, 0])
    data = "".join(table_chunks("s,x,y,z", table[:, 0], table[:, 1:])).encode("ascii")
    data = data if final_newline else data[:-1]
    for splice, where in splices:
        if isinstance(where, float):
            at = int(where * len(data))
        else:
            at = min(max(len("s,x,y,z\n") + curves_module._READ_BLOCK + where, 0), len(data))
        splice = splice if isinstance(splice, bytes) else splice.encode("ascii")
        data = data[:at] + splice + data[at:]
    path = tmp_path / "c.csv"
    path.write_bytes(data)
    want = _oracle(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, np.ndarray):
            assert read_table(path, "s,x,y,z").tobytes() == want.tobytes()
            return
        with pytest.raises(ValueError) as info:
            read_table(path, "s,x,y,z")
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    expect = {"header": "expected header 's,x,y,z'", "no data rows": "no data rows"}
    if isinstance(want, str):
        assert message == f"{path}: {expect[want]}"
    else:
        assert re.search(f"data row {want}[ ,]", message), (want, message)


def _padded_rows(values, length):
    # rows of repr text, the last one's first field padded with leading zeros
    # so the rows come to exactly `length` bytes
    lines = [",".join(map(repr, row)) + "\n" for row in values]
    rows, size = [], 0
    while size + len(lines[len(rows)]) + len(lines[len(rows) + 1]) <= length:
        size += len(lines[len(rows)])
        rows.append(lines[len(rows)])
    return rows + ["0" * (length - size - len(lines[len(rows)])) + lines[len(rows)]]


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("tail_rows", [0, 1])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_read_table_rows_at_the_block_edge(tmp_path, shift, tail_rows, final_newline):
    # a row ends one byte before, on, or one byte after the end of the first
    # _READ_BLOCK bytes of the body; with tail_rows 0 it is the last row
    block = curves_module._READ_BLOCK
    rng = np.random.default_rng(11)
    values = rng.normal(size=(block // 8, 4)) * 10.0 ** rng.integers(-30, 30, (block // 8, 4))
    values[:, 0] = 1.0 + np.arange(block // 8)
    values = values.tolist()
    rows = _padded_rows(values, block + shift)
    rows += [",".join(map(repr, values[len(rows) + k])) + "\n" for k in range(tail_rows)]
    body = "".join(rows)
    assert body.index("\n", block + shift - 1) == block + shift - 1
    path = tmp_path / "c.csv"
    path.write_text("s,x,y,z\n" + (body if final_newline else body[:-1]))
    want = np.array([[float(f) for f in row.split(",")] for row in rows])
    assert read_table(path, "s,x,y,z").tobytes() == want.tobytes()


_LONG_ROW = b"0,1," + b"0" * 70000 + b"2,3\n"

# the line of each file below that is not the line the np.loadtxt route gave it
_CHANGED = {
    b"0,1,2,3\n\n1,4,5,6\n\n": "PATH: 0 fields in data row 2, expected 4",
    b"\r\n0,1,2,3\r\n1,4,5,6\r\n": "PATH: 1 field in data row 1, expected 4",
    b" 0 ,1, 2,3\n1,4,5,6 \n": "PATH: ' 0 ' in data row 1, column 1 is not a decimal number",
    b"0\t,1,2,3\x0b\n": "PATH: '0\\t' in data row 1, column 1 is not a decimal number",
    _LONG_ROW: "PATH: data row 1 is 65536 bytes or longer",
    b"0,0x1p3,2,3\n": "PATH: '0x1p3' in data row 1, column 2 is not a decimal number",
    b"0,nan(1),2,3\n": "PATH: 'nan(1)' in data row 1, column 2 is not a decimal number",
    b"0,1,2,3#c\n": "PATH: '3#c' in data row 1, column 4 is not a decimal number",
    b"#0,1,2,3\n1,1,1,1\n": "PATH: '#0' in data row 1, column 1 is not a decimal number",
    b"0,,2,3\n": "PATH: '' in data row 1, column 2 is not a decimal number",
    b"0,1,2,3,\n1,1,1,1,\n": "PATH: 5 fields in data row 1, expected 4",
    b"0,1.2.3,2,3\n": "PATH: '1.2.3' in data row 1, column 2 is not a decimal number",
    b"0,1e,2,3\n": "PATH: '1e' in data row 1, column 2 is not a decimal number",
    b"0,+,2,3\n": "PATH: '+' in data row 1, column 2 is not a decimal number",
    b"0,1,2,3\x00\n": "PATH: '3\\x00' in data row 1, column 4 is not a decimal number",
    b"0,1,2\n1,1,1\n": "PATH: 3 fields in data row 1, expected 4",
    b"0,1,2,3,4\n": "PATH: 5 fields in data row 1, expected 4",
    b"0,1,2,3\n1,1,1\n": "PATH: 3 fields in data row 2, expected 4",
    b"0,1,2\n1,1,1,1,1\n": "PATH: 3 fields in data row 1, expected 4",
}


# each file as the np.loadtxt route read it, before the block reader read
# every file: its table or its error line, PATH standing for the file's path.
# Each file is refused now; the lines of the non-finite values, the
# non-ASCII byte and the empty body are kept, the others are in _CHANGED
@pytest.mark.parametrize("body,expect", [
    (b"0,1,2,3\n\n1,4,5,6\n\n", [[0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 5.0, 6.0]]),
    (b"\r\n0,1,2,3\r\n1,4,5,6\r\n", [[0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 5.0, 6.0]]),
    (b" 0 ,1, 2,3\n1,4,5,6 \n", [[0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 5.0, 6.0]]),
    (b"0\t,1,2,3\x0b\n", [[0.0, 1.0, 2.0, 3.0]]),
    (_LONG_ROW, [[0.0, 1.0, 2.0, 3.0]]),
    (b"0,inf,2,3\n", "PATH: non-finite value inf in data row 1, column 2"),
    (b"0,1,nan,3\n", "PATH: non-finite value nan in data row 1, column 3"),
    (b"0,1,2,-Infinity\n", "PATH: non-finite value -inf in data row 1, column 4"),
    (b"0,0x1p3,2,3\n",
     "PATH: could not convert string '0x1p3' to float64 at row 0, column 2."),
    (b"0,nan(1),2,3\n",
     "PATH: could not convert string 'nan(1)' to float64 at row 0, column 2."),
    (b"0,1,2,3#c\n", "PATH: could not convert string '3#c' to float64 at row 0, column 4."),
    (b"#0,1,2,3\n1,1,1,1\n",
     "PATH: could not convert string '#0' to float64 at row 0, column 1."),
    (b"0,,2,3\n", "PATH: could not convert string '' to float64 at row 0, column 2."),
    (b"0,1,2,3,\n1,1,1,1,\n",
     "PATH: could not convert string '' to float64 at row 0, column 5."),
    (b"0,1.2.3,2,3\n",
     "PATH: could not convert string '1.2.3' to float64 at row 0, column 2."),
    (b"0,1e,2,3\n", "PATH: could not convert string '1e' to float64 at row 0, column 2."),
    (b"0,+,2,3\n", "PATH: could not convert string '+' to float64 at row 0, column 2."),
    (b"0,1,2,3\x00\n",
     "PATH: could not convert string '3\\x00' to float64 at row 0, column 4."),
    (b"0,1,2\n1,1,1\n", "PATH: expected four columns per row"),
    (b"0,1,2,3,4\n", "PATH: expected four columns per row"),
    (b"0,1,2,3\n1,1,1\n", "PATH: the number of columns changed from 4 to 3 at row 2; "
                          "use `usecols` to select a subset and avoid this error"),
    (b"0,1,2\n1,1,1,1,1\n", "PATH: the number of columns changed from 3 to 5 at row 2; "
                            "use `usecols` to select a subset and avoid this error"),
    (b"0,1,2,3\n1,1,\xc3\xa9,1\n", "PATH: non-ASCII byte 0xc3 in data row 2, column 3"),
    (b"", "PATH: no data rows"),
])
def test_read_table_keeps_the_loadtxt_result_of_other_files(tmp_path, body, expect):
    path = tmp_path / "c.csv"
    path.write_bytes(b"s,x,y,z\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            read_table(path, "s,x,y,z")
    assert str(info.value).replace(str(path), "PATH") == _CHANGED.get(body, expect)


def _decimal_midpoint(lo, hi, k=0):
    # the exact midpoint of two doubles, moved k * 1e-40 of itself
    from decimal import Context, Decimal
    context = Context(prec=1200)
    m = context.divide(context.add(Decimal(lo), Decimal(hi)), 2)
    return str(context.add(m, context.multiply(m, Decimal(f"{k}e-40"))))


def test_read_table_edge_values_are_floats_bitwise(tmp_path):
    tiny, big = 5e-324, float(np.finfo(float).max)
    texts = [
        "1e-400", "-1e-400", "4.9e-324", "2.4703282292062328e-324", "-0.0", "-0", "0e5",
        _decimal_midpoint(0.0, tiny), _decimal_midpoint(0.0, tiny, 1),
        _decimal_midpoint(0.0, tiny, -1), _decimal_midpoint(tiny, 2 * tiny, 1),
        _decimal_midpoint(-3 * tiny, -2 * tiny, -1), _decimal_midpoint(2.0**-1022, 2.0**-1022
                                                                      - tiny, 1),
        repr(big), "1.7976931348623158e308", "-1.797693134862315807937289714053e308",
        _decimal_midpoint(big, 2**1024, -1), _decimal_midpoint(np.nextafter(big, 0), big, 1),
        "1.234567890123456789012345", "-9.999999999999999999999999e-300",
        "2.000000000000000222044604925031308", "9007199254740993", "0.1",
    ]
    texts += ["0.0"] * (-len(texts) % 3)
    rows = [f"{i},{','.join(texts[3 * i:3 * i + 3])}" for i in range(len(texts) // 3)]
    path = tmp_path / "c.csv"
    path.write_text("s,x,y,z\n" + "\n".join(rows) + "\n")
    want = np.array([float(t) for t in texts])
    assert read_table(path, "s,x,y,z")[:, 1:].ravel().tobytes() == want.tobytes()


@pytest.mark.parametrize("value,message", [
    ("1e400", "non-finite value inf in data row 2, column 3"),
    ("-1e400", "non-finite value -inf in data row 2, column 3"),
    ("1.797693134862315808e308", "non-finite value inf in data row 2, column 3"),
])
def test_read_table_names_a_value_that_overflows(tmp_path, value, message):
    # the long doubles are rounded under a local errstate: the CLI raises on overflow
    path = tmp_path / "c.csv"
    path.write_text(f"s,x,y,z\n0,1,2,3\n1,2,{value},4\n")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ValueError, match=message):
            read_table(path, "s,x,y,z")


def _spy_fixed(monkeypatch):
    # the result of each _read_fixed call: "read", "declined"
    calls = []
    read = curves_module._read_fixed

    def spy(*args):
        values = read(*args)
        calls.append("declined" if values is None else "read")
        return values

    monkeypatch.setattr(curves_module, "_read_fixed", spy)
    return calls


_NEEDS_FIXED_POINT = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                                        reason="long double below 64 bits: strtold reads all")


# (row, what _read_fixed returns on its block): [] when the block has an
# exponent field and goes straight to strtold.  A row that strtold cannot
# read either is refused the same way on both paths
@_NEEDS_FIXED_POINT
@pytest.mark.parametrize("row,calls", [
    pytest.param("0.0,-0.0,-0.000,00.5", ["read"], id="signed-zeros-leading-zero"),
    # an 18-digit mantissa, and 19 digits whose value is below 10**18
    pytest.param("0.0,123456789.012345678,0.0912345678901234567,-0.0912345678901234567",
                 ["read"], id="mantissa-18-and-19-digits"),
    pytest.param("0.0,123456789012345678.9,1.5,2.5", ["declined"], id="mantissa-over-10**18"),
    # past 2**63 the int64 parser returns LONG_MAX, for either sign
    pytest.param("0.0,12345678901234567890.5,-12345678901234567890.5,2.5", ["declined"],
                 id="mantissa-saturates"),
    pytest.param("0.0,0.000000000123456789012345678,-0.000000000000000000000000001,2.5",
                 ["read"], id="frac-27"),
    pytest.param("0.0,0.0000000000000000000000000001,1.5,2.5", ["declined"], id="frac-28"),
    # double midpoints, which float() reads again: 2**53 + 1 and 2**52 + 1.5
    pytest.param("0.0,9007199254740993.0,-9007199254740993.0,4503599627370497.5", ["read"],
                 id="midpoints"),
    pytest.param("0.0,.5,5.,-.5", ["declined"], id="no-digit-beside-the-dot"),
    # as many dots as fields, but two in one field
    pytest.param("0.0,1..5,2,3.0", ["declined"], id="two-dots-in-a-field"),
    pytest.param("0.0,1-5.0,2.0,3.0", ["declined"], id="inner-minus"),
    pytest.param("0.0,1-5,2.0,3.0", ["declined"], id="inner-minus-no-dot"),
    pytest.param("0.0,--1.5,2.0,3.0", ["declined"], id="double-minus"),
    pytest.param("0.0,1.5e-3,-2.25,3.0", [], id="mixed-with-exponent"),
])
def test_read_fixed_equals_strtold_and_float_bitwise(tmp_path, monkeypatch, row, calls):
    path = tmp_path / "c.csv"
    path.write_text(f"s,x,y,z\n0.5,1.5,2.5,3.5\n{row}\n")

    def read():
        try:
            return curves_module._read_rows(path, "s,x,y,z")
        except ValueError as exc:
            return str(exc)

    monkeypatch.setattr(curves_module, "_FIXED_POINT", False)
    want = read()
    monkeypatch.setattr(curves_module, "_FIXED_POINT", True)
    seen = _spy_fixed(monkeypatch)
    got = read()
    assert seen == calls
    if isinstance(want, str):
        assert got == want and "is not a decimal number" in want and "data row 2," in want
    else:
        assert got.tobytes() == want.tobytes()
        texts = f"0.5,1.5,2.5,3.5,{row}".split(",")
        assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()


@_NEEDS_FIXED_POINT
def test_table_chunks_body_without_exponents_takes_the_fixed_point_path(tmp_path, monkeypatch):
    # every value of repr is between 1e-4 and 1e16 in magnitude, so no
    # field has an exponent and every block is read as int64 mantissas
    rng = np.random.default_rng(5)
    s = np.linspace(1.0, 2.0, 1000)
    points = rng.uniform(-1e3, 1e3, (1000, 3))
    text = "".join(table_chunks("s,x,y,z", s, points))
    assert "e" not in text[len("s,x,y,z"):]
    path = tmp_path / "c.csv"
    path.write_text(text)
    seen = _spy_fixed(monkeypatch)
    got = read_table(path, "s,x,y,z")
    assert seen and set(seen) == {"read"}
    assert got.tobytes() == np.column_stack([s, points]).tobytes()


def test_read_curve_csv_holds_one_block_of_text(tmp_path):
    # the reader counts the rows first and reads the body into the one
    # result table, a block at a time: a 20,001-row file peaks at the
    # 640,032-byte table plus 388,436 bytes of one block's temporaries
    # (tracemalloc, numpy 2.4.6, the first read in a fresh process: its
    # text, the comma copy, separator offsets, long doubles and the midpoint
    # test), where reading the whole 1.29 MB file at once would not
    n = 20_001
    s = np.linspace(0.0, 5.0, n)
    path = tmp_path / "c.csv"
    write_curve_csv(path, s, np.stack([np.cos(s), np.sin(s), s / 3.0], axis=-1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got, _ = read_curve_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got.base.nbytes == 4 * 8 * n
    assert peak < got.base.nbytes + 8 * curves_module._READ_BLOCK, \
        f"read_curve_csv peaked at {peak} bytes"
