import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conegeo import jets as jt
from conegeo.errors import InsufficientMargin


def poly_curve(t):
    t = np.asarray(t, dtype=float)
    return np.stack([t**3, t**2 - t, 2 * t], axis=-1)


def test_stencils_exact_on_polynomials():
    # order-4 stencils must be exact through degree 4+order-1; cubic suffices
    s = np.array([0.5])
    assert np.allclose(jt.fd_derivative(poly_curve, s, 1, 0.01), [[0.75, 0.0, 2.0]])
    assert np.allclose(jt.fd_derivative(poly_curve, s, 2, 0.01), [[3.0, 2.0, 0.0]])
    assert np.allclose(jt.fd_derivative(poly_curve, s, 3, 0.01), [[6.0, 0.0, 0.0]])
    for order, expect in ((1, [0.75, 0.0, 2.0]), (2, [3.0, 2.0, 0.0]), (3, [6.0, 0.0, 0.0])):
        got = jt.fd_derivative(poly_curve, s, order, 1e-3, scheme=2)
        assert np.allclose(got, [expect], atol=1e-6)


def test_fd_matches_trig_derivatives():
    fn = lambda t: np.stack([np.sin(t), np.cos(2 * t), t], axis=-1)
    s = np.linspace(0.5, 1.5, 7)
    d1 = jt.fd_derivative(fn, s, 1, 1e-3)
    expect = np.stack([np.cos(s), -2 * np.sin(2 * s), np.ones_like(s)], axis=-1)
    assert np.max(np.abs(d1 - expect)) < 1e-10
    d3 = jt.fd_derivative(fn, s, 3, 1e-2)
    expect3 = np.stack([-np.cos(s), 8 * np.sin(2 * s), np.zeros_like(s)], axis=-1)
    assert np.max(np.abs(d3 - expect3)) < 1e-6


def test_series_derivative():
    s = np.linspace(0.0, 3.0, 301)
    vals = np.sin(s)
    d, reach = jt.series_derivative(vals, s[1] - s[0], 1)
    assert np.max(np.abs(d - np.cos(s[reach:-reach]))) < 1e-8
    d2, reach2 = jt.series_derivative(vals, s[1] - s[0], 2)
    assert np.max(np.abs(d2 + np.sin(s[reach2:-reach2]))) < 1e-6
    with pytest.raises(InsufficientMargin):
        jt.series_derivative(vals[:4], 0.01, 1)


def _fd_check(fn, t, order, h=1e-3):
    offsets, coeffs = jt.stencil(4, order)
    acc = 0.0
    for k, c in zip(offsets, coeffs):
        acc = acc + c * fn(t + k * h)
    return acc / h**order


def test_jet_product_and_compose_against_fd():
    u_fn = lambda t: 1.5 + 0.3 * np.sin(t)
    y_fn = lambda t: np.stack([np.cos(t), np.sin(2 * t), t**2], axis=-1)
    t = np.linspace(0.2, 1.2, 5)

    u_jet = np.stack([u_fn(t),
                      0.3 * np.cos(t),
                      -0.3 * np.sin(t),
                      -0.3 * np.cos(t)])
    y_jet = np.stack([y_fn(t),
                      np.stack([-np.sin(t), 2 * np.cos(2 * t), 2 * t], axis=-1),
                      np.stack([-np.cos(t), -4 * np.sin(2 * t), np.full_like(t, 2.0)], axis=-1),
                      np.stack([np.sin(t), -8 * np.cos(2 * t), np.zeros_like(t)], axis=-1)])

    prod = jt.jet_product(u_jet, y_jet)
    fn = lambda q: u_fn(q)[..., None] * y_fn(q)
    for order in (1, 2, 3):
        assert np.max(np.abs(prod[order] - _fd_check(fn, t, order))) < 1e-5

    # composition with t(s) = 0.5 s^2 + 0.1 s
    s = np.linspace(0.3, 1.0, 5)
    t_of_s = 0.5 * s**2 + 0.1 * s
    t_jet = np.stack([t_of_s, s + 0.1, np.ones_like(s), np.zeros_like(s)])
    y_at = np.stack([y_fn(t_of_s),
                     np.stack([-np.sin(t_of_s), 2 * np.cos(2 * t_of_s), 2 * t_of_s], axis=-1),
                     np.stack([-np.cos(t_of_s), -4 * np.sin(2 * t_of_s), np.full_like(s, 2.0)], axis=-1),
                     np.stack([np.sin(t_of_s), -8 * np.cos(2 * t_of_s), np.zeros_like(s)], axis=-1)])
    comp = jt.jet_compose(y_at, t_jet)
    comp_fn = lambda q: y_fn(0.5 * q**2 + 0.1 * q)
    for order in (1, 2, 3):
        assert np.max(np.abs(comp[order] - _fd_check(comp_fn, s, order))) < 1e-5


def test_jet_normalize_against_fd():
    g_fn = lambda t: np.stack([1.0 + 0.2 * np.cos(t), 0.3 * np.sin(t), 0.8 + 0.1 * t], axis=-1)
    t = np.linspace(0.1, 2.0, 6)
    g_jet = np.stack([g_fn(t),
                      np.stack([-0.2 * np.sin(t), 0.3 * np.cos(t), np.full_like(t, 0.1)], axis=-1),
                      np.stack([-0.2 * np.cos(t), -0.3 * np.sin(t), np.zeros_like(t)], axis=-1),
                      np.stack([0.2 * np.sin(t), -0.3 * np.cos(t), np.zeros_like(t)], axis=-1)])
    unit = jt.jet_normalize(g_jet)
    assert np.max(np.abs(np.linalg.norm(unit[0], axis=-1) - 1.0)) < 1e-14
    norm_fn = lambda q: g_fn(q) / np.linalg.norm(g_fn(q), axis=-1)[..., None]
    for order in (1, 2, 3):
        assert np.max(np.abs(unit[order] - _fd_check(norm_fn, t, order))) < 1e-5


def test_jet_reparametrize_gives_unit_speed():
    y_fn = lambda t: np.stack([2 * np.cos(t), 2 * np.sin(t), 0.5 * t], axis=-1)
    t = np.linspace(0.0, 3.0, 9)
    y_jet = np.stack([y_fn(t),
                      np.stack([-2 * np.sin(t), 2 * np.cos(t), np.full_like(t, 0.5)], axis=-1),
                      np.stack([-2 * np.cos(t), -2 * np.sin(t), np.zeros_like(t)], axis=-1),
                      np.stack([2 * np.sin(t), -2 * np.cos(t), np.zeros_like(t)], axis=-1)])
    rep = jt.jet_reparametrize(y_jet)
    speed = np.linalg.norm(rep[1], axis=-1)
    assert np.max(np.abs(speed - 1.0)) < 1e-14
    # the arc-length acceleration must be orthogonal to the velocity
    dots = np.sum(rep[1] * rep[2], axis=-1)
    assert np.max(np.abs(dots)) < 1e-14


def _trig(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(3 * t), np.cos(t) * t, np.exp(0.3 * t)], axis=-1)


@pytest.mark.parametrize("scheme", [2, 4])
def test_fd_derivatives_bitwise_equal_to_single_orders(scheme):
    s = np.linspace(-0.7, 1.3, 23)
    h = 1e-3
    single = {0: _trig(s)}
    for order in (1, 2, 3):
        single[order] = jt.fd_derivative(_trig, s, order, h, scheme)
    for size in (1, 2, 3, 4):
        for orders in itertools.permutations((0, 1, 2, 3), size):
            got = jt.fd_derivatives(_trig, s, orders, h, scheme)
            assert len(got) == len(orders)
            for order, value in zip(orders, got):
                assert value.tobytes() == single[order].tobytes(), (orders, order)


@pytest.mark.parametrize("scheme,orders,taps", [
    (4, (1, 2, 3), 7), (4, (0, 1, 2, 3), 7), (4, (1, 2), 5), (4, (0, 1), 5),
    (4, (1,), 4), (4, (2,), 5), (4, (3,), 6), (2, (0, 1, 2, 3), 5), (2, (1, 2), 3),
])
def test_fd_derivatives_evaluates_each_offset_once(scheme, orders, taps):
    seen = []

    def counted(q):
        seen.append(float(q[0]))
        return _trig(q)

    jt.fd_derivatives(counted, np.array([0.4, 0.5]), orders, 1e-3, scheme)
    assert len(seen) == taps
    assert len(set(seen)) == taps


# ----------------------------------------------------------------------
# node_slopes + hermite: exact on the polynomials their orders promise

_HYP = settings(max_examples=60, deadline=None, derandomize=True)
_coeff = st.floats(-3.0, 3.0, allow_nan=False)


def _poly(coeffs, x):
    """sum_j c_j x^j and its derivative; coeffs (degree+1, k)."""
    c = np.asarray(coeffs)
    p = sum(c[j] * x[:, None] ** j for j in range(len(c)))
    dp = sum(j * c[j] * x[:, None] ** (j - 1) for j in range(1, len(c)))
    return p, dp


def _assert_reproduces(s, coeffs, q, scalar):
    values, _ = _poly(coeffs, s)
    exact, dexact = _poly(coeffs, q)
    if scalar:
        values, exact, dexact = values[:, 0], exact[:, 0], dexact[:, 0]
    slopes = jt.node_slopes(s, values)
    got = jt.hermite(s, values, slopes, q)
    dgot = jt.hermite(s, values, slopes, q, derivative=True)
    assert got.shape == exact.shape and dgot.shape == dexact.shape
    assert np.max(np.abs(got - exact)) <= 1e-12 * max(1.0, np.max(np.abs(values)))
    assert np.max(np.abs(dgot - dexact)) <= 1e-12 * max(1.0, np.max(np.abs(dexact)))


@_HYP
@given(s0=st.floats(-2.0, 2.0), h=st.floats(0.05, 0.5), n=st.integers(5, 30),
       coeffs=st.lists(st.lists(_coeff, min_size=3, max_size=3), min_size=4, max_size=4),
       frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       scalar=st.booleans())
def test_hermite_reproduces_cubics_on_uniform_grids(s0, h, n, coeffs, frac, scalar):
    s = s0 + h * np.arange(n)
    q = s[0] + np.asarray(frac) * (s[-1] - s[0])
    _assert_reproduces(s, coeffs, q, scalar)


@_HYP
@given(gaps=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=25),
       coeffs=st.lists(st.lists(_coeff, min_size=3, max_size=3), min_size=3, max_size=3),
       frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       scalar=st.booleans())
def test_hermite_reproduces_quadratics_on_nonuniform_grids(gaps, coeffs, frac, scalar):
    # the end slopes are first differences, so only the inner intervals are exact
    s = np.concatenate([[-1.0], -1.0 + np.cumsum(gaps)])
    q = s[1] + np.asarray(frac) * (s[-2] - s[1])
    _assert_reproduces(s, coeffs, q, scalar)


def test_hermite_at_nodes_returns_node_data_exactly():
    s = np.array([0.0, 0.3, 0.5, 1.1, 1.2, 2.0])
    values = np.cos(3 * s)[:, None] * np.array([1.0, -2.0, 0.5])
    slopes = jt.node_slopes(s, values)
    assert jt.hermite(s, values, slopes, s).tobytes() == values.tobytes()
    assert jt.hermite(s, values, slopes, s, derivative=True).tobytes() == slopes.tobytes()


# ----------------------------------------------------------------------
# jet algebra against symbolic derivatives


def _symbolic_jets(expr, x, points):
    """Values and first three derivatives of a sympy expression (or list) at points."""
    exprs = expr if isinstance(expr, list) else [expr]
    table = [exprs]
    for _ in range(3):
        table.append([sympy.diff(e, x) for e in table[-1]])
    values = sympy.lambdify(x, table, "numpy", cse=True)(points)
    jets = np.stack([np.stack([np.broadcast_to(v, points.shape) for v in row], axis=-1)
                     for row in values])
    return jets if isinstance(expr, list) else jets[..., 0]


def test_jet_algebra_matches_sympy():
    rng = np.random.default_rng(20210325)
    a = [sympy.Rational(int(v), 8) for v in rng.integers(1, 16, size=9)]
    x = sympy.symbols("x")
    y = [a[0] * sympy.sin(a[1] * x) + x**2, sympy.cos(a[2] * x) * x + a[3], 2 + a[4] * x**3]
    u = 1 + a[5] * x**2 + sympy.sin(a[6] * x) / 4
    t = a[7] * x + sympy.cos(a[8] * x) / 3
    s = np.linspace(0.1, 1.4, 9)

    y_jet, u_jet, t_jet = (_symbolic_jets(e, x, s) for e in (y, u, t))
    got = jt.jet_product(u_jet, y_jet)
    exact = _symbolic_jets([u * e for e in y], x, s)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))

    y_at_t = _symbolic_jets(y, x, _symbolic_jets(t, x, s)[0])
    got = jt.jet_compose(y_at_t, t_jet)
    exact = _symbolic_jets([e.subs(x, t) for e in y], x, s)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))

    norm = sympy.sqrt(sum(e**2 for e in y))
    got = jt.jet_normalize(y_jet)
    exact = _symbolic_jets([e / norm for e in y], x, s)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
