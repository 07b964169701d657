import itertools

import numpy as np
import pytest

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
