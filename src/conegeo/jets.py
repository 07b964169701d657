"""Derivative jets and finite-difference stencils.

A "jet" packs a function value together with its first three derivatives:
scalar jets have shape (4,) + batch, vector jets (4,) + batch + (3,).
The algebra below (product, composition, normalization, arc-length
reparametrization) is exact given exact input jets, so curves built from
closed-form pieces keep analytic-quality derivatives.
"""

import numpy as np

from .errors import InsufficientMargin

# central stencils per scheme order: {derivative order: (offsets, coefficients)}
_CENTRAL = {
    2: {
        1: ((-1, 0, 1), (-0.5, 0.0, 0.5)),
        2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
        3: ((-2, -1, 0, 1, 2), (-0.5, 1.0, 0.0, -1.0, 0.5)),
    },
    4: {
        1: ((-2, -1, 0, 1, 2), (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12)),
        2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
        3: ((-3, -2, -1, 0, 1, 2, 3), (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8)),
    },
}

# one-sided order-4 first-derivative weights of the first two nodes of a
# uniform grid; the last two nodes use them mirrored, with opposite sign
_EDGE_D1 = (
    (-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4),
    (-1 / 4, -5 / 6, 3 / 2, -1 / 2, 1 / 12),
)


def stencil(scheme, order):
    if scheme not in _CENTRAL:
        raise ValueError(f"unsupported scheme {scheme!r}; choose 2 or 4")
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order!r}")
    offsets, coeffs = _CENTRAL[scheme][order]
    return np.asarray(offsets, dtype=float), np.asarray(coeffs, dtype=float)


def stencil_reach(scheme, order):
    """Largest stencil offset, in units of the step h."""
    offsets, _ = _CENTRAL[scheme][order]
    return max(abs(k) for k in offsets)


def fd_derivative(evaluate, s, order, h, scheme=4):
    """Central finite difference of a vectorized evaluator at parameters s."""
    return fd_derivatives(evaluate, s, (order,), h, scheme)[0]


def fd_derivatives(evaluate, s, orders, h, scheme=4):
    """Central differences of several orders from one set of stencil taps.

    Each distinct offset is evaluated once (7 taps for orders 1-3 at
    scheme 4); order 0 is the tap at offset 0, the value itself.  Each
    order sums its terms in stencil order, so the result is bitwise that
    of a separate single-order stencil.  Returns a list in `orders` order.
    """
    s = np.asarray(s, dtype=float)
    taps = {}

    def tap(k):
        if k not in taps:
            taps[k] = np.asarray(evaluate(s + k * h), dtype=float)
        return taps[k]

    out = []
    for order in orders:
        if order == 0:
            out.append(tap(0.0))
            continue
        offsets, coeffs = stencil(scheme, order)
        acc = None
        for k, c in zip(offsets, coeffs):
            if c == 0.0:
                continue
            term = c * tap(k)
            acc = term if acc is None else acc + term
        out.append(acc / h**order)
    return out


def series_derivative(values, dx, order=1, scheme=4):
    """Differentiate a uniformly spaced series.

    Returns (derivative, reach): the derivative is only available on the
    interior values[reach:len-reach]; callers trim their abscissae to match.
    """
    values = np.asarray(values, dtype=float)
    offsets, coeffs = stencil(scheme, order)
    reach = int(max(abs(k) for k in offsets))
    n = values.shape[0]
    if n < 2 * reach + 1:
        raise InsufficientMargin(
            f"series of length {n} too short for order-{order} stencil (needs {2 * reach + 1})"
        )
    core = n - 2 * reach
    acc = np.zeros((core,) + values.shape[1:])
    for k, c in zip(offsets.astype(int), coeffs):
        if c == 0.0:
            continue
        acc += c * values[reach + k : reach + k + core]
    return acc / dx**order, reach


def node_slopes(s, values):
    """First derivatives at the nodes of a sampled function, values (n,) or (n, k).

    Uniform grids of at least 5 nodes use order-4 central differences with
    one-sided order-4 rows at both ends.  Other grids use the second-order
    three-point rule inside and one-sided first differences at both ends.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(values, dtype=float)
    n = s.size
    d = np.diff(s)
    m = np.empty_like(v)
    if n >= 5 and np.max(np.abs(d - d.mean())) < 1e-8 * d.mean():
        h = d.mean()
        m[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
        for i, c in enumerate(_EDGE_D1):
            m[i] = sum(ck * v[k] for k, ck in enumerate(c)) / h
            m[n - 1 - i] = -sum(ck * v[n - 1 - k] for k, ck in enumerate(c)) / h
        return m
    d = d.reshape(d.shape + (1,) * (v.ndim - 1))
    m[0] = (v[1] - v[0]) / d[0]
    m[-1] = (v[-1] - v[-2]) / d[-1]
    if n > 2:
        w = d[:-1] + d[1:]
        m[1:-1] = ((v[2:] - v[1:-1]) / d[1:] * (d[:-1] / w)
                   + (v[1:-1] - v[:-2]) / d[:-1] * (d[1:] / w))
    return m


def hermite(s, values, slopes, q, derivative=False):
    """Piecewise cubic Hermite interpolant through (s, values) with node slopes.

    values and slopes are (n,) or (n, k); the basis weights broadcast over
    the trailing axis.  Returns the interpolant at q, or its first
    derivative with derivative=True.  q outside [s[0], s[-1]] extrapolates
    the end cubic.
    """
    idx = np.clip(np.searchsorted(s, q, side="right") - 1, 0, s.size - 2)
    h = s[idx + 1] - s[idx]
    th = (q - s[idx]) / h
    t2 = th * th
    if derivative:
        w = ((6 * t2 - 6 * th) / h, 3 * t2 - 4 * th + 1,
             (6 * th - 6 * t2) / h, 3 * t2 - 2 * th)
    else:
        t3 = t2 * th
        w = (2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + th) * h, -2 * t3 + 3 * t2, (t3 - t2) * h)
    tail = (1,) * (values.ndim - 1)
    w00, w10, w01, w11 = (x.reshape(x.shape + tail) for x in w)
    return (w00 * values[idx] + w10 * slopes[idx]
            + w01 * values[idx + 1] + w11 * slopes[idx + 1])


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def jet_product(scalar_jet, vector_jet):
    """Jets of u(s) * y(s) from scalar jets of u and vector jets of y."""
    u0, u1, u2, u3 = scalar_jet
    y0, y1, y2, y3 = vector_jet
    u0 = u0[..., None]
    u1 = u1[..., None]
    u2 = u2[..., None]
    u3 = u3[..., None]
    return np.stack(
        [
            u0 * y0,
            u1 * y0 + u0 * y1,
            u2 * y0 + 2.0 * u1 * y1 + u0 * y2,
            u3 * y0 + 3.0 * u2 * y1 + 3.0 * u1 * y2 + u0 * y3,
        ]
    )


def jet_compose(vector_jet_at_t, t_jet):
    """Jets of s -> y(t(s)), given jets of y in t (evaluated at t(s)) and of t in s."""
    y0, y1, y2, y3 = vector_jet_at_t
    _, t1, t2, t3 = t_jet
    t1 = t1[..., None]
    t2 = t2[..., None]
    t3 = t3[..., None]
    return np.stack(
        [
            y0,
            t1 * y1,
            t2 * y1 + t1**2 * y2,
            t3 * y1 + 3.0 * t1 * t2 * y2 + t1**3 * y3,
        ]
    )


def jet_normalize(vector_jet):
    """Jets of y/|y| from jets of y (y nowhere zero)."""
    g0, g1, g2, g3 = vector_jet
    r0 = np.sqrt(_dot(g0, g0))
    r1 = _dot(g0, g1) / r0
    r2 = (_dot(g1, g1) + _dot(g0, g2) - r1**2) / r0
    r3 = (3.0 * _dot(g1, g2) + _dot(g0, g3) - 3.0 * r1 * r2) / r0
    # jets of 1/r
    h0 = 1.0 / r0
    h1 = -r1 / r0**2
    h2 = -r2 / r0**2 + 2.0 * r1**2 / r0**3
    h3 = -r3 / r0**2 + 6.0 * r1 * r2 / r0**3 - 6.0 * r1**3 / r0**4
    return jet_product(np.stack([h0, h1, h2, h3]), vector_jet)


def arclength_rate_jets(vector_jet_at_tau):
    """Jets of the inverse arc-length map sigma(s), up to third order.

    Input: jets of the original curve in its own parameter tau, evaluated at
    tau = sigma(s).  The zeroth slot of the result is left as zero; only the
    derivative slots are meaningful.
    """
    _, d1, d2, d3 = vector_jet_at_tau
    v = np.sqrt(_dot(d1, d1))
    a = _dot(d1, d2)
    b = _dot(d2, d2) + _dot(d1, d3)
    s1 = 1.0 / v
    s2 = -a / v**4
    s3 = -b / v**5 + 4.0 * a**2 / v**7
    return np.stack([np.zeros_like(v), s1, s2, s3])


def jet_reparametrize(vector_jet_at_tau):
    """Jets with respect to arc length of a curve whose tau-jets are given."""
    return jet_compose(vector_jet_at_tau, arclength_rate_jets(vector_jet_at_tau))
