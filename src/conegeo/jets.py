"""Derivative jets and finite-difference stencils.

A "jet" packs a function value together with its first derivatives, up to
the third: a jet callable jet(s, order) returns at least the slots
0..order, scalar jets with shape (slots,) + batch and vector jets
(slots,) + batch + (3,).  The algebra below (product, composition,
normalization, arc-length reparametrization) works on as many slots as it
is given, slot k reading only slots up to k, and is exact given exact input
jets, so curves built from closed-form pieces keep analytic-quality
derivatives.
"""

import numpy as np

from .errors import InsufficientMargin

# order-4 central stencils: {derivative order: (offsets, coefficients)}
_CENTRAL = {
    1: ((-2, -1, 0, 1, 2), (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-3, -2, -1, 0, 1, 2, 3), (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8)),
}

# one-sided order-4 first-derivative weights of the first two nodes of a
# uniform grid; the last two nodes use them mirrored, with opposite sign
_EDGE_D1 = (
    (-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4),
    (-1 / 4, -5 / 6, 3 / 2, -1 / 2, 1 / 12),
)


def stencil(order):
    if order not in _CENTRAL:
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order!r}")
    offsets, coeffs = _CENTRAL[order]
    return np.asarray(offsets, dtype=float), np.asarray(coeffs, dtype=float)


def stencil_reach(order):
    """Largest stencil offset, in units of the step h."""
    return _CENTRAL[order][0][-1]


def fd_derivative(evaluate, s, order, h):
    """Central finite difference of a vectorized evaluator at parameters s."""
    return fd_derivatives(evaluate, s, (order,), h)[0]


def fd_derivatives(evaluate, s, orders, h):
    """Central differences of several orders from one evaluator call.

    `evaluate` must work elementwise: it gets, concatenated, the parameters
    of each distinct offset with a nonzero weight (7 for orders 1-3) and of
    offset 0 for order 0, the value.  Each order sums its terms in stencil
    order, bitwise as a single-order stencil would.  Returns a list in
    `orders` order.
    """
    s = np.asarray(s, dtype=float)
    stencils = {order: stencil(order) for order in orders if order}
    offsets = []
    for order in orders:
        used = zip(*stencils[order]) if order else ((0.0, 1.0),)
        offsets += [k for k, c in used if c != 0.0 and k not in offsets]
    values = np.asarray(evaluate(np.concatenate([np.ravel(s + k * h) for k in offsets])),
                        dtype=float)
    taps = dict(zip(offsets, values.reshape((len(offsets),) + s.shape + values.shape[1:])))

    def derivative(order):
        try:
            scale = h**order
        except OverflowError:
            raise OverflowError(f"order-{order} stencil step h = {h:.3g}: "
                                f"h**{order} overflows") from None
        terms = (c * taps[k] for k, c in zip(*stencils[order]) if c != 0.0)
        return sum(terms, next(terms)) / scale

    return [derivative(order) if order else taps[0.0] for order in orders]


def series_derivative(values, dx, order=1):
    """Differentiate a uniformly spaced series.

    Returns (derivative, reach): the derivative is only available on the
    interior values[reach:len-reach]; callers trim their abscissae to match.
    """
    values = np.asarray(values, dtype=float)
    offsets, coeffs = stencil(order)
    reach = stencil_reach(order)
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


def uniform_step(s):
    """The mean step of the grid s when every step is within a relative 1e-8 of it, else None."""
    d = np.diff(s)
    h = float(np.mean(d))
    return h if np.max(np.abs(d - h)) <= 1e-8 * abs(h) else None


def node_slopes(s, values):
    """First derivatives at the nodes of a sampled function, values (n,) or (n, k).

    Uniform grids of at least 5 nodes use order-4 central differences with
    one-sided order-4 rows at both ends.  Other grids use the second-order
    three-point rule inside and one-sided first differences at both ends.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(values, dtype=float)
    n = s.size
    m = np.empty_like(v)
    h = uniform_step(s) if n >= 5 else None
    if h is not None:
        m[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
        for i, c in enumerate(_EDGE_D1):
            m[i] = sum(ck * v[k] for k, ck in enumerate(c)) / h
            m[n - 1 - i] = -sum(ck * v[n - 1 - k] for k, ck in enumerate(c)) / h
        return m
    d = np.diff(s).reshape((n - 1,) + (1,) * (v.ndim - 1))
    m[0] = (v[1] - v[0]) / d[0]
    m[-1] = (v[-1] - v[-2]) / d[-1]
    if n > 2:
        w = d[:-1] + d[1:]
        m[1:-1] = ((v[2:] - v[1:-1]) / d[1:] * (d[:-1] / w)
                   + (v[1:-1] - v[:-2]) / d[:-1] * (d[1:] / w))
    return m


def hermite(s, values, slopes, q):
    """Piecewise cubic Hermite interpolant through (s, values) with node slopes.

    values and slopes are (n,) or (n, k); the basis weights broadcast over
    the trailing axis.  Returns the interpolant at q; q outside
    [s[0], s[-1]] extrapolates the end cubic.  At a node it is the node's
    value (-0.0 may become +0.0).
    """
    idx = np.asarray(np.searchsorted(s, q, side="right") - 1)
    np.clip(idx, 0, s.size - 2, out=idx)
    idx1 = idx + 1
    w = _hermite_weights(s, idx, idx1, q, values.ndim - 1)
    # w00 v0 + w10 m0 + w01 v1 + w11 m1, summed left to right into one array
    out = w[0] * values.take(idx, axis=0)
    for wk, table, i in zip(w[1:], (slopes, values, slopes), (idx, idx1, idx1)):
        out += wk * table.take(i, axis=0)
    return out


def _hermite_weights(s, idx, idx1, q, trailing):
    """hermite's basis weights at q, in a frame of their own so no temporary outlives them."""
    s0 = s.take(idx)
    h, th = (x.reshape(np.shape(x) + (1,) * trailing) for x in (s.take(idx1) - s0, q - s0))
    th /= h
    t2 = th * th
    t3 = t2 * th
    a, b = 2 * t3, 3 * t2
    return a - b + 1, (t3 - 2 * t2 + th) * h, b - a, (t3 - t2) * h


def _dot(a, b):
    return np.sum(a * b, axis=-1)


# binomial coefficients C(k, j) of the Leibniz rule, rows k = 0..3
_BINOMIAL = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))


def top_order(orders):
    """Highest of `orders`, which must be a non-empty collection of 0, 1, 2 and 3."""
    orders = tuple(orders)
    if not orders or not all(isinstance(k, (int, np.integer)) and 0 <= k <= 3
                             for k in orders):
        raise ValueError(f"derivative orders must be a non-empty subset of 0..3, "
                         f"got {orders!r}")
    return max(orders)


def stack_slots(order, *slots):
    """Stack the first order + 1 slots, each a thunk evaluated only when stacked."""
    return np.stack([f() for f in slots[:order + 1]])


def jet_product(scalar_jet, vector_jet):
    """Jets of u(s) * y(s) from scalar jets of u and vector jets of y.

    Slot k is the Leibniz sum of C(k, j) u_j y_(k-j), j from k down to 0, for
    as many slots as both jets have.
    """
    u = [x[..., None] for x in scalar_jet[:len(vector_jet)]]
    out = []
    for k, row in enumerate(_BINOMIAL[:len(u)]):
        acc = u[k] * vector_jet[0]
        for j in range(k - 1, -1, -1):
            acc = acc + (u[j] if row[j] == 1 else row[j] * u[j]) * vector_jet[k - j]
        out.append(acc)
    return np.stack(out)


def jet_compose(vector_jet_at_t, t_jet):
    """Jets of s -> y(t(s)), given jets of y in t (evaluated at t(s)) and of t in s.

    Slot k reads slots up to k of both, for as many slots as both jets have.
    """
    y = vector_jet_at_t
    n = min(len(y), len(t_jet))
    t = [None] + [x[..., None] for x in t_jet[1:n]]
    slots = (lambda: y[0],
             lambda: t[1] * y[1],
             lambda: t[2] * y[1] + t[1]**2 * y[2],
             lambda: t[3] * y[1] + 3.0 * t[1] * t[2] * y[2] + t[1]**3 * y[3])
    return stack_slots(n - 1, *slots)


def jet_normalize(vector_jet):
    """Jets of y/|y| from jets of y (y nowhere zero), as many slots as given."""
    g = vector_jet
    n = len(g)
    r0 = np.sqrt(_dot(g[0], g[0]))
    h = [1.0 / r0]  # jets of 1/r
    if n > 1:
        r1 = _dot(g[0], g[1]) / r0
        h.append(-r1 / r0**2)
    if n > 2:
        r2 = (_dot(g[1], g[1]) + _dot(g[0], g[2]) - r1**2) / r0
        h.append(-r2 / r0**2 + 2.0 * r1**2 / r0**3)
    if n > 3:
        r3 = (3.0 * _dot(g[1], g[2]) + _dot(g[0], g[3]) - 3.0 * r1 * r2) / r0
        h.append(-r3 / r0**2 + 6.0 * r1 * r2 / r0**3 - 6.0 * r1**3 / r0**4)
    return jet_product(h, g)


def arclength_rate_jets(vector_jet_at_tau):
    """Jets of the inverse arc-length map sigma(s), as many slots as given.

    Input: jets of the original curve in its own parameter tau, evaluated at
    tau = sigma(s).  The zeroth slot of the result is left as zero; only the
    derivative slots are meaningful.
    """
    d = vector_jet_at_tau
    out = [np.zeros(d[0].shape[:-1])]
    if len(d) > 1:
        v = np.sqrt(_dot(d[1], d[1]))
        out.append(1.0 / v)
    if len(d) > 2:
        a = _dot(d[1], d[2])
        out.append(-a / v**4)
    if len(d) > 3:
        b = _dot(d[2], d[2]) + _dot(d[1], d[3])
        out.append(-b / v**5 + 4.0 * a**2 / v**7)
    return np.stack(out)


def jet_reparametrize(vector_jet_at_tau):
    """Jets with respect to arc length of a curve whose tau-jets are given."""
    return jet_compose(vector_jet_at_tau, arclength_rate_jets(vector_jet_at_tau))
