"""Cones over unit-speed spherical curves: charts, normals, development.

A cone with vertex at the origin is the surface (t, u) -> u * y(t) with
u > 0 and y a unit-speed curve on the unit sphere.  The induced metric is
u^2 dt^2 + du^2 for every base curve, which is the plane in polar
coordinates; develop() realizes that isometry.
"""

import numpy as np

from . import jets as jt
from .curves import (
    UNIT_TOL,
    Record,
    SpaceCurve,
    circle_curve,
    line_curve,
    read_table,
    reparametrize_arclength,
    sample_grid,
    table_chunks,
    write_text,
)
from .errors import (
    BaseDomainExceeded,
    DegenerateBase,
    InvalidHalfAngle,
    NonpositiveRadialCoordinate,
    NotOnCone,
    ParameterOutOfDomain,
    VertexPoint,
)

ON_CONE_RTOL = 1e-8
_CHART_GRID = 1024
_NEWTON_CAP = 16
_NEWTON_TOL = 1e-12
_SEED_BLOCK = 32  # directions per seed block: a 256 KB score matrix
_CHECK_BLOCK = 2048  # points per on-cone residual block
# chart range of u; the cone is singular at its vertex u = 0
U_MAX = 1e6
U_MIN = 1e-9 * U_MAX


class SphericalBaseCurve:
    """Unit-speed curve on the unit sphere, the directrix of a cone.

    Construction checks and does not repair: points must lie on the sphere
    and the speed must be 1 up to UNIT_TOL of the curve's derivative mode,
    or DegenerateBase names the worst point: a sampled base's speed at every
    row, from its interpolant's node slopes, any other at 257 points.
    periodic marks closed bases; their evaluators accept any real t.
    """

    def __init__(self, curve: SpaceCurve, periodic=False):
        _check_on_sphere(curve.evaluate(np.linspace(*curve.domain, 257)))
        if curve.nodes is None:
            m = curve.fd_margin(1)
            at = np.linspace(curve.domain[0] + m, curve.domain[1] - m, 257)
            velocity = curve.derivative(at, 1)
        else:
            at, velocity = curve.nodes[0], curve.node_slopes
        off = np.abs(np.linalg.norm(velocity, axis=-1) - 1.0)
        worst = int(np.argmax(off))
        if not off[worst] <= UNIT_TOL[curve.derivative_mode]:
            raise DegenerateBase(f"base speed is off 1 by {off[worst]:.3g} at t = "
                                 f"{at[worst]:.6g}; t must be arc length")
        self.curve = curve
        self.domain = curve.domain
        self.periodic = bool(periodic)
        self.period = curve.length if periodic else None

    def _wrap(self, t):
        if not self.periodic:
            return t
        t0 = self.domain[0]
        return t0 + np.mod(np.asarray(t, dtype=float) - t0, self.period)

    def evaluate(self, t):
        return self.curve.evaluate(self._wrap(t))

    def derivatives(self, t, orders):
        """Derivatives of the given orders at t in one pass; order 0 is y(t)."""
        # periodic sampled bases wrap the stencil itself so evaluation near
        # the seam does not run into domain margins
        if self.periodic and self.curve.derivative_mode == "finite-difference":
            jt.top_order(orders)
            arr = np.asarray(t, dtype=float)
            out = jt.fd_derivatives(self.evaluate, np.atleast_1d(arr), orders, self.curve.h)
            return [o[0] for o in out] if arr.ndim == 0 else out
        return self.curve.derivatives(self._wrap(t), orders)

    def jet(self, t, order=3):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack(self.derivatives(arr, range(order + 1)))

    def contains_range(self, t_lo, t_hi, margin=0.0):
        if self.periodic:
            return True
        d0, d1 = self.domain
        return t_lo >= d0 + margin and t_hi <= d1 - margin


def _check_on_sphere(points):
    """Raise DegenerateBase unless every point is within 1e-10 of the unit sphere.

    The radii are hypot chains, which stay finite wherever the radius itself
    is below the largest float, and a NaN radius fails the test.
    """
    x, y, z = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    dev = float(np.max(np.abs(np.hypot(np.hypot(x, y), z) - 1.0)))
    if not dev <= 1e-10:
        raise DegenerateBase(f"base curve leaves the unit sphere by {dev:.3g}")


def _half_angle(psi0):
    """psi0 as a float; raises InvalidHalfAngle outside (0, pi/2)."""
    psi0 = float(psi0)
    if not (0.0 < psi0 < np.pi / 2):
        raise InvalidHalfAngle(f"half angle {psi0!r} must lie strictly between 0 and pi/2")
    return psi0


def circular_base(psi0):
    """Circle of spherical radius psi0 around the north pole, unit speed."""
    psi0 = _half_angle(psi0)
    return SphericalBaseCurve(circle_curve(np.sin(psi0), center=(0.0, 0.0, np.cos(psi0))),
                              periodic=True)


def perturbed_circle_base(psi0, seed=0, amplitude=0.04):
    """Smooth non-circular closed spherical base near the psi0 circle.

    A three-harmonic trigonometric perturbation of the circle is projected
    back onto the sphere and reparametrized to unit speed by arc length.
    Small amplitudes keep the spherical bending positive, matching the
    circular case's orientation.
    """
    psi0 = _half_angle(psi0)
    rng = np.random.default_rng(seed)
    sp, cp = np.sin(psi0), np.cos(psi0)
    ks = np.arange(1, 4)
    A = rng.normal(size=(ks.size, 3)) * amplitude / ks[:, None] ** 2
    B = rng.normal(size=(ks.size, 3)) * amplitude / ks[:, None] ** 2

    def raw_jet(t, order):
        t = np.atleast_1d(t)
        tk = np.outer(t, ks)
        cos, sin = np.cos(tk), np.sin(tk)
        zero = np.zeros_like(t)
        return jt.jet_normalize(jt.stack_slots(
            order,
            lambda: (np.stack([sp * np.cos(t), sp * np.sin(t), np.full_like(t, cp)], axis=-1)
                     + cos @ A + sin @ B),
            lambda: (np.stack([-sp * np.sin(t), sp * np.cos(t), zero], axis=-1)
                     + (-sin * ks) @ A + (cos * ks) @ B),
            lambda: (-np.stack([sp * np.cos(t), sp * np.sin(t), zero], axis=-1)
                     + (-cos * ks**2) @ A + (-sin * ks**2) @ B),
            lambda: (np.stack([sp * np.sin(t), -sp * np.cos(t), zero], axis=-1)
                     + (sin * ks**3) @ A + (-cos * ks**3) @ B)))

    raw = SpaceCurve(lambda t: raw_jet(t, 0)[0], (0.0, 2 * np.pi), jet=raw_jet)
    return SphericalBaseCurve(reparametrize_arclength(raw), periodic=True)


def base_from_samples(t, points):
    """Base curve from `t,x,y,z` samples; points must sit on the unit sphere.

    A base whose first and last points coincide is treated as closed, so
    charts and generated curves may wind past the seam.  The nodes are
    checked before the interpolant is built from them.
    """
    pts = np.asarray(points, dtype=float)
    _check_on_sphere(pts)
    curve = SpaceCurve.from_samples(t, pts)
    closed = bool(np.linalg.norm(pts[0] - pts[-1]) < 1e-9)
    return SphericalBaseCurve(curve, periodic=closed)


class Cone:
    """Cone over a spherical base curve, vertex at the origin, u in [U_MIN, U_MAX]."""

    def __init__(self, base: SphericalBaseCurve):
        self.base = base

    def _check_u(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0):
            raise NonpositiveRadialCoordinate("u must be strictly positive")
        bad = (u < U_MIN) | (u > U_MAX)
        if np.any(bad):
            raise VertexPoint(f"u = {float(u[bad].flat[0]):.3g} outside the chart range "
                              f"[{U_MIN:.3g}, {U_MAX:.3g}]")

    def chart_t(self, directions):
        """Base parameters (n,) of the (n, 3) unit directions on the cone (grid + Newton).

        Every direction is seeded from the argmax of its dot product with a
        grid of base points; then Newton on g(t) = <d - y(t), y'(t)> runs
        over all directions at once, each stopping on its own.  Open bases
        keep seeds and iterates inside the margin of the order-2 stencil.
        """
        base = self.base
        d = np.asarray(directions, dtype=float)
        d0, d1 = base.domain
        lo, hi = -np.inf, np.inf
        if not base.periodic:
            m2 = base.curve.fd_margin(2)
            lo, hi = d0 + m2, d1 - m2
        grid = np.linspace(d0, d1, _CHART_GRID, endpoint=not base.periodic)
        ys = base.evaluate(grid)
        t = np.empty(d.shape[0])
        for i in range(0, d.shape[0], _SEED_BLOCK):
            t[i:i + _SEED_BLOCK] = grid[np.argmax(d[i:i + _SEED_BLOCK] @ ys.T, axis=1)]
        t = np.clip(t, lo, hi)
        active = np.arange(t.size)
        for _ in range(_NEWTON_CAP):
            if active.size == 0:
                break
            ta = t[active]
            y, y1, y2 = base.derivatives(ta, (0, 1, 2))
            r = d[active] - y
            g = np.sum(r * y1, axis=-1)
            gp = -np.sum(y1 * y1, axis=-1) + np.sum(r * y2, axis=-1)
            moving = gp != 0.0
            step = np.zeros_like(g)
            step[moving] = g[moving] / gp[moving]
            t[active] = np.clip(ta - step, lo, hi)
            active = active[moving & ~(np.abs(step) < _NEWTON_TOL)]
        return t


class CircularCone(Cone):
    """Right circular cone with half angle psi0; closed-form chart."""

    def __init__(self, psi0):
        super().__init__(circular_base(psi0))
        self.psi0 = float(psi0)


def cone_point(cone, t, u):
    """Surface point u * y(t)."""
    u_arr = np.asarray(u, dtype=float)
    cone._check_u(u_arr)
    base = cone.base
    if not base.periodic:
        d0, d1 = base.domain
        if np.any(np.asarray(t) < d0) or np.any(np.asarray(t) > d1):
            raise ParameterOutOfDomain(f"t outside base domain [{d0}, {d1}]")
    return u_arr[..., None] * base.evaluate(t)


def surface_normal(cone, t, u=None):
    """Unit normal of the cone, N = (y' x y)/|y' x y|; independent of u."""
    if u is not None:
        cone._check_u(np.asarray(u, dtype=float))
    return unit_normal(*cone.base.derivatives(t, (0, 1)))


def unit_normal(y, y1):
    """Cone normal (y' x y)/|y' x y| from base points y and tangents y'."""
    n = np.cross(y1, y)
    nrm = np.linalg.norm(n, axis=-1)
    if np.any(nrm < 1e-6):
        raise DegenerateBase("base tangent nearly parallel to position")
    return n / nrm[..., None]


def chart_coordinates(cone, point):
    """(t, u) of one point as floats: element 0 of chart_points(cone, point)."""
    t, u = chart_points(cone, point)
    return float(t[0]), float(u[0])


def _check_on_cone(cone, pts, u, t):
    """Raise NotOnCone for the first point farther than ON_CONE_RTOL * u from u * y(t).

    The residual is taken _CHECK_BLOCK points at a time, so its (n, 3)
    temporaries stay bounded however long the curve.
    """
    for start in range(0, u.size, _CHECK_BLOCK):
        block = slice(start, start + _CHECK_BLOCK)
        offset = cone.base.evaluate(t[block]) * u[block, None]
        offset -= pts[block]
        residual = np.linalg.norm(offset, axis=-1)
        bad = np.flatnonzero(residual > ON_CONE_RTOL * u[block])
        if bad.size:
            raise NotOnCone(
                f"chart residual {float(residual[bad[0]]):.3g} exceeds "
                f"{ON_CONE_RTOL:.0e} * u"
            )


def chart_curve(cone, curve, s=None, samples=256):
    """Chart an ambient curve: the ChartSamples (t(s), u(s)) with t tracked continuously.

    Circular cones take t = sin(psi0) * unwrap(atan2(y, x)); general cones
    chart every sample in one batched solve and unwrap t by the base period,
    which assumes consecutive samples lie less than half a period apart in
    t.  The first sample, in order, that sits at the vertex, above U_MAX or
    off the cone raises.  dt and du are None.
    """
    if s is None:
        s = sample_grid(curve, samples)
    s = np.asarray(s, dtype=float)
    return ChartSamples(s, *chart_points(cone, curve.evaluate(s)), None, None)


def chart_points(cone, points):
    """(t, u) of the (n, 3) points, charted as chart_curve charts its samples."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u = np.linalg.norm(pts, axis=-1)
    outside = np.flatnonzero(~((u >= U_MIN) & (u <= U_MAX)))  # a NaN |point| too
    n = outside[0] if outside.size else u.size
    if isinstance(cone, CircularCone):
        t = np.unwrap(np.arctan2(pts[:n, 1], pts[:n, 0])) * np.sin(cone.psi0)
    else:
        t = cone.chart_t(pts[:n] / u[:n, None])
        if cone.base.periodic:
            t = np.unwrap(t, period=cone.base.period)
    _check_on_cone(cone, pts[:n], u[:n], t)
    if outside.size:
        raise VertexPoint(f"|point| = {u[n]:.3g} outside the chart range "
                          f"[{U_MIN:.3g}, {U_MAX:.3g}]")
    return t, u


class ChartSamples(Record):
    """Cone coordinates (t, u) at the nodes s, and dt/ds, du/ds there when known (else None)."""

    fields = ("s", "t", "u", "dt", "du")


class ChartCurve:
    """Curve in cone coordinates s -> (t(s), u(s)) with scalar jets.

    t_jet_fn and u_jet_fn are jet callables jet(s, order), returning at
    least the slots 0..order.
    """

    def __init__(self, t_jet_fn, u_jet_fn, domain):
        self._t_jet = t_jet_fn
        self._u_jet = u_jet_fn
        self.domain = (float(domain[0]), float(domain[1]))

    def t_jet(self, s, order=3):
        return self._t_jet(np.atleast_1d(np.asarray(s, dtype=float)), order)

    def u_jet(self, s, order=3):
        return self._u_jet(np.atleast_1d(np.asarray(s, dtype=float)), order)


def curve_from_chart(base: SphericalBaseCurve, chart: ChartCurve) -> SpaceCurve:
    """Ambient curve u(s) * y(t(s)) with jets chained through the chart.

    A point, order 0, is u(s) times one base evaluation: no composition.
    """

    def jet(s, order):
        tj = chart.t_jet(s, order)
        yj = base.jet(tj[0], order)
        if order:
            yj = jt.jet_compose(yj, tj)
        return jt.jet_product(chart.u_jet(s, order), yj)

    return SpaceCurve(lambda s: jet(s, 0)[0], chart.domain, jet=jet)


def geodesic_curvature(cone, curve, s):
    """Signed geodesic curvature along a unit-speed curve."""
    t, _ = chart_points(cone, curve.evaluate(s))
    d1, d2 = (np.atleast_2d(d) for d in curve.derivatives(s, (1, 2)))
    kg = geodesic_curvature_of(surface_normal(cone, t), d1, d2)
    if np.ndim(s) == 0:
        return float(kg[0])
    return kg


def geodesic_curvature_of(N, d1, d2):
    """<alpha'', N x alpha'> from cone normals and the curve's first two derivatives."""
    return np.sum(d2 * np.cross(N, d1), axis=-1)


def develop(t, u):
    """Planar points (u cos t, u sin t) of chart coordinates: the development."""
    if np.any(u <= 0.0):
        raise NonpositiveRadialCoordinate("development needs u > 0")
    return np.stack([u * np.cos(t), u * np.sin(t)], axis=-1)


def line_fit(points):
    """Total-least-squares line through planar points.

    Returns (centroid, direction, normal, max_residual, origin_distance):
    max_residual is the largest orthogonal deviation from the fitted line
    and origin_distance the unsigned distance of the line from the origin.
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / pts.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    direction = evecs[:, -1]
    normal = evecs[:, 0]
    residual = float(np.max(np.abs(centered @ normal)))
    distance = float(abs(centroid @ normal))
    return centroid, direction, normal, residual, distance


def ruling(cone, t0, u_range):
    """The straight half-line u -> u * y(t0), unit speed in u."""
    u_lo, u_hi = float(u_range[0]), float(u_range[1])
    if u_lo <= 0.0 or u_hi <= u_lo:
        raise NonpositiveRadialCoordinate("u range must satisfy 0 < u_lo < u_hi")
    base = cone.base
    if not base.contains_range(t0, t0):
        raise ParameterOutOfDomain(f"t0 = {t0!r} outside base domain")
    y0 = base.evaluate(float(t0))
    return line_curve(u_lo * y0, y0, u_hi - u_lo)


def spherical_curve(base: SphericalBaseCurve, radius):
    """Unit-speed curve on the origin-centered sphere of given radius.

    Scales a unit-sphere base curve: alpha(s) = r * y(s/r).
    """
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    d0, d1 = base.domain
    return _latitude(base, r, d0, base.period if base.periodic else (d1 - d0))


def latitude_circle(cone, u0, t_span=None):
    """The constant-u curve s -> u0 * y(t0 + s/u0) from the base's first usable t0."""
    u0 = float(u0)
    cone._check_u(np.asarray(u0))
    base = cone.base
    d0, d1 = base.domain
    margin = 0.0 if base.periodic else base.curve.fd_margin(3)
    t_start = d0 + margin
    if t_span is None:
        t_span = (d1 - d0) - 2 * margin
    if not base.contains_range(t_start, t_start + t_span):
        raise BaseDomainExceeded("latitude span leaves the base domain")
    return _latitude(base, u0, t_start, t_span)


def _latitude(base, u0, t_start, t_span):
    """u0 * y(t_start + s/u0) for s in [0, u0 * t_span], through a constant-u chart."""

    def t_jet(s, order):
        z = np.zeros_like(s)
        return np.stack([t_start + s / u0, np.full_like(s, 1.0 / u0), z, z][:order + 1])

    def u_jet(s, order):
        z = np.zeros_like(s)
        return np.stack([np.full_like(s, u0), z, z, z][:order + 1])

    chart = ChartCurve(t_jet, u_jet, (0.0, u0 * t_span))
    return curve_from_chart(base, chart)


# ----------------------------------------------------------------------
# JSON descriptors: {"kind":"circular","psi0":x} or {"kind":"general","base_csv":path}


def json_float(key, value):
    """A JSON number as a float; float() alone would read true as 1.0, "0.5" as 0.5."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def json_keys(data, known, what):
    """Refuse keys of a JSON object outside `known`: a mistyped key would be lost silently."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown keys {unknown!r}; {what} takes {list(known)!r}")


def cone_from_descriptor(desc, resolve_path=None):
    """Build a cone from its JSON descriptor (dict)."""
    kind = desc.get("kind")
    if kind == "circular":
        json_keys(desc, ("kind", "psi0"), "a circular cone")
        psi0 = json_float("psi0", desc["psi0"])
        if not np.isfinite(psi0):
            raise ValueError(f"psi0 must be finite, got {psi0!r}")
        return CircularCone(psi0)
    if kind == "general":
        json_keys(desc, ("kind", "base_csv"), "a general cone")
        path = desc["base_csv"]
        if resolve_path is not None:
            path = resolve_path(path)
        t, pts = read_base_csv(path)
        return Cone(base_from_samples(t, pts))
    raise ValueError(f"unknown cone kind {kind!r}")


def read_base_csv(path):
    data = read_table(path, "t,x,y,z")
    return data[:, 0], data[:, 1:]


def write_base_csv(path, t, points):
    write_text(path, table_chunks("t,x,y,z", t, points))
