"""Cones over unit-speed spherical curves: charts, normals, development.

A cone with vertex at the origin is the surface (t, u) -> u * y(t) with
u > 0 and y a unit-speed curve on the unit sphere.  The induced metric is
u^2 dt^2 + du^2 for every base curve, which is the plane in polar
coordinates; develop() realizes that isometry.
"""

import numpy as np

from . import jets as jt
from .curves import (
    SpaceCurve,
    read_table,
    reparametrize_arclength,
    sample_grid,
    write_table,
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
_SEED_BLOCK = 256  # directions per seed block: a 2 MB score matrix


class SphericalBaseCurve:
    """Unit-speed curve on the unit sphere, the directrix of a cone.

    Construction normalizes: curves that are not unit-speed are
    reparametrized, points are checked to lie on the sphere.  periodic
    marks closed bases; their evaluators accept any real t.
    """

    def __init__(self, curve: SpaceCurve, periodic=False):
        pts = curve.evaluate(np.linspace(*curve.domain, 257))
        radii = np.linalg.norm(pts, axis=-1)
        if np.max(np.abs(radii - 1.0)) > 1e-10:
            raise DegenerateBase(
                f"base curve leaves the unit sphere by {np.max(np.abs(radii - 1.0)):.3g}"
            )
        m = curve.fd_margin(1)
        scan = np.linspace(curve.domain[0] + m, curve.domain[1] - m, 257)
        speeds = np.linalg.norm(curve.derivative(scan, 1), axis=-1)
        if np.max(np.abs(speeds - 1.0)) > 1e-8:
            curve = reparametrize_arclength(curve)
        self._curve = curve
        self.periodic = bool(periodic)
        self.period = curve.length if periodic else None

    @property
    def domain(self):
        return self._curve.domain

    @property
    def curve(self):
        return self._curve

    @property
    def derivative_mode(self):
        return self._curve.derivative_mode

    def _wrap(self, t):
        if not self.periodic:
            return t
        t0 = self._curve.domain[0]
        return t0 + np.mod(np.asarray(t, dtype=float) - t0, self.period)

    def evaluate(self, t):
        return self._curve.evaluate(self._wrap(t))

    def _wraps_stencil(self):
        # periodic sampled bases wrap the stencil itself so evaluation near
        # the seam does not run into domain margins
        return self.periodic and self._curve.derivative_mode == "finite-difference"

    def derivative(self, t, order=1):
        return self.derivatives(t, (order,))[0]

    def derivatives(self, t, orders):
        """Derivatives of the given orders at t in one pass; order 0 is y(t)."""
        if self._wraps_stencil():
            arr = np.asarray(t, dtype=float)
            st = self._curve.settings
            out = jt.fd_derivatives(self.evaluate, np.atleast_1d(arr), orders,
                                    st.h, st.scheme)
            return [o[0] for o in out] if arr.ndim == 0 else out
        return self._curve.derivatives(self._wrap(t), orders)

    def jet(self, t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack(self.derivatives(arr, (0, 1, 2, 3)))

    def contains_range(self, t_lo, t_hi, margin=0.0):
        if self.periodic:
            return True
        d0, d1 = self._curve.domain
        return t_lo >= d0 + margin and t_hi <= d1 - margin


def _half_angle(psi0):
    """psi0 as a float; raises InvalidHalfAngle outside (0, pi/2)."""
    psi0 = float(psi0)
    if not (0.0 < psi0 < np.pi / 2):
        raise InvalidHalfAngle(f"half angle {psi0!r} must lie strictly between 0 and pi/2")
    return psi0


def circular_base(psi0):
    """Circle of spherical radius psi0 around the north pole, unit speed."""
    psi0 = _half_angle(psi0)
    sp, cp = np.sin(psi0), np.cos(psi0)

    def jet(t):
        ph = t / sp
        cos, sin = np.cos(ph), np.sin(ph)
        zero = np.zeros_like(ph)
        y = np.stack([sp * cos, sp * sin, np.full_like(ph, cp)], axis=-1)
        d1 = np.stack([-sin, cos, zero], axis=-1)
        d2 = np.stack([-cos / sp, -sin / sp, zero], axis=-1)
        d3 = np.stack([sin / sp**2, -cos / sp**2, zero], axis=-1)
        return np.stack([y, d1, d2, d3])

    period = 2 * np.pi * sp
    curve = SpaceCurve.from_function(lambda t: jet(t)[0], (0.0, period), jet=jet)
    return SphericalBaseCurve(curve, periodic=True)


def perturbed_circle_base(psi0, seed=0, amplitude=0.04, modes=3):
    """Smooth non-circular closed spherical base near the psi0 circle.

    A trigonometric perturbation of the circle is projected back onto the
    sphere and reparametrized to unit speed; small amplitudes keep the
    spherical bending positive, matching the circular case's orientation.
    """
    psi0 = _half_angle(psi0)
    rng = np.random.default_rng(seed)
    sp, cp = np.sin(psi0), np.cos(psi0)
    ks = np.arange(1, modes + 1)
    A = rng.normal(size=(modes, 3)) * amplitude / ks[:, None] ** 2
    B = rng.normal(size=(modes, 3)) * amplitude / ks[:, None] ** 2

    def raw_jet(t):
        t = np.atleast_1d(t)
        cos = np.cos(np.outer(t, ks))
        sin = np.sin(np.outer(t, ks))
        zero = np.zeros_like(t)
        g0 = np.stack([sp * np.cos(t), sp * np.sin(t), np.full_like(t, cp)], axis=-1)
        g1 = np.stack([-sp * np.sin(t), sp * np.cos(t), zero], axis=-1)
        g2 = -np.stack([sp * np.cos(t), sp * np.sin(t), zero], axis=-1)
        g3 = np.stack([sp * np.sin(t), -sp * np.cos(t), zero], axis=-1)
        g0 = g0 + cos @ A + sin @ B
        g1 = g1 + (-sin * ks) @ A + (cos * ks) @ B
        g2 = g2 + (-cos * ks**2) @ A + (-sin * ks**2) @ B
        g3 = g3 + (sin * ks**3) @ A + (-cos * ks**3) @ B
        return jt.jet_normalize(np.stack([g0, g1, g2, g3]))

    curve = SpaceCurve.from_function(
        lambda t: raw_jet(t)[0], (0.0, 2 * np.pi), jet=raw_jet
    )
    unit = reparametrize_arclength(curve)
    return SphericalBaseCurve(unit, periodic=True)


def base_from_samples(t, points):
    """Base curve from `t,x,y,z` samples; points must sit on the unit sphere.

    A base whose first and last points coincide is treated as closed, so
    charts and generated curves may wind past the seam.
    """
    pts = np.asarray(points, dtype=float)
    curve = SpaceCurve.from_samples(t, pts)
    closed = bool(np.linalg.norm(pts[0] - pts[-1]) < 1e-9)
    return SphericalBaseCurve(curve, periodic=closed)


class Cone:
    """Cone over a spherical base curve, vertex at the origin, u in (0, u_max]."""

    def __init__(self, base: SphericalBaseCurve, u_max=1e6):
        if u_max <= 0.0:
            raise ValueError("u_max must be positive")
        self.base = base
        self.u_max = float(u_max)

    @property
    def u_min(self):
        # vertex exclusion: the cone is singular at u = 0
        return 1e-9 * self.u_max

    def _check_u(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0):
            raise NonpositiveRadialCoordinate("u must be strictly positive")
        if np.any(u < self.u_min) or np.any(u > self.u_max):
            raise VertexPoint(
                f"u outside the chart range [{self.u_min:.3g}, {self.u_max:.3g}]"
            )

    def chart_t(self, direction, t_hint=None):
        """Base parameter of unit direction(s) on the cone (grid + Newton).

        A (3,) direction gives a float, an (n, 3) array of directions an
        (n,) array.  Without t_hint every direction is seeded from the
        argmax of its dot product with a grid of base points; then Newton
        on g(t) = <d - y(t), y'(t)> runs over all directions at once,
        each stopping on its own.  Open bases keep seeds and iterates
        inside the margin of the order-2 stencil.
        """
        base = self.base
        dirs = np.asarray(direction, dtype=float)
        d = np.atleast_2d(dirs)
        d0, d1 = base.domain
        lo, hi = -np.inf, np.inf
        if not base.periodic:
            m2 = base.curve.fd_margin(2)
            lo, hi = d0 + m2, d1 - m2
        if t_hint is None:
            grid = np.linspace(d0, d1, _CHART_GRID, endpoint=not base.periodic)
            ys = base.evaluate(grid)
            t = np.empty(d.shape[0])
            for i in range(0, d.shape[0], _SEED_BLOCK):
                t[i:i + _SEED_BLOCK] = grid[np.argmax(d[i:i + _SEED_BLOCK] @ ys.T, axis=1)]
        else:
            t = np.broadcast_to(np.asarray(t_hint, dtype=float), d.shape[:1]).copy()
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
        return float(t[0]) if dirs.ndim == 1 else t


class CircularCone(Cone):
    """Right circular cone with half angle psi0; closed-form chart."""

    def __init__(self, psi0, u_max=1e6):
        self.psi0 = _half_angle(psi0)
        super().__init__(circular_base(self.psi0), u_max=u_max)

    def chart_t(self, direction, t_hint=None):
        sp = np.sin(self.psi0)
        t = float(np.arctan2(direction[1], direction[0]) * sp)
        period = 2 * np.pi * sp
        if t_hint is not None:
            t += period * np.round((float(t_hint) - t) / period)
        elif t < 0.0:
            t += period
        return t


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


def chart_coordinates(cone, point, t_hint=None):
    """Invert the cone parametrization: point -> (t, u).

    Raises VertexPoint near the vertex and NotOnCone when the best chart
    residual exceeds the on-cone tolerance.
    """
    p = np.asarray(point, dtype=float)
    u = float(np.linalg.norm(p))
    if u < cone.u_min:
        raise _vertex_error(cone, u)
    t = cone.chart_t(p / u, t_hint=t_hint)
    _check_on_cone(cone, p, u, t)
    return t, u


def _vertex_error(cone, u):
    return VertexPoint(f"|point| = {u:.3g} is below u_min = {cone.u_min:.3g}")


def _check_on_cone(cone, pts, u, t):
    """Raise NotOnCone for the first point farther than ON_CONE_RTOL * u from u * y(t)."""
    u = np.asarray(u)
    residual = np.linalg.norm(u[..., None] * cone.base.evaluate(t) - pts, axis=-1)
    bad = np.flatnonzero(residual > ON_CONE_RTOL * u)
    if bad.size:
        raise NotOnCone(
            f"chart residual {float(residual.flat[bad[0]]):.3g} exceeds "
            f"{ON_CONE_RTOL:.0e} * u"
        )


def chart_curve(cone, curve, s=None, samples=256, points=None):
    """Chart an ambient curve: s -> (t(s), u(s)) with t tracked continuously.

    General cones chart every sample in one batched solve and unwrap t by
    the base period, which assumes consecutive samples lie less than half
    a period apart in t.  The first sample, in order, that sits at the
    vertex or off the cone raises.  points, when given, is curve.evaluate(s)
    already computed.
    """
    if s is None:
        s = sample_grid(curve, samples)
    s = np.asarray(s, dtype=float)
    pts = np.atleast_2d(curve.evaluate(s) if points is None else points)
    u = np.linalg.norm(pts, axis=-1)
    if isinstance(cone, CircularCone):
        if np.any(u < cone.u_min):
            raise VertexPoint("curve sample below u_min")
        sp = np.sin(cone.psi0)
        t = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0])) * sp
        residual = np.linalg.norm(u[:, None] * cone.base.evaluate(t) - pts, axis=-1)
        if np.any(residual > ON_CONE_RTOL * u):
            raise NotOnCone(
                f"chart residual {float(np.max(residual)):.3g} exceeds tolerance"
            )
    else:
        vertex = np.flatnonzero(u < cone.u_min)
        n = vertex[0] if vertex.size else u.size
        t = cone.chart_t(pts[:n] / u[:n, None])
        _check_on_cone(cone, pts[:n], u[:n], t)
        if vertex.size:
            raise _vertex_error(cone, u[n])
        if cone.base.periodic:
            t = np.unwrap(t, period=cone.base.period)
    return ChartCurve.from_samples(s, t, u)


class ChartCurve:
    """Curve in cone coordinates s -> (t(s), u(s)) with scalar jets."""

    def __init__(self, t_jet_fn, u_jet_fn, domain, samples=None):
        self._t_jet = t_jet_fn
        self._u_jet = u_jet_fn
        self.domain = (float(domain[0]), float(domain[1]))
        self.samples = samples  # optional (s, t, u) arrays for sampled charts

    def t_jet(self, s):
        return self._t_jet(np.atleast_1d(np.asarray(s, dtype=float)))

    def u_jet(self, s):
        return self._u_jet(np.atleast_1d(np.asarray(s, dtype=float)))

    def t(self, s):
        return self.t_jet(s)[0]

    def u(self, s):
        return self.u_jet(s)[0]

    def speed(self, s):
        """Chart speed sqrt(u'^2 + u^2 t'^2); 1 for unit-speed ambient curves."""
        tj = self.t_jet(s)
        uj = self.u_jet(s)
        return np.sqrt(uj[1] ** 2 + uj[0] ** 2 * tj[1] ** 2)

    @staticmethod
    def from_samples(s, t, u, dt=None, du=None):
        """Sampled chart; derivatives default to stencils on the series."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        dx = float(np.mean(np.diff(s)))
        if np.max(np.abs(np.diff(s) - dx)) > 1e-8 * abs(dx):
            raise ValueError("sampled charts need a uniform parameter grid")

        def scalar_jet_fn(values, slopes):
            d2, r2 = jt.series_derivative(values, dx, 2)
            d3, r3 = jt.series_derivative(values, dx, 3)
            s2, s3 = s[r2:s.size - r2], s[r3:s.size - r3]

            def jet(q):
                return np.stack([jt.hermite(s, values, slopes, q),
                                 jt.hermite(s, values, slopes, q, derivative=True),
                                 np.interp(q, s2, d2), np.interp(q, s3, d3)])

            return jet

        if dt is None:
            dt = jt.node_slopes(s, t)
        if du is None:
            du = jt.node_slopes(s, u)
        return ChartCurve(
            scalar_jet_fn(t, dt),
            scalar_jet_fn(u, du),
            (s[0], s[-1]),
            samples=(s, t, u),
        )


def curve_from_chart(base: SphericalBaseCurve, chart: ChartCurve) -> SpaceCurve:
    """Ambient curve u(s) * y(t(s)) with jets chained through the chart."""

    def jet(s):
        tj = chart.t_jet(s)
        uj = chart.u_jet(s)
        yj = base.jet(tj[0])
        return jt.jet_product(uj, jt.jet_compose(yj, tj))

    return SpaceCurve.from_function(lambda s: jet(s)[0], chart.domain, jet=jet)


def geodesic_curvature(cone, curve, s):
    """Signed geodesic curvature <alpha'', N x alpha'> along a unit-speed curve."""
    chart = chart_curve(cone, curve, s=np.atleast_1d(np.asarray(s, dtype=float)))
    t = chart.samples[1]
    N = surface_normal(cone, t)
    d1, d2 = (np.atleast_2d(d) for d in curve.derivatives(s, (1, 2)))
    kg = np.sum(d2 * np.cross(N, d1), axis=-1)
    if np.ndim(s) == 0:
        return float(kg[0])
    return kg


def clairaut_invariant(cone, chart: ChartCurve, s):
    """u(s)^2 * dt/ds, constant along geodesics of the cone metric."""
    tj = chart.t_jet(s)
    uj = chart.u_jet(s)
    out = uj[0] ** 2 * tj[1]
    if np.ndim(s) == 0:
        return float(out[0])
    return out


class DevelopedCurve:
    """Planar image of a chart under the polar-coordinate development."""

    def __init__(self, chart: ChartCurve):
        self.chart = chart
        self.domain = chart.domain

    def point(self, s):
        u = self.chart.u(s)
        if np.any(u <= 0.0):
            raise NonpositiveRadialCoordinate("development needs u > 0")
        t = self.chart.t(s)
        return np.stack([u * np.cos(t), u * np.sin(t)], axis=-1)

    def velocity(self, s):
        tj = self.chart.t_jet(s)
        uj = self.chart.u_jet(s)
        u, du = uj[0], uj[1]
        t, dt = tj[0], tj[1]
        return np.stack(
            [du * np.cos(t) - u * dt * np.sin(t), du * np.sin(t) + u * dt * np.cos(t)],
            axis=-1,
        )


def develop(chart: ChartCurve) -> DevelopedCurve:
    """Isometric development of a chart curve into the plane."""
    u_probe = chart.u(np.linspace(*chart.domain, 16))
    if np.any(u_probe <= 0.0):
        raise NonpositiveRadialCoordinate("development needs u > 0 on the domain")
    return DevelopedCurve(chart)


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

    def jet(s):
        pos = (u_lo + s)[..., None] * y0
        d1 = np.broadcast_to(y0, pos.shape).copy()
        zero = np.zeros_like(pos)
        return np.stack([pos, d1, zero, np.zeros_like(pos)])

    return SpaceCurve.from_function(lambda s: jet(s)[0], (0.0, u_hi - u_lo), jet=jet)


def spherical_curve(base: SphericalBaseCurve, radius):
    """Unit-speed curve on the origin-centered sphere of given radius.

    Scales a unit-sphere base curve: alpha(s) = r * y(s/r).
    """
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    d0, d1 = base.domain

    def jet(s):
        yj = base.jet(d0 + s / r)
        lin = np.stack(
            [d0 + s / r, np.full_like(s, 1.0 / r), np.zeros_like(s), np.zeros_like(s)]
        )
        rad = np.stack(
            [np.full_like(s, r), np.zeros_like(s), np.zeros_like(s), np.zeros_like(s)]
        )
        return jt.jet_product(rad, jt.jet_compose(yj, lin))

    span = base.period if base.periodic else (d1 - d0)
    return SpaceCurve.from_function(lambda s: jet(s)[0], (0.0, r * span), jet=jet)


def latitude_circle(cone, u0, t_start=None, t_span=None):
    """The constant-u curve s -> u0 * y(t0 + s/u0), unit speed in s."""
    u0 = float(u0)
    cone._check_u(np.asarray(u0))
    base = cone.base
    d0, d1 = base.domain
    margin = 0.0 if base.periodic else base.curve.fd_margin(3)
    if t_start is None:
        t_start = d0 + margin
    if t_span is None:
        t_span = (d1 - d0) - 2 * margin
    if not base.contains_range(t_start, t_start + t_span):
        raise BaseDomainExceeded("latitude span leaves the base domain")

    def t_jet(s):
        one = np.full_like(s, 1.0 / u0)
        return np.stack([t_start + s / u0, one, np.zeros_like(s), np.zeros_like(s)])

    def u_jet(s):
        z = np.zeros_like(s)
        return np.stack([np.full_like(s, u0), z, z, z])

    chart = ChartCurve(t_jet, u_jet, (0.0, u0 * t_span))
    return curve_from_chart(base, chart)


# ----------------------------------------------------------------------
# JSON descriptors: {"kind":"circular","psi0":x} or {"kind":"general","base_csv":path}


def cone_from_descriptor(desc, resolve_path=None):
    """Build a cone from its JSON descriptor (dict)."""
    kind = desc.get("kind")
    if kind == "circular":
        psi0 = float(desc["psi0"])
        if not np.isfinite(psi0):
            raise ValueError(f"psi0 must be finite, got {psi0!r}")
        return CircularCone(psi0)
    if kind == "general":
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
    write_table(path, "t,x,y,z", t, points)
