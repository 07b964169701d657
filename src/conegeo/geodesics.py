"""Geodesics on cones: closed-form generation, ODE integration, verification.

The closed-form family
    alpha(s) = (1/a) sqrt(1+(a s+b)^2) * y(c + arctan(a s+b))
is unit-speed, lies on the cone over y, and is a geodesic for every
unit-speed spherical base y.  The independent oracle integrates the
geodesic equations of the cone metric u^2 dt^2 + du^2,
    u'' = u (t')^2,   t'' = -2 u' t' / u,
whose Clairaut invariant u^2 t' is conserved and monitored.
"""

from array import array

import numpy as np

from . import jets as jt
from .classify import (
    LABEL_RECTIFYING,
    MIN_SAMPLES,
    Report,
    classification_identity_residual,
    classify_rectifying_or_spherical,
    fit_slant_axis,
    relative_spread,
)
from .cones import (
    ChartCurve,
    ChartSamples,
    Cone,
    CircularCone,
    SphericalBaseCurve,
    U_MAX,
    U_MIN,
    chart_points,
    circular_base,
    curve_from_chart,
    develop,
    geodesic_curvature_of,
    line_fit,
    unit_normal,
)
from .curves import KAPPA_FLOOR, CurveSamples, Record, SpaceCurve, sample_curve
from .errors import (
    BaseDomainExceeded,
    InsufficientSamples,
    StepTooLarge,
    VertexApproach,
)

# RK4 peaks near 81 bytes per step (tracemalloc, 10**5 steps: four typed
# sample buffers and the s grid, then the range, drift and chart checks), so
# this ceiling caps one run near 81 MB, about 2 s on a 2-vCPU Xeon
MAX_RK4_STEPS = 10**6

# verify's gates: report field -> (CLI option, default limit), in report
# order.  normal_alignment_min passes above 1 - limit, the others below it.
GATES = {
    "max_abs_kg": ("kg_tol", 1e-4),
    "clairaut_relvar": ("clairaut_tol", 1e-5),
    "normal_alignment_min": ("align_tol", 1e-5),
    "development_straightness_residual": ("straight_tol", 1e-6),
}

# crosscheck's limits on the slant-axis residual and the identity residuals
SLANT_TOL = 1e-5
IDENTITY_TOL = 1e-4


class RectifyingParams(Record):
    """Constants (a, b) of the closed form plus the angular offset c."""

    fields = ("a", "b", "c")

    def __init__(self, a, b=0.0, c=0.0):
        if not (a > 0.0):
            raise ValueError("a must be positive")
        super().__init__(a, b, c)


def default_s_domain(params: RectifyingParams):
    """Symmetric window around the minimum-norm point s = -b/a."""
    return ((-5.0 - params.b) / params.a, (5.0 - params.b) / params.a)


def rectifying_chart(params: RectifyingParams, s_domain=None) -> ChartCurve:
    """Chart (t(s), u(s)) of the closed-form geodesic, with exact jets."""
    a, b, c = params.a, params.b, params.c
    if s_domain is None:
        s_domain = default_s_domain(params)

    def t_jet(s, order):
        w = a * s + b
        q = 1.0 + w * w
        return jt.stack_slots(order, lambda: c + np.arctan(w), lambda: a / q,
                              lambda: -2.0 * a**2 * w / q**2,
                              lambda: -2.0 * a**3 * (1.0 - 3.0 * w * w) / q**3)

    def u_jet(s, order):
        w = a * s + b
        r = np.sqrt(1.0 + w * w)
        return jt.stack_slots(order, lambda: r / a, lambda: w / r, lambda: a / r**3,
                              lambda: -3.0 * a**2 * w / r**5)

    return ChartCurve(t_jet, u_jet, s_domain)


def generate_rectifying(params: RectifyingParams, base: SphericalBaseCurve,
                        s_domain=None) -> SpaceCurve:
    """Closed-form unit-speed geodesic on the cone over `base`."""
    chart = rectifying_chart(params, s_domain)
    s_lo, s_hi = chart.domain
    w_lo, w_hi = params.a * s_lo + params.b, params.a * s_hi + params.b
    t_lo = params.c + np.arctan(min(w_lo, w_hi))
    t_hi = params.c + np.arctan(max(w_lo, w_hi))
    margin = base.curve.fd_margin(3)
    if not base.contains_range(t_lo, t_hi, margin=margin):
        raise BaseDomainExceeded(
            f"angular range [{t_lo:.4g}, {t_hi:.4g}] leaves the base domain"
        )
    return curve_from_chart(base, chart)


def generate_circular_geodesic(params: RectifyingParams, psi0,
                               s_domain=None) -> SpaceCurve:
    """Closed-form geodesic on the right circular cone with half angle psi0."""
    return generate_rectifying(params, circular_base(psi0), s_domain)


class GeodesicIVP(Record):
    """Unit-speed initial data for the chart-space geodesic equations.

    Inputs are renormalized so that u0^2 dt0^2 + du0^2 = 1; the applied
    factor is kept in `normalization` rather than silently discarded.
    """

    fields = ("t0", "u0", "dt0", "du0", "length", "normalization")

    def __init__(self, t0, u0, dt0, du0, length):
        if not (u0 > 0.0):
            raise ValueError("u0 must be positive")
        if not (length > 0.0):
            raise ValueError("length must be positive")
        norm = float(np.hypot(u0 * dt0, du0))
        if norm == 0.0:
            raise ValueError("initial velocity must be nonzero")
        super().__init__(t0, u0, dt0 / norm, du0 / norm, length, norm)


def integrate_geodesic(cone: Cone, ivp: GeodesicIVP, h=1e-3,
                       drift_tol=None) -> ChartSamples:
    """Fixed-step RK4 integration of the geodesic equations.

    Integrates floor(length/h) whole steps; a shorter remainder is not
    integrated.  Returns their ChartSamples, with the integrator's exact
    nodal derivatives as dt and du.  Raises InsufficientSamples before the
    first step on fewer than MIN_SAMPLES - 1 steps, VertexPoint if u0, or u
    anywhere on the trajectory, lies outside the chart range [U_MIN, U_MAX],
    VertexApproach if u falls below U_MIN during a step or an RK4
    stage lands on u = 0, and StepTooLarge if the Clairaut invariant drifts
    beyond drift_tol (default 1e-9 per unit arc length).  length/h above
    MAX_RK4_STEPS raises ValueError before anything is allocated.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    L = float(ivp.length)
    if not (L / h <= MAX_RK4_STEPS):
        raise ValueError(f"length/step = {L / h:.3g} exceeds {MAX_RK4_STEPS} RK4 steps")
    if drift_tol is None:
        drift_tol = 1e-9 * max(1.0, L)
    u_min = U_MIN
    base = cone.base
    n = int(np.floor(L / h + 1e-12))
    steps = np.full(1 + n, h)
    steps[0] = 0.0
    s = np.cumsum(steps)  # sequential, as a running sum of the steps

    t, u, dt, du = float(ivp.t0), float(ivp.u0), float(ivp.dt0), float(ivp.du0)
    cone._check_u(u)
    if s.size < MIN_SAMPLES:  # the least grid classify and verify judge
        raise InsufficientSamples(
            f"a sampled chart needs at least {MIN_SAMPLES - 1} steps ({MIN_SAMPLES} nodes), "
            f"got {n} steps of {h:.6g} over length {s[-1]:.6g}")
    # typed buffers hold each sample as 8 bytes, not as a Python float
    t_out, u_out, dt_out, du_out = (array("d", [x]) for x in (t, u, dt, du))
    # one RK4 step of t' = dt, u' = du, dt' = -2 du dt / u, du' = u dt^2, with
    # the right-hand side inlined; t does not enter it, so its stages are
    # never formed.  Each expression keeps the operation order of
    # rhs(t, u, dt, du) = (dt, du, -2.0 * du * dt / u, u * dt * dt) and of
    # the stage sums, so the samples are bitwise those of the textbook form.
    half, sixth = 0.5 * h, h / 6.0
    try:
        for _ in range(n):
            a1, b1 = -2.0 * du * dt / u, u * dt * dt
            u2, d2, w2 = u + half * du, dt + half * a1, du + half * b1
            a2, b2 = -2.0 * w2 * d2 / u2, u2 * d2 * d2
            u3, d3, w3 = u + half * w2, dt + half * a2, du + half * b2
            a3, b3 = -2.0 * w3 * d3 / u3, u3 * d3 * d3
            u4, d4, w4 = u + h * w3, dt + h * a3, du + h * b3
            a4, b4 = -2.0 * w4 * d4 / u4, u4 * d4 * d4
            t += sixth * (dt + 2.0 * d2 + 2.0 * d3 + d4)
            u += sixth * (du + 2.0 * w2 + 2.0 * w3 + w4)
            dt += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            du += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            if u < u_min:
                raise VertexApproach(f"u = {u:.3g} fell below the chart range "
                                     f"[{u_min:.3g}, {U_MAX:.3g}] at s = {s[len(u_out)]:.4g}")
            t_out.append(t)
            u_out.append(u)
            dt_out.append(dt)
            du_out.append(du)
    except ZeroDivisionError:  # a stage's u is exactly 0.0, the vertex
        raise VertexApproach(f"u = 0 in an RK4 stage, below the chart range "
                             f"[{u_min:.3g}, {U_MAX:.3g}], at s = {s[len(u_out)]:.4g}") from None
    t, u, dt, du = (np.frombuffer(x) for x in (t_out, u_out, dt_out, du_out))
    cone._check_u(u)

    if not base.periodic:
        d0, d1 = base.domain
        if np.min(t) < d0 or np.max(t) > d1:
            raise BaseDomainExceeded("integrated t left the base domain")
    c = u * u * dt
    drift = relative_spread(c, c[0])
    if not (drift <= drift_tol):
        raise StepTooLarge(
            f"Clairaut drift {drift:.3g} exceeds {drift_tol:.3g}; reduce h"
        )
    return ChartSamples(s, t, u, dt, du)


class GeodesyReport(Report):
    fields = ("max_abs_kg", "clairaut_relvar", "normal_alignment_min",
              "development_straightness_residual", "verdict")


def verify_geodesic(cone: Cone, cs: CurveSamples, limits=None, chart=None) -> GeodesyReport:
    """Check geodesy of a sampled unit-speed curve lying on the cone.

    Four independent measurements: max |kappa_g|, relative variation of the
    Clairaut invariant u^2 t', minimum |<n, N>| alignment, and straightness
    of the developed image, each held to its GATES limit; limits, keyed by
    gate name, overrides some of them.  chart is the (t, u) of the sample
    points when the caller has charted them already; else they are charted
    here.  Curves with curvature below the floor everywhere are rulings.
    Once charted, grids under MIN_SAMPLES points raise InsufficientSamples,
    and non-uniform grids, whose stencil taps miss the nodes, raise ValueError.
    """
    limits = limits or {}
    if not limits.keys() <= GATES.keys():
        raise ValueError(f"unknown gates {sorted(limits.keys() - GATES.keys())}")
    limit = {name: limits.get(name, default) for name, (_, default) in GATES.items()}
    pts, d1, d2 = cs.jet[:3]
    t_arr, u_arr = chart_points(cone, pts) if chart is None else chart
    if cs.s.size < MIN_SAMPLES:
        raise InsufficientSamples(
            f"verify needs a grid of at least {MIN_SAMPLES} points, got {cs.s.size}")
    if jt.uniform_step(cs.s) is None:
        raise ValueError("verify needs a uniform sample grid")

    y, y1 = cone.base.derivatives(t_arr, (0, 1))
    N = unit_normal(y, y1)
    max_kg = float(np.max(np.abs(geodesic_curvature_of(N, d1, d2))))

    # u^2 t' via the chart velocity decomposition t' = <alpha', y'(t)> / u,
    # exact pointwise, so the constancy test is not limited by series stencils
    C = u_arr * np.sum(d1 * y1, axis=-1)
    relvar = relative_spread(C, np.mean(C))

    _, _, _, straightness, _ = line_fit(develop(t_arr, u_arr))

    if float(np.max(np.linalg.norm(d2, axis=-1))) < KAPPA_FLOOR:
        return GeodesyReport(max_kg, relvar, None, straightness, "ruling")

    align = float(np.min(np.abs(np.sum(cs.frames.normal * N, axis=-1))))
    ok = (
        max_kg < limit["max_abs_kg"]
        and relvar < limit["clairaut_relvar"]
        and align > 1.0 - limit["normal_alignment_min"]
        and straightness < limit["development_straightness_residual"]
    )
    return GeodesyReport(max_kg, relvar, align, straightness,
                         "geodesic" if ok else "not-geodesic")


class CrossCheckReport(Report):
    fields = ("label", "fitted_a", "fitted_b", "axis", "cos_angle_mean", "residual",
              "geodesy", "eq_identity_residual_e3", "eq_identity_residual_random_u",
              "random_u", "rectifying_ok", "slant_ok", "geodesic_ok", "identity_ok",
              "consistent")


def cross_check_circular_cone(a, b, c, psi0, seed=0, samples=256) -> CrossCheckReport:
    """Consistency check on a circular cone: rectifying + slant helix + geodesic.

    Generates the closed-form curve for (a, b, c, psi0), classifies it,
    fits the slant axis, verifies geodesy on the matching cone, and
    evaluates the identity residual for U = e3 and one random direction.
    Any disagreement is reported via the ok flags, never silently passed.
    """
    params = RectifyingParams(float(a), float(b), float(c))
    cone = CircularCone(psi0)
    cs = sample_curve(generate_rectifying(params, cone.base), samples)

    report = classify_rectifying_or_spherical(cs)
    slant = fit_slant_axis(cs)
    geodesy = verify_geodesic(cone, cs)

    rng = np.random.default_rng(seed)
    random_u = rng.normal(size=3)
    random_u /= np.linalg.norm(random_u)
    e3 = np.array([0.0, 0.0, 1.0])
    _, res_e3 = classification_identity_residual(cs, e3, report=report)
    _, res_ru = classification_identity_residual(cs, random_u, report=report)
    max_e3 = float(np.max(np.abs(res_e3)))
    max_ru = float(np.max(np.abs(res_ru)))

    rectifying_ok = report.label == LABEL_RECTIFYING
    slant_ok = slant.residual < SLANT_TOL
    geodesic_ok = geodesy.verdict == "geodesic"
    identity_ok = max_e3 < IDENTITY_TOL and max_ru < IDENTITY_TOL
    return CrossCheckReport(
        label=report.label,
        fitted_a=report.fitted_a,
        fitted_b=report.fitted_b,
        axis=slant.axis,
        cos_angle_mean=slant.cos_angle_mean,
        residual=slant.residual,
        geodesy=geodesy,
        eq_identity_residual_e3=max_e3,
        eq_identity_residual_random_u=max_ru,
        random_u=random_u,
        rectifying_ok=rectifying_ok,
        slant_ok=slant_ok,
        geodesic_ok=geodesic_ok,
        identity_ok=identity_ok,
        consistent=rectifying_ok and slant_ok and geodesic_ok and identity_ok,
    )
