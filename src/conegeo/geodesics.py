"""Geodesics on cones: closed-form generation, ODE integration, verification.

The closed-form family
    alpha(s) = (1/a) sqrt(1+(a s+b)^2) * y(c + arctan(a s+b))
is unit-speed, lies on the cone over y, and is a geodesic for every
unit-speed spherical base y.  The independent oracle integrates the
geodesic equations of the cone metric u^2 dt^2 + du^2,
    u'' = u (t')^2,   t'' = -2 u' t' / u,
whose Clairaut invariant u^2 t' is conserved and monitored.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classify import (
    LABEL_RECTIFYING,
    classification_identity_residual,
    classify_rectifying_or_spherical,
    fit_slant_axis,
)
from .cones import (
    ChartCurve,
    Cone,
    CircularCone,
    SphericalBaseCurve,
    chart_curve,
    curve_from_chart,
    develop,
    line_fit,
    surface_normal,
)
from .curves import KAPPA_FLOOR, SpaceCurve, frenet_apparatus, sample_grid
from .errors import (
    BaseDomainExceeded,
    StepTooLarge,
    VertexApproach,
)


@dataclass(frozen=True)
class RectifyingParams:
    """Constants (a, b) of the closed form plus the angular offset c."""

    a: float
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ValueError("a must be positive")


def default_s_domain(params: RectifyingParams):
    """Symmetric window around the minimum-norm point s = -b/a."""
    return ((-5.0 - params.b) / params.a, (5.0 - params.b) / params.a)


def rectifying_chart(params: RectifyingParams, s_domain=None) -> ChartCurve:
    """Chart (t(s), u(s)) of the closed-form geodesic, with exact jets."""
    a, b, c = params.a, params.b, params.c
    if s_domain is None:
        s_domain = default_s_domain(params)

    def t_jet(s):
        w = a * s + b
        q = 1.0 + w * w
        return np.stack(
            [
                c + np.arctan(w),
                a / q,
                -2.0 * a**2 * w / q**2,
                -2.0 * a**3 * (1.0 - 3.0 * w * w) / q**3,
            ]
        )

    def u_jet(s):
        w = a * s + b
        q = 1.0 + w * w
        r = np.sqrt(q)
        return np.stack(
            [r / a, w / r, a / r**3, -3.0 * a**2 * w / r**5]
        )

    return ChartCurve.from_functions(t_jet, u_jet, s_domain)


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
    cone = CircularCone(psi0)
    return generate_rectifying(params, cone.base, s_domain)


@dataclass(frozen=True)
class GeodesicIVP:
    """Unit-speed initial data for the chart-space geodesic equations.

    Inputs are renormalized so that u0^2 dt0^2 + du0^2 = 1; the applied
    factor is kept in `normalization` rather than silently discarded.
    """

    t0: float
    u0: float
    dt0: float
    du0: float
    length: float
    normalization: float = field(init=False)

    def __post_init__(self):
        if not (self.u0 > 0.0):
            raise ValueError("u0 must be positive")
        if not (self.length > 0.0):
            raise ValueError("length must be positive")
        norm = float(np.hypot(self.u0 * self.dt0, self.du0))
        if norm == 0.0:
            raise ValueError("initial velocity must be nonzero")
        object.__setattr__(self, "dt0", self.dt0 / norm)
        object.__setattr__(self, "du0", self.du0 / norm)
        object.__setattr__(self, "normalization", norm)


def integrate_geodesic(cone: Cone, ivp: GeodesicIVP, h=1e-3,
                       drift_tol=None) -> ChartCurve:
    """Fixed-step RK4 integration of the geodesic equations.

    Returns a sampled chart with the integrator's exact nodal derivatives.
    Raises VertexApproach if u falls below the cone's u_min and
    StepTooLarge if the Clairaut invariant drifts beyond drift_tol
    (default 1e-9 per unit arc length).
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    L = float(ivp.length)
    if drift_tol is None:
        drift_tol = 1e-9 * max(1.0, L)
    u_min = cone.u_min
    base = cone.base

    def rhs(t, u, dt, du):
        return dt, du, -2.0 * du * dt / u, u * dt * dt

    n_full = int(np.floor(L / h + 1e-12))
    steps = [h] * n_full
    tail = L - n_full * h
    if tail > 1e-12 * max(1.0, L):
        steps.append(tail)

    t, u, dt, du = float(ivp.t0), float(ivp.u0), float(ivp.dt0), float(ivp.du0)
    s_out, t_out, u_out = [0.0], [t], [u]
    dt_out, du_out = [dt], [du]
    c0 = u * u * dt
    c_lo = c_hi = c0
    s_acc = 0.0
    for hs in steps:
        k1 = rhs(t, u, dt, du)
        k2 = rhs(t + 0.5 * hs * k1[0], u + 0.5 * hs * k1[1],
                 dt + 0.5 * hs * k1[2], du + 0.5 * hs * k1[3])
        k3 = rhs(t + 0.5 * hs * k2[0], u + 0.5 * hs * k2[1],
                 dt + 0.5 * hs * k2[2], du + 0.5 * hs * k2[3])
        k4 = rhs(t + hs * k3[0], u + hs * k3[1],
                 dt + hs * k3[2], du + hs * k3[3])
        t += hs / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u += hs / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        dt += hs / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        du += hs / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        s_acc += hs
        if u < u_min:
            raise VertexApproach(
                f"u = {u:.3g} fell below u_min = {u_min:.3g} at s = {s_acc:.4g}"
            )
        c = u * u * dt
        c_lo, c_hi = min(c_lo, c), max(c_hi, c)
        s_out.append(s_acc)
        t_out.append(t)
        u_out.append(u)
        dt_out.append(dt)
        du_out.append(du)

    if not base.periodic:
        d0, d1 = base.domain
        if min(t_out) < d0 or max(t_out) > d1:
            raise BaseDomainExceeded("integrated t left the base domain")
    drift = (c_hi - c_lo) / max(abs(c0), 1e-14) if abs(c0) > 1e-14 else (c_hi - c_lo)
    if not (drift <= drift_tol):
        raise StepTooLarge(
            f"Clairaut drift {drift:.3g} exceeds {drift_tol:.3g}; reduce h"
        )

    # the tail step breaks grid uniformity; drop it from the sampled chart
    if len(steps) > n_full and n_full >= 1:
        s_out, t_out, u_out = s_out[:-1], t_out[:-1], u_out[:-1]
        dt_out, du_out = dt_out[:-1], du_out[:-1]
    return ChartCurve.from_samples(
        np.asarray(s_out), np.asarray(t_out), np.asarray(u_out),
        dt=np.asarray(dt_out), du=np.asarray(du_out),
    )


@dataclass(frozen=True)
class VerifyThresholds:
    max_abs_kg: float = 1e-4
    clairaut_relvar: float = 1e-5
    normal_alignment: float = 1e-5  # verdict needs min |<n,N>| > 1 - this
    straightness: float = 1e-6


@dataclass(frozen=True)
class GeodesyReport:
    max_abs_kg: float
    clairaut_relvar: float
    normal_alignment_min: Optional[float]
    development_straightness_residual: float
    verdict: str

    def to_dict(self):
        return {
            "max_abs_kg": self.max_abs_kg,
            "clairaut_relvar": self.clairaut_relvar,
            "normal_alignment_min": self.normal_alignment_min,
            "development_straightness_residual": self.development_straightness_residual,
            "verdict": self.verdict,
        }


def verify_geodesic(cone: Cone, curve: SpaceCurve, samples=256,
                    thresholds: Optional[VerifyThresholds] = None,
                    kappa_floor=KAPPA_FLOOR) -> GeodesyReport:
    """Check geodesy of a unit-speed curve lying on the cone.

    Four independent measurements: max |kappa_g|, relative variation of the
    Clairaut invariant u^2 t', minimum |<n, N>| alignment, and straightness
    of the developed image.  Curves with curvature below the floor
    everywhere are rulings.
    """
    if thresholds is None:
        thresholds = VerifyThresholds()
    s = sample_grid(curve, samples)
    chart = chart_curve(cone, curve, s=s)
    t_arr, u_arr = chart.samples[1], chart.samples[2]

    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(s, 2)
    N = surface_normal(cone, t_arr)
    kg = np.sum(d2 * np.cross(N, d1), axis=-1)
    max_kg = float(np.max(np.abs(kg)))

    # u^2 t' via the chart velocity decomposition t' = <alpha', y'(t)> / u,
    # exact pointwise, so the constancy test is not limited by series stencils
    y1 = cone.base.derivative(t_arr, 1)
    C = u_arr * np.sum(d1 * y1, axis=-1)
    mean_c = float(np.mean(C))
    spread = float(np.max(C) - np.min(C))
    relvar = spread / abs(mean_c) if abs(mean_c) > 1e-14 else spread

    dev = develop(chart)
    _, _, _, straightness, _ = line_fit(dev.point(s))

    kappa = np.linalg.norm(d2, axis=-1)
    if float(np.max(kappa)) < kappa_floor:
        return GeodesyReport(max_kg, relvar, None, straightness, "ruling")

    frames = frenet_apparatus(curve, s, kappa_floor=kappa_floor)
    align = float(np.min(np.abs(np.sum(frames.normal * N, axis=-1))))
    ok = (
        max_kg < thresholds.max_abs_kg
        and relvar < thresholds.clairaut_relvar
        and align > 1.0 - thresholds.normal_alignment
        and straightness < thresholds.straightness
    )
    return GeodesyReport(max_kg, relvar, align, straightness,
                         "geodesic" if ok else "not-geodesic")


@dataclass(frozen=True)
class CrossCheckReport:
    label: str
    fitted_a: Optional[float]
    fitted_b: Optional[float]
    axis: np.ndarray
    cos_angle_mean: float
    slant_residual: float
    geodesy: GeodesyReport
    eq_identity_residual_e3: float
    eq_identity_residual_random_u: float
    random_u: np.ndarray
    rectifying_ok: bool
    slant_ok: bool
    geodesic_ok: bool
    identity_ok: bool
    consistent: bool

    def to_dict(self):
        out = {
            "label": self.label,
            "fitted_a": self.fitted_a,
            "fitted_b": self.fitted_b,
            "axis": [float(x) for x in self.axis],
            "cos_angle_mean": self.cos_angle_mean,
            "residual": self.slant_residual,
        }
        out.update(self.geodesy.to_dict())
        out.update(
            {
                "eq_identity_residual_e3": self.eq_identity_residual_e3,
                "eq_identity_residual_random_u": self.eq_identity_residual_random_u,
                "random_u": [float(x) for x in self.random_u],
                "rectifying_ok": self.rectifying_ok,
                "slant_ok": self.slant_ok,
                "geodesic_ok": self.geodesic_ok,
                "identity_ok": self.identity_ok,
                "consistent": self.consistent,
            }
        )
        return out


def cross_check_circular_cone(a, b, c, psi0, seed=0, samples=256,
                         slant_tol=1e-5, identity_tol=1e-4) -> CrossCheckReport:
    """Consistency check on a circular cone: rectifying + slant helix + geodesic.

    Generates the closed-form curve for (a, b, c, psi0), classifies it,
    fits the slant axis, verifies geodesy on the matching cone, and
    evaluates the identity residual for U = e3 and one random direction.
    Any disagreement is reported via the ok flags, never silently passed.
    """
    params = RectifyingParams(float(a), float(b), float(c))
    curve = generate_circular_geodesic(params, psi0)
    cone = CircularCone(psi0)

    report = classify_rectifying_or_spherical(curve, samples=samples)
    slant = fit_slant_axis(curve, samples=samples)
    geodesy = verify_geodesic(cone, curve, samples=samples)

    rng = np.random.default_rng(seed)
    random_u = rng.normal(size=3)
    random_u /= np.linalg.norm(random_u)
    e3 = np.array([0.0, 0.0, 1.0])
    _, res_e3 = classification_identity_residual(curve, e3, samples=samples,
                                                 report=report)
    _, res_ru = classification_identity_residual(curve, random_u, samples=samples,
                                                 report=report)
    max_e3 = float(np.max(np.abs(res_e3)))
    max_ru = float(np.max(np.abs(res_ru)))

    rectifying_ok = report.label == LABEL_RECTIFYING
    slant_ok = slant.residual < slant_tol
    geodesic_ok = geodesy.verdict == "geodesic"
    identity_ok = max_e3 < identity_tol and max_ru < identity_tol
    return CrossCheckReport(
        label=report.label,
        fitted_a=report.fitted_a,
        fitted_b=report.fitted_b,
        axis=slant.axis,
        cos_angle_mean=slant.cos_angle_mean,
        slant_residual=slant.residual,
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
