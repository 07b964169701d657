"""Curve classification: rectifying / origin-centered spherical dichotomy,
slant-helix axis fitting, planarity, and the classification identity check.

A unit-speed curve with positive curvature has |alpha x alpha'| constant
and nonzero exactly when it is rectifying (position in the tangent/binormal
plane) or traced on a sphere centered at the origin; the two branches are
told apart by <alpha, n> vanishing versus <alpha, t> vanishing.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jets as jt
from .curves import KAPPA_FLOOR, frenet_apparatus, frenet_frame, sample_grid
from .errors import (
    DegenerateFit,
    InsufficientSamples,
    NotRectifying,
    ZeroMean,
)

LABEL_RECTIFYING = "rectifying"
LABEL_SPHERICAL = "spherical-centered"
LABEL_AMBIGUOUS = "ambiguous"
LABEL_NEITHER = "neither"


def default_tolerance(curve):
    """Constancy tolerance matched to the derivative mode."""
    return 1e-6 if curve.derivative_mode == "analytic" else 1e-4


@dataclass(frozen=True)
class ConstancyStats:
    passed: bool
    mean: float
    min: float
    max: float
    relvar: float


def constancy(values, tol, absolute=False):
    """Is a scalar series constant to tolerance?

    Relative mode tests (max-min)/|mean| < tol and refuses near-zero means;
    absolute mode tests max-min < tol.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 8:
        raise InsufficientSamples(f"need at least 8 samples, got {v.size}")
    vmin, vmax, mean = float(v.min()), float(v.max()), float(v.mean())
    spread = vmax - vmin
    if absolute:
        relvar = spread / abs(mean) if mean != 0.0 else np.inf
        return ConstancyStats(spread < tol, mean, vmin, vmax, relvar)
    if abs(mean) < 1e-12 * max(abs(vmin), abs(vmax), 1e-300):
        raise ZeroMean("relative constancy is meaningless for a near-zero series")
    relvar = spread / abs(mean)
    return ConstancyStats(relvar < tol, mean, vmin, vmax, relvar)


@dataclass(frozen=True)
class ClassificationReport:
    label: str
    cross_magnitude_mean: float
    cross_magnitude_relvar: float
    normal_component_max: float
    s: np.ndarray
    tangential_component: np.ndarray
    fitted_a: Optional[float]
    fitted_b: Optional[float]

    def to_dict(self):
        return {
            "label": self.label,
            "cross_magnitude_mean": self.cross_magnitude_mean,
            "cross_magnitude_relvar": self.cross_magnitude_relvar,
            "fitted_a": self.fitted_a,
            "fitted_b": self.fitted_b,
        }


@dataclass(frozen=True)
class SlantAxisFit:
    axis: np.ndarray
    cos_angle_mean: float
    residual: float

    def to_dict(self):
        return {
            "axis": [float(x) for x in self.axis],
            "cos_angle_mean": self.cos_angle_mean,
            "residual": self.residual,
        }


def classify_rectifying_or_spherical(curve, samples=256, tol=None,
                                     kappa_floor=KAPPA_FLOOR):
    """Classify a unit-speed curve by the constancy of |alpha x alpha'|.

    Constant nonzero magnitude splits into rectifying (<alpha,n> ~ 0 with
    <alpha,t> affine in s) versus spherical-centered (<alpha,t> ~ 0);
    non-constant or vanishing magnitude yields "neither", and a constant
    magnitude with both residuals large is surfaced as "ambiguous" rather
    than guessed.
    """
    if tol is None:
        tol = default_tolerance(curve)
    s = sample_grid(curve, samples)
    pts, d1, d2, d3 = curve.derivatives(s, (0, 1, 2, 3))
    frames = frenet_frame(d1, d2, d3, kappa_floor=kappa_floor)
    mag = np.linalg.norm(np.cross(pts, d1), axis=-1)
    scale = float(np.max(np.linalg.norm(pts, axis=-1)))
    tangential = np.sum(pts * frames.tangent, axis=-1)

    mean = float(mag.mean())
    spread = float(mag.max() - mag.min())
    relvar = spread / abs(mean) if mean != 0.0 else np.inf
    norm_comp = np.abs(np.sum(pts * frames.normal, axis=-1))
    norm_comp_max = float(np.max(norm_comp))

    fitted_a = fitted_b = None
    if mean <= tol * max(scale, 1e-300) or relvar >= tol:
        label = LABEL_NEITHER
    else:
        radial = np.linalg.norm(pts, axis=-1)
        rect_ok = float(np.max(norm_comp / radial)) < tol
        spher_ok = float(np.max(np.abs(tangential)) / scale) < tol
        if rect_ok and not spher_ok:
            label = LABEL_RECTIFYING
            sign = 1.0 if float(np.mean(np.sum(np.cross(pts, d1) * frames.normal, axis=-1))) >= 0 else -1.0
            fitted_a = sign / mean
            fitted_b = fitted_a * float(np.mean(tangential - s))
        elif spher_ok and not rect_ok:
            label = LABEL_SPHERICAL
        else:
            label = LABEL_AMBIGUOUS

    return ClassificationReport(
        label=label,
        cross_magnitude_mean=mean,
        cross_magnitude_relvar=relvar,
        normal_component_max=norm_comp_max,
        s=s,
        tangential_component=tangential,
        fitted_a=fitted_a,
        fitted_b=fitted_b,
    )


@dataclass(frozen=True)
class TorsionRatioProfile:
    s: np.ndarray
    ratio: np.ndarray
    slope: float
    intercept: float
    residual: float


def torsion_ratio_profile(curve, samples=256, kappa_floor=KAPPA_FLOOR):
    """tau/kappa samples with an affine least-squares fit.

    Rectifying curves have tau/kappa affine in arc length; the residual is
    the RMS deviation from the fit.
    """
    s = sample_grid(curve, samples)
    frames = frenet_apparatus(curve, s, kappa_floor=kappa_floor)
    ratio = frames.tau / frames.kappa
    A = np.stack([s, np.ones_like(s)], axis=-1)
    (slope, intercept), *_ = np.linalg.lstsq(A, ratio, rcond=None)
    residual = float(np.sqrt(np.mean((ratio - (slope * s + intercept)) ** 2)))
    return TorsionRatioProfile(s, ratio, float(slope), float(intercept), residual)


def _canonical_axis(u):
    if u[2] < 0.0:
        return -u
    if u[2] == 0.0:
        if u[0] < 0.0 or (u[0] == 0.0 and u[1] < 0.0):
            return -u
    return u


def fit_slant_axis(curve, samples=256, kappa_floor=KAPPA_FLOOR):
    """Axis minimizing the variance of <n(s), U> over unit vectors U.

    Var[<n,U>] = U^T Cov(n) U, so the axis is the smallest-eigenvalue
    eigenvector of the normal samples' covariance.  The sign is
    canonicalized to a nonnegative third component (lexicographic
    tie-break), and a non-isolated smallest eigenvalue raises
    DegenerateFit.
    """
    if samples < 16:
        raise InsufficientSamples("axis fitting needs at least 16 frame samples")
    s = sample_grid(curve, samples)
    frames = frenet_apparatus(curve, s, kappa_floor=kappa_floor)
    n = frames.normal
    centered = n - n.mean(axis=0)
    cov = centered.T @ centered / n.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    gap = float(evals[1] - evals[0])
    if gap <= 1e-6 * max(float(evals[2]), 1e-12):
        raise DegenerateFit(
            f"smallest eigenvalue not isolated (gap {gap:.3g}); axis not unique"
        )
    axis = _canonical_axis(evecs[:, 0])
    axis = axis / np.linalg.norm(axis)
    return SlantAxisFit(
        axis=axis,
        cos_angle_mean=float(n.mean(axis=0) @ axis),
        residual=float(np.sqrt(max(float(evals[0]), 0.0))),
    )


def is_planar(curve, tol=None, samples=256, kappa_floor=KAPPA_FLOOR):
    """True when max |tau| stays below tol over the sample grid."""
    if tol is None:
        tol = default_tolerance(curve)
    s = sample_grid(curve, samples)
    frames = frenet_apparatus(curve, s, kappa_floor=kappa_floor)
    return bool(np.max(np.abs(frames.tau)) < tol)


def classification_identity_residual(curve, U, samples=256, report=None,
                                     kappa_floor=KAPPA_FLOOR):
    """Residual of the rectifying-curve identity for a fixed direction U.

    For a rectifying curve with constants (a, b),
        (1+(a s+b)^2)^{3/2}/a * d/ds <y(t(s)), U> + (1/kappa) d/ds <n(s), U>
    vanishes for every U, where y = alpha/|alpha| is the spherical
    projection.  Both derivatives are taken by stencils on the sampled
    series, so the check is independent of the Frenet equations.

    Returns (s_inner, residual samples).
    """
    if report is None:
        report = classify_rectifying_or_spherical(curve, samples=samples,
                                                  kappa_floor=kappa_floor)
    if report.label != LABEL_RECTIFYING:
        raise NotRectifying(f"curve classified as {report.label!r}")
    a, b = report.fitted_a, report.fitted_b
    U = np.asarray(U, dtype=float)
    U = U / np.linalg.norm(U)

    s = sample_grid(curve, samples)
    dx = float(s[1] - s[0])
    if np.max(np.abs(np.diff(s) - dx)) > 1e-8 * dx:
        raise ValueError("identity residual needs a uniform sample grid")
    pts, d1, d2, d3 = curve.derivatives(s, (0, 1, 2, 3))
    frames = frenet_frame(d1, d2, d3, kappa_floor=kappa_floor)
    y = pts / np.linalg.norm(pts, axis=-1)[..., None]

    g = y @ U
    h = frames.normal @ U
    dg, reach = jt.series_derivative(g, dx, 1)
    dh, _ = jt.series_derivative(h, dx, 1)
    s_in = s[reach: s.size - reach]
    kappa_in = frames.kappa[reach: frames.kappa.size - reach]
    w = a * s_in + b
    residual = (1.0 + w**2) ** 1.5 / a * dg + dh / kappa_in
    return s_in, residual
