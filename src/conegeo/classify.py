"""Curve classification: rectifying / origin-centered spherical dichotomy,
slant-helix axis fitting, planarity, and the classification identity check.

A unit-speed curve with positive curvature has |alpha x alpha'| constant
and nonzero exactly when it is rectifying (position in the tangent/binormal
plane) or traced on a sphere centered at the origin; the two branches are
told apart by <alpha, n> vanishing versus <alpha, t> vanishing.
"""

import numpy as np

from . import jets as jt
from .curves import Record, position_cross
from .errors import DegenerateFit, InsufficientSamples, NotRectifying

LABEL_RECTIFYING = "rectifying"
LABEL_SPHERICAL = "spherical-centered"
LABEL_AMBIGUOUS = "ambiguous"
LABEL_NEITHER = "neither"

# the least grid that classify and verify judge: on 2 or 3 points the
# spreads they test, and verify's straightness residual, are near 0 whatever
# the curve
MIN_SAMPLES = 7


def default_tolerance(curve):
    """Constancy tolerance matched to the derivative mode."""
    return 1e-6 if curve.derivative_mode == "analytic" else 1e-4


def relative_spread(values, ref):
    """(max - min) / |ref| of a series, or the bare spread when ref is too near 0 to divide by."""
    spread = float(np.max(values) - np.min(values))
    ref = abs(float(ref))
    return spread / ref if ref > 1e-14 else spread


class Report(Record):
    """Base of the report records: to_dict is a record's JSON payload, its
    fields in declaration order, an array as a list of floats and a nested
    report merged in place."""

    def to_dict(self):
        out = {}
        for name, value in zip(self.fields, self._values()):
            if isinstance(value, Report):
                out.update(value.to_dict())
            elif isinstance(value, np.ndarray):
                out[name] = [float(x) for x in value]
            else:
                out[name] = value
        return out


class ClassificationReport(Report):
    fields = ("label", "cross_magnitude_mean", "cross_magnitude_relvar", "fitted_a",
              "fitted_b")


class SlantAxisFit(Report):
    fields = ("axis", "cos_angle_mean", "residual")


def classify_rectifying_or_spherical(cs, tol=None):
    """Classify a sampled unit-speed curve by the constancy of |alpha x alpha'|.

    Constant nonzero magnitude splits into rectifying (<alpha,n> ~ 0 with
    <alpha,t> affine in s) versus spherical-centered (<alpha,t> ~ 0);
    non-constant or vanishing magnitude yields "neither", and a constant
    magnitude with both residuals large is surfaced as "ambiguous" rather
    than guessed.  Grids under MIN_SAMPLES points raise InsufficientSamples.
    """
    if cs.s.size < MIN_SAMPLES:
        raise InsufficientSamples(
            f"classify needs a grid of at least {MIN_SAMPLES} points, got {cs.s.size}")
    if tol is None:
        tol = default_tolerance(cs.curve)
    s, pts, d1, frames = cs.s, cs.jet[0], cs.jet[1], cs.frames
    cross, mag = position_cross(pts, d1)
    scale = float(np.max(np.linalg.norm(pts, axis=-1)))
    tangential = np.sum(pts * frames.tangent, axis=-1)

    mean = float(mag.mean())
    relvar = relative_spread(mag, mean)
    norm_comp = np.abs(np.sum(pts * frames.normal, axis=-1))

    fitted_a = fitted_b = None
    if mean <= tol * max(scale, 1e-300) or relvar >= tol:
        label = LABEL_NEITHER
    else:
        radial = np.linalg.norm(pts, axis=-1)
        rect_ok = float(np.max(norm_comp / radial)) < tol
        spher_ok = float(np.max(np.abs(tangential)) / scale) < tol
        if rect_ok and not spher_ok:
            label = LABEL_RECTIFYING
            sign = 1.0 if float(np.mean(np.sum(cross * frames.normal, axis=-1))) >= 0 else -1.0
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
        fitted_a=fitted_a,
        fitted_b=fitted_b,
    )


class TorsionRatioProfile(Record):
    fields = ("s", "ratio", "slope", "intercept", "residual")


def torsion_ratio_profile(cs):
    """tau/kappa samples with an affine least-squares fit.

    Rectifying curves have tau/kappa affine in arc length; the residual is
    the RMS deviation from the fit.
    """
    s, frames = cs.s, cs.frames
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


def fit_slant_axis(cs):
    """Axis minimizing the variance of <n(s), U> over unit vectors U.

    Var[<n,U>] = U^T Cov(n) U, so the axis is the smallest-eigenvalue
    eigenvector of the normal samples' covariance.  The sign is
    canonicalized to a nonnegative third component (lexicographic
    tie-break), and a non-isolated smallest eigenvalue raises
    DegenerateFit.  The floor reads the smaller of cs.samples and the grid size.
    """
    frames = min(cs.samples, cs.s.size)
    if frames < 16:
        raise InsufficientSamples(f"axis fitting needs at least 16 frame samples, got {frames}")
    n = cs.frames.normal
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


def is_planar(cs, tol=None):
    """True when max |tau| stays below tol over the sample grid."""
    if tol is None:
        tol = default_tolerance(cs.curve)
    return bool(np.max(np.abs(cs.frames.tau)) < tol)


def classification_identity_residual(cs, U, report=None):
    """Residual of the rectifying-curve identity for a fixed direction U.

    For a rectifying curve with constants (a, b),
        (1+(a s+b)^2)^{3/2}/a * d/ds <y(t(s)), U> + (1/kappa) d/ds <n(s), U>
    vanishes for every U, where y = alpha/|alpha| is the spherical
    projection.  Both derivatives are taken by stencils on the sampled
    series, so the check is independent of the Frenet equations.

    Returns (s_inner, residual samples).
    """
    if report is None:
        report = classify_rectifying_or_spherical(cs)
    if report.label != LABEL_RECTIFYING:
        raise NotRectifying(f"curve classified as {report.label!r}")
    a, b = report.fitted_a, report.fitted_b
    U = np.asarray(U, dtype=float)
    U = U / np.linalg.norm(U)

    s, pts = cs.s, cs.jet[0]
    if jt.uniform_step(s) is None:
        raise ValueError("identity residual needs a uniform sample grid")
    dx = float(s[1] - s[0])
    y = pts / np.linalg.norm(pts, axis=-1)[..., None]

    g = y @ U
    h = cs.frames.normal @ U
    dg, reach = jt.series_derivative(g, dx, 1)
    dh, _ = jt.series_derivative(h, dx, 1)
    s_in = s[reach: s.size - reach]
    kappa_in = cs.frames.kappa[reach: s.size - reach]
    w = a * s_in + b
    residual = (1.0 + w**2) ** 1.5 / a * dg + dh / kappa_in
    return s_in, residual
