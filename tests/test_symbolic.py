"""The paper's closed form proved symbolically on every cone, then used as a reference.

Along a unit-speed base Y(theta) on the unit sphere take the Darboux frame
(Y, T, B) = (Y, Y', Y x Y').  Per unit base length Y' = T, T' = -Y + k B and
B' = -k T, where k is the base's geodesic curvature in the sphere, left an
undefined function.  With w = a s + b and theta = c + arctan w, the closed form
alpha = (1/a) sqrt(1 + w^2) Y(theta) is differentiated in frame coordinates,
so each identity below holds on the cone over any base, not only the circle.
B is the cone's unit normal along the ruling through Y(theta).

Along the curve theta is a monotone function of w, so k is written as a
function of w; d/ds = a d/dw, and dtheta/dw = 1 / (1 + w^2).
"""

import numpy as np
import pytest
import sympy as sp

from conegeo import (
    RectifyingParams,
    circular_base,
    classify_rectifying_or_spherical,
    generate_rectifying,
    perturbed_circle_base,
    sample_curve,
    torsion_ratio_profile,
)

a = sp.Symbol("a", positive=True)
b, c, w = sp.symbols("b c w", real=True)
k = sp.Function("k")(w)
_THETA_W = 1 / (1 + w**2)


def _d_ds(v):
    """d/ds of a vector given by its (Y, T, B) coordinates along alpha."""
    p, q, r = v
    return sp.Matrix([a * (sp.diff(p, w) - _THETA_W * q),
                      a * (sp.diff(q, w) + _THETA_W * (p - k * r)),
                      a * (sp.diff(r, w) + _THETA_W * k * q)])


ALPHA = sp.Matrix([sp.sqrt(1 + w**2) / a, 0, 0])
D1 = _d_ds(ALPHA)
D2 = _d_ds(D1)
D3 = _d_ds(D2)
CROSS = ALPHA.cross(D1)
NORMAL = sp.Matrix([0, 0, 1])
S = (w - b) / a  # the arc length s of w


def _zero(expr):
    return sp.simplify(expr) == 0


def test_alpha_is_unit_speed_and_a_geodesic_of_the_cone():
    assert _zero(D1.dot(D1) - 1)
    # geodesic curvature <alpha'', N x alpha'> of a unit-speed curve on the cone
    assert _zero(D2.dot(NORMAL.cross(D1)))


def test_alpha_is_rectifying():
    assert _zero(ALPHA.dot(D2))


def test_the_two_numbers_classify_fits():
    assert _zero(CROSS.dot(CROSS) - 1 / a**2)  # |alpha x alpha'| = 1/a, as a > 0
    assert _zero(ALPHA.dot(D1) - S - b / a)


def test_torsion_over_curvature_is_sign_k_times_w():
    # kappa = |a k| / (1 + w^2)^(3/2) and det(alpha', alpha'', alpha''') =
    # w (a k)^3 / (1 + w^2)^(9/2), so tau/kappa = det / kappa^3 = sign(k) w
    assert _zero(D2.dot(D2) - a**2 * k**2 / (1 + w**2) ** 3)
    det = D1.cross(D2).dot(D3)
    assert _zero(det - w * (a * k) ** 3 / (1 + w**2) ** sp.Rational(9, 2))


def test_the_dichotomy_identity_in_frenet_form():
    # any unit-speed curve alpha = p T + q N + r B: alpha' = T and the
    # Frenet equations give q' = tau r - kappa p and r' = -tau q, so
    # d/ds |alpha x T|^2 = d/ds (q^2 + r^2) = -2 kappa <alpha, N> <alpha, T>.
    # |alpha x T| is constant just where alpha is rectifying (<alpha, N> = 0)
    # or normal to T (<alpha, T> = 0), the two labels classify gives
    s_ = sp.Symbol("s", real=True)
    p, q, r, kappa, tau = (sp.Function(name)(s_) for name in ("p", "q", "r", "kappa", "tau"))
    frenet = {sp.Derivative(q, s_): tau * r - kappa * p, sp.Derivative(r, s_): -tau * q}
    cross = sp.Matrix([p, q, r]).cross(sp.Matrix([1, 0, 0]))  # alpha x T in (T, N, B)
    assert _zero(sp.diff(cross.dot(cross), s_).subs(frenet) + 2 * kappa * q * p)


def _reference():
    """kappa, tau, <alpha, T> and |alpha x T| as numpy functions of (a, b, w, k)."""
    kk = sp.Symbol("kk", real=True)
    kappa2 = sp.simplify(D2.dot(D2))
    exprs = [sp.sqrt(kappa2), sp.simplify(D1.cross(D2).dot(D3) / kappa2),
             sp.simplify(ALPHA.dot(D1)), sp.sqrt(sp.simplify(CROSS.dot(CROSS)))]
    assert not any(e.has(sp.Derivative) for e in exprs)  # no k' left to drop
    return sp.lambdify((a, b, w, kk), [e.subs(k, kk) for e in exprs], "numpy")


REFERENCE = _reference()


def _base_curvature(base, t):
    """k = <y'', y x y'> of the unit-speed base, from its analytic jet."""
    y, d1, d2 = base.jet(t, 2)
    return np.sum(d2 * np.cross(y, d1), axis=-1)


# (base, its constant geodesic curvature cot psi0 if it is a circle)
BASES = {
    "circular": (lambda: circular_base(0.8), 1.0 / np.tan(0.8)),
    "circular-narrow": (lambda: circular_base(0.4), 1.0 / np.tan(0.4)),
    "perturbed": (lambda: perturbed_circle_base(0.8, seed=3, amplitude=0.04), None),
    "perturbed-2": (lambda: perturbed_circle_base(0.6, seed=11, amplitude=0.03), None),
}


@pytest.mark.parametrize("name", list(BASES))
@pytest.mark.parametrize("abc", [(1.3, 0.2, 0.1), (0.7, -1.1, 0.4)])
def test_generated_frenet_data_match_the_symbolic_reference(name, abc):
    make, circle_k = BASES[name]
    base = make()
    params = RectifyingParams(*abc)
    cs = sample_curve(generate_rectifying(params, base), 256)
    ww = params.a * cs.s + params.b
    kb = _base_curvature(base, params.c + np.arctan(ww))
    if circle_k is not None:
        assert np.max(np.abs(kb - circle_k)) < 1e-14
    kappa, tau, along, cross = (np.broadcast_to(v, ww.shape)
                                for v in REFERENCE(params.a, params.b, ww, kb))
    frames = cs.frames
    point = cs.jet[0]
    got_along = np.sum(point * frames.tangent, axis=-1)
    got_cross = np.linalg.norm(np.cross(point, frames.tangent), axis=-1)
    assert np.max(np.abs(frames.kappa - kappa) / kappa) < 1e-13
    assert np.max(np.abs(frames.tau - tau) / np.maximum(np.abs(tau), kappa)) < 1e-11
    assert np.max(np.abs(got_along - along)) < 1e-13 * np.max(np.abs(along))
    assert np.max(np.abs(got_cross - cross)) < 1e-13 * np.max(cross)


@pytest.mark.parametrize("name", list(BASES))
@pytest.mark.parametrize("abc", [(1.3, 0.2, 0.1), (0.7, -1.1, 0.4)])
def test_classify_and_the_torsion_ratio_fit_recover_a_and_b(name, abc):
    # classify's fits are 1/|alpha x T| and a <alpha, T> - a s, within 1e-14
    # of (a, b) (measured 2.2e-16); tau/kappa = sign(k) (a s + b) is fitted
    # within 1e-12 (measured 2.5e-14)
    make, _ = BASES[name]
    base = make()
    params = RectifyingParams(*abc)
    cs = sample_curve(generate_rectifying(params, base), 256)
    report = classify_rectifying_or_spherical(cs)
    assert report.label == "rectifying"
    assert abs(report.fitted_a - params.a) <= 1e-14 * params.a
    assert abs(report.fitted_b - params.b) <= 1e-14 * max(1.0, abs(params.b))
    sign = np.sign(_base_curvature(base, params.c + np.arctan(params.a * cs.s + params.b)))
    assert np.all(sign == sign[0])
    profile = torsion_ratio_profile(cs)
    assert abs(profile.slope - sign[0] * params.a) <= 1e-12 * params.a
    assert abs(profile.intercept - sign[0] * params.b) <= 1e-12 * max(1.0, abs(params.b))
