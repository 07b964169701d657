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
    generate_rectifying,
    perturbed_circle_base,
    sample_curve,
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
