"""Shared curve factories for the test suite."""

import numpy as np

from conegeo import (
    RectifyingParams,
    SpaceCurve,
    circular_base,
    generate_rectifying,
    perturbed_circle_base,
    reparametrize_arclength,
    spherical_curve,
)
from conegeo import jets
from conegeo.cones import ON_CONE_RTOL
from conegeo.errors import NotOnCone, VertexPoint


def count_vector_hermite_calls(monkeypatch):
    """Record q.size of every jets.hermite call on (n, k) values.

    Sampled curves and bases interpolate (n, 3) points; the scalar calls
    of sampled charts are not counted.
    """
    calls = []
    plain = jets.hermite

    def counted(s, values, slopes, q, derivative=False):
        if values.ndim == 2:
            calls.append(np.size(q))
        return plain(s, values, slopes, q, derivative)

    monkeypatch.setattr(jets, "hermite", counted)
    return calls


def trig_jet_curve(coeff_a, coeff_b, domain):
    """Closed-form trigonometric curve sum_k (A_k cos k t + B_k sin k t)."""
    A = np.asarray(coeff_a, dtype=float)
    B = np.asarray(coeff_b, dtype=float)
    ks = np.arange(1, A.shape[0] + 1)

    def jet(t):
        t = np.atleast_1d(t)
        cos = np.cos(np.outer(t, ks))
        sin = np.sin(np.outer(t, ks))
        g0 = cos @ A + sin @ B
        g1 = (-sin * ks) @ A + (cos * ks) @ B
        g2 = (-cos * ks**2) @ A + (-sin * ks**2) @ B
        g3 = (sin * ks**3) @ A + (-cos * ks**3) @ B
        return np.stack([g0, g1, g2, g3])

    return SpaceCurve.from_function(lambda t: jet(t)[0], domain, jet=jet)


def random_trig_curve(rng, modes=3, scale=1.0, domain=(0.0, 2 * np.pi)):
    A = rng.normal(size=(modes, 3)) * scale / np.arange(1, modes + 1)[:, None] ** 2
    B = rng.normal(size=(modes, 3)) * scale / np.arange(1, modes + 1)[:, None] ** 2
    A[0] += np.array([1.0, 0.3, 0.0])
    B[0] += np.array([-0.2, 1.0, 0.4])
    return trig_jet_curve(A, B, domain)


def random_unit_speed_curve(rng, **kw):
    return reparametrize_arclength(random_trig_curve(rng, **kw))


def random_rectifying(rng, circular=True):
    """Random closed-form geodesic; returns (curve, params, base, psi0)."""
    a = rng.uniform(0.5, 4.0)
    b = rng.uniform(-2.0, 2.0)
    c = rng.uniform(-0.5, 0.5)
    psi0 = rng.uniform(0.35, 1.2)
    params = RectifyingParams(a, b, c)
    if circular:
        base = circular_base(psi0)
    else:
        base = perturbed_circle_base(psi0, seed=int(rng.integers(1 << 31)),
                                     amplitude=0.03)
    return generate_rectifying(params, base), params, base, psi0


def random_spherical(rng, radius=None):
    r = radius if radius is not None else rng.uniform(0.5, 4.0)
    base = perturbed_circle_base(rng.uniform(0.4, 1.2),
                                 seed=int(rng.integers(1 << 31)), amplitude=0.05)
    return spherical_curve(base, r), r


def twisted_cubic_unit_speed():
    def jet(t):
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        p = np.stack([t, t**2, t**3], axis=-1)
        d1 = np.stack([one, 2 * t, 3 * t**2], axis=-1)
        d2 = np.stack([zero, 2 * one, 6 * t], axis=-1)
        d3 = np.stack([zero, zero, 6 * one], axis=-1)
        return np.stack([p, d1, d2, d3])

    raw = SpaceCurve.from_function(lambda t: jet(t)[0], (-1.0, 1.0), jet=jet)
    return reparametrize_arclength(raw)


def sequential_chart_t(cone, direction, t_hint=None):
    """Reference chart inversion: one scalar grid-seeded Newton solve."""
    base = cone.base
    if t_hint is None:
        d0, d1 = base.domain
        grid = np.linspace(d0, d1, 1024, endpoint=not base.periodic)
        t = float(grid[np.argmax(base.evaluate(grid) @ direction)])
    else:
        t = float(t_hint)
    for _ in range(16):
        jet = base.jet(np.array([t]))
        y, y1, y2 = jet[0][0], jet[1][0], jet[2][0]
        r = direction - y
        g = float(r @ y1)
        gp = float(-(y1 @ y1) + r @ y2)
        if gp == 0.0:
            break
        step = g / gp
        t -= step
        if abs(step) < 1e-12:
            break
    if not base.periodic:
        t = float(np.clip(t, base.domain[0], base.domain[1]))
    return t


def sequential_chart_curve(cone, curve, s):
    """Reference chart of a curve on a general cone: (t, u) sample by sample.

    Each sample is seeded from the previous one's t, which keeps t
    continuous; the first vertex or off-cone sample raises.
    """
    pts = np.atleast_2d(curve.evaluate(np.asarray(s, dtype=float)))
    t = np.empty(len(pts))
    u = np.empty(len(pts))
    hint = None
    for i, p in enumerate(pts):
        u[i] = np.linalg.norm(p)
        if u[i] < cone.u_min:
            raise VertexPoint(f"|point| = {u[i]:.3g} is below u_min = {cone.u_min:.3g}")
        t[i] = sequential_chart_t(cone, p / u[i], t_hint=hint)
        residual = float(np.linalg.norm(u[i] * cone.base.evaluate(t[i]) - p))
        if residual > ON_CONE_RTOL * u[i]:
            raise NotOnCone(
                f"chart residual {residual:.3g} exceeds {ON_CONE_RTOL:.0e} * u"
            )
        hint = t[i]
    return t, u
