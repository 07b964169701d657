"""Shared curve factories for the test suite."""

import functools
import json
import math

import numpy as np
import sympy

from conegeo import (
    RectifyingParams,
    SpaceCurve,
    SphericalBaseCurve,
    circular_base,
    generate_rectifying,
    perturbed_circle_base,
    reparametrize_arclength,
    spherical_curve,
)
from conegeo import jets
from conegeo.cli import RunConfig, _Parser
from conegeo.cones import ON_CONE_RTOL, U_MAX, U_MIN
from conegeo.errors import (
    BaseDomainExceeded,
    InvalidConfig,
    NotOnCone,
    SingularSpeed,
    StepTooLarge,
    VertexApproach,
    VertexPoint,
)


def count_vector_hermite_calls(monkeypatch):
    """Record q.size of every jets.hermite call on (n, k) values.

    Sampled curves and bases interpolate (n, 3) points.
    """
    calls = []
    plain = jets.hermite

    def counted(s, values, slopes, q):
        if values.ndim == 2:
            calls.append(np.size(q))
        return plain(s, values, slopes, q)

    monkeypatch.setattr(jets, "hermite", counted)
    return calls


def count_curve_jet_passes(monkeypatch):
    """Record the curve of every SpaceCurve.derivatives call that reaches order 3.

    One such call is one evaluation of a curve's jet on a grid, the data
    every classification and geodesy gate reads.
    """
    calls = []
    plain = SpaceCurve.derivatives

    def counted(self, s, orders):
        if max(orders) == 3:
            calls.append(self)
        return plain(self, s, orders)

    monkeypatch.setattr(SpaceCurve, "derivatives", counted)
    return calls


def count_speed_points(monkeypatch, limit=None):
    """Record the number of parameters of every SpaceCurve.derivatives(s, (1,)) call.

    reparametrize_arclength and SphericalBaseCurve read the speed through
    such calls; their sum is the number of speed samples evaluated.  Past
    `limit` samples the next call raises RuntimeError, so a runaway
    quadrature stops before it fills memory.
    """
    sizes = []
    plain = SpaceCurve.derivatives

    def counted(self, s, orders):
        if tuple(orders) == (1,):
            sizes.append(np.size(s))
            if limit is not None and sum(sizes) > limit:
                raise RuntimeError(f"more than {limit} speed samples")
        return plain(self, s, orders)

    monkeypatch.setattr(SpaceCurve, "derivatives", counted)
    return sizes


def assert_bitwise(actual, expected):
    """Same shape and the same bits, NaN payloads included."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def trig_jet_curve(coeff_a, coeff_b, domain):
    """Closed-form trigonometric curve sum_k (A_k cos k t + B_k sin k t)."""
    A = np.asarray(coeff_a, dtype=float)
    B = np.asarray(coeff_b, dtype=float)
    ks = np.arange(1, A.shape[0] + 1)

    def jet(t, order=3):
        t = np.atleast_1d(t)
        cos = np.cos(np.outer(t, ks))
        sin = np.sin(np.outer(t, ks))
        g0 = cos @ A + sin @ B
        g1 = (-sin * ks) @ A + (cos * ks) @ B
        g2 = (-cos * ks**2) @ A + (-sin * ks**2) @ B
        g3 = (sin * ks**3) @ A + (-cos * ks**3) @ B
        return np.stack([g0, g1, g2, g3])

    return SpaceCurve(jet, domain)


def random_trig_curve(rng, modes=3, scale=1.0, domain=(0.0, 2 * np.pi)):
    A = rng.normal(size=(modes, 3)) * scale / np.arange(1, modes + 1)[:, None] ** 2
    B = rng.normal(size=(modes, 3)) * scale / np.arange(1, modes + 1)[:, None] ** 2
    A[0] += np.array([1.0, 0.3, 0.0])
    B[0] += np.array([-0.2, 1.0, 0.4])
    return trig_jet_curve(A, B, domain)


def random_unit_speed_curve(rng, **kw):
    return reparametrize_arclength(random_trig_curve(rng, **kw))


def named_speed_refusal(message):
    """The deviation, as written, and the s of a sample_arclength refusal message.

    The s must be written as repr writes it.
    """
    head, _, rest = message.partition(" at s = ")
    assert head.startswith("curve speed is off 1 by ") and \
        rest.endswith("; s must be arc length"), message
    s = float(rest.split(";")[0])
    assert rest.startswith(f"{s!r};"), message
    return head.rsplit(" ", 1)[1], s


def reparametrized_curve():
    """(cos t, sin t, t^2 / 2) on [0, 3] by arc length, a closed form.

    Its speed in t, sqrt(1 + t^2), is not 1, so reparametrize_arclength
    builds it: its jet reads a Hermite inverse table.
    """

    def jet(t, order):
        zero = np.zeros_like(t)
        return jets.stack_slots(
            order,
            lambda: np.stack([np.cos(t), np.sin(t), 0.5 * t * t], axis=-1),
            lambda: np.stack([-np.sin(t), np.cos(t), t], axis=-1),
            lambda: np.stack([-np.cos(t), -np.sin(t), np.ones_like(t)], axis=-1),
            lambda: np.stack([np.sin(t), -np.cos(t), zero], axis=-1))

    return reparametrize_arclength(SpaceCurve(jet, (0.0, 3.0)))


def reparametrized_node_table(rows):
    """reparametrized_curve sampled on `rows` uniform nodes: a node table."""
    rep = reparametrized_curve()
    s = np.linspace(*rep.domain, rows)
    return SpaceCurve.from_samples(s, rep.evaluate(s))


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


def reference_circular_base(psi0):
    """circular_base with its circle jets written out by hand: the oracle of its
    circle_curve form."""
    sp, cp = np.sin(psi0), np.cos(psi0)

    def jet(t, order):
        ph = t / sp
        cos, sin = np.cos(ph), np.sin(ph)
        zero = np.zeros_like(ph)
        return jets.stack_slots(
            order,
            lambda: np.stack([sp * cos, sp * sin, np.full_like(ph, cp)], axis=-1),
            lambda: np.stack([-sin, cos, zero], axis=-1),
            lambda: np.stack([-cos / sp, -sin / sp, zero], axis=-1),
            lambda: np.stack([sin / sp**2, -cos / sp**2, zero], axis=-1))

    period = 2 * np.pi * sp
    curve = SpaceCurve(jet, (0.0, period))
    return SphericalBaseCurve(curve, periodic=True)


def reference_spherical_curve(base, radius):
    """spherical_curve with the constant-radius chart chained by hand: the
    oracle of its constant-u chart form."""
    r = float(radius)
    d0, d1 = base.domain

    def jet(s, order):
        yj = base.jet(d0 + s / r, order)
        zero = np.zeros_like(s)
        lin = [d0 + s / r, np.full_like(s, 1.0 / r), zero, zero][:order + 1]
        rad = [np.full_like(s, r), zero, zero, zero][:order + 1]
        return jets.jet_product(rad, jets.jet_compose(yj, lin))

    span = base.period if base.periodic else (d1 - d0)
    return SpaceCurve(jet, (0.0, r * span))


def twisted_cubic_unit_speed():
    def jet(t, order=3):
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        p = np.stack([t, t**2, t**3], axis=-1)
        d1 = np.stack([one, 2 * t, 3 * t**2], axis=-1)
        d2 = np.stack([zero, 2 * one, 6 * t], axis=-1)
        d3 = np.stack([zero, zero, 6 * one], axis=-1)
        return np.stack([p, d1, d2, d3])

    raw = SpaceCurve(jet, (-1.0, 1.0))
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
        if not U_MIN <= u[i] <= U_MAX:
            raise VertexPoint(f"|point| = {u[i]:.3g} outside the chart range "
                              f"[{U_MIN:.3g}, {U_MAX:.3g}]")
        t[i] = sequential_chart_t(cone, p / u[i], t_hint=hint)
        residual = float(np.linalg.norm(u[i] * cone.base.evaluate(t[i]) - p))
        if residual > ON_CONE_RTOL * u[i]:
            raise NotOnCone(
                f"chart residual {residual:.3g} exceeds {ON_CONE_RTOL:.0e} * u"
            )
        hint = t[i]
    return t, u


def legacy_build_config(argv):
    """The CLI parser as it was before the option table: one subparser per command.

    Kept as the reference `cli.build_config` must agree with, value for value
    and message for message.
    """
    parser = _Parser(prog="conegeo")
    parser.add_argument("--config")
    sub = parser.add_subparsers(dest="command")
    g = sub.add_parser("generate")
    for name in ("a", "b", "c", "psi0"):
        g.add_argument(f"--{name}", type=float)
    g.add_argument("--base")
    g.add_argument("--smin", type=float)
    g.add_argument("--smax", type=float)
    g.add_argument("--samples", type=int)
    g.add_argument("--out")
    c = sub.add_parser("classify")
    c.add_argument("--in", dest="in")
    c.add_argument("--samples", type=int)
    c.add_argument("--tol", type=float)
    c.add_argument("--report")
    i = sub.add_parser("integrate")
    i.add_argument("--cone")
    i.add_argument("--ivp")
    i.add_argument("--step", type=float)
    i.add_argument("--out")
    d = sub.add_parser("develop")
    d.add_argument("--cone")
    d.add_argument("--in", dest="in")
    d.add_argument("--out")
    v = sub.add_parser("verify")
    v.add_argument("--cone")
    v.add_argument("--in", dest="in")
    v.add_argument("--samples", type=int)
    v.add_argument("--kg-tol", dest="kg_tol", type=float)
    v.add_argument("--clairaut-tol", dest="clairaut_tol", type=float)
    v.add_argument("--align-tol", dest="align_tol", type=float)
    v.add_argument("--straight-tol", dest="straight_tol", type=float)
    v.add_argument("--report")
    x = sub.add_parser("crosscheck")
    for name in ("a", "b", "c", "psi0"):
        x.add_argument(f"--{name}", type=float)
    x.add_argument("--seed", type=int)
    x.add_argument("--samples", type=int)
    x.add_argument("--report")

    ns = parser.parse_args(argv)
    if ns.command is None:
        raise InvalidConfig("no command given; see --help")
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    for dest, value in {"config": ns.config, **params}.items():
        if isinstance(value, list):  # argparse reads `--name=--` as []
            raise InvalidConfig(f"argument --{dest.replace('_', '-')}: expected one argument")
    if ns.config:
        try:
            with open(ns.config, "r", encoding="ascii") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise InvalidConfig(f"--config: cannot read {ns.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"--config: not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise InvalidConfig("--config: top level must be an object")
        section = file_cfg.get(ns.command, {})
        if not isinstance(section, dict):
            raise InvalidConfig(f"--config: section {ns.command!r} must be an object")
        types = {a.dest: a.type for a in sub.choices[ns.command]._actions}
        for key, value in section.items():
            key = key.replace("-", "_")
            if key not in params:
                raise InvalidConfig(f"--config: unknown option {key!r} for {ns.command}")
            if params[key] is None:
                coerce = types.get(key)
                try:
                    params[key] = coerce(value) if coerce and value is not None else value
                except (TypeError, ValueError) as exc:
                    raise InvalidConfig(f"--config: bad value for {key!r}: {exc}") from exc
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"--{key.replace('_', '-')} must be finite, got {value!r}")
    return RunConfig(command=ns.command, params=params)


def reference_integrate(cone, ivp, h=1e-3, drift_tol=None):
    """RK4 in its textbook form, as `integrate_geodesic` ran it before the unrolled step.

    Returns (s, t, u, dt, du) of the floor(length/h) whole steps, and raises
    the same errors with the same messages; `integrate_geodesic` must match
    it bitwise.  It does not refuse a short IVP.
    """
    L = float(ivp.length)
    if drift_tol is None:
        drift_tol = 1e-9 * max(1.0, L)

    def rhs(t, u, dt, du):
        return dt, du, -2.0 * du * dt / u, u * dt * dt

    n = int(np.floor(L / h + 1e-12))
    t, u, dt, du = float(ivp.t0), float(ivp.u0), float(ivp.dt0), float(ivp.du0)
    s_out, t_out, u_out = [0.0], [t], [u]
    dt_out, du_out = [dt], [du]
    c0 = u * u * dt
    c_lo = c_hi = c0
    s_acc = 0.0
    for _ in range(n):
        try:
            k1 = rhs(t, u, dt, du)
            k2 = rhs(t + 0.5 * h * k1[0], u + 0.5 * h * k1[1],
                     dt + 0.5 * h * k1[2], du + 0.5 * h * k1[3])
            k3 = rhs(t + 0.5 * h * k2[0], u + 0.5 * h * k2[1],
                     dt + 0.5 * h * k2[2], du + 0.5 * h * k2[3])
            k4 = rhs(t + h * k3[0], u + h * k3[1],
                     dt + h * k3[2], du + h * k3[3])
        except ZeroDivisionError:
            raise VertexApproach(f"u = 0 in an RK4 stage, below the chart range "
                                 f"[{U_MIN:.3g}, {U_MAX:.3g}], at s = {s_acc + h:.4g}") from None
        t += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        dt += h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        du += h / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        s_acc += h
        if u < U_MIN:
            raise VertexApproach(
                f"u = {u:.3g} fell below the chart range [{U_MIN:.3g}, {U_MAX:.3g}] "
                f"at s = {s_acc:.4g}"
            )
        c = u * u * dt
        c_lo, c_hi = min(c_lo, c), max(c_hi, c)
        s_out.append(s_acc)
        t_out.append(t)
        u_out.append(u)
        dt_out.append(dt)
        du_out.append(du)

    if not cone.base.periodic:
        d0, d1 = cone.base.domain
        if min(t_out) < d0 or max(t_out) > d1:
            raise BaseDomainExceeded("integrated t left the base domain")
    drift = (c_hi - c_lo) / max(abs(c0), 1e-14) if abs(c0) > 1e-14 else (c_hi - c_lo)
    if not (drift <= drift_tol):
        raise StepTooLarge(f"Clairaut drift {drift:.3g} exceeds {drift_tol:.3g}; reduce h")
    return tuple(np.asarray(x) for x in (s_out, t_out, u_out, dt_out, du_out))


def reference_adaptive_simpson_segments(f, nodes, tol):
    """Adaptive Simpson as it was before the nested levels: every level re-evaluates f.

    Kept as the reference `_adaptive_simpson_segments` must match bitwise.
    """
    a = nodes[:-1]
    b = nodes[1:]
    width = b - a
    tol_i = tol * width / (nodes[-1] - nodes[0])

    def composite(aa, bb, panels):
        x = aa[:, None] + (bb - aa)[:, None] * np.linspace(0.0, 1.0, 2 * panels + 1)
        y = f(x.ravel()).reshape(x.shape)
        h = (bb - aa) / (2 * panels)
        odd = y[:, 1::2].sum(axis=1)
        even = y[:, 2:-1:2].sum(axis=1)
        return h / 3.0 * (y[:, 0] + y[:, -1] + 4 * odd + 2 * even)

    prev = composite(a, b, 1)
    out = np.empty_like(prev)
    active = np.ones(a.size, dtype=bool)
    panels = 2
    for _ in range(14):
        cur = composite(a[active], b[active], panels)
        err = np.abs(cur - prev[active])
        done = ~(err > 15.0 * np.maximum(tol_i[active], 1e-300))
        idx = np.flatnonzero(active)
        out[idx[done]] = cur[done] + (cur[done] - prev[active][done]) / 15.0
        prev[idx] = cur
        active[idx[done]] = False
        if not active.any():
            break
        panels *= 2
    else:
        out[active] = prev[active]
    return out


class ReferenceArclengthCurve(SpaceCurve):
    """A closed form whose points are raw.evaluate(inverse(q)), apart from its jet.

    Its jet gives its derivatives; its points keep the formula of a
    reparametrized curve from before points were read off the jet, so the
    two can be compared bitwise.
    """

    def __init__(self, raw, inverse, jet, domain):
        super().__init__(jet, domain)
        self._raw, self._inverse = raw, inverse

    def _points(self, q):
        return self._raw.evaluate(self._inverse(q))


def reference_reparametrize_arclength(curve, tol=1e-10, table_size=4097):
    """reparametrize_arclength before the shared speed table.

    The speed is evaluated on the scan, again on every Simpson level and
    again for the table slopes.  Arc length is counted from the first table
    node, as in the current version.  Kept as the reference the current
    version must match bitwise on closed-form curves, points included.
    """
    s0, s1 = curve.domain

    def speed(q):
        return np.linalg.norm(curve.derivative(q, 1), axis=-1)

    scan = np.linspace(s0, s1, 2049)
    v = speed(scan)
    if not np.all(np.isfinite(v)):
        raise SingularSpeed("speed is not finite on the parameter domain")
    vmax = float(np.max(v))
    if float(np.min(v)) < 1e-12 * max(1.0, vmax):
        raise SingularSpeed(
            f"speed {float(np.min(v)):.3g} below regularity threshold"
        )
    if float(np.max(np.abs(v - 1.0))) < 1e-12:
        return curve

    tau_nodes = np.linspace(s0, s1, table_size)
    seg = reference_adaptive_simpson_segments(speed, tau_nodes, tol)
    a0 = tau_nodes[0]
    s_table = a0 + np.concatenate([[0.0], np.cumsum(seg)])
    total = float(s_table[-1] - s_table[0])
    slopes = 1.0 / speed(tau_nodes)

    def inverse(q):
        return jets.hermite(s_table, tau_nodes, slopes, np.clip(q, s_table[0], s_table[-1]))

    def jet(q, order=3):
        return jets.jet_reparametrize(curve.jet(inverse(q)))

    return ReferenceArclengthCurve(curve, inverse, jet, (a0, a0 + total))


def _reference_dot(a, b):
    return np.sum(a * b, axis=-1)


def reference_jet_product(scalar_jet, vector_jet):
    """jets.jet_product as it was before the jet(s, order) protocol: 4 slots, written out.

    Kept, with the three below, as the reference the slot-count-agnostic
    algebra must match bitwise, slot for slot.
    """
    u0, u1, u2, u3 = (x[..., None] for x in scalar_jet)
    y0, y1, y2, y3 = vector_jet
    return np.stack([
        u0 * y0,
        u1 * y0 + u0 * y1,
        u2 * y0 + 2.0 * u1 * y1 + u0 * y2,
        u3 * y0 + 3.0 * u2 * y1 + 3.0 * u1 * y2 + u0 * y3,
    ])


def reference_jet_compose(vector_jet_at_t, t_jet):
    y0, y1, y2, y3 = vector_jet_at_t
    t1, t2, t3 = (x[..., None] for x in t_jet[1:])
    return np.stack([
        y0,
        t1 * y1,
        t2 * y1 + t1**2 * y2,
        t3 * y1 + 3.0 * t1 * t2 * y2 + t1**3 * y3,
    ])


def reference_jet_normalize(vector_jet):
    g0, g1, g2, g3 = vector_jet
    r0 = np.sqrt(_reference_dot(g0, g0))
    r1 = _reference_dot(g0, g1) / r0
    r2 = (_reference_dot(g1, g1) + _reference_dot(g0, g2) - r1**2) / r0
    r3 = (3.0 * _reference_dot(g1, g2) + _reference_dot(g0, g3) - 3.0 * r1 * r2) / r0
    h0 = 1.0 / r0
    h1 = -r1 / r0**2
    h2 = -r2 / r0**2 + 2.0 * r1**2 / r0**3
    h3 = -r3 / r0**2 + 6.0 * r1 * r2 / r0**3 - 6.0 * r1**3 / r0**4
    return reference_jet_product(np.stack([h0, h1, h2, h3]), vector_jet)


def reference_arclength_rate_jets(vector_jet_at_tau):
    _, d1, d2, d3 = vector_jet_at_tau
    v = np.sqrt(_reference_dot(d1, d1))
    a = _reference_dot(d1, d2)
    b = _reference_dot(d2, d2) + _reference_dot(d1, d3)
    return np.stack([np.zeros_like(v), 1.0 / v, -a / v**4, -b / v**5 + 4.0 * a**2 / v**7])


def reference_hermite(s, values, slopes, q):
    """jets.hermite as it was before the in-place kernel: one numpy pass per term.

    Kept, with reference_fd_derivatives below, as the reference the lean
    kernel must match bitwise.
    """
    idx = np.clip(np.searchsorted(s, q, side="right") - 1, 0, s.size - 2)
    h = s[idx + 1] - s[idx]
    th = (q - s[idx]) / h
    t2 = th * th
    t3 = t2 * th
    w = (2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + th) * h, -2 * t3 + 3 * t2, (t3 - t2) * h)
    tail = (1,) * (values.ndim - 1)
    w00, w10, w01, w11 = (x.reshape(x.shape + tail) for x in w)
    return (w00 * values[idx] + w10 * slopes[idx]
            + w01 * values[idx + 1] + w11 * slopes[idx + 1])


@functools.cache
def sympy_weights(order, offsets, at=0):
    """Exact finite-difference weights of sympy.finite_diff_weights, rounded once to floats."""
    return tuple(float(w) for w in sympy.finite_diff_weights(order, list(offsets), at)[order][-1])


def sympy_central(order):
    """Order-4 central stencil of a derivative order, from sympy: (offsets, weights).

    The fewest symmetric points that give fourth-order accuracy: 5 for
    orders 1 and 2, 7 for order 3.
    """
    reach = (order + 3) // 2
    offsets = tuple(range(-reach, reach + 1))
    return offsets, sympy_weights(order, offsets)


def reference_fd_derivatives(evaluate, s, orders, h):
    """jets.fd_derivatives as it was before the one-call pass: one evaluator call per offset.

    The weights come from sympy, not from the jets table under test.
    """
    s = np.asarray(s, dtype=float)
    taps = {}

    def tap(k):
        if k not in taps:
            taps[k] = np.asarray(evaluate(s + k * h), dtype=float)
        return taps[k]

    out = []
    for order in orders:
        if order == 0:
            out.append(tap(0.0))
            continue
        offsets, coeffs = sympy_central(order)
        acc = None
        for k, c in zip(offsets, coeffs):
            if c == 0.0:
                continue
            term = c * tap(k)
            acc = term if acc is None else acc + term
        out.append(acc / h**order)
    return out
