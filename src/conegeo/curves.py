"""Space curves in R^3: evaluation, derivatives, arc length, Frenet apparatus.

Curves are immutable after construction and every operation is a pure
function of its inputs, so concurrent evaluation is safe.
"""

from dataclasses import dataclass

import numpy as np

from . import jets as jt
from .errors import (
    InsufficientMargin,
    ParameterOutOfDomain,
    SingularSpeed,
    VanishingCurvature,
)

KAPPA_FLOOR = 1e-9


@dataclass(frozen=True)
class DerivativeSettings:
    """Step and central-difference order used when no analytic jets exist."""

    h: float
    scheme: int = 4

    def __post_init__(self):
        if not (self.h > 0.0):
            raise ValueError("finite-difference step h must be positive")
        if self.scheme not in (2, 4):
            raise ValueError("scheme must be 2 or 4")


@dataclass(frozen=True)
class FrenetFrame:
    """Frenet data at one parameter (or a batch of parameters).

    tangent/normal/binormal have shape (..., 3); kappa and tau shape (...).
    Frames are only produced where kappa exceeds the curvature floor.
    """

    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


class SpaceCurve:
    """An evaluable curve in R^3 over a closed parameter interval.

    kind is "closed-form" (backed by a callable) or "sampled" (backed by
    nodes with cubic Hermite interpolation); derivative_mode is "analytic"
    when third-order jets are available and "finite-difference" otherwise.
    """

    def __init__(self, evaluator, domain, *, jet=None, kind="closed-form",
                 settings=None, nodes=None):
        s_min, s_max = float(domain[0]), float(domain[1])
        if not (np.isfinite(s_min) and np.isfinite(s_max) and s_min < s_max):
            raise ValueError(f"degenerate domain [{s_min}, {s_max}]")
        if kind not in ("closed-form", "sampled"):
            raise ValueError(f"unknown curve kind {kind!r}")
        length = s_max - s_min
        if settings is None:
            if nodes is not None:
                # stencil step = node spacing so stencils land on exact data;
                # capped for coarse polylines to keep h small vs the domain
                h = min(float(np.mean(np.diff(nodes[0]))), length / 100.0)
            else:
                h = 1e-4 * length
            settings = DerivativeSettings(h=h, scheme=4)
        if settings.h > length / 100.0:
            raise ValueError("step h must be at most 1/100 of the domain length")
        self._evaluator = evaluator
        self._jet = jet
        self._domain = (s_min, s_max)
        self._kind = kind
        self._settings = settings
        self._nodes = None
        if nodes is not None:
            self._nodes = (_readonly(nodes[0]), _readonly(nodes[1]))

    # ------------------------------------------------------------------
    @property
    def domain(self):
        return self._domain

    @property
    def length(self):
        return self._domain[1] - self._domain[0]

    @property
    def kind(self):
        return self._kind

    @property
    def derivative_mode(self):
        return "analytic" if self._jet is not None else "finite-difference"

    @property
    def settings(self):
        return self._settings

    @property
    def nodes(self):
        """(parameters, points) for sampled curves, else None."""
        return self._nodes

    # ------------------------------------------------------------------
    def _check_domain(self, s):
        s0, s1 = self._domain
        slack = 1e-9 * self.length
        bad = ~((s >= s0 - slack) & (s <= s1 + slack))
        if np.any(bad):
            worst = float(np.asarray(s)[bad].flat[0]) if np.ndim(s) else float(s)
            raise ParameterOutOfDomain(
                f"parameter {worst!r} outside domain [{s0}, {s1}]"
            )

    def fd_margin(self, order=3):
        """Domain shrink needed by the finite-difference stencil."""
        if self._jet is not None:
            return 0.0
        reach = jt.stencil_reach(self._settings.scheme, order)
        return reach * self._settings.h * (1.0 + 1e-9)

    def evaluate(self, s):
        """Point alpha(s); accepts a scalar or an array of parameters."""
        arr = np.asarray(s, dtype=float)
        self._check_domain(arr)
        out = np.asarray(self._evaluator(np.atleast_1d(arr)), dtype=float)
        if arr.ndim == 0:
            return out[0]
        return out

    def derivative(self, s, order=1):
        """order-th derivative of alpha at s (order 1, 2 or 3)."""
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2 or 3")
        return self.derivatives(s, (order,))[0]

    def derivatives(self, s, orders):
        """Derivatives of the given orders at s in one pass; order 0 is the point.

        Analytic curves make one jet call.  Finite-difference curves check
        the margin of the highest order, then evaluate each stencil offset
        once.  Returns a list in `orders` order.
        """
        arr = np.asarray(s, dtype=float)
        self._check_domain(arr)
        q = np.atleast_1d(arr)
        if self._jet is not None:
            jet = np.asarray(self._jet(q))
            out = [jet[k] for k in orders]
        else:
            top = max(orders)
            margin = self.fd_margin(top) * (1.0 - 2e-9)
            s0, s1 = self._domain
            if top and (np.any(arr < s0 + margin) or np.any(arr > s1 - margin)):
                raise InsufficientMargin(
                    f"order-{top} stencil needs {margin:.3g} of margin inside "
                    f"[{s0}, {s1}]"
                )
            out = jt.fd_derivatives(self._evaluator, q, orders,
                                    self._settings.h, self._settings.scheme)
        if arr.ndim == 0:
            return [o[0] for o in out]
        return out

    def jet(self, s):
        """Value plus first three derivatives, shape (4, n, 3)."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        return np.stack(self.derivatives(arr, (0, 1, 2, 3)))

    # ------------------------------------------------------------------
    @staticmethod
    def from_function(fn, domain, jet=None, settings=None):
        return SpaceCurve(fn, domain, jet=jet, kind="closed-form", settings=settings)

    @staticmethod
    def from_samples(s, points, settings=None):
        """Sampled curve with cubic Hermite interpolation between nodes."""
        s = np.asarray(s, dtype=float)
        points = np.asarray(points, dtype=float)
        if s.ndim != 1 or points.shape != (s.size, 3):
            raise ValueError("need parameters (n,) and points (n, 3)")
        if s.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(s) <= 0.0):
            raise ValueError("sample parameters must be strictly increasing")
        slopes = jt.node_slopes(s, points)
        return SpaceCurve(
            lambda q: jt.hermite(s, points, slopes, q),
            (s[0], s[-1]),
            kind="sampled",
            settings=settings,
            nodes=(s, points),
        )


# ----------------------------------------------------------------------
# canonical closed-form curves


def circle_curve(radius=1.0, center=(0.0, 0.0, 0.0), turns=1.0):
    """Unit-speed circle of given radius in a plane parallel to xy."""
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)

    def fn(s):
        th = s / r
        return c + np.stack([r * np.cos(th), r * np.sin(th), np.zeros_like(th)], axis=-1)

    def jet(s):
        th = s / r
        cos, sin = np.cos(th), np.sin(th)
        zero = np.zeros_like(th)
        p = c + np.stack([r * cos, r * sin, zero], axis=-1)
        d1 = np.stack([-sin, cos, zero], axis=-1)
        d2 = np.stack([-cos / r, -sin / r, zero], axis=-1)
        d3 = np.stack([sin / r**2, -cos / r**2, zero], axis=-1)
        return np.stack([p, d1, d2, d3])

    return SpaceCurve.from_function(fn, (0.0, 2 * np.pi * r * turns), jet=jet)


def helix_curve(radius, pitch, center=(0.0, 0.0, 0.0), turns=2.0):
    """Unit-speed circular helix; curvature R/(R^2+P^2), torsion P/(R^2+P^2)."""
    R, P = float(radius), float(pitch)
    if R <= 0.0:
        raise ValueError("radius must be positive")
    c = float(np.hypot(R, P))
    cen = np.asarray(center, dtype=float)

    def jet(s):
        th = s / c
        cos, sin = np.cos(th), np.sin(th)
        p = cen + np.stack([R * cos, R * sin, P * th], axis=-1)
        d1 = np.stack([-R * sin / c, R * cos / c, np.full_like(th, P / c)], axis=-1)
        d2 = np.stack([-R * cos / c**2, -R * sin / c**2, np.zeros_like(th)], axis=-1)
        d3 = np.stack([R * sin / c**3, -R * cos / c**3, np.zeros_like(th)], axis=-1)
        return np.stack([p, d1, d2, d3])

    return SpaceCurve.from_function(lambda s: jet(s)[0], (0.0, 2 * np.pi * c * turns), jet=jet)


def line_curve(point, direction, length=1.0):
    """Unit-speed straight segment from point along direction."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / nrm

    def jet(s):
        pos = p + s[..., None] * d
        d1 = np.broadcast_to(d, pos.shape).copy()
        zero = np.zeros_like(pos)
        return np.stack([pos, d1, zero, np.zeros_like(pos)])

    return SpaceCurve.from_function(lambda s: jet(s)[0], (0.0, float(length)), jet=jet)


# ----------------------------------------------------------------------
# operations


def sample_grid(curve, n=256, max_order=3):
    """Uniform parameter grid avoiding finite-difference margins.

    Sampled curves are sampled on their own (interior) nodes so stencil
    points land on exact data.
    """
    s0, s1 = curve.domain
    m = curve.fd_margin(max_order)
    if curve.kind == "sampled" and curve.nodes is not None:
        s_nodes = curve.nodes[0]
        reach = int(np.ceil(m / curve.settings.h - 1e-9)) if m > 0 else 0
        inner = s_nodes[reach: s_nodes.size - reach] if reach else s_nodes
        if inner.size < 2:
            raise InsufficientMargin("sampled curve too short for derivative stencils")
        stride = max(1, inner.size // n)
        return inner[::stride]
    return np.linspace(s0 + m, s1 - m, n)


def frenet_apparatus(curve, s, kappa_floor=KAPPA_FLOOR):
    """Frenet frame(s) at s, from one pass over the first three derivatives."""
    return frenet_frame(*curve.derivatives(s, (1, 2, 3)), kappa_floor=kappa_floor)


def frenet_frame(d1, d2, d3, kappa_floor=KAPPA_FLOOR):
    """Frenet frame from the first three derivatives of a unit-speed curve.

    kappa = |alpha''| and tau = <alpha' x alpha'', alpha'''> / kappa^2;
    raises VanishingCurvature below the floor.
    """
    speed = np.linalg.norm(d1, axis=-1)
    if np.any(speed < 1e-12):
        raise SingularSpeed("zero tangent; cannot build a frame")
    tangent = d1 / speed[..., None]
    kappa = np.linalg.norm(d2, axis=-1)
    if np.any(kappa <= kappa_floor):
        raise VanishingCurvature(
            f"curvature {float(np.min(kappa)):.3g} at or below floor {kappa_floor:.3g}"
        )
    normal = d2 / kappa[..., None]
    binormal = np.cross(tangent, normal)
    binormal = binormal / np.linalg.norm(binormal, axis=-1)[..., None]
    tau = np.sum(np.cross(d1, d2) * d3, axis=-1) / kappa**2
    return FrenetFrame(
        tangent=_readonly(tangent),
        normal=_readonly(normal),
        binormal=_readonly(binormal),
        kappa=_readonly(kappa),
        tau=_readonly(tau),
    )


def cross_magnitude(curve, s):
    """|alpha(s) x alpha'(s)|."""
    p, d1 = curve.derivatives(s, (0, 1))
    return np.linalg.norm(np.cross(p, d1), axis=-1)


def _adaptive_simpson_segments(f, nodes, tol):
    """Per-interval integrals of f over consecutive nodes, adaptive Simpson.

    Each interval is refined by panel doubling until the Simpson update is
    below its share of tol, then Richardson-extrapolated.  An interval whose
    update is not finite stops at once: refining cannot mend it.
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


def reparametrize_arclength(curve, tol=1e-10, table_size=4097):
    """Arc-length reparametrization of a regular curve.

    The cumulative length comes from adaptive Simpson quadrature of the
    speed; the inverse map is a monotone Hermite table.  Analytic input
    jets are chain-ruled so the result keeps analytic derivative quality.
    Already unit-speed curves are returned unchanged.
    """
    s0, s1 = curve.domain

    def speed(q):
        return np.linalg.norm(curve.derivative(q, 1), axis=-1)

    m = curve.fd_margin(1)
    scan = np.linspace(s0 + m, s1 - m, 2049)
    v = speed(scan)
    if not np.all(np.isfinite(v)):
        raise SingularSpeed("speed is not finite on the parameter domain")
    vmax = float(np.max(v))
    if float(np.min(v)) < 1e-12 * max(1.0, vmax):
        raise SingularSpeed(
            f"speed {float(np.min(v)):.3g} below regularity threshold"
        )
    # already unit speed up to the derivative noise of the mode: keep the
    # curve (and, for sampled curves, its node grid and parameter labels)
    unit_tol = 1e-12 if curve.derivative_mode == "analytic" else 1e-5
    if float(np.max(np.abs(v - 1.0))) < unit_tol:
        return curve

    tau_nodes = np.linspace(s0 + m, s1 - m, table_size)
    seg = _adaptive_simpson_segments(speed, tau_nodes, tol)
    # anchor arc length at the original start parameter so affine fits in s
    # remain comparable before and after reparametrization
    s_table = s0 + np.concatenate([[0.0], np.cumsum(seg)])
    total = float(s_table[-1] - s_table[0])
    slopes = 1.0 / speed(tau_nodes)

    def inverse(q):
        return jt.hermite(s_table, tau_nodes, slopes, np.clip(q, s_table[0], s_table[-1]))

    def evaluator(q):
        return curve.evaluate(inverse(q))

    jet = None
    if curve.derivative_mode == "analytic":
        base_jet = curve.jet

        def jet(q):
            return jt.jet_reparametrize(base_jet(inverse(q)))

    if curve.kind == "sampled":
        h_new = curve.settings.h * total / (s1 - s0)
        settings = DerivativeSettings(h=h_new, scheme=curve.settings.scheme)
    else:
        settings = None
    return SpaceCurve(evaluator, (s0, s0 + total), jet=jet, settings=settings)


# ----------------------------------------------------------------------
# CSV interchange: one header line, then rows of shortest round-trip decimals


def table_text(header, *columns):
    """CSV text of 1-D columns and (n, k) column blocks, repr-formatted."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%r"] * table.shape[1])
    return "\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n"


def write_table(path, header, *columns):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(table_text(header, *columns))


def read_table(path, header):
    """Rows of a CSV file under the given header line, shape (n, columns).

    Blank lines are skipped and `#` is data, not a comment.  Every value
    must be finite and the first column strictly increasing.
    """
    width = header.count(",") + 1
    with open(path, "r", encoding="ascii") as fh:
        lines = iter(fh.readline, "")
        if next((ln for ln in lines if ln.strip()), "").strip() != header:
            raise ValueError(f"{path}: expected header {header!r}")
        start = fh.tell()
        data = np.empty((0, 0))
        if any(ln.strip() for ln in lines):  # loadtxt warns on a file without rows
            fh.seek(start)
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != width:
        words = {3: "three", 4: "four"}
        raise ValueError(f"{path}: expected {words.get(width, width)} columns per row")
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite value {float(data[row, col])} "
                         f"in data row {row + 1}, column {col + 1}")
    if np.any(np.diff(data[:, 0]) <= 0.0):
        raise ValueError(f"{path}: parameter column must be strictly increasing")
    return data


def write_curve_csv(path, s, points):
    write_table(path, "s,x,y,z", s, points)


def read_curve_csv(path):
    data = read_table(path, "s,x,y,z")
    return data[:, 0], data[:, 1:]
