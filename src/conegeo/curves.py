"""Space curves in R^3: evaluation, derivatives, arc length, Frenet apparatus.

Curves are immutable after construction and every operation is a pure
function of its inputs, so concurrent evaluation is safe.
"""

import os
import tempfile
from functools import cached_property

import numpy as np

from . import jets as jt
from .errors import (
    InsufficientMargin,
    ParameterOutOfDomain,
    SingularSpeed,
    VanishingCurvature,
)
from .floattext import block_text

KAPPA_FLOOR = 1e-9
# |speed - 1| below this reads as unit speed: the derivative noise of each mode
UNIT_TOL = {"analytic": 1e-12, "finite-difference": 1e-5}
# sample_curve holds the jet to this order; sample_grid keeps clear of its stencils
SAMPLE_ORDER = 3
# most points per integrand call of the adaptive Simpson quadrature
_SIMPSON_BLOCK = 1024
_ARCLENGTH_TOL = 1e-10  # absolute error the arc-length quadrature shares out
# most grid points per curve.jet call of sample_curve: bounds its stencil temporaries
_JET_BLOCK = 4096


class Record:
    """Immutable record: a subclass names its fields once, in order, in `fields`.

    Values live in the instance __dict__, so a cached_property still caches.
    Records of one type compare and hash by their field tuples.
    """

    fields = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self.fields, args))
        for key, value in kwargs.items():
            if key not in self.fields or key in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {key!r}")
            values[key] = value
        if len(args) > len(self.fields) or len(values) < len(self.fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self.fields}")
        self.__dict__.update(values)

    def _values(self):
        return tuple(self.__dict__[key] for key in self.fields)

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{key}={value!r}" for key, value in zip(self.fields, self._values()))
        return f"{type(self).__qualname__}({body})"


class FrenetFrame(Record):
    """Frenet data at one parameter (or a batch of parameters).

    tangent/normal/binormal have shape (..., 3); kappa and tau shape (...).
    Frames are only produced where kappa exceeds the curvature floor.
    """

    fields = ("tangent", "normal", "binormal", "kappa", "tau")


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


class SpaceCurve:
    """An evaluable curve in R^3 over a closed parameter interval.

    nodes is the (parameters, points) table of a curve backed by cubic
    Hermite interpolation, else None, and node_slopes the interpolant's
    slopes at those nodes; derivative_mode is "analytic" when
    third-order jets are available and "finite-difference" otherwise.  h is
    the step of the order-4 central stencils that give finite-difference
    derivatives: the node spacing, at most 1/100 of the domain, or 1e-4 of
    the domain without nodes.
    """

    def __init__(self, evaluator, domain, *, jet=None, nodes=None):
        """nodes, if given, is (parameters, points, slopes) of the interpolant."""
        s_min, s_max = float(domain[0]), float(domain[1])
        if not (np.isfinite(s_min) and np.isfinite(s_max) and s_min < s_max):
            raise ValueError(f"degenerate domain [{s_min}, {s_max}]")
        length = s_max - s_min
        if nodes is not None:
            # stencil step = node spacing so stencils land on exact data;
            # capped for coarse polylines to keep h small vs the domain
            h = min(float(np.mean(np.diff(nodes[0]))), length / 100.0)
        else:
            h = 1e-4 * length
        self._evaluator = evaluator
        self._jet = jet
        self._domain = (s_min, s_max)
        self._h = h
        self._nodes = self._slopes = None
        if nodes is not None:
            self._nodes = (_readonly(nodes[0]), _readonly(nodes[1]))
            self._slopes = _readonly(nodes[2])

    # ------------------------------------------------------------------
    @property
    def domain(self):
        return self._domain

    @property
    def length(self):
        return self._domain[1] - self._domain[0]

    @property
    def derivative_mode(self):
        return "analytic" if self._jet is not None else "finite-difference"

    @property
    def h(self):
        """Finite-difference step."""
        return self._h

    @property
    def nodes(self):
        """(parameters, points) for sampled curves, else None."""
        return self._nodes

    @property
    def node_slopes(self):
        """First derivatives at the nodes, as the interpolant uses them, else None."""
        return self._slopes

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
        """Domain shrink needed by the finite-difference stencil; none for order 0."""
        if self._jet is not None or order == 0:
            return 0.0
        return jt.stencil_reach(order) * self._h * (1.0 + 1e-9)

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

        orders is a non-empty collection of 0..3 (ValueError otherwise).
        Analytic curves make one jet call to the highest order.
        Finite-difference curves check the margin of the highest order, then
        make one evaluator call for all stencil offsets.  Returns a list in
        `orders` order.
        """
        top = jt.top_order(orders)
        arr = np.asarray(s, dtype=float)
        self._check_domain(arr)
        q = np.atleast_1d(arr)
        if self._jet is not None:
            jet = np.asarray(self._jet(q, top))
            out = [jet[k] for k in orders]
        else:
            margin = self.fd_margin(top) * (1.0 - 2e-9)
            s0, s1 = self._domain
            if top and (np.any(arr < s0 + margin) or np.any(arr > s1 - margin)):
                raise InsufficientMargin(
                    f"order-{top} stencil needs {margin:.3g} of margin inside "
                    f"[{s0}, {s1}]"
                )
            out = jt.fd_derivatives(self._evaluator, q, orders, self._h)
        if arr.ndim == 0:
            return [o[0] for o in out]
        return out

    def jet(self, s, order=3):
        """Value plus the first `order` derivatives, shape (order + 1, n, 3)."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        return np.stack(self.derivatives(arr, range(order + 1)))

    # ------------------------------------------------------------------
    @staticmethod
    def from_samples(s, points):
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
        # the interpolant and the nodes share one contiguous copy of each input
        s, points = _readonly(s), _readonly(points)
        return SpaceCurve(
            lambda q: jt.hermite(s, points, slopes, q),
            (s[0], s[-1]),
            nodes=(s, points, slopes),
        )


# ----------------------------------------------------------------------
# canonical closed-form curves


def circle_curve(radius=1.0, center=(0.0, 0.0, 0.0), turns=1.0):
    """Unit-speed circle of given radius in a plane parallel to xy."""
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)

    def jet(s, order):
        th = s / r
        cos, sin = np.cos(th), np.sin(th)
        zero = np.zeros_like(th)
        return jt.stack_slots(
            order,
            lambda: c + np.stack([r * cos, r * sin, zero], axis=-1),
            lambda: np.stack([-sin, cos, zero], axis=-1),
            lambda: np.stack([-cos / r, -sin / r, zero], axis=-1),
            lambda: np.stack([sin / r**2, -cos / r**2, zero], axis=-1))

    return SpaceCurve(lambda s: jet(s, 0)[0], (0.0, 2 * np.pi * r * turns), jet=jet)


def helix_curve(radius, pitch, center=(0.0, 0.0, 0.0), turns=2.0):
    """Unit-speed circular helix; curvature R/(R^2+P^2), torsion P/(R^2+P^2)."""
    R, P = float(radius), float(pitch)
    if R <= 0.0:
        raise ValueError("radius must be positive")
    c = float(np.hypot(R, P))
    cen = np.asarray(center, dtype=float)

    def jet(s, order):
        th = s / c
        cos, sin = np.cos(th), np.sin(th)
        return jt.stack_slots(
            order,
            lambda: cen + np.stack([R * cos, R * sin, P * th], axis=-1),
            lambda: np.stack([-R * sin / c, R * cos / c, np.full_like(th, P / c)], axis=-1),
            lambda: np.stack([-R * cos / c**2, -R * sin / c**2, np.zeros_like(th)], axis=-1),
            lambda: np.stack([R * sin / c**3, -R * cos / c**3, np.zeros_like(th)], axis=-1))

    return SpaceCurve(lambda s: jet(s, 0)[0], (0.0, 2 * np.pi * c * turns), jet=jet)


def line_curve(point, direction, length=1.0):
    """Unit-speed straight segment from point along direction."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / nrm

    def jet(s, order):
        pos = p + s[..., None] * d
        return jt.stack_slots(order, lambda: pos, lambda: np.broadcast_to(d, pos.shape),
                              lambda: np.zeros_like(pos), lambda: np.zeros_like(pos))

    return SpaceCurve(lambda s: jet(s, 0)[0], (0.0, float(length)), jet=jet)


# ----------------------------------------------------------------------
# operations


def sample_grid(curve, n=256):
    """Uniform parameter grid avoiding the margins of the order-3 stencils.

    Sampled curves are sampled on their own (interior) nodes.  From 101
    rows the stencil step is the node spacing, so stencil points land on
    exact data; below that the step is capped at 1/100 of the domain and
    the taps fall between the nodes.
    """
    s0, s1 = curve.domain
    m = curve.fd_margin(SAMPLE_ORDER)
    if curve.nodes is not None:
        s_nodes = curve.nodes[0]
        reach = int(np.ceil(m / curve.h - 1e-9)) if m > 0 else 0
        inner = s_nodes[reach: s_nodes.size - reach] if reach else s_nodes
        if inner.size < 2:
            raise InsufficientMargin(
                f"sampled curve of {s_nodes.size} rows too short for derivative "
                f"stencils: needs at least {2 * reach + 2}")
        stride = max(1, inner.size // n)
        return inner[::stride]
    return np.linspace(s0 + m, s1 - m, n)


class CurveSamples(Record):
    """One evaluation of a curve on its sample grid, read by every analysis.

    jet (4, n, 3) holds the points and first three derivatives at s; samples
    is the grid size asked for.  Frames are built on first read: a ruling has none.
    """

    fields = ("curve", "samples", "s", "jet")

    @cached_property
    def frames(self):
        return frenet_frame(*self.jet[1:])


def sample_curve(curve, samples=256):
    """Evaluate the curve's jet once on sample_grid(curve, samples).

    The jet is taken _JET_BLOCK points per curve.jet call into one array.
    No point's jet reads its neighbours, so the blocks are bitwise one call.
    """
    s = _readonly(sample_grid(curve, samples))
    jet = np.empty((SAMPLE_ORDER + 1, s.size, 3))
    for start in range(0, s.size, _JET_BLOCK):
        jet[:, start:start + _JET_BLOCK] = curve.jet(s[start:start + _JET_BLOCK], SAMPLE_ORDER)
    return CurveSamples(curve, samples, s, _readonly(jet))


def sample_arclength(curve, samples=256):
    """sample_curve of a curve whose parameter is arc length by contract.

    The speeds the samples already hold decide, at the points every gate
    reads: when each |alpha'| on the grid is within UNIT_TOL of 1 for the
    curve's derivative mode, the samples are returned.  Otherwise
    SingularSpeed names the worst grid point, by its own parameter, so a
    sampled curve's is a label from its table.
    """
    cs = sample_curve(curve, samples)
    off = np.abs(np.linalg.norm(cs.jet[1], axis=-1) - 1.0)
    worst = int(np.argmax(off))
    if not off[worst] < UNIT_TOL[curve.derivative_mode]:
        raise SingularSpeed(f"curve speed is off 1 by {off[worst]:.3g} at "
                            f"s = {float(cs.s[worst])!r}; s must be arc length")
    return cs


def frenet_apparatus(curve, s):
    """Frenet frame(s) at s, from one pass over the first three derivatives."""
    return frenet_frame(*curve.derivatives(s, (1, 2, 3)))


def frenet_frame(d1, d2, d3):
    """Frenet frame from the first three derivatives of a unit-speed curve.

    kappa = |alpha''| and tau = <alpha' x alpha'', alpha'''> / kappa^2;
    raises VanishingCurvature at or below KAPPA_FLOOR.
    """
    speed = np.linalg.norm(d1, axis=-1)
    if np.any(speed < 1e-12):
        raise SingularSpeed("zero tangent; cannot build a frame")
    tangent = d1 / speed[..., None]
    kappa = np.linalg.norm(d2, axis=-1)
    if np.any(kappa <= KAPPA_FLOOR):
        raise VanishingCurvature(
            f"curvature {float(np.min(kappa)):.3g} at or below floor {KAPPA_FLOOR:.3g}"
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


def position_cross(p, d1):
    """alpha x alpha' and its magnitude, from points and first derivatives."""
    cross = np.cross(p, d1)
    return cross, np.linalg.norm(cross, axis=-1)


def _adaptive_simpson_segments(f, nodes, values, tol):
    """Per-interval integrals of f over consecutive nodes, adaptive Simpson.

    values is f(nodes).  Each interval is refined by panel doubling until
    the Simpson update is below its share of tol, or below eight rounding
    units of its own integral, then Richardson-extrapolated.  Every level
    keeps its samples, so a doubling evaluates f only at its new odd points;
    the first level evaluates the midpoints and any end where
    a + (b - a) * frac misses the node bitwise.  f sees at most
    _SIMPSON_BLOCK points per call.  An interval whose update is not finite
    stops at once: refining cannot mend it.
    """
    a = nodes[:-1]
    b = nodes[1:]
    width = b - a
    tol_i = np.maximum(tol * width / (nodes[-1] - nodes[0]), 1e-300)

    def simpson(y, w):
        h = w / (y.shape[1] - 1)
        odd = y[:, 1::2].sum(axis=1)
        even = y[:, 2:-1:2].sum(axis=1)
        return h / 3.0 * (y[:, 0] + y[:, -1] + 4 * odd + 2 * even)

    x = a[:, None] + width[:, None] * np.linspace(0.0, 1.0, 3)
    y = np.stack([values[:-1], values[:-1], values[1:]], axis=1)
    fresh = x.view(np.int64) != np.stack([a, a, b], axis=1).view(np.int64)
    fresh[:, 1] = True
    y[fresh] = _blocked(f, x[fresh])
    prev = simpson(y, width)
    out = np.empty_like(prev)
    active = np.ones(a.size, dtype=bool)
    panels = 2
    for _ in range(14):
        idx = np.flatnonzero(active)
        frac = np.linspace(0.0, 1.0, 2 * panels + 1)[1::2]
        x = a[idx, None] + width[idx, None] * frac
        fine = np.empty((idx.size, 2 * panels + 1))
        fine[:, ::2] = y
        fine[:, 1::2] = _blocked(f, x.ravel()).reshape(x.shape)
        cur = simpson(fine, width[idx])
        err = np.abs(cur - prev[idx])
        # no interval is asked for less than its own rounding: an absolute
        # tol alone would refine a large-scale integrand through every level
        floor = 8.0 * np.finfo(float).eps * np.abs(cur)
        done = ~(err > 15.0 * np.maximum(tol_i[idx], floor))
        out[idx[done]] = cur[done] + (cur[done] - prev[idx][done]) / 15.0
        prev[idx] = cur
        active[idx[done]] = False
        y = fine[~done]
        if not active.any():
            break
        panels *= 2
    else:
        out[active] = prev[active]
    return out


def _blocked(f, x):
    """f(x) of 1-D x, called on at most _SIMPSON_BLOCK points at a time."""
    out = np.empty(x.size)
    for start in range(0, x.size, _SIMPSON_BLOCK):
        out[start:start + _SIMPSON_BLOCK] = f(x[start:start + _SIMPSON_BLOCK])
    return out


def reparametrize_arclength(curve):
    """Arc-length reparametrization of a regular closed-form curve.

    A node table raises ValueError: its parameter is arc length by contract.
    The speed is scanned on 2049 points; an already unit-speed curve is
    returned unchanged.  Otherwise the scan becomes the even nodes of a
    4097-node speed table, whose odd nodes are evaluated once.  Adaptive
    Simpson quadrature of the speed, seeded with that table, gives the
    cumulative length, and the inverse map is a monotone Hermite table with
    slopes 1/speed.  Arc length counts from the first table node, one stencil
    margin inside a finite-difference curve's domain.  Analytic input jets
    are chain-ruled so the result keeps analytic derivative quality.
    """
    if curve.nodes is not None:
        raise ValueError("a node table is not reparametrized: its parameter "
                         "must be arc length")
    s0, s1 = curve.domain

    def speeds(q):
        return np.linalg.norm(curve.derivative(q, 1), axis=-1)

    m = curve.fd_margin(1)
    scan = np.linspace(s0 + m, s1 - m, 2049)
    v = speeds(scan)
    if not np.all(np.isfinite(v)):
        raise SingularSpeed("speed is not finite on the parameter domain")
    vmax = float(np.max(v))
    floor = 1e-12 * max(1.0, vmax)
    if float(np.min(v)) < floor:
        raise SingularSpeed(
            f"speed {float(np.min(v)):.3g} below regularity threshold {floor:.3g} "
            f"(1e-12 times the largest speed, {vmax:.3g})"
        )
    # already unit speed up to the derivative noise of the mode: keep the
    # curve (and, for sampled curves, its node grid and parameter labels)
    if float(np.max(np.abs(v - 1.0))) < UNIT_TOL[curve.derivative_mode]:
        return curve

    # the scan is bitwise the even nodes of the 4097-node grid
    tau_nodes = np.linspace(s0 + m, s1 - m, 4097)
    table = np.empty(tau_nodes.size)
    table[::2] = v
    table[1::2] = speeds(tau_nodes[1::2])
    seg = _adaptive_simpson_segments(speeds, tau_nodes, table, _ARCLENGTH_TOL)
    # the result starts at the first table node's point and keeps its label,
    # so affine fits in s read the same before and after
    a0 = tau_nodes[0]
    s_table = a0 + np.concatenate([[0.0], np.cumsum(seg)])
    total = float(s_table[-1] - s_table[0])
    slopes = 1.0 / table

    def inverse(q):
        return jt.hermite(s_table, tau_nodes, slopes, np.clip(q, s_table[0], s_table[-1]))

    def evaluator(q):
        return curve.evaluate(inverse(q))

    jet = None
    if curve.derivative_mode == "analytic":
        base_jet = curve.jet

        def jet(q, order):
            return jt.jet_reparametrize(base_jet(inverse(q), order))

    return SpaceCurve(evaluator, (a0, a0 + total), jet=jet)


# ----------------------------------------------------------------------
# CSV interchange: one header line, then rows of shortest round-trip decimals


# rows per block of CSV text: bounds the writer's lanes and slot rows
TABLE_BLOCK_ROWS = 512
# largest |value| of a curve CSV: one row of 1e153 in a 256-row curve
# already overflows a stencil product, and 1e155 overflows |point|
CURVE_VALUE_MAX = 1e150


def table_chunks(header, *columns):
    """CSV text of 1-D columns and (n, k) column blocks, each value as repr() writes it.

    Yields the header line, then blocks of at most TABLE_BLOCK_ROWS rows,
    each stacked from the columns and written by floattext.block_text as
    it is read, so a writer holds one block of the table at a time.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    yield header + "\n"
    # up to the longest column, so a shorter one fails column_stack
    for start in range(0, max(map(len, columns)), TABLE_BLOCK_ROWS):
        yield block_text(np.column_stack([c[start:start + TABLE_BLOCK_ROWS] for c in columns]))


def write_text(path, chunks):
    """Write the text chunks to a temp file beside path, then replace path with it.

    A failure while the chunks are read leaves path as it was and no temp
    file behind.  The file gets the mode a plain open would give it, 0o666
    less the umask, not mkstemp's owner-only 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conegeo-")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            umask = os.umask(0o022)  # reading the umask means setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_table(path, header):
    """Rows of a CSV file under the given header line, shape (n, columns).

    Blank lines are skipped and `#` is data, not a comment.  There must be
    at least one row, every value must be finite and the first column
    strictly increasing.  Each value is the double float() reads from its
    text.  A file as table_chunks writes it takes the canonical route
    (_read_canonical); every other file, and every file that route
    declines, is read by np.loadtxt, with the same values and errors.
    """
    data = _read_canonical(path, header)
    if data is None:
        data = _read_table_loadtxt(path, header)
    _check_values(path, data, np.isfinite(data), "non-finite value")
    if np.any(np.diff(data[:, 0]) <= 0.0):
        raise ValueError(f"{path}: parameter column must be strictly increasing")
    return data


# bytes per block of the canonical route; a block is cut after its last
# newline, so a row of 64 KiB or more sends the file to loadtxt
_READ_BLOCK = 1 << 16
# the bytes of a fixed-notation block; a canonical block may add these
_FIXED_BYTES = b"0123456789.-,\n"
_EXPONENT_BYTES = b"eE+"
# a double at most this small is read again: its rounding error may fall
# below the subnormal grid, where the midpoint test cannot see it
_TINY = 2.0**-1021
# 10**0 .. 10**27, each exact in a 64-bit significand (5**27 < 2**63); the
# fixed-point path needs a long double that holds them, as x86-64 and
# aarch64 Linux have, and leaves every block to strtold elsewhere
_POW10 = np.cumprod([1] + [10] * 27, dtype=np.longdouble)
_FIXED_POINT = np.finfo(np.longdouble).nmant >= 63
# a mantissa below this cannot be the int64 parser's saturated
# LONG_MAX, which it returns for an overflow of either sign
_MANTISSA_MAX = 10**18


def _read_canonical(path, header):
    """The (n, columns) table of a canonical CSV file, or None for any other file.

    Canonical: line 1 is exactly the header, and the body holds only the
    bytes of _CANONICAL_BYTES in rows of exactly `columns` fields; the
    final newline is optional.  A first pass counts the rows, so the table
    is allocated once; the second reads the body in blocks of about
    _READ_BLOCK bytes.  Returns None on the first block that breaks the
    grammar or that numpy does not read to its end.
    """
    import warnings  # local: only this route needs it, and the interpreter loaded it at start-up

    width = header.count(",") + 1
    head = header.encode("ascii") + b"\n"
    with open(path, "rb") as fh:
        if fh.read(len(head)) != head:
            return None
        rows, last = 0, b"\n"
        while chunk := fh.read(_READ_BLOCK):
            rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
            last = chunk[-1:]
        rows += last != b"\n"
        if not rows:
            return None
        fh.seek(len(head))
        data = np.empty((rows, width))
        flat = data.reshape(-1)
        done = 0
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            # older numpy warns, where newer numpy raises, on text fromstring
            # cannot read to its end
            warnings.simplefilter("error", DeprecationWarning)
            while block := fh.read(_READ_BLOCK):
                if len(block) == _READ_BLOCK:  # the next read starts after the last newline
                    cut = block.rfind(b"\n") + 1
                    if not cut:
                        return None
                    fh.seek(cut - len(block), 1)
                    block = block[:cut]
                elif not block.endswith(b"\n"):
                    block += b"\n"
                done = _read_block(block, width, flat, done)
                if done is None:
                    return None
    return data if done == flat.size else None


def _read_block(block, width, flat, done):
    """Read whole rows of canonical text into flat[done:]; the new count, or None.

    Each field becomes a long double L correctly rounded to p >= 64 bits:
    by _read_fixed when the block has no exponent field, else by the C
    library's strtold (np.fromstring with dtype longdouble).  L is rounded
    to float64.  A double midpoint (54 bits) cannot lie strictly between L
    and the decimal, so the rounding is float()'s unless L is itself a
    midpoint (double rounding; Clinger, "How to read floating point numbers
    accurately", PLDI 1990).  float() reads those fields again, and every
    nonzero one that rounds to infinity or to at most _TINY.  The caller
    suppresses numpy's floating-point errors.
    """
    rest = block.translate(None, _FIXED_BYTES)
    if rest.translate(None, _EXPONENT_BYTES):
        return None
    text = block.replace(b"\n", b",")
    chars = np.frombuffer(text, np.uint8)
    seps = np.flatnonzero(chars == 44)
    ends = np.frombuffer(block, np.uint8)[seps] == 10
    rows = seps.size // width
    if (seps.size != rows * width or np.count_nonzero(ends) != rows
            or not ends[width - 1::width].all()):
        return None
    values = None if rest or not _FIXED_POINT else _read_fixed(text, chars, seps)
    if values is None:
        try:
            values = np.fromstring(text, sep=",", dtype=np.longdouble)
        except (ValueError, DeprecationWarning):
            return None
    if values.size != seps.size or done + values.size > flat.size:
        return None
    out = flat[done:done + values.size]
    out[...] = values
    # L - out, exact in long double: twice it is the gap to the next double
    # exactly when L is a midpoint, and it is 0 where L is out's own value
    values -= out
    r = values.astype(np.float64)
    size = np.abs(out)
    redo = (r != 0) & ((out + 2 * r) - out == 2 * r)
    redo |= ~((size > _TINY) & (size < np.inf))
    redo = np.flatnonzero(redo)
    for i in redo[values[redo] != 0]:
        out[i] = float(text[seps[i - 1] + 1 if i else 0:seps[i]])
    return done + out.size


def _read_fixed(text, chars, seps):
    """Long doubles of a block whose every field is -?D+.D+, or None to leave it to strtold.

    text is the block with commas for its newlines, chars its bytes and
    seps the offset of the comma that ends each field.  A field is m / 10**f:
    m its digits without the dot, read by numpy's int64 parser, and f the
    count of digits after the dot.  Both are exact in a 64-bit significand
    when |m| < _MANTISSA_MAX and f <= 27, so the one division is the decimal
    correctly rounded, the long double strtold gives.  Any other block is
    declined.
    """
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    minus = chars[starts] == 45
    dots = np.flatnonzero(chars == 46)
    if dots.size != seps.size:
        return None
    # one dot per field, then, with a digit on each side of it
    if not ((starts + minus < dots) & (dots < seps - 1)).all():
        return None
    # and no minus sign but a field's first byte
    if np.count_nonzero(chars == 45) != np.count_nonzero(minus):
        return None
    frac = seps - dots - 1
    del starts, dots  # freed: the division below is the block's memory peak
    if frac.max() > 27:
        return None
    m = np.fromstring(text.replace(b".", b""), sep=",", dtype=np.int64)
    if m.size != seps.size or not ((m > -_MANTISSA_MAX) & (m < _MANTISSA_MAX)).all():
        return None
    values = m.astype(np.longdouble)
    values /= _POW10[frac]
    values[minus & (m == 0)] = -0.0
    return values


def _read_table_loadtxt(path, header):
    """The table of any CSV file under the header, by np.loadtxt; read_table's other route."""
    width = header.count(",") + 1
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = iter(fh.readline, "")
            if next((ln for ln in lines if ln.strip()), "").strip() != header:
                raise ValueError(f"{path}: expected header {header!r}")
            start = fh.tell()
            if not any(ln.strip() for ln in lines):  # loadtxt warns on a file without rows
                raise ValueError(f"{path}: no data rows")
            fh.seek(start)
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    except UnicodeDecodeError:
        # the decoder fails a whole chunk at once, so find the byte's row again
        raise ValueError(f"{path}: {_non_ascii(path, header)}") from None
    if data.shape[1] != width:
        words = {3: "three", 4: "four"}
        raise ValueError(f"{path}: expected {words.get(width, width)} columns per row")
    return data


def _non_ascii(path, header):
    """Where the file's first non-ASCII byte is, in the words of the other CSV errors.

    Rows are counted as loadtxt counts them: the lines that are not blank,
    the header first.  A header line with such a byte is not the header.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        row = -1
        for line in fh:
            row += bool(line.strip())
            # surrogateescape reads byte 0xNN, NN >= 80, as U+DCNN
            col = next((i for i, ch in enumerate(line) if ch >= "\udc80"), None)
            if col is not None:
                break
    if row < 1:
        return f"expected header {header!r}"
    return (f"non-ASCII byte {ord(line[col]) - 0xdc00:#04x} in data row {row}, "
            f"column {line.count(',', 0, col) + 1}")


def _check_values(path, data, ok, what, tail=""):
    """Raise ValueError naming the first value, in row order, where ok is False."""
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        raise ValueError(f"{path}: {what} {float(data[row, col])} in data row {row + 1}, "
                         f"column {col + 1}{tail}")


def write_curve_csv(path, s, points):
    write_text(path, table_chunks("s,x,y,z", s, points))


def read_curve_csv(path):
    """(s, points) of a curve CSV; read_table's rules, and no value above CURVE_VALUE_MAX."""
    data = read_table(path, "s,x,y,z")
    # two comparisons, not np.abs: no float temporary the size of the table
    _check_values(path, data, (data >= -CURVE_VALUE_MAX) & (data <= CURVE_VALUE_MAX), "value",
                  f" exceeds {CURVE_VALUE_MAX:g} in magnitude")
    return data[:, 0], data[:, 1:]
