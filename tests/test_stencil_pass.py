"""One evaluator call per stencil pass, and the Hermite kernel that serves it.

`jets.fd_derivatives` evaluates all its stencil offsets in one call and
`jets.hermite` accumulates its four terms into one array.  Both must be
bitwise equal to the forms they replaced, kept in helpers as
reference_fd_derivatives (one call per offset, with sympy's exact weights
rounded once, not the jets table) and reference_hermite.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conegeo import (
    CircularCone,
    Cone,
    SpaceCurve,
    base_from_samples,
    chart_points,
    circular_base,
    develop,
    perturbed_circle_base,
    sample_grid,
)
from conegeo import jets
from conegeo.cli import main
from conegeo.curves import read_curve_csv, write_curve_csv
from helpers import (
    assert_bitwise,
    count_vector_hermite_calls,
    reference_fd_derivatives,
    reference_hermite,
    reparametrized_fd_curve,
)

_HYP = settings(max_examples=60, deadline=None, derandomize=True)
# every non-empty subset of 0..3, and every caller order of each
SUBSETS = [c for r in range(1, 5) for c in itertools.combinations(range(4), r)]
ORDER_SETS = [p for r in range(1, 5) for p in itertools.permutations(range(4), r)]


def _nodes(gaps, uniform):
    steps = np.full(len(gaps), gaps[0]) if uniform else np.asarray(gaps)
    return np.concatenate([[-0.3], -0.3 + np.cumsum(steps)])


def _assert_same(got, want):
    assert type(got) is type(want)
    assert_bitwise(got, want)


@_HYP
@given(gaps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
       uniform=st.booleans(), vector=st.booleans(), seed=st.integers(0, 2**32 - 1),
       where=st.lists(st.floats(-0.5, 1.5), max_size=20),
       at=st.lists(st.integers(0, 30), max_size=6))
def test_hermite_matches_reference_bitwise(gaps, uniform, vector, seed, where, at):
    s = _nodes(gaps, uniform)
    rng = np.random.default_rng(seed)
    shape = (s.size, 3) if vector else (s.size,)
    values, slopes = rng.normal(size=shape), rng.normal(size=shape)
    for table in (values, slopes):
        table[rng.random(shape) < 0.2] = rng.choice([0.0, -0.0])
    # between and beyond the nodes, then at nodes
    q = np.concatenate([s[0] + (s[-1] - s[0]) * np.asarray(where, dtype=float),
                        s[np.asarray(at, dtype=int) % s.size]])
    scalar = q[0] if q.size else s[-1]
    for query in (q, q[:0], scalar, float(scalar)):
        _assert_same(jets.hermite(s, values, slopes, query),
                     reference_hermite(s, values, slopes, query))


def _poly(q):
    # products and sums only: elementwise and exactly rounded on every platform
    return np.stack([q * q * q - q, 0.5 * q * q + 2.0, 1.0 / (1.0 + q * q)], axis=-1)


@_HYP
@given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), scalar=st.booleans(),
       h=st.sampled_from([1e-3, 0.05]))
def test_fd_derivatives_match_reference_bitwise(n, seed, scalar, h):
    s = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    if scalar:
        s = s[0] if n else np.float64(0.25)
    for orders in ORDER_SETS:
        got = jets.fd_derivatives(_poly, s, orders, h)
        want = reference_fd_derivatives(_poly, s, orders, h)
        assert len(got) == len(orders)
        for g, w in zip(got, want):
            assert_bitwise(g, w)


def _check_pass(derivatives, oracle, q, h):
    for orders in SUBSETS:
        for g, w in zip(derivatives(q, orders), reference_fd_derivatives(oracle, q, orders, h)):
            assert_bitwise(g, w)


@_HYP
@given(gaps=st.lists(st.floats(0.02, 0.3), min_size=12, max_size=60),
       uniform=st.booleans(), seed=st.integers(0, 2**32 - 1),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_sampled_curve_derivatives_match_reference(gaps, uniform, seed, where):
    s = _nodes(gaps, uniform)
    pts = np.random.default_rng(seed).normal(size=(s.size, 3))
    curve = SpaceCurve.from_samples(s, pts)
    slopes = jets.node_slopes(s, pts)
    m = curve.fd_margin(3)
    q = s[0] + m + (s[-1] - s[0] - 2 * m) * np.asarray(where)
    _check_pass(curve.derivatives, lambda x: reference_hermite(s, pts, slopes, x), q, curve.h)


_CLOSED_T = np.linspace(0.0, circular_base(0.8).period, 1025)
_CLOSED = base_from_samples(_CLOSED_T, circular_base(0.8).evaluate(_CLOSED_T))


@_HYP
@given(where=st.lists(st.floats(-0.02, 0.02), min_size=1, max_size=20),
       turns=st.integers(-1, 2))
def test_periodic_sampled_base_across_its_seam(where, turns):
    base = _CLOSED
    t_nodes, pts = base.curve.nodes
    slopes = jets.node_slopes(t_nodes, pts)

    def wrapped(x):
        return reference_hermite(t_nodes, pts, slopes,
                                 t_nodes[0] + np.mod(x - t_nodes[0], base.period))

    q = base.period * (turns + np.asarray(where))
    _check_pass(base.derivatives, wrapped, q, base.curve.h)


# a closed-form curve whose speed is not 1, so reparametrize_arclength rebuilds it
_REP = reparametrized_fd_curve()


@_HYP
@given(where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_reparametrized_finite_difference_curve(where):
    rep = _REP
    assert rep.derivative_mode == "finite-difference" and rep.nodes is None
    m = rep.fd_margin(3)
    q = rep.domain[0] + m + (rep.length - 2 * m) * np.asarray(where)
    _check_pass(rep.derivatives, rep.evaluate, q, rep.h)


# ----------------------------------------------------------------------
# count guards


def test_sampled_jet_is_one_hermite_call(monkeypatch):
    s = np.linspace(0.0, 2.0, 201)
    curve = SpaceCurve.from_samples(s, np.stack([np.cos(s), np.sin(s), s], axis=-1))
    q = sample_grid(curve, 64)
    calls = count_vector_hermite_calls(monkeypatch)
    curve.derivatives(q, (0, 1, 2, 3))
    assert calls == [7 * q.size]


def test_chart_t_evaluates_the_base_once_per_newton_iteration(monkeypatch):
    full = perturbed_circle_base(0.8, seed=12, amplitude=0.04)
    t = np.linspace(0.0, full.period, 2049)
    pts = full.evaluate(t)
    pts[-1] = pts[0]
    cone = Cone(base_from_samples(t, pts))
    base = cone.base
    counts = {"evaluate": 0, "derivatives": 0}
    for name in counts:
        plain = getattr(base, name)

        def counted(*args, _name=name, _plain=plain):
            counts[_name] += 1
            return _plain(*args)

        monkeypatch.setattr(base, name, counted)
    cone.chart_t(full.evaluate(np.linspace(0.3, 4.5, 40)))
    assert counts["derivatives"] >= 1
    assert counts["evaluate"] == 1 + counts["derivatives"]


# ----------------------------------------------------------------------
# node-exact development


def _minus_zero_curve():
    # points on the psi0 = 0.7 cone whose first node has y = -0.0 exactly
    cone = CircularCone(0.7)
    s = np.linspace(0.0, 1.0, 65)
    pts = cone.base.evaluate(0.5 * s) * (1.0 + s)[:, None]
    pts[0, 1] = -0.0
    return cone, s, pts


def test_development_at_the_nodes_reads_the_chart_samples():
    cone, s, pts = _minus_zero_curve()
    t, u = chart_points(cone, pts)
    assert np.signbit(t[0]) and t[0] == 0.0
    nodes = develop(t, u)
    assert_bitwise(nodes, np.stack([u * np.cos(t), u * np.sin(t)], axis=-1))
    assert np.signbit(nodes[0, 1])
    # Hermite passes return the node data bitwise, except this -0.0 sample
    hermite = develop(*(jets.hermite(s, v, jets.node_slopes(s, v), s) for v in (t, u)))
    assert_bitwise(hermite[1:], nodes[1:])
    assert hermite[0, 1] == 0.0 and not np.signbit(hermite[0, 1])


def test_develop_command_writes_the_developed_samples(tmp_path):
    cone, s, pts = _minus_zero_curve()
    (tmp_path / "cone.json").write_text(json.dumps({"kind": "circular", "psi0": 0.7}))
    write_curve_csv(tmp_path / "curve.csv", s, pts)
    out = tmp_path / "dev.csv"
    assert main(["develop", "--cone", str(tmp_path / "cone.json"),
                 "--in", str(tmp_path / "curve.csv"), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[2] == "-0.0"
    planar = develop(*chart_points(cone, pts))
    assert_bitwise(np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:], planar)


def _generated(tmp_path):
    """A 256-row generate output on the psi0 = 0.8 circular cone, and that cone."""
    curve, cone = tmp_path / "g.csv", tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "circular", "psi0": 0.8}))
    assert main(["generate", "--a=1.2", "--b=0.3", "--c=0.1", "--psi0=0.8",
                 "--samples=256", "--out", str(curve)]) == 0
    return curve, cone


def _assert_develops_its_rows(tmp_path, cone, s, pts):
    # the rows as read back, each developed from its own chart point
    curve, out = tmp_path / "in.csv", tmp_path / "dev.csv"
    write_curve_csv(curve, s, pts)
    assert main(["develop", "--cone", str(cone), "--in", str(curve), "--out", str(out)]) == 0
    s, pts = read_curve_csv(curve)
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert_bitwise(rows[:, 0], s)
    assert_bitwise(rows[:, 1:], develop(*chart_points(CircularCone(0.8), pts)))


def test_develop_command_takes_a_nonuniform_grid(tmp_path):
    # every third row dropped; a sampled chart of these rows would need a uniform grid
    curve, cone = _generated(tmp_path)
    s, pts = read_curve_csv(curve)
    keep = np.arange(s.size) % 3 != 2
    _assert_develops_its_rows(tmp_path, cone, s[keep], pts[keep])


@pytest.mark.parametrize("rows", range(1, 7))
def test_develop_command_takes_fewer_rows_than_a_chart_stencil(tmp_path, rows):
    curve, cone = _generated(tmp_path)
    s, pts = read_curve_csv(curve)
    _assert_develops_its_rows(tmp_path, cone, s[:rows], pts[:rows])


def _count(monkeypatch, name):
    calls = []
    plain = getattr(jets, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return plain(*args, **kwargs)

    monkeypatch.setattr(jets, name, counted)
    return calls


def test_develop_builds_no_interpolant(tmp_path, monkeypatch):
    curve, cone = _generated(tmp_path)
    slopes, hermite = _count(monkeypatch, "node_slopes"), _count(monkeypatch, "hermite")
    out = tmp_path / "dev.csv"
    assert main(["develop", "--cone", str(cone), "--in", str(curve), "--out", str(out)]) == 0
    assert slopes == [] and hermite == []


def test_verify_builds_one_interpolant(tmp_path, monkeypatch):
    # the curve's node slopes and its one stencil pass; the chart is point arrays
    curve, cone = _generated(tmp_path)
    slopes, hermite = _count(monkeypatch, "node_slopes"), _count(monkeypatch, "hermite")
    rep = tmp_path / "rep.json"
    assert main(["verify", "--cone", str(cone), "--in", str(curve), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["verdict"] == "geodesic"
    assert len(slopes) == 1 and len(hermite) == 1
