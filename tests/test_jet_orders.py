"""The jet(s, order) protocol: each jet is computed only to the order read.

Asking for fewer derivative orders must never change a bit of the slots
that are returned, so every library jet is checked against its own 4-slot
jet, and the jet algebra against its former 4-slot formulas.
"""

import itertools

import numpy as np
import pytest

from conegeo import (
    CircularCone,
    Cone,
    RectifyingParams,
    SpaceCurve,
    base_from_samples,
    circle_curve,
    circular_base,
    generate_rectifying,
    helix_curve,
    latitude_circle,
    line_curve,
    perturbed_circle_base,
    rectifying_chart,
    ruling,
    spherical_curve,
)
from conegeo import jets
from helpers import (
    assert_bitwise,
    random_unit_speed_curve,
    reference_arclength_rate_jets,
    reference_jet_compose,
    reference_jet_normalize,
    reference_jet_product,
    twisted_cubic_unit_speed,
)

ORDER_SETS = [c for r in range(1, 5) for c in itertools.combinations(range(4), r)]
PARAMS = RectifyingParams(1.3, 0.2, 0.1)


def _perturbed():
    return perturbed_circle_base(0.9, seed=5, amplitude=0.03)


def _closed_sampled():
    base = _perturbed()
    t = np.linspace(0.0, base.period, 2049)
    return base_from_samples(t, base.evaluate(t))


def _open_sampled():
    base = _perturbed()
    t = np.linspace(0.0, 3.5, 1201)
    return base_from_samples(t, base.evaluate(t))


BASES = {
    "circular": lambda: circular_base(0.7),
    "perturbed": _perturbed,
    "closed-sampled": _closed_sampled,
    "open-sampled": _open_sampled,
}

CURVES = {
    "circle": lambda: circle_curve(1.7),
    "helix": lambda: helix_curve(0.6, 0.8),
    "line": lambda: line_curve((0.1, -0.2, 0.3), (1.0, 2.0, -0.5), 2.0),
    "circular-base": lambda: circular_base(0.7).curve,
    "perturbed-base": lambda: _perturbed().curve,
    "reparametrized-trig": lambda: random_unit_speed_curve(np.random.default_rng(4)),
    "reparametrized-cubic": twisted_cubic_unit_speed,
    "spherical-circular": lambda: spherical_curve(circular_base(0.7), 1.3),
    "spherical-perturbed": lambda: spherical_curve(_perturbed(), 0.8),
    "ruling": lambda: ruling(Cone(_perturbed()), 0.4, (0.5, 2.0)),
    "latitude": lambda: latitude_circle(CircularCone(0.7), 1.2),
    "latitude-open-sampled": lambda: latitude_circle(Cone(_open_sampled()), 0.9),
    "chart-circular": lambda: generate_rectifying(PARAMS, circular_base(0.7)),
    "chart-perturbed": lambda: generate_rectifying(PARAMS, _perturbed()),
    "chart-closed-sampled": lambda: generate_rectifying(PARAMS, _closed_sampled()),
    "chart-open-sampled": lambda: generate_rectifying(RectifyingParams(1.0, 0.0, 1.75),
                                                      _open_sampled()),
}


CHARTS = {
    "rectifying": lambda: rectifying_chart(PARAMS),
}


@pytest.mark.parametrize("name", CURVES)
def test_curve_derivatives_are_slots_of_the_full_jet(name):
    curve = CURVES[name]()
    assert curve.derivative_mode == "analytic"
    s = np.linspace(*curve.domain, 37)
    full = curve.jet(s)
    assert full.shape == (4, s.size, 3)
    for orders in ORDER_SETS:
        got = curve.derivatives(s, orders)
        assert len(got) == len(orders)
        for g, k in zip(got, orders):
            assert_bitwise(g, full[k])
    for order in range(4):
        assert_bitwise(curve.jet(s, order), full[:order + 1])
    assert_bitwise(curve.evaluate(s), full[0])
    assert_bitwise(curve.evaluate(s[5]), full[0, 5])


@pytest.mark.parametrize("name", BASES)
def test_base_derivatives_are_slots_of_the_full_jet(name):
    base = BASES[name]()
    d0, d1 = base.domain
    m = base.curve.fd_margin(3)
    t = np.linspace(d0 + m, d1 - m, 41)
    if base.periodic:
        t = np.linspace(d0 - 1.0, d1 + 1.0, 41)  # across the seam
    full = base.jet(t)
    assert full.shape == (4, t.size, 3)
    for orders in ORDER_SETS:
        for g, k in zip(base.derivatives(t, orders), orders):
            assert_bitwise(g, full[k])
    for order in range(4):
        assert_bitwise(base.jet(t, order), full[:order + 1])


@pytest.mark.parametrize("name", CHARTS)
def test_chart_jets_are_slots_of_the_full_jet(name):
    chart = CHARTS[name]()
    s = np.linspace(*chart.domain, 53)
    for jet in (chart.t_jet, chart.u_jet):
        full = jet(s)
        assert full.shape == (4, s.size)
        for order in range(4):
            assert_bitwise(jet(s, order), full[:order + 1])
    assert_bitwise(chart.t_jet(s, 0)[0], chart.t_jet(s)[0])
    assert_bitwise(chart.u_jet(s, 0)[0], chart.u_jet(s)[0])


@pytest.mark.parametrize("seed", range(6))
def test_jet_algebra_matches_the_four_slot_formulas(seed):
    rng = np.random.default_rng(seed)
    n = 17
    y = rng.normal(size=(4, n, 3))
    y[0] += 2.0  # keep |y| and the speed away from zero
    y[1] += 1.5
    u = rng.normal(size=(4, n))
    t = rng.normal(size=(4, n))
    full = {
        "product": (jets.jet_product(u, y), reference_jet_product(u, y)),
        "compose": (jets.jet_compose(y, t), reference_jet_compose(y, t)),
        "normalize": (jets.jet_normalize(y), reference_jet_normalize(y)),
        "rate": (jets.arclength_rate_jets(y), reference_arclength_rate_jets(y)),
    }
    for got, want in full.values():
        assert_bitwise(got, want)
    for k in range(1, 4):
        for got in (jets.jet_product(u[:k], y[:k]), jets.jet_product(u, y[:k])):
            assert_bitwise(got, full["product"][1][:k])
        for got in (jets.jet_compose(y[:k], t[:k]), jets.jet_compose(y[:k], t)):
            assert_bitwise(got, full["compose"][1][:k])
        assert_bitwise(jets.jet_normalize(y[:k]), full["normalize"][1][:k])
        assert_bitwise(jets.arclength_rate_jets(y[:k]), full["rate"][1][:k])
        assert_bitwise(jets.jet_reparametrize(y[:k]),
                       reference_jet_compose(y, reference_arclength_rate_jets(y))[:k])


BAD_ORDERS = [(), (-1,), (4,), (0, 4), (1.5,), (2, -1)]


@pytest.mark.parametrize("orders", BAD_ORDERS, ids=repr)
def test_derivatives_refuse_orders_outside_0_to_3(orders):
    t = np.linspace(0.0, 2 * np.pi, 257)
    sampled = SpaceCurve.from_samples(t, circle_curve().evaluate(t))
    assert sampled.derivative_mode == "finite-difference"
    targets = [
        (circle_curve(), 1.0),
        (sampled, 1.0),
        (circular_base(0.7), 0.5),   # periodic, analytic
        (_closed_sampled(), 0.5),    # periodic, stencil wrapped by the base
        (_open_sampled(), 1.5),
    ]
    for curve, s in targets:
        for arg in (s, np.array([s, s + 0.1])):
            with pytest.raises(ValueError, match=r"non-empty subset of 0\.\.3"):
                curve.derivatives(arg, orders)


def test_perturbed_base_sends_only_two_slot_jets_to_normalize(monkeypatch):
    # the raw jet is read for the speed only (2 slots) and for points (1 slot,
    # the base's 257-point sphere check), never to its full 4 slots
    calls = []
    plain = jets.jet_normalize

    def counted(vector_jet):
        calls.append((len(vector_jet), np.shape(vector_jet)[1]))
        return plain(vector_jet)

    monkeypatch.setattr(jets, "jet_normalize", counted)
    _perturbed()
    assert {k for k, _ in calls} == {1, 2}
    assert sum(n for k, n in calls if k == 1) == 257
    # scan 2049, odd table nodes 2048, Simpson levels 4096 and 8192, and the
    # base's own 257-point unit-speed check
    assert sum(n for k, n in calls if k == 2) == 16642


def test_custom_jet_with_more_slots_than_asked_for():
    # a jet may return more than order + 1 slots; derivatives reads the ones asked for
    hx = helix_curve(0.6, 0.8)
    four = SpaceCurve(lambda s, order: hx.jet(s), hx.domain)
    s = np.linspace(1.0, 5.0, 9)
    for orders in ORDER_SETS:
        for g, k in zip(four.derivatives(s, orders), orders):
            assert_bitwise(g, hx.jet(s)[k])


def test_chart_point_reads_one_base_evaluation(monkeypatch):
    # a point of a generated curve is u times y(t): no composition, and on a
    # sampled base no stencil taps beyond offset 0
    base = _closed_sampled()
    curve = generate_rectifying(PARAMS, base)
    composed = []
    monkeypatch.setattr(jets, "jet_compose", lambda *a: composed.append(1))
    taps = []
    plain_eval = base.evaluate

    def counted(t):
        taps.append(np.size(t))
        return plain_eval(t)

    monkeypatch.setattr(base, "evaluate", counted)
    s = np.linspace(*curve.domain, 64)
    curve.evaluate(s)
    assert composed == []
    assert taps == [64]
