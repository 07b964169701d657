import re

import numpy as np
import pytest

from conegeo import (
    GATES,
    CircularCone,
    Cone,
    GeodesicIVP,
    RectifyingParams,
    SpaceCurve,
    base_from_samples,
    chart_points,
    circular_base,
    cross_check_circular_cone,
    default_s_domain,
    develop,
    fit_slant_axis,
    generate_circular_geodesic,
    generate_rectifying,
    geodesic_curvature,
    integrate_geodesic,
    latitude_circle,
    line_fit,
    perturbed_circle_base,
    rectifying_chart,
    ruling,
    sample_curve,
    sample_grid,
    verify_geodesic,
)
from conegeo import geodesics as geodesics_module
from conegeo.classify import LABEL_RECTIFYING, SlantAxisFit, classify_rectifying_or_spherical
from conegeo.errors import (
    BaseDomainExceeded,
    InsufficientSamples,
    InvalidHalfAngle,
    NotOnCone,
    StepTooLarge,
    VertexApproach,
)
from helpers import count_curve_jet_passes, count_vector_hermite_calls, reference_integrate


# ----------------------------------------------------------------------
# generate_rectifying / generate_circular_geodesic


def test_generate_starts_on_base():
    base = circular_base(0.8)
    cur = generate_rectifying(RectifyingParams(1.0, 0.0, 0.0), base)
    assert np.allclose(cur.evaluate(0.0), base.evaluate(0.0), atol=1e-14)


def test_generate_norm_profile():
    params = RectifyingParams(2.0, 1.0, 0.3)
    cur = generate_circular_geodesic(params, 0.7)
    s = np.linspace(*cur.domain, 257)
    norms = np.linalg.norm(cur.evaluate(s), axis=-1)
    w = params.a * s + params.b
    assert np.max(np.abs(norms - np.sqrt(1 + w**2) / params.a)) < 1e-12
    s_star = -params.b / params.a
    assert abs(np.linalg.norm(cur.evaluate(s_star)) - 1 / params.a) < 1e-12
    assert np.min(norms) >= 1 / params.a - 1e-12


def test_generate_unit_speed_numerically():
    cur = generate_circular_geodesic(RectifyingParams(2.0, 1.0, 0.0), 0.9)
    s = np.linspace(*cur.domain, 129)
    # independent check: difference quotients of evaluated positions
    h = 1e-5
    mask = (s > cur.domain[0] + h) & (s < cur.domain[1] - h)
    s = s[mask]
    speed = np.linalg.norm(cur.evaluate(s + h) - cur.evaluate(s - h), axis=-1) / (2 * h)
    assert np.max(np.abs(speed - 1.0)) < 1e-8


def test_generate_rejects_small_base_domain():
    base = circular_base(0.9)
    t = np.linspace(0.0, 0.8, 400)
    arc = base_from_samples(t, base.evaluate(t))  # aperiodic arc segment
    with pytest.raises(BaseDomainExceeded):
        generate_rectifying(RectifyingParams(1.0, 0.0, 0.4), arc)


def test_circular_geodesic_start_point():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 4)
    assert np.allclose(cur.evaluate(0.0), [np.sqrt(2) / 2, 0.0, np.sqrt(2) / 2])


def test_circular_geodesic_is_slant_and_rectifying():
    psi0 = 0.6
    cur = generate_circular_geodesic(RectifyingParams(1.7, -0.8, 0.2), psi0)
    fit = fit_slant_axis(sample_curve(cur))
    assert abs(abs(fit.cos_angle_mean) - np.sin(psi0)) < 1e-5
    assert fit.residual < 1e-5
    rep = classify_rectifying_or_spherical(sample_curve(cur))
    assert rep.label == LABEL_RECTIFYING
    assert abs(rep.fitted_a - 1.7) < 1e-6
    assert abs(rep.fitted_b + 0.8) < 1e-6


def test_invalid_half_angle():
    with pytest.raises(InvalidHalfAngle):
        generate_circular_geodesic(RectifyingParams(1.0), 2.0)
    for make in (CircularCone, circular_base, perturbed_circle_base):
        for psi0 in (0.0, np.pi / 2, -0.3, float("nan")):
            with pytest.raises(InvalidHalfAngle, match="must lie strictly between 0 and pi/2"):
                make(psi0)
    with pytest.raises(ValueError):
        RectifyingParams(-1.0)


# ----------------------------------------------------------------------
# GeodesicIVP and integrate_geodesic


def test_ivp_normalization_reported():
    ivp = GeodesicIVP(t0=0.0, u0=2.0, dt0=0.3, du0=0.8, length=1.0)
    assert abs(ivp.u0**2 * ivp.dt0**2 + ivp.du0**2 - 1.0) < 1e-12
    assert abs(ivp.normalization - np.hypot(0.6, 0.8)) < 1e-12


def test_integrate_radial_is_ruling():
    cone = CircularCone(0.8)
    ivp = GeodesicIVP(t0=0.4, u0=1.0, dt0=0.0, du0=1.0, length=2.0)
    chart = integrate_geodesic(cone, ivp)
    s, t, u = chart.s, chart.t, chart.u
    assert np.max(np.abs(t - 0.4)) == 0.0
    assert np.max(np.abs(u - (1.0 + s))) < 1e-12


def test_integrate_matches_closed_form():
    params = RectifyingParams(1.0, 0.0, 0.0)
    chart0 = rectifying_chart(params, (0.0, 5.0))
    ivp = GeodesicIVP(
        t0=float(chart0.t_jet(0.0, 0)[0][0]),
        u0=float(chart0.u_jet(0.0, 0)[0][0]),
        dt0=float(chart0.t_jet(0.0)[1][0]),
        du0=float(chart0.u_jet(0.0)[1][0]),
        length=5.0,
    )
    cone = CircularCone(np.pi / 4)
    chart = integrate_geodesic(cone, ivp, h=1e-3)
    s = chart.s
    assert np.max(np.abs(chart.t - chart0.t_jet(s, 0)[0])) < 1e-6
    assert np.max(np.abs(chart.u - chart0.u_jet(s, 0)[0])) < 1e-6


def test_integrate_clairaut_conservation():
    cone = CircularCone(0.5)
    ivp = GeodesicIVP(t0=0.0, u0=1.5, dt0=0.4, du0=-0.5, length=4.0)
    chart = integrate_geodesic(cone, ivp, h=1e-3)
    C = chart.u**2 * chart.dt
    assert (C.max() - C.min()) / abs(C.mean()) < 1e-9 * max(1.0, 4.0)
    # chart speed hypot(u', u t') stays unit at every node
    assert np.max(np.abs(np.hypot(chart.du, chart.u * chart.dt) - 1.0)) < 1e-9


def test_integrate_develops_straight():
    cone = CircularCone(0.9)
    ivp = GeodesicIVP(t0=0.2, u0=2.0, dt0=0.3, du0=-0.6, length=3.0)
    chart = integrate_geodesic(cone, ivp)
    pts = develop(chart.t, chart.u)
    _, _, _, residual, _ = line_fit(pts)
    assert residual < 1e-7


def test_integrate_vertex_approach():
    cone = CircularCone(0.8)
    ivp = GeodesicIVP(t0=0.0, u0=0.5, dt0=0.0, du0=-1.0, length=2.0)
    with pytest.raises(VertexApproach):
        integrate_geodesic(cone, ivp)


def test_integrate_leaves_aperiodic_base_domain():
    base0 = circular_base(0.9)
    t = np.linspace(0.0, 1.2, 600)
    arc = base_from_samples(t, base0.evaluate(t))
    cone = Cone(arc)
    ivp = GeodesicIVP(t0=0.6, u0=1.0, dt0=1.0, du0=0.0, length=3.0)
    with pytest.raises(BaseDomainExceeded):
        integrate_geodesic(cone, ivp)


def test_integrate_step_too_large():
    cone = CircularCone(0.8)
    ivp = GeodesicIVP(t0=0.0, u0=1.0, dt0=0.9, du0=0.2, length=4.0)
    with pytest.raises(StepTooLarge):
        integrate_geodesic(cone, ivp, h=0.05, drift_tol=1e-15)


def test_integrate_step_count_ceiling(monkeypatch):
    ivp = GeodesicIVP(t0=0.0, u0=1.0, dt0=0.9, du0=0.2, length=0.1)
    with pytest.raises(ValueError, match="RK4 steps"):
        integrate_geodesic(CircularCone(0.8), ivp, h=5e-324)  # length/h overflows to inf
    monkeypatch.setattr(geodesics_module, "MAX_RK4_STEPS", 100)
    assert integrate_geodesic(CircularCone(0.8), ivp, h=1e-3).s.size == 101
    with pytest.raises(ValueError, match="exceeds 100 RK4 steps"):
        integrate_geodesic(CircularCone(0.8), ivp, h=0.999e-3)


def test_integrate_nan_drift_fails_gate():
    ivp = GeodesicIVP(t0=0.0, u0=1.0, dt0=float("nan"), du0=0.2, length=0.1)
    with pytest.raises(StepTooLarge):
        integrate_geodesic(CircularCone(0.8), ivp, h=0.01)


_IVP = dict(t0=0.3, u0=1.0, dt0=0.7, du0=0.7)


@pytest.mark.parametrize("length,h", [
    (2.0, 1e-3),      # whole steps
    (2.0004, 1e-3),   # a remainder shorter than one step, not integrated
    (0.0007, 1e-3),   # no whole step: too few samples, refused
    (3.3, 0.011),     # inexact h: the running sum of steps sets s
])
@pytest.mark.parametrize("kind", ["circular", "wavy"])
def test_integrate_bitwise_equals_textbook_rk4(kind, length, h):
    cone = (CircularCone(0.8) if kind == "circular"
            else Cone(perturbed_circle_base(0.8, seed=12, amplitude=0.04)))
    ivp = GeodesicIVP(length=length, **_IVP)
    want = reference_integrate(cone, ivp, h=h)
    if want[0].size < 7:
        with pytest.raises(InsufficientSamples, match=f"got {want[0].size - 1} steps of {h:.6g} over length {want[0][-1]:.6g}$"):
            integrate_geodesic(cone, ivp, h=h)
        return
    chart = integrate_geodesic(cone, ivp, h=h)
    got = (chart.s, chart.t, chart.u, chart.dt, chart.du)
    assert got[0].size == want[0].size >= 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_integrate_errors_match_textbook_rk4():
    cases = [
        (CircularCone(0.8), GeodesicIVP(t0=0.0, u0=0.5, dt0=0.0, du0=-1.0, length=2.0),
         dict(h=1e-3)),
        (CircularCone(0.8), GeodesicIVP(t0=0.0, u0=0.5, dt0=0.1, du0=-1.0, length=2.0),
         dict(h=0.0123)),
        (CircularCone(0.8), GeodesicIVP(t0=0.0, u0=1.0, dt0=0.9, du0=0.2, length=4.0),
         dict(h=0.05, drift_tol=1e-15)),
        (CircularCone(0.8), GeodesicIVP(t0=0.0, u0=1.0, dt0=float("nan"), du0=0.2,
                                        length=0.1), dict(h=0.01)),
        # the fourth stage of the fourth step lands on u = 0.0 exactly
        (CircularCone(0.8), GeodesicIVP(t0=0.0, u0=0.004, dt0=0.0, du0=-1.0, length=0.01),
         dict(h=1e-3)),
    ]
    for cone, ivp, kw in cases:
        with pytest.raises((VertexApproach, StepTooLarge)) as want:
            reference_integrate(cone, ivp, **kw)
        with pytest.raises(want.type, match="^" + re.escape(str(want.value)) + "$"):
            integrate_geodesic(cone, ivp, **kw)


# ----------------------------------------------------------------------
# verify_geodesic


def test_verify_generated_geodesic():
    cone = CircularCone(0.75)
    cur = generate_rectifying(RectifyingParams(1.2, 0.5, -0.3), cone.base)
    rep = verify_geodesic(cone, sample_curve(cur))
    assert rep.verdict == "geodesic"
    assert rep.normal_alignment_min > 1.0 - 1e-6
    assert rep.max_abs_kg < 1e-4
    assert rep.clairaut_relvar < 1e-5
    assert rep.development_straightness_residual < 1e-6


def test_verify_latitude_circle_not_geodesic():
    cone = CircularCone(0.75)
    u0 = 2.0
    rep = verify_geodesic(cone, sample_curve(latitude_circle(cone, u0)))
    assert rep.verdict == "not-geodesic"
    assert abs(rep.max_abs_kg - 1.0 / u0) < 1e-5 / u0
    # the curvature-based and development-based oracles agree
    assert rep.development_straightness_residual > 1e-6


def test_verify_faint_curvature_above_the_floor_is_not_a_ruling():
    # max |alpha''| = 1/(u0 sin psi0) = 2.1e-6: between KAPPA_FLOOR and 1e-5
    cone = CircularCone(1.2)
    lat = latitude_circle(cone, 5e5)
    cs = sample_curve(lat)
    assert 1e-9 < float(np.max(np.linalg.norm(cs.jet[2], axis=-1))) < 1e-5
    rep = verify_geodesic(cone, cs)
    assert rep.verdict == "not-geodesic"
    assert rep.normal_alignment_min is not None


def test_verify_ruling():
    cone = CircularCone(0.75)
    rep = verify_geodesic(cone, sample_curve(ruling(cone, 0.3, (0.5, 3.0))))
    assert rep.verdict == "ruling"
    assert rep.normal_alignment_min is None
    assert rep.max_abs_kg < 1e-9
    assert rep.development_straightness_residual < 1e-9


def test_verify_rejects_off_cone_curve():
    cone = CircularCone(np.pi / 6)
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 3)
    with pytest.raises(NotOnCone):
        verify_geodesic(cone, sample_curve(cur))


def test_verify_on_general_cone():
    base = perturbed_circle_base(0.9, seed=77, amplitude=0.03)
    cone = Cone(base)
    cur = generate_rectifying(RectifyingParams(0.9, 0.2, 1.0), base)
    rep = verify_geodesic(cone, sample_curve(cur))
    assert rep.verdict == "geodesic"


def test_verify_fd_curve_takes_one_stencil_pass(monkeypatch):
    # points, d1, d2 and d3 for the gates and the frames come from the 7 taps
    # of one pass; the circular cone's base is analytic, so every counted
    # Hermite call is the curve's
    cone = CircularCone(0.75)
    closed_form = generate_rectifying(RectifyingParams(1.2, 0.5, -0.3), cone.base)
    nodes = np.linspace(*closed_form.domain, 2049)
    sampled = SpaceCurve.from_samples(nodes, closed_form.evaluate(nodes))
    calls = count_vector_hermite_calls(monkeypatch)
    rep = verify_geodesic(cone, sample_curve(sampled))
    assert len(calls) <= 7
    assert rep.verdict == "geodesic"
    kg = geodesic_curvature(cone, sampled, sample_grid(sampled, 256))
    assert rep.max_abs_kg == float(np.max(np.abs(kg)))


def test_verify_limits_override_one_gate_each():
    cone = CircularCone(0.75)
    cs = sample_curve(generate_rectifying(RectifyingParams(1.2, 0.5, -0.3), cone.base))
    rep = verify_geodesic(cone, cs)
    assert rep.verdict == "geodesic"
    assert list(GATES) == list(rep.to_dict())[:4]
    for name in GATES:
        value = getattr(rep, name)
        excess = 1.0 - value if name == "normal_alignment_min" else value
        tight = verify_geodesic(cone, cs, {name: excess / 2})
        assert tight.verdict == "not-geodesic", name
        assert tight.to_dict() == {**rep.to_dict(), "verdict": "not-geodesic"}
        assert verify_geodesic(cone, cs, {name: GATES[name][1]}) == rep
    with pytest.raises(ValueError, match="unknown gates \\['kg_tol'\\]"):
        verify_geodesic(cone, cs, {"kg_tol": 1.0})


def _bent_geodesic(eps):
    """A true geodesic with its chart angle t moved by eps times a smooth bump.

    The points stay on the cone; the bump bends the curve within it.
    """
    cone = CircularCone(0.8)
    geodesic = generate_rectifying(RectifyingParams(1.3, 0.2, 0.1), cone.base)
    s = np.linspace(*geodesic.domain, 2049)
    t, u = chart_points(cone, geodesic.evaluate(s))
    x = np.clip((s - 0.5 * (s[0] + s[-1])) / (0.25 * (s[-1] - s[0])), -1.0, 1.0)
    bent = u[:, None] * cone.base.evaluate(t + eps * np.cos(0.5 * np.pi * x) ** 4)
    return cone, sample_curve(SpaceCurve.from_samples(s, bent), 256)


@pytest.mark.parametrize("gate,limit,eps,above", [
    ("max_abs_kg", 1e-4, 1.2e-4, True),
    ("max_abs_kg", 1e-4, 1.2e-5, False),
    ("clairaut_relvar", 1e-5, 1e-5, True),
    ("clairaut_relvar", 1e-5, 1e-6, False),
    ("normal_alignment_min", 1e-5, 8e-4, True),
    ("normal_alignment_min", 1e-5, 2.5e-4, False),
    ("development_straightness_residual", 1e-6, 8e-6, True),
    ("development_straightness_residual", 1e-6, 8e-7, False),
])
def test_each_gate_decides_within_a_decade_of_its_limit(gate, limit, eps, above):
    # the gate's value on the bent geodesic lies between its default limit
    # and 10 times it (above) or a tenth of it (below); the other gates are
    # opened, so the default, 10 times and a tenth of it give these verdicts
    cone, cs = _bent_geodesic(eps)
    others = {name: 1.0 for name in GATES if name != gate}
    rep = verify_geodesic(cone, cs, others)
    value = getattr(rep, gate)
    excess = 1.0 - value if gate == "normal_alignment_min" else value
    assert (limit < excess < 10 * limit) if above else (limit / 10 < excess < limit)
    assert rep.verdict == ("not-geodesic" if above else "geodesic")
    assert verify_geodesic(cone, cs, {**others, gate: 10 * limit}).verdict == "geodesic"
    assert verify_geodesic(cone, cs, {**others, gate: limit / 10}).verdict == "not-geodesic"


def test_verify_winding_geodesic_on_narrow_cone():
    # the angular range 2*arctan(5) spans several base periods, so chart
    # extraction must unwrap t continuously across the seam
    psi0 = 0.1
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), psi0)
    windings = 2 * np.arctan(5.0) / (2 * np.pi * np.sin(psi0))
    assert windings > 4
    rep = verify_geodesic(CircularCone(psi0), sample_curve(cur))
    assert rep.verdict == "geodesic"
    base = perturbed_circle_base(0.3, seed=21, amplitude=0.01)
    cur2 = generate_rectifying(RectifyingParams(1.0, 0.0, 0.0), base)
    rep2 = verify_geodesic(Cone(base), sample_curve(cur2))
    assert rep2.verdict == "geodesic"


# ----------------------------------------------------------------------
# cross_check_circular_cone


def test_crosscheck_reference_params():
    rep = cross_check_circular_cone(1.0, 0.0, 0.0, np.pi / 4)
    assert rep.consistent
    assert rep.rectifying_ok and rep.slant_ok and rep.geodesic_ok and rep.identity_ok
    assert rep.eq_identity_residual_e3 < 1e-4
    assert rep.eq_identity_residual_random_u < 1e-4


@pytest.mark.parametrize("limit,flag", [("IDENTITY_TOL", "identity_ok"),
                                        ("SLANT_TOL", "slant_ok")])
def test_crosscheck_failing_limit_makes_it_inconsistent(monkeypatch, limit, flag):
    # the checks are strict, so a zero limit fails its own check and no other
    monkeypatch.setattr(geodesics_module, limit, 0.0)
    rep = cross_check_circular_cone(1.0, 0.0, 0.0, np.pi / 4)
    flags = ("rectifying_ok", "slant_ok", "geodesic_ok", "identity_ok")
    assert {name: getattr(rep, name) for name in flags} == {name: name != flag for name in flags}
    assert not rep.consistent


@pytest.mark.parametrize("flag,residual,ok", [
    ("slant_ok", 3e-6, True), ("slant_ok", 3e-5, False),         # SLANT_TOL = 1e-5
    ("identity_ok", 3e-5, True), ("identity_ok", 3e-4, False),   # IDENTITY_TOL = 1e-4
])
def test_crosscheck_limits_sit_between_their_neighbours(monkeypatch, flag, residual, ok):
    # each residual set a factor of 3 either side of its limit, the others as computed
    if flag == "slant_ok":
        plain = geodesics_module.fit_slant_axis

        def fit(cs):
            got = plain(cs)
            return SlantAxisFit(got.axis, got.cos_angle_mean, residual)

        monkeypatch.setattr(geodesics_module, "fit_slant_axis", fit)
    else:
        monkeypatch.setattr(geodesics_module, "classification_identity_residual",
                            lambda cs, U, report: (cs.s, np.full(cs.s.size, residual)))
    rep = cross_check_circular_cone(1.0, 0.0, 0.0, np.pi / 4)
    assert (getattr(rep, flag), rep.consistent) == (ok, ok)


def test_crosscheck_evaluates_the_curve_once(monkeypatch):
    made = []

    def record(plain):
        def make(*args):
            made.append(plain(*args))
            return made[-1]
        return make

    for name in ("CircularCone", "generate_rectifying"):
        monkeypatch.setattr(geodesics_module, name, record(getattr(geodesics_module, name)))
    passes = count_curve_jet_passes(monkeypatch)
    assert cross_check_circular_cone(1.3, 0.2, 0.1, 0.8).consistent
    cone, curve = made  # one cone, then the curve generated on its base
    # the closed-form jet chains one jet of the base circle per pass
    assert sum(c is curve for c in passes) == 1 and len(passes) == 2
    assert sum(c is cone.base.curve for c in passes) == 1


def test_crosscheck_randomized_params():
    rep = cross_check_circular_cone(3.0, -1.0, 0.5, 0.3)
    assert rep.consistent


def test_crosscheck_report_fields_flatten():
    rep = cross_check_circular_cone(1.0, 0.0, 0.0, 0.7)
    d = rep.to_dict()
    assert list(d) == [
        "label", "fitted_a", "fitted_b", "axis", "cos_angle_mean", "residual",
        "max_abs_kg", "clairaut_relvar", "normal_alignment_min",
        "development_straightness_residual", "verdict",
        "eq_identity_residual_e3", "eq_identity_residual_random_u", "random_u",
        "rectifying_ok", "slant_ok", "geodesic_ok", "identity_ok", "consistent"]
    assert d["axis"] == [float(x) for x in rep.axis] and type(d["axis"][0]) is float
    assert d["random_u"] == [float(x) for x in rep.random_u]
    assert d["residual"] == rep.residual and d["verdict"] == rep.geodesy.verdict


def test_report_to_dict_key_order():
    cone = CircularCone(0.8)
    cs = sample_curve(generate_rectifying(RectifyingParams(1.3, 0.2, 0.1), cone.base))
    assert list(classify_rectifying_or_spherical(cs).to_dict()) == [
        "label", "cross_magnitude_mean", "cross_magnitude_relvar", "fitted_a", "fitted_b"]
    slant = fit_slant_axis(cs).to_dict()
    assert list(slant) == ["axis", "cos_angle_mean", "residual"]
    assert all(type(x) is float for x in slant["axis"])
    assert list(verify_geodesic(cone, cs).to_dict()) == [
        "max_abs_kg", "clairaut_relvar", "normal_alignment_min",
        "development_straightness_residual", "verdict"]


# ----------------------------------------------------------------------
# development distance property


def test_development_distance_matches_minimum_norm():
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-1.5, 1.5)
        params = RectifyingParams(a, b, rng.uniform(-0.5, 0.5))
        chart = rectifying_chart(params)
        s = np.linspace(*chart.domain, 257)
        u = chart.u_jet(s, 0)[0]
        _, _, _, residual, distance = line_fit(develop(chart.t_jet(s, 0)[0], u))
        assert residual < 1e-9
        assert abs(distance - 1.0 / a) < 1e-9
        assert abs(u.min() - 1.0 / a) < 1e-6
        assert abs(s[np.argmin(u)] - (-b / a)) <= (s[1] - s[0])


def test_default_domain_centered_on_minimum():
    params = RectifyingParams(2.0, 1.0)
    lo, hi = default_s_domain(params)
    assert abs(0.5 * (lo + hi) - (-params.b / params.a)) < 1e-14
    assert abs((hi - lo) - 10.0 / params.a) < 1e-14
