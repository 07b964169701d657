import numpy as np
import pytest

from conegeo import (
    CircularCone,
    Cone,
    GeodesicIVP,
    RectifyingParams,
    SpaceCurve,
    base_from_samples,
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
    sample_grid,
    verify_geodesic,
)
from conegeo import geodesics as geodesics_module
from conegeo.classify import LABEL_RECTIFYING, classify_rectifying_or_spherical
from conegeo.errors import (
    BaseDomainExceeded,
    InvalidHalfAngle,
    NotOnCone,
    StepTooLarge,
    VertexApproach,
)
from helpers import count_vector_hermite_calls


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
    fit = fit_slant_axis(cur)
    assert abs(abs(fit.cos_angle_mean) - np.sin(psi0)) < 1e-5
    assert fit.residual < 1e-5
    rep = classify_rectifying_or_spherical(cur)
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
    s, t, u = chart.samples
    assert np.max(np.abs(t - 0.4)) == 0.0
    assert np.max(np.abs(u - (1.0 + s))) < 1e-12


def test_integrate_matches_closed_form():
    params = RectifyingParams(1.0, 0.0, 0.0)
    chart0 = rectifying_chart(params, (0.0, 5.0))
    ivp = GeodesicIVP(
        t0=float(chart0.t(0.0)[0]),
        u0=float(chart0.u(0.0)[0]),
        dt0=float(chart0.t_jet(0.0)[1][0]),
        du0=float(chart0.u_jet(0.0)[1][0]),
        length=5.0,
    )
    cone = CircularCone(np.pi / 4)
    chart = integrate_geodesic(cone, ivp, h=1e-3)
    s = chart.samples[0]
    assert np.max(np.abs(chart.samples[1] - chart0.t(s))) < 1e-6
    assert np.max(np.abs(chart.samples[2] - chart0.u(s))) < 1e-6


def test_integrate_clairaut_conservation():
    cone = CircularCone(0.5)
    ivp = GeodesicIVP(t0=0.0, u0=1.5, dt0=0.4, du0=-0.5, length=4.0)
    chart = integrate_geodesic(cone, ivp, h=1e-3)
    s, t, u = chart.samples
    dt = chart.t_jet(s)[1]
    C = u**2 * dt
    assert (C.max() - C.min()) / abs(C.mean()) < 1e-9 * max(1.0, 4.0)
    # chart speed stays unit
    assert np.max(np.abs(chart.speed(s[4:-4]) - 1.0)) < 1e-9


def test_integrate_develops_straight():
    cone = CircularCone(0.9)
    ivp = GeodesicIVP(t0=0.2, u0=2.0, dt0=0.3, du0=-0.6, length=3.0)
    chart = integrate_geodesic(cone, ivp)
    pts = develop(chart).point(chart.samples[0])
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
    assert integrate_geodesic(CircularCone(0.8), ivp, h=1e-3).samples[0].size == 101
    with pytest.raises(ValueError, match="exceeds 100 RK4 steps"):
        integrate_geodesic(CircularCone(0.8), ivp, h=0.999e-3)


def test_integrate_nan_drift_fails_gate():
    ivp = GeodesicIVP(t0=0.0, u0=1.0, dt0=float("nan"), du0=0.2, length=0.1)
    with pytest.raises(StepTooLarge):
        integrate_geodesic(CircularCone(0.8), ivp, h=0.01)


# ----------------------------------------------------------------------
# verify_geodesic


def test_verify_generated_geodesic():
    cone = CircularCone(0.75)
    cur = generate_rectifying(RectifyingParams(1.2, 0.5, -0.3), cone.base)
    rep = verify_geodesic(cone, cur)
    assert rep.verdict == "geodesic"
    assert rep.normal_alignment_min > 1.0 - 1e-6
    assert rep.max_abs_kg < 1e-4
    assert rep.clairaut_relvar < 1e-5
    assert rep.development_straightness_residual < 1e-6


def test_verify_latitude_circle_not_geodesic():
    cone = CircularCone(0.75)
    u0 = 2.0
    rep = verify_geodesic(cone, latitude_circle(cone, u0))
    assert rep.verdict == "not-geodesic"
    assert abs(rep.max_abs_kg - 1.0 / u0) < 1e-5 / u0
    # the curvature-based and development-based oracles agree
    assert rep.development_straightness_residual > 1e-6


def test_verify_ruling():
    cone = CircularCone(0.75)
    rep = verify_geodesic(cone, ruling(cone, 0.3, (0.5, 3.0)))
    assert rep.verdict == "ruling"
    assert rep.normal_alignment_min is None
    assert rep.max_abs_kg < 1e-9
    assert rep.development_straightness_residual < 1e-9


def test_verify_rejects_off_cone_curve():
    cone = CircularCone(np.pi / 6)
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 3)
    with pytest.raises(NotOnCone):
        verify_geodesic(cone, cur)


def test_verify_on_general_cone():
    base = perturbed_circle_base(0.9, seed=77, amplitude=0.03)
    cone = Cone(base)
    cur = generate_rectifying(RectifyingParams(0.9, 0.2, 1.0), base)
    rep = verify_geodesic(cone, cur)
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
    rep = verify_geodesic(cone, sampled)
    assert len(calls) <= 7
    assert rep.verdict == "geodesic"
    kg = geodesic_curvature(cone, sampled, sample_grid(sampled, 256))
    assert rep.max_abs_kg == float(np.max(np.abs(kg)))


def test_verify_winding_geodesic_on_narrow_cone():
    # the angular range 2*arctan(5) spans several base periods, so chart
    # extraction must unwrap t continuously across the seam
    psi0 = 0.1
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), psi0)
    windings = 2 * np.arctan(5.0) / (2 * np.pi * np.sin(psi0))
    assert windings > 4
    rep = verify_geodesic(CircularCone(psi0), cur)
    assert rep.verdict == "geodesic"
    base = perturbed_circle_base(0.3, seed=21, amplitude=0.01)
    cur2 = generate_rectifying(RectifyingParams(1.0, 0.0, 0.0), base)
    rep2 = verify_geodesic(Cone(base), cur2)
    assert rep2.verdict == "geodesic"


# ----------------------------------------------------------------------
# cross_check_circular_cone


def test_crosscheck_reference_params():
    rep = cross_check_circular_cone(1.0, 0.0, 0.0, np.pi / 4)
    assert rep.consistent
    assert rep.rectifying_ok and rep.slant_ok and rep.geodesic_ok and rep.identity_ok
    assert rep.eq_identity_residual_e3 < 1e-4
    assert rep.eq_identity_residual_random_u < 1e-4


def test_crosscheck_randomized_params():
    rep = cross_check_circular_cone(3.0, -1.0, 0.5, 0.3)
    assert rep.consistent


def test_crosscheck_report_fields_flatten():
    rep = cross_check_circular_cone(1.0, 0.0, 0.0, 0.7)
    d = rep.to_dict()
    for key in ("label", "fitted_a", "fitted_b", "axis", "cos_angle_mean",
                "residual", "max_abs_kg", "clairaut_relvar",
                "normal_alignment_min", "development_straightness_residual",
                "verdict", "consistent"):
        assert key in d


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
        _, _, _, residual, distance = line_fit(develop(chart).point(s))
        assert residual < 1e-9
        assert abs(distance - 1.0 / a) < 1e-9
        u = chart.u(s)
        assert abs(u.min() - 1.0 / a) < 1e-6
        assert abs(s[np.argmin(u)] - (-b / a)) <= (s[1] - s[0])


def test_default_domain_centered_on_minimum():
    params = RectifyingParams(2.0, 1.0)
    lo, hi = default_s_domain(params)
    assert abs(0.5 * (lo + hi) - (-params.b / params.a)) < 1e-14
    assert abs((hi - lo) - 10.0 / params.a) < 1e-14
