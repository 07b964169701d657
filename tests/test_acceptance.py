"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite stays under desk scale on one core.
"""

import numpy as np
import pytest

from conegeo import (
    CircularCone,
    Cone,
    GeodesicIVP,
    RectifyingParams,
    chart_points,
    circle_curve,
    circular_base,
    classify_rectifying_or_spherical,
    cross_check_circular_cone,
    develop,
    generate_rectifying,
    helix_curve,
    integrate_geodesic,
    is_planar,
    latitude_circle,
    line_fit,
    perturbed_circle_base,
    rectifying_chart,
    ruling,
    sample_curve,
    sample_grid,
    spherical_curve,
    torsion_ratio_profile,
    verify_geodesic,
)
from helpers import random_unit_speed_curve, twisted_cubic_unit_speed


def _report(num, name, ok, detail=""):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """20 random closed-form geodesics, half on circular, half on wavy cones.

    b is drawn away from zero so relative recovery of the intercept stays
    well posed (criterion 8).
    """
    rng = np.random.default_rng(2024)
    items = []
    for i in range(20):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.25, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        c = rng.uniform(-0.5, 0.5)
        psi0 = rng.uniform(0.35, 1.2)
        params = RectifyingParams(a, b, c)
        if i < 10:
            base = circular_base(psi0)
            cone = CircularCone(psi0)
        else:
            base = perturbed_circle_base(psi0, seed=1000 + i, amplitude=0.03)
            cone = Cone(base)
        items.append((generate_rectifying(params, base), params, cone))
    return items


def test_criterion_1_cross_product_identity(corpus):
    worst = 0.0
    for curve, params, _ in corpus:
        cs = sample_curve(curve, 256)
        cm = np.cross(curve.evaluate(cs.s), curve.derivative(cs.s, 1))
        err = np.max(np.linalg.norm(cm - cs.frames.normal / params.a, axis=-1))
        worst = max(worst, float(err))
    _report(1, "cross-product identity |alpha x alpha' - n/a|", worst < 1e-6,
            f"max {worst:.3e} < 1e-6 over 20 curves x 256 samples")


def test_criterion_2_dichotomy_classification(corpus):
    rng = np.random.default_rng(77)
    cases = []
    for curve, _, _ in corpus[:10]:
        cases.append((curve, "rectifying"))
    for _ in range(10):
        base = perturbed_circle_base(rng.uniform(0.4, 1.2),
                                     seed=int(rng.integers(1 << 31)),
                                     amplitude=0.05)
        cases.append((spherical_curve(base, rng.uniform(0.5, 4.0)),
                      "spherical-centered"))
    generic = [
        helix_curve(1.0, 0.6, center=(0.7, -0.4, 0.2)),
        helix_curve(0.5, 1.1, center=(0.0, 0.3, -0.5)),
        helix_curve(2.0, 0.4, center=(1.0, 1.0, 1.0)),
        helix_curve(1.3, 0.9, center=(-0.6, 0.1, 0.4)),
        circle_curve(2.0, center=(0.5, 0.0, 0.0)),
        # in-plane offset: an axially offset circle would stay on an
        # origin-centered sphere and genuinely classify as spherical
        circle_curve(1.0, center=(0.3, -0.2, 2.0)),
        twisted_cubic_unit_speed(),
        random_unit_speed_curve(np.random.default_rng(5)),
        random_unit_speed_curve(np.random.default_rng(8)),
        random_unit_speed_curve(np.random.default_rng(13)),
    ]
    for cur in generic:
        cases.append((cur, "neither"))
    wrong = []
    for idx, (cur, expect) in enumerate(cases):
        got = classify_rectifying_or_spherical(sample_curve(cur)).label
        if got != expect:
            wrong.append((idx, expect, got))
    _report(2, "dichotomy labels on 30-curve corpus", not wrong,
            f"misclassifications: {wrong if wrong else 0}")


def test_criterion_3_generated_curves_verify_as_geodesics(corpus):
    failures = []
    for i, (curve, _, cone) in enumerate(corpus):
        rep = verify_geodesic(cone, sample_curve(curve))
        ok = (rep.verdict == "geodesic" and rep.max_abs_kg < 1e-4
              and rep.normal_alignment_min > 1 - 1e-5
              and rep.clairaut_relvar < 1e-5
              and rep.development_straightness_residual < 1e-6)
        if not ok:
            failures.append((i, rep.to_dict()))
    _report(3, "generated curves pass all four geodesy gates", not failures,
            f"failures: {failures if failures else 0}")


def test_criterion_4_latitude_circle_obstruction():
    cones = [CircularCone(np.pi / 6),
             Cone(perturbed_circle_base(0.7, seed=42, amplitude=0.04))]
    worst = 0.0
    for cone in cones:
        for u0 in (0.5, 1.0, 2.0, 5.0):
            lat = latitude_circle(cone, u0)
            rep = verify_geodesic(cone, sample_curve(lat))
            rel = abs(rep.max_abs_kg - 1.0 / u0) * u0
            worst = max(worst, rel)
            assert rep.verdict == "not-geodesic"
    _report(4, "latitude circles give |kappa_g| = 1/u0", worst < 1e-5,
            f"max relative error {worst:.3e} < 1e-5")


def test_criterion_5_integrator_matches_closed_form():
    rng = np.random.default_rng(314)
    worst_dev, worst_drift = 0.0, 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-0.5, 0.5)
        psi0 = rng.uniform(0.35, 1.2)
        params = RectifyingParams(a, b, c)
        chart0 = rectifying_chart(params, (0.0, 5.0))
        ivp = GeodesicIVP(
            t0=float(chart0.t_jet(0.0, 0)[0][0]), u0=float(chart0.u_jet(0.0, 0)[0][0]),
            dt0=float(chart0.t_jet(0.0)[1][0]), du0=float(chart0.u_jet(0.0)[1][0]),
            length=5.0,
        )
        chart = integrate_geodesic(CircularCone(psi0), ivp, h=1e-3)
        s, t, u = chart.s, chart.t, chart.u
        dev = max(float(np.max(np.abs(t - chart0.t_jet(s, 0)[0]))),
                  float(np.max(np.abs(u - chart0.u_jet(s, 0)[0]))))
        C = u**2 * chart.dt
        drift = float((C.max() - C.min()) / abs(C.mean())) / 5.0
        worst_dev = max(worst_dev, dev)
        worst_drift = max(worst_drift, drift)
    ok = worst_dev < 1e-6 and worst_drift < 1e-9
    _report(5, "RK4 oracle agrees with the closed form", ok,
            f"max chart deviation {worst_dev:.3e} < 1e-6, "
            f"Clairaut drift {worst_drift:.3e}/unit < 1e-9")


def test_criterion_6_circular_cone_crosscheck():
    rng = np.random.default_rng(555)
    e3 = np.array([0.0, 0.0, 1.0])
    failures = []
    for i in range(10):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-0.5, 0.5)
        psi0 = rng.uniform(0.35, 1.2)
        rep = cross_check_circular_cone(a, b, c, psi0, seed=i)
        angle = float(np.arccos(min(1.0, abs(rep.axis @ e3))))
        ok = (rep.consistent
              and angle < 1e-4
              and abs(abs(rep.cos_angle_mean) - np.sin(psi0)) < 1e-5
              and rep.eq_identity_residual_e3 < 1e-4
              and rep.eq_identity_residual_random_u < 1e-4)
        if not ok:
            failures.append((i, a, b, c, psi0, angle, rep.to_dict()))
    _report(6, "rectifying + slant helix + geodesic agree on circular cones",
            not failures, f"failures: {failures if failures else 0}")


def test_criterion_7_rulings_and_nonplanarity(corpus):
    rng = np.random.default_rng(999)
    ok_rulings = True
    for _ in range(5):
        psi0 = rng.uniform(0.35, 1.2)
        cone = CircularCone(psi0)
        r = ruling(cone, rng.uniform(0.0, 2.0), (0.3, 3.0))
        rep = verify_geodesic(cone, sample_curve(r))
        s = sample_grid(r, 64)
        kappa_max = float(np.max(np.linalg.norm(r.derivative(s, 2), axis=-1)))
        ok_rulings &= (rep.verdict == "ruling" and kappa_max < 1e-9
                       and rep.max_abs_kg < 1e-4
                       and rep.development_straightness_residual < 1e-6)
    # every geodesic-verdict curve with kappa above the floor is non-planar
    ok_torsion = True
    for curve, _, cone in corpus:
        assert verify_geodesic(cone, sample_curve(curve)).verdict == "geodesic"
        ok_torsion &= not is_planar(sample_curve(curve))
    _report(7, "rulings are zero-curvature geodesics; curved geodesics twist",
            ok_rulings and ok_torsion,
            f"rulings ok: {ok_rulings}, torsion nonzero: {ok_torsion}")


def test_criterion_8_torsion_ratio_linearity(corpus):
    worst_coef, worst_resid = 0.0, 0.0
    for curve, params, _ in corpus:
        prof = torsion_ratio_profile(sample_curve(curve))
        rel = max(abs(prof.slope - params.a) / params.a,
                  abs(prof.intercept - params.b) / abs(params.b))
        worst_coef = max(worst_coef, rel)
        worst_resid = max(worst_resid, prof.residual)
    ok = worst_coef < 1e-4 and worst_resid < 1e-5
    _report(8, "tau/kappa fits slope a, intercept b", ok,
            f"max relative coefficient error {worst_coef:.3e} < 1e-4, "
            f"max residual {worst_resid:.3e} < 1e-5")


def test_criterion_9_development_distance_and_minimum_norm(corpus):
    worst_dist, worst_min = 0.0, 0.0
    for curve, params, cone in corpus:
        s = sample_grid(curve, 256)
        pts = develop(*chart_points(cone, curve.evaluate(s)))
        _, _, _, residual, distance = line_fit(pts)
        worst_dist = max(worst_dist, abs(distance - 1.0 / params.a), residual)
        s_star = -params.b / params.a
        min_norm = float(np.linalg.norm(curve.evaluate(s_star)))
        norms = np.linalg.norm(curve.evaluate(s), axis=-1)
        worst_min = max(worst_min, abs(min_norm - 1.0 / params.a))
        assert float(norms.min()) >= 1.0 / params.a - 1e-9
        assert abs(s[np.argmin(norms)] - s_star) <= float(s[1] - s[0])
    ok = worst_dist < 1e-6 and worst_min < 1e-6
    _report(9, "development sits at distance 1/a; minimum norm 1/a at -b/a",
            ok, f"max distance error {worst_dist:.3e}, "
                f"max norm error {worst_min:.3e} < 1e-6")
