import numpy as np
import pytest

from conegeo import (
    ClassificationReport,
    RectifyingParams,
    SpaceCurve,
    circle_curve,
    circular_base,
    classification_identity_residual,
    classify_rectifying_or_spherical,
    fit_slant_axis,
    frenet_apparatus,
    generate_circular_geodesic,
    generate_rectifying,
    helix_curve,
    is_planar,
    read_curve_csv,
    relative_spread,
    sample_arclength,
    sample_curve,
    sample_grid,
    torsion_ratio_profile,
    write_curve_csv,
)
from conegeo import jets as jt
from conegeo.classify import (
    LABEL_AMBIGUOUS,
    LABEL_NEITHER,
    LABEL_RECTIFYING,
    LABEL_SPHERICAL,
    _canonical_axis,
)
from conegeo.curves import position_cross
from conegeo.errors import (
    DegenerateFit,
    InsufficientSamples,
    NotRectifying,
    VanishingCurvature,
)
from helpers import random_rectifying, random_spherical, random_unit_speed_curve, twisted_cubic_unit_speed


# ----------------------------------------------------------------------
# relative_spread


@pytest.mark.parametrize("ref,want", [(2e-14, 1.25 / 2e-14), (-2e-14, 1.25 / 2e-14),
                                      (1e-14, 1.25), (-1e-14, 1.25), (5e-15, 1.25),
                                      (0.0, 1.25)])
def test_relative_spread_divides_only_above_the_zero_reference(ref, want):
    got = relative_spread(np.array([0.25, -0.5, 0.75]), ref)
    assert type(got) is float and got == want


def test_relative_spread_of_generated_cross_magnitude():
    cur = generate_circular_geodesic(RectifyingParams(2.0, 0.0, 0.0), 0.9)
    mags = position_cross(*cur.derivatives(sample_grid(cur, 64), (0, 1)))[1]
    assert relative_spread(mags, mags.mean()) < 1e-6 and abs(mags.mean() - 0.5) < 1e-12


# ----------------------------------------------------------------------
# classify_rectifying_or_spherical


def test_classify_generated_rectifying():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 3)
    rep = classify_rectifying_or_spherical(sample_curve(cur))
    assert rep.label == LABEL_RECTIFYING
    assert abs(rep.fitted_a - 1.0) < 1e-9
    assert abs(rep.fitted_b) < 1e-9


def test_classify_great_circle():
    circ = circle_curve(3.0)
    rep = classify_rectifying_or_spherical(sample_curve(circ))
    assert rep.label == LABEL_SPHERICAL
    assert abs(rep.cross_magnitude_mean - 3.0) < 1e-10
    assert rep.fitted_a is None


def test_classify_offset_helix_neither():
    hx = helix_curve(1.0, 0.6, center=(0.7, -0.4, 0.2))
    s = sample_grid(hx, 256)
    mags = position_cross(*hx.derivatives(s, (0, 1)))[1]
    # direct evaluation confirms the spread is far above tolerance
    assert (mags.max() - mags.min()) / mags.mean() > 1e-2
    rep = classify_rectifying_or_spherical(sample_curve(hx))
    assert rep.label == LABEL_NEITHER


def test_classify_curve_passing_both_tests_is_ambiguous():
    # near its minimum-norm point s = -b/a a rectifying curve has <alpha, t>
    # = s + b/a near 0 too, so at tol 1e-2 it passes the spherical test as well
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 4, (-0.005, 0.005))
    cs = sample_curve(cur)
    assert classify_rectifying_or_spherical(cs).label == LABEL_RECTIFYING
    rep = classify_rectifying_or_spherical(cs, tol=1e-2)
    assert rep.label == LABEL_AMBIGUOUS and rep.fitted_a is None


def test_classify_backwards_rectifying_curve_fits_negative_a():
    # alpha(-s) is the closed form with (-a, b): alpha x alpha' turns against n
    params = RectifyingParams(1.3, 0.2, 0.1)
    cur = generate_circular_geodesic(params, 0.8)
    lo, hi = cur.domain
    signs = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]

    def jet(s, order):
        return cur.jet(-s, order) * signs[:order + 1]

    backwards = SpaceCurve(jet, (-hi, -lo))
    rep = classify_rectifying_or_spherical(sample_curve(backwards))
    assert rep.label == LABEL_RECTIFYING
    assert abs(rep.fitted_a + params.a) < 1e-6 * params.a
    assert abs(rep.fitted_b - params.b) < 1e-6


@pytest.mark.parametrize("rows,grid", [(10, 2), (14, 6), (15, 7)])
def test_classify_refuses_a_grid_under_seven_points(tmp_path, rows, grid):
    # rows 0.01 apart are unit speed at their nodes, so they are read on a
    # grid of their own nodes less the stencil reach
    cur = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), np.pi / 4)
    s = 0.01 * np.arange(rows)
    write_curve_csv(tmp_path / "c.csv", s, cur.evaluate(s))
    cs = sample_arclength(SpaceCurve.from_samples(*read_curve_csv(tmp_path / "c.csv")), 256)
    assert cs.s.size == grid
    if grid < 7:
        with pytest.raises(InsufficientSamples,
                           match=f"^classify needs a grid of at least 7 points, got {grid}$"):
            classify_rectifying_or_spherical(cs)
    else:
        assert classify_rectifying_or_spherical(cs).label == LABEL_RECTIFYING


def test_classify_refuses_straight_line():
    from conegeo import line_curve

    line = line_curve([0.1, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0)
    with pytest.raises(VanishingCurvature):
        classify_rectifying_or_spherical(sample_curve(line))


def test_classify_corpus_property():
    rng = np.random.default_rng(23)
    for i in range(4):
        cur, params, _, _ = random_rectifying(rng, circular=bool(i % 2))
        rep = classify_rectifying_or_spherical(sample_curve(cur))
        assert rep.label == LABEL_RECTIFYING
        assert abs(rep.fitted_a - params.a) < 1e-6 * params.a
        assert abs(rep.fitted_b - params.b) < 1e-6 * max(1.0, abs(params.b))
    for _ in range(3):
        sph, r = random_spherical(rng)
        rep = classify_rectifying_or_spherical(sample_curve(sph))
        assert rep.label == LABEL_SPHERICAL
        assert abs(rep.cross_magnitude_mean - r) < 1e-8 * r


def test_classify_mixed_subinterval_curve_is_ambiguous():
    # spherical on one sub-interval, rectifying on the other: the two arcs
    # meet tangentially at the minimum-norm point and share the same
    # constant |alpha x alpha'|, so neither branch holds globally and the
    # report surfaces the ambiguity instead of guessing
    from conegeo import circular_base, generate_rectifying
    from conegeo import jets as jt
    from conegeo.classify import LABEL_AMBIGUOUS
    from conegeo import SpaceCurve

    base = circular_base(0.8)
    rect = generate_rectifying(RectifyingParams(1.0, 0.0, 0.0), base, (0.0, 5.0))

    def lat_jet(s):
        yj = base.jet(s)
        lin = np.stack([s, np.ones_like(s), np.zeros_like(s), np.zeros_like(s)])
        one = np.stack([np.ones_like(s)] + [np.zeros_like(s)] * 3)
        return jt.jet_product(one, jt.jet_compose(yj, lin))

    def glued_jet(s, order=3):
        out = np.where(s[None, :, None] < 0.0, lat_jet(s), rect.jet(np.maximum(s, 0.0)))
        return out

    glued = SpaceCurve(glued_jet, (-3.0, 5.0))
    mags = position_cross(*glued.derivatives(sample_grid(glued, 256), (0, 1)))[1]
    assert (mags.max() - mags.min()) / mags.mean() < 1e-12
    rep = classify_rectifying_or_spherical(sample_curve(glued))
    assert rep.label == LABEL_AMBIGUOUS


def test_constant_cross_magnitude_implies_dichotomy():
    # any random curve passing the constancy gate must satisfy the dichotomy
    rng = np.random.default_rng(31)
    corpus = [random_unit_speed_curve(rng) for _ in range(3)]
    corpus += [random_rectifying(rng, circular=True)[0],
               random_spherical(rng)[0]]
    for cur in corpus:
        s = sample_grid(cur, 256)
        mags = position_cross(*cur.derivatives(s, (0, 1)))[1]
        if not relative_spread(mags, mags.mean()) < 1e-8:
            continue
        pts = cur.evaluate(s)
        frames = frenet_apparatus(cur, s)
        n_resid = np.max(np.abs(np.sum(pts * frames.normal, axis=-1)))
        t_resid = np.max(np.abs(np.sum(pts * frames.tangent, axis=-1)))
        assert min(n_resid, t_resid) < 1e-6


def test_eq1_vector_form_with_fitted_sign():
    rng = np.random.default_rng(41)
    cur, params, _, _ = random_rectifying(rng, circular=False)
    rep = classify_rectifying_or_spherical(sample_curve(cur))
    s = sample_grid(cur, 128)
    frames = frenet_apparatus(cur, s)
    cm = np.cross(cur.evaluate(s), cur.derivative(s, 1))
    assert np.max(np.linalg.norm(cm - frames.normal / rep.fitted_a, axis=-1)) < 1e-6


# ----------------------------------------------------------------------
# torsion_ratio_profile


def test_torsion_ratio_generated():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 2.0, 0.0), 0.8)
    prof = torsion_ratio_profile(sample_curve(cur))
    assert abs(prof.slope - 1.0) < 1e-8
    assert abs(prof.intercept - 2.0) < 1e-8
    assert prof.residual < 1e-5


def test_torsion_ratio_circle_is_zero():
    prof = torsion_ratio_profile(sample_curve(circle_curve(2.0)))
    assert abs(prof.slope) < 1e-12 and abs(prof.intercept) < 1e-12
    assert np.max(np.abs(prof.ratio)) < 1e-12


def test_torsion_ratio_helix_constant():
    hx = helix_curve(1.0, 0.7)  # tau/kappa = P/R = 0.7
    prof = torsion_ratio_profile(sample_curve(hx))
    assert abs(prof.slope) < 1e-10
    assert abs(prof.intercept - 0.7) < 1e-10


# ----------------------------------------------------------------------
# fit_slant_axis


def test_slant_axis_circular_geodesic():
    psi0 = np.pi / 4
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), psi0)
    fit = fit_slant_axis(sample_curve(cur))
    assert np.linalg.norm(fit.axis - [0.0, 0.0, 1.0]) < 1e-6
    assert abs(abs(fit.cos_angle_mean) - np.sin(psi0)) < 1e-5
    assert fit.residual < 1e-5


def test_slant_axis_planar_circle():
    fit = fit_slant_axis(sample_curve(circle_curve(1.0)))
    assert np.allclose(fit.axis, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(fit.cos_angle_mean) < 1e-12
    assert fit.residual < 1e-12


def test_slant_axis_generic_curve_fails_threshold():
    cur = twisted_cubic_unit_speed()
    fit = fit_slant_axis(sample_curve(cur))
    assert fit.residual > 1e-2
    # brute-force oracle: no direction on a dense sphere grid achieves
    # near-zero variance of <n, U>
    frames = frenet_apparatus(cur, sample_grid(cur, 256))
    k = np.arange(4000)
    phi = np.arccos(1.0 - 2.0 * (k + 0.5) / 4000)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    dirs = np.stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi),
                     np.cos(phi)], axis=-1)
    stds = np.sqrt(np.var(frames.normal @ dirs.T, axis=0))
    assert stds.min() > 1e-2
    # and the eigen fit is at least as good as the best grid direction
    assert fit.residual <= stds.min() + 1e-9


def test_slant_axis_sign_canonical():
    assert np.allclose(_canonical_axis(np.array([0.1, 0.2, -0.9])),
                       [-0.1, -0.2, 0.9])
    assert np.allclose(_canonical_axis(np.array([-0.6, 0.8, 0.0])),
                       [0.6, -0.8, 0.0])
    # mirroring the curve through the xy-plane flips n3 but not the axis
    psi0 = 0.9
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.5, 0.0), psi0)
    fit = fit_slant_axis(sample_curve(cur))
    assert fit.axis[2] >= 0.0
    assert np.linalg.norm(fit.axis - [0, 0, 1]) < 1e-6


def test_slant_axis_errors():
    with pytest.raises(InsufficientSamples):
        fit_slant_axis(sample_curve(circle_curve(1.0), 8))
    with pytest.raises(DegenerateFit):
        fit_slant_axis(sample_curve(circle_curve(1.0, turns=0.0005), 32))


# ----------------------------------------------------------------------
# is_planar


def test_is_planar_circle():
    assert is_planar(sample_curve(circle_curve(2.0)))


def test_is_planar_rejects_generated_rectifying():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), 0.7)
    assert not is_planar(sample_curve(cur))


def test_is_planar_rejects_helix():
    hx = helix_curve(0.8660254037844386, 0.5)  # tau = 0.5
    assert not is_planar(sample_curve(hx))


# ----------------------------------------------------------------------
# classification_identity_residual


def test_identity_residual_axis_and_generic_direction():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.0, 0.0), np.pi / 4)
    for U in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]):
        _, res = classification_identity_residual(sample_curve(cur), U)
        assert np.max(np.abs(res)) < 1e-4


def test_identity_residual_detects_corrupted_constant():
    cur = generate_circular_geodesic(RectifyingParams(1.0, 0.5, 0.2), np.pi / 4)
    rep = classify_rectifying_or_spherical(sample_curve(cur))
    bad = ClassificationReport(**{**rep.to_dict(), "fitted_a": 2.0 * rep.fitted_a})
    U = [1.0, 0.0, 0.0]
    _, res_ok = classification_identity_residual(sample_curve(cur), U, report=rep)
    _, res_bad = classification_identity_residual(sample_curve(cur), U, report=bad)
    assert np.max(np.abs(res_ok)) < 1e-4
    assert np.max(np.abs(res_bad)) > 1.0


def test_identity_residual_requires_rectifying():
    with pytest.raises(NotRectifying):
        classification_identity_residual(sample_curve(circle_curve(2.0)), [0.0, 0.0, 1.0])


def test_identity_equivalence_for_fitted_axis():
    # d/ds <y,U> vanishes iff d/ds <n,U> vanishes, at the fitted axis
    psi0 = 0.65
    cur = generate_circular_geodesic(RectifyingParams(1.5, -0.4, 0.3), psi0)
    fit = fit_slant_axis(sample_curve(cur))
    s = sample_grid(cur, 256)
    dx = float(s[1] - s[0])
    pts = cur.evaluate(s)
    y = pts / np.linalg.norm(pts, axis=-1)[:, None]
    frames = frenet_apparatus(cur, s)
    for U, expect_const in ((fit.axis, True), (np.array([1.0, 0.0, 0.0]), False)):
        dg, _ = jt.series_derivative(y @ U, dx, 1)
        dh, _ = jt.series_derivative(frames.normal @ U, dx, 1)
        g_const = np.max(np.abs(dg)) < 1e-6
        h_const = np.max(np.abs(dh)) < 1e-6
        assert g_const == h_const == expect_const
