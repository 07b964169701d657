"""The records conegeo returns: construction, equality, hashing, immutability,
repr and the JSON payload of the reports.

Values are plain floats, strings and small arrays, so each repr reads the
same under every numpy version the package supports.
"""

import numpy as np
import pytest

from conegeo import (
    ClassificationReport,
    CrossCheckReport,
    CurveSamples,
    FrenetFrame,
    GeodesicIVP,
    GeodesyReport,
    RectifyingParams,
    SlantAxisFit,
    TorsionRatioProfile,
    helix_curve,
    sample_curve,
)
from conegeo.cli import RunConfig

CURVE = helix_curve(0.8660254037844386, 0.5)
S = np.array([0.0, 1.0])
JET = np.zeros((4, 2, 3))
AXIS = np.array([0.0, 0.0, 1.0])
RANDOM_U = np.array([0.5, -0.5])
GEODESY = GeodesyReport(1e-07, 2e-08, 0.999, 3e-09, "geodesic")

# class, positional fields, (field, value) that makes a twin unequal, repr
RECORDS = [
    (FrenetFrame,
     (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
      np.array([0.5]), np.array([0.25])),
     ("kappa", np.array([0.75])),
     "FrenetFrame(tangent=array([1., 0., 0.]), normal=array([0., 1., 0.]), "
     "binormal=array([0., 0., 1.]), kappa=array([0.5]), tau=array([0.25]))"),
    (CurveSamples, (CURVE, 4, S, JET), ("samples", 5),
     f"CurveSamples(curve={CURVE!r}, samples=4, s={S!r}, jet={JET!r})"),
    (TorsionRatioProfile, (S, np.array([0.5, 1.5]), 1.0, 0.5, 0.0), ("residual", 1e-3),
     "TorsionRatioProfile(s=array([0., 1.]), ratio=array([0.5, 1.5]), slope=1.0, "
     "intercept=0.5, residual=0.0)"),
    (RunConfig, ("verify", {"samples": 64}), ("command", "classify"),
     "RunConfig(command='verify', params={'samples': 64})"),
    (ClassificationReport, ("rectifying", 0.8, 1e-09, 1.25, -0.5), ("fitted_b", None),
     "ClassificationReport(label='rectifying', cross_magnitude_mean=0.8, "
     "cross_magnitude_relvar=1e-09, fitted_a=1.25, fitted_b=-0.5)"),
    (SlantAxisFit, (AXIS, 0.6, 1e-07), ("cos_angle_mean", 0.7),
     "SlantAxisFit(axis=array([0., 0., 1.]), cos_angle_mean=0.6, residual=1e-07)"),
    (RectifyingParams, (1.3, 0.2, 0.1), ("c", 0.0),
     "RectifyingParams(a=1.3, b=0.2, c=0.1)"),
    (GeodesicIVP, (0.0, 1.0, 3.0, 4.0, 2.0), ("length", 3.0),
     "GeodesicIVP(t0=0.0, u0=1.0, dt0=0.6, du0=0.8, length=2.0, normalization=5.0)"),
    (GeodesyReport, (1e-07, 2e-08, None, 3e-09, "ruling"), ("verdict", "geodesic"),
     "GeodesyReport(max_abs_kg=1e-07, clairaut_relvar=2e-08, normal_alignment_min=None, "
     "development_straightness_residual=3e-09, verdict='ruling')"),
    (CrossCheckReport,
     ("rectifying", 1.25, -0.5, AXIS, 0.6, 1e-07, GEODESY, 1e-06, 2e-06, RANDOM_U,
      True, True, True, True, True),
     ("consistent", False),
     "CrossCheckReport(label='rectifying', fitted_a=1.25, fitted_b=-0.5, "
     "axis=array([0., 0., 1.]), cos_angle_mean=0.6, residual=1e-07, "
     "geodesy=GeodesyReport(max_abs_kg=1e-07, clairaut_relvar=2e-08, "
     "normal_alignment_min=0.999, development_straightness_residual=3e-09, "
     "verdict='geodesic'), eq_identity_residual_e3=1e-06, "
     "eq_identity_residual_random_u=2e-06, random_u=array([ 0.5, -0.5]), "
     "rectifying_ok=True, slant_ok=True, geodesic_ok=True, identity_ok=True, "
     "consistent=True)"),
]
# RunConfig's immutability is pinned with the CLI's config tests
FROZEN = [r for r in RECORDS if r[0] is not RunConfig]


_FIELD_NAMES = {
    FrenetFrame: ["tangent", "normal", "binormal", "kappa", "tau"],
    CurveSamples: ["curve", "samples", "s", "jet"],
    TorsionRatioProfile: ["s", "ratio", "slope", "intercept", "residual"],
    RunConfig: ["command", "params"],
    ClassificationReport: ["label", "cross_magnitude_mean", "cross_magnitude_relvar",
                           "fitted_a", "fitted_b"],
    SlantAxisFit: ["axis", "cos_angle_mean", "residual"],
    RectifyingParams: ["a", "b", "c"],
    GeodesicIVP: ["t0", "u0", "dt0", "du0", "length", "normalization"],
    GeodesyReport: ["max_abs_kg", "clairaut_relvar", "normal_alignment_min",
                    "development_straightness_residual", "verdict"],
    CrossCheckReport: ["label", "fitted_a", "fitted_b", "axis", "cos_angle_mean",
                       "residual", "geodesy", "eq_identity_residual_e3",
                       "eq_identity_residual_random_u", "random_u", "rectifying_ok",
                       "slant_ok", "geodesic_ok", "identity_ok", "consistent"],
}


def _twin(cls, args, **changes):
    """A second record of cls from the same values, with the named fields changed."""
    record = cls(*args)
    kwargs = {name: getattr(record, name) for name in _FIELD_NAMES[cls]}
    kwargs.update(changes)
    if cls is GeodesicIVP:  # normalization is derived, not passed
        kwargs.pop("normalization")
        kwargs.update(dt0=args[2], du0=args[3])
    return cls(**kwargs)


@pytest.mark.parametrize("cls, args, change, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_equality_and_repr(cls, args, change, text):
    record = cls(*args)
    assert repr(record) == text
    twin = _twin(cls, args)
    assert record == twin and not record != twin
    assert record != _twin(cls, args, **dict([change]))
    # another record type, and the bare values, are never equal
    other = RectifyingParams(1.0) if cls is not RectifyingParams else GEODESY
    assert not record == other and record != other
    assert record != tuple(getattr(record, n) for n in _FIELD_NAMES[cls])


@pytest.mark.parametrize("cls, args, change, text", FROZEN,
                         ids=[r[0].__name__ for r in FROZEN])
def test_record_fields_cannot_be_set_or_deleted(cls, args, change, text):
    record = cls(*args)
    name, value = change
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert repr(record) == text


def test_record_hashes_follow_equality():
    assert hash(RectifyingParams(1.3, 0.2)) == hash(RectifyingParams(a=1.3, b=0.2, c=0.0))
    assert len({RectifyingParams(1.3), RectifyingParams(1.3, 0.0, 0.0)}) == 1
    ivp = GeodesicIVP(0.0, 1.0, 3.0, 4.0, 2.0)
    twin = GeodesicIVP(t0=0.0, u0=1.0, dt0=3.0, du0=4.0, length=2.0)
    assert ivp == twin and hash(ivp) == hash(twin)
    # the normalization is a field: the same direction at another scale differs
    assert ivp != GeodesicIVP(0.0, 1.0, 0.6, 0.8, 2.0)


def test_record_constructors_refuse_missing_extra_and_duplicate_fields():
    with pytest.raises(TypeError):
        FrenetFrame(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError):
        FrenetFrame(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    with pytest.raises(TypeError):
        SlantAxisFit(AXIS, 0.6, residual=0.0, bogus=1.0)
    with pytest.raises(TypeError):
        SlantAxisFit(AXIS, 0.6, 0.0, axis=AXIS)
    with pytest.raises(TypeError):
        RectifyingParams()
    with pytest.raises(TypeError):
        RectifyingParams(1.0, a=2.0)
    with pytest.raises(TypeError):
        GeodesicIVP(0.0, 1.0, 3.0, 4.0, 2.0, normalization=1.0)
    # keyword and positional construction agree, and defaults fill b and c
    assert RectifyingParams(1.3) == RectifyingParams(a=1.3, b=0.0, c=0.0)
    assert SlantAxisFit(AXIS, 0.6, 1e-07) == SlantAxisFit(residual=1e-07, axis=AXIS,
                                                          cos_angle_mean=0.6)


def test_record_checks_keep_their_messages():
    for a in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^a must be positive$"):
            RectifyingParams(a)
    for args, message in [((0.0, 0.0, 1.0, 1.0, 1.0), "u0 must be positive"),
                          ((0.0, 1.0, 1.0, 1.0, 0.0), "length must be positive"),
                          ((0.0, 1.0, 0.0, 0.0, 1.0), "initial velocity must be nonzero")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeodesicIVP(*args)


def test_curve_samples_frames_are_built_once():
    cs = sample_curve(CURVE, 32)
    frames = cs.frames
    assert isinstance(frames, FrenetFrame) and cs.frames is frames
    np.testing.assert_allclose(frames.kappa, 0.8660254037844386, rtol=1e-12)
    assert cs == CurveSamples(cs.curve, cs.samples, cs.s, cs.jet)


def test_report_payloads():
    assert list(ClassificationReport(*RECORDS[4][1]).to_dict().items()) == [
        ("label", "rectifying"), ("cross_magnitude_mean", 0.8),
        ("cross_magnitude_relvar", 1e-09), ("fitted_a", 1.25), ("fitted_b", -0.5)]
    slant = SlantAxisFit(*RECORDS[5][1]).to_dict()
    assert list(slant.items()) == [("axis", [0.0, 0.0, 1.0]), ("cos_angle_mean", 0.6),
                                   ("residual", 1e-07)]
    assert all(type(x) is float for x in slant["axis"])
    assert list(GeodesyReport(*RECORDS[8][1]).to_dict().items()) == [
        ("max_abs_kg", 1e-07), ("clairaut_relvar", 2e-08), ("normal_alignment_min", None),
        ("development_straightness_residual", 3e-09), ("verdict", "ruling")]
    cc = CrossCheckReport(*RECORDS[9][1]).to_dict()
    # the nested geodesy report is merged in place of its field
    assert list(cc.items()) == [
        ("label", "rectifying"), ("fitted_a", 1.25), ("fitted_b", -0.5),
        ("axis", [0.0, 0.0, 1.0]), ("cos_angle_mean", 0.6), ("residual", 1e-07),
        ("max_abs_kg", 1e-07), ("clairaut_relvar", 2e-08), ("normal_alignment_min", 0.999),
        ("development_straightness_residual", 3e-09), ("verdict", "geodesic"),
        ("eq_identity_residual_e3", 1e-06), ("eq_identity_residual_random_u", 2e-06),
        ("random_u", [0.5, -0.5]), ("rectifying_ok", True), ("slant_ok", True),
        ("geodesic_ok", True), ("identity_ok", True), ("consistent", True)]
    assert all(type(x) is float for x in cc["random_u"])
