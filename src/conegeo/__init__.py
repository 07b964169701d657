"""conegeo: space curves and geodesics on cones in Euclidean 3-space.

Construct curves (closed form or sampled), compute Frenet data, classify
rectifying / spherical / slant-helix behavior, and verify geodesy on cones
with independent numerical oracles (chart-space integration and isometric
development).
"""

from .classify import (
    ClassificationReport,
    SlantAxisFit,
    TorsionRatioProfile,
    classification_identity_residual,
    classify_rectifying_or_spherical,
    fit_slant_axis,
    is_planar,
    relative_spread,
    torsion_ratio_profile,
)
from .cones import (
    ChartCurve,
    ChartSamples,
    CircularCone,
    Cone,
    SphericalBaseCurve,
    base_from_samples,
    chart_coordinates,
    chart_curve,
    chart_points,
    circular_base,
    cone_from_descriptor,
    cone_point,
    curve_from_chart,
    develop,
    geodesic_curvature,
    latitude_circle,
    line_fit,
    perturbed_circle_base,
    read_base_csv,
    ruling,
    spherical_curve,
    surface_normal,
    write_base_csv,
)
from .curves import (
    KAPPA_FLOOR,
    CurveSamples,
    FrenetFrame,
    SpaceCurve,
    circle_curve,
    frenet_apparatus,
    helix_curve,
    line_curve,
    read_curve_csv,
    reparametrize_arclength,
    sample_arclength,
    sample_curve,
    sample_grid,
    write_curve_csv,
)
from .geodesics import (
    GATES,
    CrossCheckReport,
    GeodesicIVP,
    GeodesyReport,
    RectifyingParams,
    cross_check_circular_cone,
    default_s_domain,
    generate_circular_geodesic,
    generate_rectifying,
    integrate_geodesic,
    rectifying_chart,
    verify_geodesic,
)

__version__ = "0.1.0"
