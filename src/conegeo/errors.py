"""Exception hierarchy shared by all conegeo modules."""


class ConeGeoError(Exception):
    """Base class for every error raised by this library."""


class ParameterOutOfDomain(ConeGeoError):
    """A curve or surface parameter lies outside its valid interval."""


class InsufficientMargin(ConeGeoError):
    """Finite-difference stencil would reach past the domain boundary."""


class SingularSpeed(ConeGeoError):
    """Curve speed drops below the regularity threshold, or is off 1 where s must be arc length."""


class VanishingCurvature(ConeGeoError):
    """Curvature fell below the floor; the Frenet frame is undefined."""


class InsufficientSamples(ConeGeoError):
    """Too few samples for a statistically meaningful operation."""


class DegenerateFit(ConeGeoError):
    """Axis fit has no isolated minimizer; the axis is not unique."""


class NotRectifying(ConeGeoError):
    """Operation requires a curve classified as rectifying."""


class NonpositiveRadialCoordinate(ConeGeoError):
    """Radial cone coordinate u must be strictly positive."""


class DegenerateBase(ConeGeoError):
    """Base curve data is off the unit sphere or has a degenerate tangent."""


class NotOnCone(ConeGeoError):
    """Point or curve does not lie on the cone within tolerance."""


class VertexPoint(ConeGeoError):
    """Point is too close to the cone vertex for chart operations."""


class BaseDomainExceeded(ConeGeoError):
    """Requested angular range leaves the base curve's domain."""


class InvalidHalfAngle(ConeGeoError):
    """Circular-cone half angle must lie strictly between 0 and pi/2."""


class VertexApproach(ConeGeoError):
    """Integrated trajectory fell below the minimum radial coordinate."""


class StepTooLarge(ConeGeoError):
    """Integrator conservation drift exceeded its threshold; reduce the step."""


class InvalidConfig(ConeGeoError):
    """Command-line or config-file input is missing or malformed."""
