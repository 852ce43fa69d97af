"""Exception types raised by the steering-ellipsoid pipeline."""


class SteerellError(Exception):
    """Base class for all package errors."""


class NonPhysical(SteerellError):
    """Pauli data does not reconstruct to a positive semidefinite state.

    Carries the offending (most negative) eigenvalue.
    """

    def __init__(self, min_eigenvalue, message=None):
        self.min_eigenvalue = float(min_eigenvalue)
        if message is None:
            message = f"state is not positive semidefinite (min eigenvalue {min_eigenvalue:.3e})"
        super().__init__(message)


class DegenerateOutcome(SteerellError):
    """A measurement outcome has vanishing probability, so the steered state is undefined."""


class DegenerateEllipsoid(SteerellError):
    """The steering ellipsoid has (numerically) zero volume."""


class NoTangency(SteerellError):
    """The ellipsoid does not touch the Bloch sphere at exactly one point."""


class NotOnSurface(SteerellError):
    """A point expected on the ellipsoid surface (and unit sphere) is not there."""


class TangentPlane(SteerellError):
    """The requested plane is the common tangent plane, whose section is a single point."""


class EmptySection(SteerellError):
    """The requested plane does not intersect the ellipsoid in a real ellipse."""


class NotNested(SteerellError):
    """The ellipse is not contained in the circle, so no nested-conic homology exists."""


class AtInfinity(SteerellError):
    """The homology maps the requested point to the line at infinity."""


class InvalidReducedState(SteerellError):
    """Bob's reduced point is not strictly inside the region required by the operation."""


class DegeneratePlane(SteerellError):
    """The plane section is too degenerate (collapsed ellipse) for a verdict."""


class BOutsideEllipsoid(InvalidReducedState):
    """Bob's reduced point does not lie inside the steering ellipsoid, or,
    for an in-plane verdict, inside the section ellipse."""


class CollinearSteeredStates(SteerellError):
    """The steered states do not span a plane, so no planar assemblage exists."""


class NoPureState(SteerellError):
    """The assemblage does not contain the required pure steered state."""


class InvalidSemiaxes(SteerellError):
    """Family parameters violate the geometric validity range."""
