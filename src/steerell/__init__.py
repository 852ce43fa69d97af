"""Steering-ellipsoid steerability analysis for two-qubit states.

Decides EPR steerability in the scenario where Alice holds two projective
measurements and one of them steers Bob to a pure state. The decision runs
through the quantum steering ellipsoid: its contact point with the Bloch
sphere, plane sections through that point, a homology mapping each section
ellipse to the sphere section, and a signed margin for Bob's reduced point.
An independent in-plane triangle oracle cross-checks every verdict.
"""
from .criteria import (
    ALL_INSIDE,
    ALL_OUTSIDE,
    CROSSING,
    Analysis,
    PlaneBounds,
    PlaneVerdict,
    ProbBounds,
    analyze,
    classify_locus,
    locus_of_h,
    p_bounds,
    p_bounds_in_plane,
    pure_state_probability,
    steerable_in_plane,
)
from .ellipsoid import (
    DEGENERATE,
    MULTI_TANGENT,
    NO_CONTACT,
    SINGLE_TANGENT,
    PlaneSection,
    SteeringEllipsoid,
    TangencyReport,
    ellipsoid_from_geometry,
    plane_section,
    steering_ellipsoid,
    tangency,
)
from .errors import (
    AtInfinity,
    BOutsideEllipsoid,
    CollinearSteeredStates,
    DegenerateEllipsoid,
    DegenerateOutcome,
    DegeneratePlane,
    EmptySection,
    InvalidReducedState,
    InvalidSemiaxes,
    NonPhysical,
    NoPureState,
    NotNested,
    NoTangency,
    NotOnSurface,
    SteerellError,
    TangentPlane,
)
from .families import (
    obese_density_matrix,
    obese_geometry,
    obese_state,
    obese_steerable,
    spheroid_geometry,
    spheroid_p_bounds,
    sphere_inner_radius,
    sphere_threshold,
    tangent_sphere_state,
    tangent_spheroid_state,
    tangent_x_geometry,
    tangent_x_state,
    x_locus_endpoint,
    x_section_n,
    x_semiaxes,
    x_state_p_bounds,
    x_state_steerable,
)
from .kernels import DEFAULT_BACKEND, HAVE_NUMBA
from .oracle import (
    Assemblage,
    OracleVerdict,
    TriangleSearchResult,
    assemblage_from_geometry,
    assemblage_from_state,
    triangle_criterion,
    triangle_search,
)
from .paulicore import (
    SteeredEnsemble,
    TwoQubitState,
    state_from_density,
    state_from_json_dict,
    state_from_pauli,
    state_to_json_dict,
    steered_ensemble,
)
from .projective import Homology, apply, chord_h_point, homology, transport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
