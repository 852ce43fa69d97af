"""Steering ellipsoid geometry, sphere-contact classification, plane sections."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerell import families, sampling
from steerell.ellipsoid import (
    DEGENERATE,
    MULTI_TANGENT,
    NO_CONTACT,
    SINGLE_TANGENT,
    ellipsoid_from_geometry,
    plane_section,
    steering_ellipsoid,
    tangency,
)
from steerell.errors import (
    AliceReducedPure,
    DegenerateEllipsoid,
    NotOnSurface,
    TangentPlane,
)
from steerell.paulicore import state_from_pauli, steered_ensemble

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# ellipsoid construction
# ---------------------------------------------------------------------------

def test_sphere_family_geometry():
    ell = steering_ellipsoid(families.tangent_sphere_state(0.3))
    npt.assert_allclose(ell.centre, [0, 0, 0.7], atol=1e-12)
    npt.assert_allclose(ell.semiaxes, [0.3, 0.3, 0.3], atol=1e-12)


def test_semiaxes_sorted_descending():
    ell = ellipsoid_from_geometry([0, 0, 0.1], [0.2, 0.5, 0.3])
    npt.assert_allclose(ell.semiaxes, [0.5, 0.3, 0.2])
    npt.assert_allclose(ell.axes @ ell.axes.T, np.eye(3), atol=1e-12)


@given(seed=seeds)
@example(seed=804)  # semiaxes (0.40, 0.056, 8.8e-5): quadric value ~4e-9, distance ~2e-13
@settings(max_examples=60, deadline=None)
def test_steered_points_lie_on_surface(seed):
    # the two steered states of any projective measurement sit on the
    # ellipsoid; the quadric value scales like 1/semiaxis^2 on thin
    # ellipsoids, so the check is on the first-order distance, as in C9
    rng = np.random.default_rng(seed)
    state = sampling.random_state(rng)
    ell = steering_ellipsoid(state)
    minv = ell.inverse_shape_matrix()
    for _ in range(5):
        ens = steered_ensemble(state, sampling.random_unit_vector(rng))
        for point in ens.points:
            grad = 2.0 * np.linalg.norm(minv @ (point - ell.centre))
            assert abs(ell.surface_value(point)) / grad < 1e-9


def test_degenerate_alice_marginal_rejected():
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex)
    from steerell.paulicore import state_from_density

    with pytest.raises(DegenerateEllipsoid):
        steering_ellipsoid(state_from_density(rho))


def test_zero_volume_flag():
    # product state: the ellipsoid collapses to the single point b
    state = state_from_pauli([0, 0, 0], [0, 0, 0.5], np.zeros((3, 3)))
    ell = steering_ellipsoid(state)
    assert ell.zero_volume
    npt.assert_allclose(ell.centre, [0, 0, 0.5], atol=1e-12)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ellipsoid_from_geometry([0, 0, 0], [0.4, 0.3, -0.1])


# ---------------------------------------------------------------------------
# sphere-contact classification
# ---------------------------------------------------------------------------

@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_single_contact_detected_and_consistent(seed):
    rng = np.random.default_rng(seed)
    state, ell, rep = sampling.random_tangent_state(rng)
    assert rep.status == SINGLE_TANGENT
    assert abs(np.linalg.norm(rep.point) - 1.0) < 1e-8
    assert abs(ell.surface_value(rep.point)) < 1e-8
    # the reported axis really steers outcome +1 onto the contact point
    ens = steered_ensemble(state, rep.axis)
    npt.assert_allclose(ens.points[0], rep.point, atol=1e-7)
    assert ens.probabilities[0] == pytest.approx(rep.p_probability, abs=1e-9)


def test_no_contact_for_interior_ellipsoid():
    ell = ellipsoid_from_geometry([0.1, 0.0, 0.3], [0.3, 0.2, 0.15])
    assert tangency(ell).status == NO_CONTACT


# Full-rank states whose ellipsoids are nearly flat and lie inside the sphere:
# semiaxes (0.580, 0.274, 3.89e-5), roots [1.21, 2.48, 13.3, 6.58e8], and
# semiaxes (0.634, 0.148, 6.01e-5), roots [1.25, 2.12, 44.8, 2.63e8]. A root
# tolerance proportional to the largest root called the first root zero.
FLAT_INTERIOR_STATES = [
    (
        [0.0846053604431056, -0.1182410261844152, 0.16243448363918883],
        [-0.18103214521572134, 0.07721812715185072, 0.1474064288750624],
        [
            [0.2148358490993354, -0.14169283579847303, -0.37137784280930597],
            [0.04072541586425677, -0.028666593915373184, -0.050944387029795125],
            [0.17025460118118133, 0.23128030187061194, -0.24231864866302866],
        ],
    ),
    (
        [-0.24353879238933793, -0.08682491029735724, 0.500463073699789],
        [-0.30185700248729497, 0.21815326757354725, -0.10061515937157439],
        [
            [-0.2421486694529223, 0.0017928429548441788, -0.2658513068864173],
            [0.18894569322543664, 0.006564301060703992, 0.06765386370844016],
            [-0.3843344036981329, 0.08466968763988993, -0.1549775435108549],
        ],
    ),
]


@pytest.mark.parametrize("a, b, T", FLAT_INTERIOR_STATES)
def test_no_contact_for_nearly_flat_interior_ellipsoid(a, b, T):
    ell = steering_ellipsoid(state_from_pauli(a, b, T))
    assert ell.semiaxes[2] < 1e-4 and not ell.zero_volume
    rep = tangency(ell)
    assert rep.roots[3] > 1e8
    assert rep.status == NO_CONTACT


def test_two_pole_contact_is_multi():
    # major axis spans a full diameter: contact at both ends
    ell = ellipsoid_from_geometry([0, 0, 0], [1.0, 0.5, 0.4])
    assert tangency(ell).status == MULTI_TANGENT


def test_equator_circle_contact_is_degenerate():
    # oblate spheroid touching along a whole circle
    ell = ellipsoid_from_geometry([0, 0, 0], [1.0, 1.0, 0.4])
    assert tangency(ell).status == DEGENERATE


def test_full_ball_is_degenerate():
    ell = steering_ellipsoid(state_from_pauli([0, 0, 0], [0, 0, 0], np.diag([1, -1, 1])))
    npt.assert_allclose(ell.semiaxes, [1, 1, 1], atol=1e-9)
    assert tangency(ell).status == DEGENERATE


@pytest.mark.parametrize("c", [0.0, 0.3, 0.6, 0.9, 0.99])
def test_osculating_contact_single_point(c):
    # the obese ellipsoid touches with matched curvature; the quartic root is
    # fourfold but the contact set is still the single point +z
    if c == 0.0:
        pytest.skip("c=0 is the full ball")
    ell, _b, _p = families.obese_geometry(c)
    rep = tangency(ell)
    assert rep.status == SINGLE_TANGENT
    npt.assert_allclose(rep.point, [0, 0, 1], atol=1e-6)


def test_x_geometry_contact():
    ell, b, p = families.tangent_x_geometry(0.2, 0.5, 0.6, 0.4)
    rep = tangency(ell)
    assert rep.status == SINGLE_TANGENT
    npt.assert_allclose(rep.point, [0, 0, 1], atol=1e-9)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_abstract_tangent_sampler_contact(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    rep = tangency(ell)
    assert rep.status == SINGLE_TANGENT
    npt.assert_allclose(rep.point, p, atol=1e-6)


# ---------------------------------------------------------------------------
# plane sections
# ---------------------------------------------------------------------------

def test_section_requires_surface_point():
    ell = ellipsoid_from_geometry([0, 0, 0.5], [0.5, 0.4, 0.3])
    with pytest.raises(NotOnSurface):
        plane_section(ell, np.array([0, 0, 1.0]), np.array([1.0, 0, 0]))


def test_section_rejects_tangent_plane():
    ell, _b, p = families.spheroid_geometry(0.5, 0.4)
    with pytest.raises(TangentPlane):
        plane_section(ell, p, np.array([0, 0, 1.0]))


@pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2, 2.0])
def test_spheroid_section_semiaxes(theta):
    # planes through the symmetry axis cut (m, n) ellipses for every azimuth
    m, n = 0.55, 0.35
    ell, _b, p = families.spheroid_geometry(m, n)
    normal = np.array([np.sin(theta), np.cos(theta), 0.0])
    section = plane_section(ell, p, normal)
    assert section.R == pytest.approx(1.0, abs=1e-12)
    assert section.m == pytest.approx(m, abs=1e-9)
    assert section.n == pytest.approx(n, abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, np.pi / 2])
def test_x_geometry_section_semiaxes(theta):
    a, b, t_x, t_y = 0.2, 0.5, 0.6, 0.4
    ell, _bv, p = families.tangent_x_geometry(a, b, t_x, t_y)
    normal = np.array([np.sin(theta), -np.cos(theta), 0.0])
    section = plane_section(ell, p, normal)
    assert section.m == pytest.approx(0.625, abs=1e-9)
    assert section.n == pytest.approx(families.x_section_n(a, b, t_x, t_y, theta), abs=1e-9)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_section_frame_round_trip(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    normal = sampling.random_unit_vector(rng)
    normal -= (normal @ p) * p * 0.5  # keep away from the tangent plane limit
    normal /= np.linalg.norm(normal)
    if abs(normal @ p) > 0.95:
        return
    section = plane_section(ell, p, normal)
    x = section.from_plane(np.array([0.1, -0.2]))
    npt.assert_allclose(section.to_plane(x), [0.1, -0.2], atol=1e-12)
    # the contact point is the in-plane origin
    npt.assert_allclose(section.to_plane(p), [0.0, 0.0], atol=1e-9)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_section_parameters_reproduce_boundary(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    normal = sampling.random_unit_vector(rng)
    if abs(normal @ p) > 0.9:
        return
    section = plane_section(ell, p, normal)
    # points of the named (m, n, delta) ellipse land on the ellipsoid surface
    from steerell.projective import ellipse_point

    for t in np.linspace(0.0, 2 * np.pi, 13):
        uv = ellipse_point(section.m, section.n, section.delta, t)
        x = section.from_plane(uv)
        assert abs(ell.surface_value(x)) < 1e-8
