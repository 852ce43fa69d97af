"""Steering ellipsoid geometry, sphere-contact classification, plane sections."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerell import ellipsoid, families, sampling
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
    DegenerateEllipsoid,
    NotOnSurface,
    TangentPlane,
)
from steerell.paulicore import state_from_density, state_from_pauli, steered_ensemble
from steerell.tolerances import TOL_SECULAR_GAP

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _fibonacci_sphere(count):
    """count nearly uniform unit vectors, (count, 3), on a Fibonacci spiral."""
    i = np.arange(count, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


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
# semiaxes (0.580, 0.274, 3.89e-5), |x|max - 1 = -0.103, and semiaxes
# (0.634, 0.148, 6.01e-5), |x|max - 1 = -0.070. A contact test on the roots
# of det(kappa S - E), with a tolerance proportional to the largest root
# (about 1/c^2), once called them Degenerate.
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
    assert rep.excess < 0.0
    assert rep.status == NO_CONTACT


def _flat_tangent_ellipsoid(rng, c):
    """Ellipsoid with semiaxes (0.3-0.7, 0.1-0.3, c), tangent to the sphere
    from inside at a random point p: (ellipsoid, p)."""
    dirs = _fibonacci_sphere(400)
    while True:
        semi = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.3), c])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = q @ np.diag(semi * semi) @ q.T
        p = sampling.random_unit_vector(rng)
        centre = p - w @ p / np.sqrt(p @ w @ p)
        surface = centre + (dirs @ w) / np.sqrt(np.einsum("ij,jk,ik->i", dirs, w, dirs))[:, None]
        if np.linalg.norm(surface, axis=1).max() <= 1.0 + 1e-7:
            return ellipsoid_from_geometry(centre, semi, axes=q), p


def test_nearly_flat_tangent_ellipsoid_is_single_tangent():
    # the kernel threshold relative to the largest singular value, about
    # 1/c^2, called 36 of these 100 MultiTangent
    rng = np.random.default_rng(7)
    for _ in range(100):
        ell, p = _flat_tangent_ellipsoid(rng, 1e-3)
        rep = tangency(ell)
        assert rep.status == SINGLE_TANGENT
        assert np.linalg.norm(rep.point - p) <= 1e-6


@pytest.mark.parametrize("c", [1e-5, 1e-6])
def test_very_flat_tangent_ellipsoid_is_single_tangent(c):
    # the kernel of kappa* S - E, on which contact was once decided, called
    # 19 of these 100 MultiTangent at c = 1e-5 and 91 at c = 1e-6
    rng = np.random.default_rng(7)
    for _ in range(100):
        ell, p = _flat_tangent_ellipsoid(rng, c)
        rep = tangency(ell)
        assert rep.status == SINGLE_TANGENT
        assert np.linalg.norm(rep.point - p) <= 1e-6


def test_kernel_tangent_draws_are_single_tangent():
    # every state annihilating a product vector touches the sphere; a double
    # root of det(kappa S - E) that rounding split called 2 of these 1,472
    # NoContact
    rng = np.random.default_rng(123)
    count = 0
    for _ in range(1500):
        state = state_from_density(sampling._kernel_tangent_density(rng))
        ell = steering_ellipsoid(state)
        if ell.semiaxes[2] < 0.05:
            continue
        count += 1
        rep = tangency(ell)
        assert rep.status == SINGLE_TANGENT
        assert abs(np.linalg.norm(rep.point) - 1.0) < 1e-12
        assert abs(ell.surface_value(rep.point)) < 1e-9
    assert count == 1472


def test_held_out_spheroid_touches_at_the_pole():
    # n^2 = 0.172 < m: the spheroid touches the sphere at +z only
    ell = steering_ellipsoid(families.tangent_spheroid_state(0.2144821677291983, 0.4145494333598302))
    rep = tangency(ell)
    assert rep.status == SINGLE_TANGENT
    npt.assert_allclose(rep.point, [0, 0, 1], atol=1e-12)


def _touching(centre, semiaxes):
    """The ellipsoid with this centre and these semiaxes, scaled about the
    origin until its farthest point lies on the sphere."""
    centre, semiaxes = np.asarray(centre, dtype=float), np.asarray(semiaxes, dtype=float)
    scale = 1.0 / (1.0 + tangency(ellipsoid_from_geometry(centre, semiaxes)).excess)
    return ellipsoid_from_geometry(scale * centre, scale * semiaxes)


@pytest.mark.parametrize(
    "ell, status",
    [
        (families.obese_geometry(0.99)[0], SINGLE_TANGENT),
        (ellipsoid_from_geometry([0, 0, 0], [1.0, 0.5, 0.4]), MULTI_TANGENT),
        # q_z = a_z c_z / (a_max^2 - a_z^2) = 1/sqrt(2), so tau^2 = a_max^2 / 2
        (_touching([0, 0, 0.21 / (0.2 * np.sqrt(2.0))], [0.5, 0.3, 0.2]), MULTI_TANGENT),
        (ellipsoid_from_geometry([0, 0, 0], [1.0, 1.0, 0.4]), DEGENERATE),
    ],
    ids=["osculating", "two_points", "two_points_off_centre", "circle"],
)
def test_hard_case_statuses(ell, status):
    # the centre has no component along the largest axis: the secular root
    # sits at the pole a_max^2, and tau^2 and the largest axis's
    # multiplicity decide the contact set
    rep = tangency(ell)
    assert rep.secular_gap <= TOL_SECULAR_GAP * ell.semiaxes[0] ** 2
    assert abs(rep.excess) < 1e-12
    assert rep.status == status


def test_root_held_off_the_pole_by_another_axis_is_generic():
    # the secular root lies within the hard-case window above a_max^2, but
    # the second axis, 2e-7 below the largest, holds it there (tau^2 < 0):
    # one farthest point, given by the generic formula. The ellipsoid is
    # scaled to touch the sphere.
    a1 = np.sqrt(1.0 - 2e-7)
    ell = _touching([0.0, 1.2 * 2e-7 / a1, 0.01], [1.0, a1, 0.5])
    rep = tangency(ell)
    assert rep.secular_gap <= 0.5 * TOL_SECULAR_GAP * ell.semiaxes[0] ** 2
    assert rep.status == SINGLE_TANGENT
    assert abs(ell.surface_value(rep.point)) < 1e-12
    grad = ell.inverse_shape_matrix() @ (rep.point - ell.centre)
    npt.assert_allclose(grad / np.linalg.norm(grad), rep.point, atol=1e-12)


def _rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.linalg.det(q))


@pytest.mark.parametrize("c", [1e-5, 1e-3, 0.5, 0.99])
def test_rotated_obese_state_is_single_tangent(c):
    # local rotations leave the contact osculating, but the eigenvectors of
    # the double largest semiaxis come out rotated, so the centre gets a
    # rounding-size component along them
    rng = np.random.default_rng(11)
    state = families.obese_state(c)
    for _ in range(20):
        ra, rb = _rotation(rng), _rotation(rng)
        rep = tangency(steering_ellipsoid(state_from_pauli(ra @ state.a, rb @ state.b, ra @ state.T @ rb.T)))
        assert rep.status == SINGLE_TANGENT
        npt.assert_allclose(rep.point, rb[:, 2], atol=1e-6)


@pytest.mark.parametrize(
    "centre, semiaxes", [([0, 0, 0.5], [0.7, 0.6, 0.6]), ([0, 0, 0.2], [0.9, 0.85, 0.8])]
)
def test_ellipsoid_leaving_the_ball_is_degenerate(centre, semiaxes):
    # it meets the sphere along a curve, not at tangent points
    rep = tangency(ellipsoid_from_geometry(centre, semiaxes))
    assert rep.excess > 1e-4
    assert rep.status == DEGENERATE
    assert rep.point is None


def test_excess_is_the_farthest_distance():
    # |x|max from the secular equation against a dense sample of the surface
    rng = np.random.default_rng(3)
    dirs = _fibonacci_sphere(20000)
    for _ in range(30):
        semi = rng.uniform(0.05, 0.8, 3)
        ell = ellipsoid_from_geometry(rng.uniform(-0.3, 0.3, 3), semi, axes=_rotation(rng))
        surface = ell.centre + (dirs * ell.semiaxes) @ ell.axes.T
        sampled = np.linalg.norm(surface, axis=1).max() - 1.0
        excess = tangency(ell).excess
        assert sampled - 1e-12 <= excess <= sampled + 1e-3


def test_float_solve_matches_numpy():
    # `tangency` solves for the steering axis on floats; np.linalg.solve is
    # the reference, to a rounding tolerance set by the condition number
    rng = np.random.default_rng(4)
    for _ in range(200):
        m, r = rng.standard_normal((3, 3)), rng.standard_normal(3)
        want = np.linalg.solve(m, r)
        got = ellipsoid._solve3(m.tolist(), r.tolist())
        tol = 1e-14 * np.linalg.cond(m) * np.linalg.norm(want)
        assert np.linalg.norm(np.subtract(got, want)) <= tol
    assert ellipsoid._solve3([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]], [1.0, 1.0, 1.0]) is None


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
    # the sampler leaves nesting to tangency: a dense sample of the surface
    # stays in the ball
    surface = ell.centre + (_fibonacci_sphere(400) * ell.semiaxes) @ ell.axes.T
    assert np.linalg.norm(surface, axis=1).max() <= 1.0 + 1e-9


def test_tangent_state_sampler_propagates_faults(monkeypatch):
    # a rejected draw is redrawn; a fault in the code is not a rejected draw
    def broken(state):
        raise TypeError("broken steering_ellipsoid")

    monkeypatch.setattr(sampling, "steering_ellipsoid", broken)
    with pytest.raises(TypeError, match="broken steering_ellipsoid"):
        sampling.random_tangent_state(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# plane sections
# ---------------------------------------------------------------------------

def test_section_requires_surface_point():
    ell = ellipsoid_from_geometry([0, 0, 0.5], [0.5, 0.4, 0.3])
    with pytest.raises(NotOnSurface):
        plane_section(ell, np.array([0, 0, 1.0]), np.array([1.0, 0, 0]))


def test_contact_check_admits_the_ball_and_its_osculating_ellipsoids():
    # the unit sphere and maximally obese states touch with the sphere's
    # curvature; rounding must not make them flatter
    p = np.array([0.0, 0.0, 1.0])
    unit = ellipsoid_from_geometry([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    for point in (p, p * (1.0 + 1e-7), [1e-4, -2e-4, np.sqrt(1.0 - 5e-8)]):
        npt.assert_array_equal(ellipsoid.check_on_both_surfaces(unit, point), unit.inverse_shape_matrix())
    for r in (0.3, 0.999999):
        ellipsoid.check_on_both_surfaces(ellipsoid_from_geometry([0.0, 0.0, 1.0 - r], [r, r, r]), p)
    # a sphere of radius 1 + 1e-6 touching at p is flatter by 1e-6
    with pytest.raises(NotOnSurface, match="^ellipsoid is flatter than the unit sphere"):
        ellipsoid.check_on_both_surfaces(ellipsoid_from_geometry([0.0, 0.0, -1e-6], [1.0 + 1e-6] * 3), p)
    rng = np.random.default_rng(5)
    for c in (1e-6, 0.5, 0.999, 1.0 - 1e-6, 1.0 - 1e-7):
        state = families.obese_state(c)
        ell, _b, top = families.obese_geometry(c)
        ellipsoid.check_on_both_surfaces(ell, top)
        for _ in range(20):
            ra, rb = _rotation(rng), _rotation(rng)
            ell = steering_ellipsoid(state_from_pauli(ra @ state.a, rb @ state.b, ra @ state.T @ rb.T))
            rep = tangency(ell)
            assert rep.status == SINGLE_TANGENT
            ellipsoid.check_on_both_surfaces(ell, rep.point)


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


def _numpy_section(ell, p, normal):
    """(R, m, n, delta, u, v) of the section by numpy's 2x2 `solve` and `eigh`:
    the reference `plane_section` is held to."""
    nrm = np.asarray(normal, dtype=float)
    nrm = nrm / np.linalg.norm(nrm)
    minv = ell.inverse_shape_matrix()
    d = float(nrm @ p)
    radius = np.sqrt(max(1.0 - d * d, 0.0))
    u_axis = (d * nrm - p) / radius
    v_axis = np.cross(nrm, u_axis)
    grad = minv @ (p - ell.centre)
    a2 = np.array([[u_axis @ minv @ u_axis, u_axis @ minv @ v_axis], [u_axis @ minv @ v_axis, v_axis @ minv @ v_axis]])
    lvec = np.array([u_axis @ grad, v_axis @ grad])
    rho = float(lvec @ np.linalg.solve(a2, lvec))
    lam, vec = np.linalg.eigh(a2)
    delta = float(np.arctan2(vec[1, 0], vec[0, 0]))
    return radius, np.sqrt(rho / lam[0]), np.sqrt(rho / lam[1]), delta, u_axis, v_axis


def _reference_sections():
    """Seeded sections of random tangent ellipsoids and of the ellipsoids of
    random tangent states, away from the tangent plane."""
    for seed in range(150):
        rng = np.random.default_rng(seed)
        if seed % 2:
            ell, p = sampling.random_tangent_ellipsoid(rng)
        else:
            _state, ell, report = sampling.random_tangent_state(rng)
            p = report.point
        normal = sampling.random_unit_vector(rng)
        if abs(normal @ p) < 0.95:
            yield ell, p, normal


def test_float_plane_section_matches_numpy_reference():
    checked = tilted = 0
    for ell, p, normal in _reference_sections():
        section = plane_section(ell, p, normal)
        radius, m, n, delta, u_axis, v_axis = _numpy_section(ell, p, normal)
        assert section.R == pytest.approx(radius, abs=1e-12)
        assert section.m == pytest.approx(m, abs=1e-12)
        assert section.n == pytest.approx(n, abs=1e-12)
        npt.assert_allclose(section.u_axis, u_axis, atol=1e-12)
        npt.assert_allclose(section.v_axis, v_axis, atol=1e-12)
        assert -np.pi / 2 < section.delta <= np.pi / 2
        if m - n > 1e-6 * m:
            # the major axis is a line: compare angles mod pi
            gap = (section.delta - delta) % np.pi
            assert min(gap, np.pi - gap) < 1e-9
            tilted += 1
        checked += 1
    assert checked >= 100 and tilted >= 100


def test_float_plane_section_delta_range_on_axis_aligned_sections():
    # a_uv = 0 with the major axis along v: atan2(-0.0, x < 0) is -pi, and
    # delta must still land in (-pi/2, pi/2]
    ell, _b, p = families.spheroid_geometry(0.5, 0.6)
    section = plane_section(ell, p, np.array([1.0, 0.0, 0.0]))
    assert section.m == pytest.approx(0.6, abs=1e-9)
    assert section.n == pytest.approx(0.5, abs=1e-9)
    assert section.delta == pytest.approx(np.pi / 2, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_plane_section_rejects_non_finite_input(bad):
    ell, _b, p = families.spheroid_geometry(0.5, 0.4)
    with pytest.raises(ValueError, match="normal has non-finite entries"):
        plane_section(ell, p, [bad, 1.0, 0.0])
    with pytest.raises(ValueError, match="point has non-finite entries"):
        plane_section(ell, [0.0, bad, 1.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_steered_ensemble_rejects_non_finite_axis(bad):
    state = state_from_pauli([0, 0, 0.1], [0, 0, 0.4], np.diag([0.5, -0.5, 0.7]))
    for axis in ([bad, 0.0, 0.0], [0.0, 1.0, bad]):
        with pytest.raises(ValueError, match="axis has non-finite entries"):
            steered_ensemble(state, axis)


def test_float_steered_ensemble_matches_the_formula():
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = sampling.random_state(rng)
        axis = rng.standard_normal(3) * rng.uniform(0.1, 10.0)
        ens = steered_ensemble(state, axis)
        n = axis / np.linalg.norm(axis)
        npt.assert_allclose(ens.axis, n, atol=1e-15)
        for idx, r in enumerate((1.0, -1.0)):
            w = 1.0 + r * (n @ state.a)
            assert ens.probabilities[idx] == pytest.approx(w / 2.0, abs=1e-15)
            npt.assert_allclose(ens.points[idx], (state.b + r * state.T.T @ n) / w, atol=1e-13)
