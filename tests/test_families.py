"""Closed-form families: constructors, frozen values, and scan agreement."""
import numpy as np
import numpy.testing as npt
import pytest

from steerell import (
    InvalidSemiaxes,
    NonPhysical,
    obese_density_matrix,
    obese_geometry,
    obese_state,
    obese_steerable,
    p_bounds,
    plane_section,
    pure_state_probability,
    spheroid_geometry,
    spheroid_p_bounds,
    sphere_inner_radius,
    sphere_threshold,
    state_from_density,
    steerable_in_plane,
    steering_ellipsoid,
    tangency,
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

P_TOP = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 0.5, 0.3, -0.3),
        (0.2, 1.0, 0.3, -0.3),
        (0.2, 0.5, 0.0, -0.3),
        (0.2, 0.5, 0.3, 0.0),
        (0.5, 0.2, 0.3, -0.3),
    ],
)
def test_x_state_range_errors(args):
    with pytest.raises(InvalidSemiaxes):
        tangent_x_state(*args)
    with pytest.raises(InvalidSemiaxes):
        tangent_x_geometry(*args)


def test_x_state_requires_opposite_transverse_signs():
    # positivity kills every X state with t_y != -t_x on this tangent slice
    with pytest.raises(NonPhysical):
        tangent_x_state(0.2, 0.5, 0.6, 0.4)
    with pytest.raises(NonPhysical):
        tangent_x_state(0.0, 0.3, 0.5, 0.5)
    tangent_x_state(0.2, 0.5, 0.6, -0.6)


def test_x_geometry_containment_guard():
    # n^2 > m pokes through the sphere
    with pytest.raises(InvalidSemiaxes):
        tangent_x_geometry(0.0, 0.96, 0.5, -0.5)


def test_spheroid_range_errors():
    for bad in [(0.0, 0.3), (1.0, 0.3), (0.5, 0.0), (0.5, 0.8)]:
        with pytest.raises(InvalidSemiaxes):
            tangent_spheroid_state(*bad)
        with pytest.raises(InvalidSemiaxes):
            spheroid_geometry(*bad)
        with pytest.raises(InvalidSemiaxes):
            spheroid_p_bounds(*bad)


def test_spheroid_constructors_share_one_range_rule():
    # n = sqrt(m) is the marginal spheroid n^2 = m, and sqrt(m)^2 rounds
    # above m for 130 of these m; the state constructor alone rejected those
    ms = np.linspace(0.2, 0.8, 601)
    assert sum(np.sqrt(m) ** 2 > m for m in ms) == 130
    for m in ms:
        n = np.sqrt(m)
        state = tangent_spheroid_state(m, n)
        ell, _b, _p = spheroid_geometry(m, n)
        npt.assert_allclose(steering_ellipsoid(state).semiaxes, ell.semiaxes, rtol=0, atol=1e-12)
        spheroid_p_bounds(m, n)
    # a transverse semiaxis clearly outside the ball is rejected by all three
    for make in (tangent_spheroid_state, spheroid_geometry, spheroid_p_bounds):
        with pytest.raises(InvalidSemiaxes):
            make(0.5, np.sqrt(0.5 + 1e-8))


def test_obese_range_errors():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(InvalidSemiaxes):
            obese_state(bad)
        with pytest.raises(InvalidSemiaxes):
            obese_density_matrix(bad)
        with pytest.raises(InvalidSemiaxes):
            obese_steerable(bad)
        with pytest.raises(InvalidSemiaxes):
            obese_geometry(bad)


def test_sphere_range_errors():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(InvalidSemiaxes):
            tangent_sphere_state(bad)
        with pytest.raises(InvalidSemiaxes):
            sphere_threshold(bad)
        with pytest.raises(InvalidSemiaxes):
            sphere_inner_radius(bad)


# ---------------------------------------------------------------------------
# geometry agreement between state and abstract constructions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", [(0.2, 0.5, 0.6, -0.6), (0.0, 0.3, 0.4, -0.4), (-0.3, 0.1, 0.5, -0.5)])
def test_x_state_matches_its_geometry(params):
    state = tangent_x_state(*params)
    ell = steering_ellipsoid(state)
    ell_g, b_vec, p = tangent_x_geometry(*params)
    npt.assert_allclose(ell.centre, ell_g.centre, atol=1e-12)
    npt.assert_allclose(np.sort(ell.semiaxes), np.sort(ell_g.semiaxes), atol=1e-12)
    npt.assert_allclose(state.b, b_vec, atol=1e-12)
    rep = tangency(ell)
    assert rep.status == "SingleTangent"
    npt.assert_allclose(rep.point, p, atol=1e-6)


def test_x_semiaxes_values():
    n_x, n_y, m = x_semiaxes(0.2, 0.5, 0.6, 0.4)
    root = np.sqrt(0.96)
    assert n_x == pytest.approx(0.6 / root)
    assert n_y == pytest.approx(0.4 / root)
    assert m == pytest.approx(0.625)


def test_x_section_n_interpolates_semiaxes():
    n_x, n_y, _ = x_semiaxes(0.2, 0.5, 0.6, 0.4)
    assert x_section_n(0.2, 0.5, 0.6, 0.4, 0.0) == pytest.approx(n_x)
    assert x_section_n(0.2, 0.5, 0.6, 0.4, np.pi / 2) == pytest.approx(n_y)
    mid = x_section_n(0.2, 0.5, 0.6, 0.4, np.pi / 4)
    assert min(n_x, n_y) < mid < max(n_x, n_y)


def test_obese_state_matches_its_geometry():
    for c in (0.0, 0.3, 0.7):
        state = obese_state(c)
        ell = steering_ellipsoid(state)
        ell_g, b_vec, _p = obese_geometry(c)
        npt.assert_allclose(ell.centre, ell_g.centre, atol=1e-12)
        npt.assert_allclose(np.sort(ell.semiaxes), np.sort(ell_g.semiaxes), atol=1e-12)
        npt.assert_allclose(state.b, b_vec, atol=1e-12)


def test_obese_density_matrix_is_the_rotated_state():
    # the two-term mixture lives in a frame flipped by Alice's pi rotation
    # about x; pulling a and the T rows through diag(1, -1, -1) recovers the
    # canonical obese Pauli data
    flip = np.diag([1.0, -1.0, -1.0])
    for c in (0.0, 0.25, 0.6, 0.9):
        st = state_from_density(obese_density_matrix(c))
        ref = obese_state(c)
        npt.assert_allclose(flip @ st.a, ref.a, atol=1e-12)
        npt.assert_allclose(st.b, ref.b, atol=1e-12)
        npt.assert_allclose(flip @ st.T, ref.T, atol=1e-12)


# ---------------------------------------------------------------------------
# frozen criterion and bound values
# ---------------------------------------------------------------------------


def test_x_steerable_frozen_margins():
    steer0, m1_0, _ = x_state_steerable(0.2, 0.5, 0.6, -0.4, 0.0)
    steer9, m1_9, _ = x_state_steerable(0.2, 0.5, 0.6, -0.4, np.pi / 2)
    assert steer0 and steer9
    assert m1_0 == pytest.approx(0.21, abs=1e-12)
    assert m1_9 == pytest.approx(0.01, abs=1e-12)


def test_x_steerable_forms_agree_on_grid():
    for a in np.linspace(-0.5, 0.5, 7):
        for b in np.linspace(max(a, -0.2) + 0.05, 0.8, 7):
            for t in (0.1, 0.3, 0.6):
                for theta in np.linspace(0, np.pi, 9):
                    x_state_steerable(a, b, t, -t, theta)  # raises on disagreement


def test_x_p_bounds_frozen():
    lo, hi = x_state_p_bounds(0.2, 0.5, 0.6, 0.4)
    assert lo == pytest.approx(5.0 / 13.0, abs=1e-15)
    assert hi == pytest.approx(45.0 / 77.0, abs=1e-15)
    assert lo == pytest.approx(0.38461538461538464, abs=1e-15)
    assert hi == pytest.approx(0.5844155844155844, abs=1e-15)


def test_x_locus_endpoint_values():
    assert x_locus_endpoint(0.5, 0.6) == pytest.approx(50.0 / 61.0, abs=1e-15)
    assert x_locus_endpoint(0.5, 0.4) == pytest.approx(50.0 / 41.0, abs=1e-15)


def test_sphere_closed_forms():
    assert sphere_threshold(0.3) == pytest.approx(0.7)
    assert sphere_inner_radius(0.3) == pytest.approx(0.09)
    state = tangent_sphere_state(0.3)
    ell = steering_ellipsoid(state)
    npt.assert_allclose(ell.semiaxes, [0.3, 0.3, 0.3], atol=1e-12)
    npt.assert_allclose(ell.centre, [0.0, 0.0, 0.7], atol=1e-12)


def test_sphere_scan_matches_threshold():
    for r in (0.25, 0.5, 0.75):
        ell = steering_ellipsoid(tangent_sphere_state(r))
        out = p_bounds(ell, p=P_TOP, resolution=(90, 180))
        assert out.p_min == pytest.approx(1.0 - r, abs=1e-9)
        assert out.p_max == pytest.approx(1.0 - r, abs=1e-9)


def test_spheroid_p_bounds_regimes():
    # prolate: in-plane minimum, axis-parallel maximum
    lo, hi = spheroid_p_bounds(0.5, 0.4)
    assert lo == pytest.approx(0.25 / 0.41, abs=1e-15)
    assert hi == pytest.approx(0.68, abs=1e-15)
    # oblate swaps the pairing
    lo2, hi2 = spheroid_p_bounds(0.6, 0.7)
    assert lo2 == pytest.approx(1.0 - 0.49 / 0.6, abs=1e-12)
    assert hi2 == pytest.approx(0.24 / (0.24 + 0.49), abs=1e-12)
    assert lo2 == pytest.approx(0.18333333333333332, abs=1e-12)
    assert hi2 == pytest.approx(0.3287671232876712, abs=1e-12)


def test_spheroid_p_bounds_continuous_at_sphere():
    lo, hi = spheroid_p_bounds(0.5, 0.5)
    assert lo == hi == pytest.approx(0.5)
    for eps in (1e-9, -1e-9):
        lo_e, hi_e = spheroid_p_bounds(0.5, 0.5 + eps)
        assert lo_e == pytest.approx(0.5, abs=1e-8)
        assert hi_e == pytest.approx(0.5, abs=1e-8)


def test_spheroid_scan_matches_closed_forms():
    for m, n in ((0.5, 0.4), (0.3, 0.5), (0.7, 0.6)):
        ell, _b, p = spheroid_geometry(m, n)
        lo, hi = spheroid_p_bounds(m, n)
        out = p_bounds(ell, p=p, resolution=(120, 240))
        assert out.p_min == pytest.approx(lo, abs=1e-8)
        assert out.p_max == pytest.approx(hi, abs=1e-8)


def test_obese_bounds_are_degenerate_spheroid_case():
    # the obese ellipsoid is the marginal spheroid n^2 = m, giving bounds
    # (0, c/(1+c))
    for c in (0.2, 0.5, 0.8):
        m = 1.0 - c
        lo, hi = spheroid_p_bounds(m, np.sqrt(m))
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(c / (1.0 + c), abs=1e-12)


def test_obese_margin_and_weight():
    # weight of the pure member is 1/2 and the in-plane margin is (1-c)^2 in
    # every pencil plane
    for c in (0.1, 0.5, 0.9):
        ell, b_vec, p = obese_geometry(c)
        assert pure_state_probability(ell, p, b_vec) == pytest.approx(0.5, abs=1e-12)
        for phi in (0.0, 0.7, 2.1):
            nrm = np.array([np.sin(phi), np.cos(phi), 0.0])
            section = plane_section(ell, p, nrm)
            verdict = steerable_in_plane(section, section.to_plane(b_vec))
            assert verdict.steerable
            assert verdict.margin == pytest.approx((1.0 - c) ** 2, abs=1e-9)


def test_obese_on_axis_criterion():
    # a reduced point moved along the axis is steerable iff
    # b_z > (3c - 1)/(1 + c)
    for c in (0.3, 0.5, 0.8):
        ell, _b, p = obese_geometry(c)
        bz_star = (3.0 * c - 1.0) / (1.0 + c)
        section = plane_section(ell, p, [1.0, 0.0, 0.0])
        for shift in (0.02, -0.02):
            bz = bz_star + shift
            verdict = steerable_in_plane(section, section.to_plane([0.0, 0.0, bz]))
            assert verdict.steerable == (shift > 0)
        at_star = steerable_in_plane(section, section.to_plane([0.0, 0.0, bz_star]))
        assert abs(at_star.margin) < 1e-9
