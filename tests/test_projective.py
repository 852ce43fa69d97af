"""Homology between a tangent section ellipse and its circumscribing circle."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerell import sampling
from steerell.errors import AtInfinity, NotNested
from steerell.projective import (
    Homology,
    apply,
    chord_h_point,
    circle_conic,
    conic_value,
    ellipse_point,
    homology,
    normalize_conic,
    tangent_ellipse_conic,
    transport,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_interior_point(rng, m, n, delta):
    # convex combination of the origin and a boundary point stays inside
    t = rng.uniform(0.0, 2.0 * np.pi)
    lam = rng.uniform(0.15, 0.85)
    return lam * ellipse_point(m, n, delta, t)


def test_circle_conic_values():
    c = circle_conic(0.5)
    assert conic_value(c, np.array([0.0, 0.0])) == pytest.approx(0.0)
    assert conic_value(c, np.array([1.0, 0.0])) == pytest.approx(0.0)
    assert conic_value(c, np.array([0.5, 0.0])) < 0
    assert conic_value(c, np.array([0.5, 0.6])) > 0


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_ellipse_point_on_conic(seed):
    rng = np.random.default_rng(seed)
    m, n, delta, _r = sampling.random_nested_section(rng)
    conic = tangent_ellipse_conic(m, n, delta)
    for t in np.linspace(0, 2 * np.pi, 9):
        assert abs(conic_value(conic, ellipse_point(m, n, delta, t))) < 1e-10


def test_tangent_ellipse_through_origin():
    conic = tangent_ellipse_conic(0.5, 0.3, 0.4)
    assert abs(conic_value(conic, np.array([0.0, 0.0]))) < 1e-12
    # tangent to the v axis: points (0, eps) are outside for either sign
    assert conic_value(conic, np.array([0.0, 1e-3])) > 0
    assert conic_value(conic, np.array([0.0, -1e-3])) > 0


@given(seed=seeds)
@settings(max_examples=80, deadline=None)
def test_homology_maps_ellipse_to_circle(seed):
    rng = np.random.default_rng(seed)
    m, n, delta, r = sampling.random_nested_section(rng)
    hom = homology(m, n, delta, r)
    circ = circle_conic(r)
    for t in np.linspace(0, 2 * np.pi, 11):
        image = apply(hom, ellipse_point(m, n, delta, t))
        assert abs(conic_value(circ, image)) < 1e-9


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_homology_inverse_round_trip(seed):
    rng = np.random.default_rng(seed)
    m, n, delta, r = sampling.random_nested_section(rng)
    hom = homology(m, n, delta, r)
    x = _random_interior_point(rng, m, n, delta)
    # H^-1 takes the image back, in homogeneous coordinates
    back = hom.inverse_matrix() @ np.append(apply(hom, x), 1.0)
    npt.assert_allclose(back[:2] / back[2], x, atol=1e-10)
    npt.assert_allclose(hom.inverse_matrix() @ hom.matrix(), np.eye(3), atol=1e-12)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_conic_transport_reproduces_circle(seed):
    rng = np.random.default_rng(seed)
    m, n, delta, r = sampling.random_nested_section(rng)
    hom = homology(m, n, delta, r)
    moved = transport(hom, tangent_ellipse_conic(m, n, delta))
    diff = normalize_conic(moved) - normalize_conic(circle_conic(r))
    assert np.linalg.norm(diff) < 1e-9


def test_not_nested_rejected():
    # transverse semiaxis too large for the circle: n^2 > m R
    with pytest.raises(NotNested):
        homology(0.2, 0.6, 0.0, 0.5)


def test_at_infinity_guard():
    hom = Homology(alpha=0.5, beta=0.0, gamma=-0.5, R=1.0, m=0.5, n=0.5, delta=0.0)
    with pytest.raises(AtInfinity):
        apply(hom, np.array([1.0, 0.0]))


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_chord_construction_matches_direct_map(seed):
    # h recovered from chord intersections is chord-independent and equals
    # the direct homology image
    rng = np.random.default_rng(seed)
    m, n, delta, r = sampling.random_nested_section(rng)
    hom = homology(m, n, delta, r)
    b = _random_interior_point(rng, m, n, delta)
    direct = apply(hom, b)
    values = []
    for t in np.linspace(0.1, 2 * np.pi, 6, endpoint=False):
        e1 = ellipse_point(m, n, delta, t)
        # chords almost collinear with the centre ray through b sit at the
        # singularity of the circle lift; only well-separated chords carry
        # the 1e-9 agreement
        if abs(e1[0] * b[1] - e1[1] * b[0]) < 1e-3 * max(m, 1.0) * np.linalg.norm(b):
            continue
        try:
            values.append(chord_h_point(m, n, delta, r, b, t))
        except AtInfinity:
            continue
    assert len(values) >= 4
    values = np.array(values)
    spread = np.ptp(values, axis=0).max()
    assert spread < 1e-9
    npt.assert_allclose(values.mean(axis=0), direct, atol=1e-9)


def test_sphere_section_shrinks_to_inner_circle():
    # for a sphere of radius r every section threshold is 1 - r, and shrinking
    # the section toward p by the complementary factor r leaves the in-plane
    # trace of the inner tangent sphere of radius r^2
    from steerell.criteria import p_bounds_in_plane
    from steerell.ellipsoid import plane_section, steering_ellipsoid
    from steerell.families import sphere_inner_radius, tangent_sphere_state

    r = 0.6
    ell = steering_ellipsoid(tangent_sphere_state(r))
    p = np.array([0.0, 0.0, 1.0])
    section = plane_section(ell, p, np.array([np.sin(0.7), 0.0, np.cos(0.7)]))
    bounds = p_bounds_in_plane(section)
    assert bounds.p_min == pytest.approx(1 - r, abs=1e-9)
    assert bounds.p_max == pytest.approx(1 - r, abs=1e-9)
    e_conic = tangent_ellipse_conic(section.m, section.n, section.delta)
    expect = circle_conic(sphere_inner_radius(r) * section.R)
    for bound in (bounds.p_max, bounds.p_min):
        # the conic of the ellipse scaled by 1 - bound about p
        f_inv = np.diag([1.0, 1.0, 1.0 - bound])
        shrunk = f_inv.T @ e_conic @ f_inv
        assert np.linalg.norm(normalize_conic(shrunk) - normalize_conic(expect)) < 1e-8


def test_invariants_of_a_thin_ellipse_along_the_v_axis():
    # m^2 + n^2 + (m^2 - n^2) cos 2 delta rounds to 0 at delta = pi/2 when
    # n << m; the ellipse ((u - n)/n)^2 + (v/m)^2 = 1 has the conic
    # (m/n)^2 u^2 - 2 (m^2/n) u + v^2 = 0, up to the uv term that the rounding
    # of pi/2 leaves
    m, n = 0.5, 2e-9
    conic = tangent_ellipse_conic(m, n, np.pi / 2)
    assert conic[0, 0] == pytest.approx(1.0 + (m / n) ** 2, rel=1e-9)
    assert conic[0, 2] == pytest.approx(-m * m / n, rel=1e-9)
    assert abs(conic[0, 1]) <= 1e-12 * conic[0, 0]


def test_invariants_reject_vanishing_semiaxes():
    with pytest.raises(ValueError, match="semiaxes too small"):
        ellipse_point(0.0, 0.0, 0.3, 0.0)
