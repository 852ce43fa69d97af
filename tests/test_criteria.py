"""Per-plane margins, the h locus, probability bounds and their consistency."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerell import (
    ALL_INSIDE,
    ALL_OUTSIDE,
    CROSSING,
    BOutsideEllipsoid,
    InvalidReducedState,
    DegeneratePlane,
    NotOnSurface,
    PlaneSection,
    classify_locus,
    ellipsoid_from_geometry,
    homology,
    kernels,
    locus_of_h,
    obese_state,
    p_bounds,
    p_bounds_in_plane,
    plane_section,
    pure_state_probability,
    sampling,
    shrunken_ellipses,
    spheroid_geometry,
    spheroid_p_bounds,
    steerable_in_plane,
    steering_ellipsoid,
    tangent_x_geometry,
    x_locus_endpoint,
    x_state_p_bounds,
)
from steerell.projective import conic_value, ellipse_point, tangent_ellipse_conic

seeds = st.integers(min_value=0, max_value=2**32 - 1)

P_TOP = np.array([0.0, 0.0, 1.0])


def _sphere(r):
    return ellipsoid_from_geometry([0.0, 0.0, 1.0 - r], [r, r, r])


def test_pure_state_probability_sphere_closed_form():
    # chord along the axis has length 2r, so the weight is 1 - (1 - bz)/(2r)
    for r in (0.2, 0.5, 0.8):
        ell = _sphere(r)
        for bz in (1.0 - 0.3 * r, 1.0 - r, 1.0 - 1.7 * r):
            got = pure_state_probability(ell, P_TOP, [0.0, 0.0, bz])
            assert got == pytest.approx(1.0 - (1.0 - bz) / (2.0 * r), abs=1e-12)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_pure_state_probability_far_point_on_surface(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    b = sampling.random_interior_point(rng, ell)
    if np.linalg.norm(b - p) < 1e-3:
        return
    w = pure_state_probability(ell, p, b)
    assert 0.0 < w < 1.0
    # the far chord point q = p + |pb|/(1-w) u must sit on the surface
    d = b - p
    q = p + d / (1.0 - w)
    assert abs(ell.surface_value(q)) < 1e-9


def test_pure_state_probability_boundary_cases():
    ell = _sphere(0.5)
    assert pure_state_probability(ell, P_TOP, P_TOP) == 1.0
    assert pure_state_probability(ell, P_TOP, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(BOutsideEllipsoid):
        pure_state_probability(ell, P_TOP, [0.0, 0.0, -0.2])
    with pytest.raises(BOutsideEllipsoid):
        pure_state_probability(ell, P_TOP, [0.6, 0.0, 0.9])


def test_reduced_point_outside_section_rejected():
    ell = _sphere(0.4)
    section = plane_section(ell, P_TOP, [1.0, 0.0, 0.0])
    with pytest.raises(InvalidReducedState):
        steerable_in_plane(section, [1.9, 0.0])


def test_locus_rejects_bad_contact_and_reduced_points():
    ell = _sphere(0.4)
    with pytest.raises(InvalidReducedState):
        locus_of_h(ell, [0.0, 0.0, 0.1], p=P_TOP)  # outside the ellipsoid
    with pytest.raises(InvalidReducedState):
        locus_of_h(ell, P_TOP, p=P_TOP)
    with pytest.raises(NotOnSurface):
        locus_of_h(ell, [0.0, 0.0, 0.6], p=[1.0, 0.0, 0.0])
    # p on both surfaces where they cross: the ellipsoid normal is not along p
    crossing = ellipsoid_from_geometry([0.0, 0.0, 0.8], [0.5, 0.5, 0.5])
    z = 1.39 / 1.6
    with pytest.raises(NotOnSurface):
        locus_of_h(crossing, [0.0, 0.0, 0.8], p=[np.sqrt(1.0 - z * z), 0.0, z])


def test_degenerate_section_rejected():
    flat = PlaneSection(
        point=P_TOP,
        normal=np.array([1.0, 0.0, 0.0]),
        u_axis=np.array([0.0, 0.0, -1.0]),
        v_axis=np.array([0.0, 1.0, 0.0]),
        R=0.5,
        m=0.3,
        n=0.0,
        delta=0.0,
        degenerate=True,
    )
    with pytest.raises(DegeneratePlane):
        steerable_in_plane(flat, [0.1, 0.0])
    with pytest.raises(DegeneratePlane):
        p_bounds_in_plane(flat)


def _plane_threshold(section, b_local):
    """Chord-slope threshold of the section at b_local, computed directly."""
    hom = homology(section.m, section.n, section.delta, section.R, check=False)
    ub, vb = float(b_local[0]), float(b_local[1])
    assert ub > 1e-12
    k = vb / ub
    sig = hom.alpha + k * hom.beta
    return ((1.0 + k * k) * (1.0 - hom.gamma) - 2.0 * hom.R * sig) / (
        1.0 + k * k - 2.0 * hom.R * (1.0 + hom.gamma) * sig
    )


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_shared_reduction_matches_eigen_path(seed):
    # the component-wise kernels against the independent eigen-decomposition
    # path plane_section -> homology, plane by plane over one pencil
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    b = sampling.random_interior_point(rng, ell)
    d = b - p
    if np.linalg.norm(d) < 1e-2:
        return
    d /= np.linalg.norm(d)
    e1 = np.cross(d, [1.0, 0.3, 0.2])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    ts = np.linspace(0.0, np.pi, 24, endpoint=False)
    minv = ell.inverse_shape_matrix()
    g = minv @ (p - ell.centre)
    thresh, valid = kernels.scan_pencil(minv, ell.centre, p, b, e1, e2, ts)
    for t, thr, ok in zip(ts, thresh, valid):
        normal = np.cos(t) * e1 + np.sin(t) * e2
        section = plane_section(ell, p, normal)
        hom = homology(section.m, section.n, section.delta, section.R, check=False)
        al, be, ga, radius, _, _, ok_plane = kernels.reduce_planes(minv, g, p, *normal)
        assert ok_plane
        np.testing.assert_allclose(
            [al, be, ga, radius], [hom.alpha, hom.beta, hom.gamma, hom.R], rtol=0, atol=1e-9
        )
        b_local = section.to_plane(b)
        assert ok == (b_local[0] > 1e-12)
        if ok:
            assert thr == pytest.approx(_plane_threshold(section, b_local), abs=1e-9)
    # the batched locus against the eigen path on each of its own planes
    locus = locus_of_h(ell, b, n_planes=24, p=p)
    for normal, margin, point in zip(locus.normals, locus.margins, locus.points):
        section = plane_section(ell, p, normal)
        verdict = steerable_in_plane(section, section.to_plane(b))
        assert margin == pytest.approx(verdict.margin, abs=1e-9)
        if verdict.h_local is not None and np.isfinite(point).all():
            np.testing.assert_allclose(point, section.from_plane(verdict.h_local), rtol=0, atol=1e-9)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_margin_sign_matches_threshold_comparison(seed):
    # in-plane margin > 0 must coincide with the pure-state weight exceeding
    # the chord threshold of that plane
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    b = sampling.random_interior_point(rng, ell)
    if np.linalg.norm(b - p) < 1e-2:
        return
    w = pure_state_probability(ell, p, b)
    locus = locus_of_h(ell, b, n_planes=24, p=p)
    for normal, margin in zip(locus.normals, locus.margins):
        section = plane_section(ell, p, normal)
        thr = _plane_threshold(section, section.to_plane(b))
        if abs(w - thr) < 1e-10 or abs(margin) < 1e-12:
            continue
        assert (margin > 0.0) == (w > thr)


def test_x_geometry_locus_endpoints_frozen():
    ell, b, p = tangent_x_geometry(0.2, 0.5, 0.6, 0.4)
    locus = locus_of_h(ell, b, n_planes=360, p=p)
    dist = np.linalg.norm(locus.points - p, axis=1)
    assert np.isfinite(dist).all()
    assert dist.min() == pytest.approx(x_locus_endpoint(0.5, 0.6), abs=1e-9)
    assert dist.max() == pytest.approx(x_locus_endpoint(0.5, 0.4), abs=1e-9)
    assert dist.min() == pytest.approx(50.0 / 61.0, abs=1e-12)
    assert dist.max() == pytest.approx(50.0 / 41.0, abs=1e-12)


def test_classify_locus_obese_all_inside():
    state = obese_state(0.5)
    ell = steering_ellipsoid(state)
    assert classify_locus(ell, state.b, n_planes=48) == ALL_INSIDE


def test_classify_locus_spheroid_all_outside():
    # the canonical reduced point carries weight 1/2, below the plane minimum
    ell, b, p = spheroid_geometry(0.5, 0.4)
    lo, hi = spheroid_p_bounds(0.5, 0.4)
    w = pure_state_probability(ell, p, b)
    assert w == pytest.approx(0.5, abs=1e-12)
    assert w < lo
    assert classify_locus(ell, b, n_planes=48, p=p) == ALL_OUTSIDE


def test_classify_locus_x_crossing():
    # thresholds 0.36 and 0.09 straddle the weight factor 0.15
    ell, b, p = tangent_x_geometry(0.2, 0.5, 0.6, 0.3)
    assert classify_locus(ell, b, n_planes=48, p=p) == CROSSING


def test_classify_locus_x_all_inside_thin_margin():
    ell, b, p = tangent_x_geometry(0.2, 0.5, 0.6, 0.4)
    assert classify_locus(ell, b, n_planes=48, p=p) == ALL_INSIDE


def test_x_geometry_pencil_bounds_match_closed_form():
    ell, b, p = tangent_x_geometry(0.2, 0.5, 0.6, 0.4)
    lo, hi = x_state_p_bounds(0.2, 0.5, 0.6, -0.4)
    out = p_bounds(ell, p=p, b=b, resolution=(180, 360))
    assert out.mode == "pencil"
    assert out.p_min == pytest.approx(lo, abs=1e-9)
    assert out.p_max == pytest.approx(hi, abs=1e-9)
    assert out.p_min == pytest.approx(5.0 / 13.0, abs=1e-9)
    assert out.p_max == pytest.approx(45.0 / 77.0, abs=1e-9)


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_global_bounds_bracket_pencil_thresholds(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    out = p_bounds(ell, p=p, resolution=(90, 180))
    assert out.mode == "ellipsoid"
    assert out.p_min <= out.p_max
    for _ in range(3):
        b = sampling.random_interior_point(rng, ell)
        if np.linalg.norm(b - p) < 1e-2:
            continue
        pen = p_bounds(ell, p=p, b=b, resolution=(64, 64))
        assert out.p_min <= pen.p_min + 1e-6
        assert pen.p_max <= out.p_max + 1e-6


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_shrunken_ellipses_bound_the_margin(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    theta, phi = rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)
    nrm = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    try:
        section = plane_section(ell, p, nrm)
    except Exception:
        return
    if section.degenerate:
        return
    inner, outer, bounds = shrunken_ellipses(section)
    assert bounds.p_min <= bounds.p_max
    e_conic = tangent_ellipse_conic(section.m, section.n, section.delta)
    for psi in np.linspace(0.1, 2 * np.pi, 17):
        edge = ellipse_point(section.m, section.n, section.delta, psi)
        for f in (0.15, 0.5, 0.85):
            pt = f * edge
            if conic_value(e_conic, pt) > -1e-12 or np.linalg.norm(pt) < 1e-9:
                continue
            margin = steerable_in_plane(section, pt).margin
            if conic_value(inner, pt) < -1e-10:
                assert margin > 0.0
            if conic_value(outer, pt) > 1e-10:
                assert margin <= 0.0


def test_locus_result_shapes():
    ell = _sphere(0.5)
    locus = locus_of_h(ell, [0.0, 0.0, 0.3], n_planes=12, p=P_TOP)
    assert locus.points.shape == (12, 3)
    assert locus.margins.shape == (12,)
    assert locus.normals.shape == (12, 3)
    assert np.isfinite(locus.points).all()
