"""Per-plane margins, the h locus, probability bounds and their consistency."""
import ast
import functools
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

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
    criteria,
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
    spheroid_geometry,
    spheroid_p_bounds,
    steerable_in_plane,
    steering_ellipsoid,
    tangency,
    tangent_sphere_state,
    tangent_spheroid_state,
    tangent_x_geometry,
    tangent_x_state,
    x_locus_endpoint,
    x_semiaxes,
    x_state_p_bounds,
)
from steerell.errors import AtInfinity, SteerellError
from steerell.projective import apply, conic_value, ellipse_point, tangent_ellipse_conic
from steerell.tolerances import BOUNDARY_BAND, TOL_GEOM

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
    # within TOL_GEOM of the surface on a chord nearly tangent at p, b lies
    # past q: it is on the surface, so q is b and p_p is 0. This raised
    # BOutsideEllipsoid though the scans accept the same b
    b = [1e-4, 0.0, 1.0 - 9.875e-9]
    assert 0.0 < ell.surface_value(b) <= TOL_GEOM
    assert pure_state_probability(ell, P_TOP, b) == 0.0
    assert criteria.analyze(ell, b, p=P_TOP, n_planes=12).pure_state_probability == 0.0


def test_reduced_point_outside_section_rejected():
    ell = _sphere(0.4)
    section = plane_section(ell, P_TOP, [1.0, 0.0, 0.0])
    with pytest.raises(BOutsideEllipsoid):
        steerable_in_plane(section, [1.9, 0.0])


def _homology_verdict(section, b_local):
    """(margin, h_local) of b_local by the paper's construction: the section's
    homology, the conic of its ellipse and the image of b under H. Raises
    InvalidReducedState where b_local is outside the ellipse."""
    hom = homology(section.m, section.n, section.delta, section.R, check=False)
    value = conic_value(tangent_ellipse_conic(section.m, section.n, section.delta), b_local)
    if value > TOL_GEOM:
        raise InvalidReducedState(f"conic value {value:.3e}")
    margin = kernels.plane_margin(
        hom.R * hom.alpha, hom.R * hom.beta, hom.gamma, hom.R, float(b_local[0]), float(b_local[1])
    )
    try:
        h_local = apply(hom, b_local)
    except AtInfinity:
        h_local = None
    return margin, h_local


def _homology_bounds(section):
    """(p_min, p_max) of `kernels.plane_bounds` on the homology's column."""
    hom = homology(section.m, section.n, section.delta, section.R, check=False)
    return kernels.plane_bounds(hom.R * hom.alpha, hom.R * hom.beta, hom.gamma)


def _seeded_sections(n_draws):
    """Sections of seeded `random_tangent_ellipsoid` and `random_tangent_state`
    ellipsoids through their contact points, three random normals each, with
    the generator that drew them."""
    rng = np.random.default_rng(17)
    for i in range(n_draws):
        if i % 2:
            ell, p = sampling.random_tangent_ellipsoid(rng)
        else:
            _state, ell, rep = sampling.random_tangent_state(rng)
            p = rep.point
        for _ in range(3):
            try:
                section = plane_section(ell, p, rng.normal(size=3))
            except SteerellError:
                continue
            if not section.degenerate:
                yield section, rng


def test_in_plane_verdicts_match_the_homology():
    # the kernels' formulas on the ellipse invariants against the homology
    # path they replace, inside and outside the ellipse
    n_inside = n_outside = 0
    for section, rng in _seeded_sections(120):
        bounds = p_bounds_in_plane(section)
        lo, hi = _homology_bounds(section)
        assert bounds.p_min == pytest.approx(max(lo, 0.0), rel=0, abs=1e-12)
        assert bounds.p_max == pytest.approx(hi, rel=0, abs=1e-12)
        for f in (0.05, 0.4, 0.8, 0.97, 1.05, 1.6):
            b_local = f * ellipse_point(section.m, section.n, section.delta, rng.uniform(0.0, 2.0 * np.pi))
            if f > 1.0:
                with pytest.raises(InvalidReducedState):
                    _homology_verdict(section, b_local)
                with pytest.raises(InvalidReducedState):
                    steerable_in_plane(section, b_local)
                n_outside += 1
                continue
            margin, h_local = _homology_verdict(section, b_local)
            verdict = steerable_in_plane(section, b_local)
            assert verdict.margin == pytest.approx(margin, rel=0, abs=1e-12)
            assert (verdict.h_local is None) == (h_local is None)
            if h_local is not None:
                np.testing.assert_allclose(verdict.h_local, h_local, rtol=1e-12, atol=1e-12)
            n_inside += 1
    assert n_inside >= 1000 and n_outside >= 500


def test_plane_bounds_are_never_negative():
    # the README's section of obese_state(0.5) in the plane y = 0: p_min
    # rounded to -2.2e-16 before the clamp
    state = obese_state(0.5)
    ell = steering_ellipsoid(state)
    section = plane_section(ell, tangency(ell).point, [0.0, 1.0, 0.0])
    bounds = p_bounds_in_plane(section)
    assert bounds.p_min == 0.0
    assert bounds.p_max == pytest.approx(1.0 / 3.0, rel=0, abs=1e-12)


def _spheroid_call(name):
    """A call of the entry point `name` on the spheroid (0.5, 0.4) with the
    reduced point b (3-D) or its in-plane point (2-D) as argument."""
    ell, _b, p = spheroid_geometry(0.5, 0.4)
    section = plane_section(ell, p, [0.0, 1.0, 0.0])
    return {
        "steerable_in_plane": lambda b_local: steerable_in_plane(section, b_local),
        "pure_state_probability": lambda b: pure_state_probability(ell, p, b),
        "pencil p_bounds": lambda b: p_bounds(ell, p=p, b=b, resolution=(7, 14)),
        "locus_of_h": lambda b: locus_of_h(ell, b, n_planes=12, p=p),
        "classify_locus": lambda b: classify_locus(ell, b, n_planes=12, p=p),
        "analyze": lambda b: criteria.analyze(ell, b, p=p, n_planes=12),
    }[name]


ENTRY_POINTS = [
    "steerable_in_plane", "pure_state_probability", "pencil p_bounds", "locus_of_h", "classify_locus", "analyze"
]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_rejects_a_non_finite_b(entry_point):
    # a NaN passes every `> tol` guard: the in-plane verdict came out
    # "decided" with margin NaN, the probability NaN, the pencil bounds
    # (inf, -inf) over 0 planes, and the locus and analyze raised
    # DegeneratePlane
    call = _spheroid_call(entry_point)
    in_plane = entry_point == "steerable_in_plane"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^b_local has non-finite" if in_plane else "^b has non-finite"):
            call([bad, 0.0] if in_plane else [bad, 0.0, 0.5])


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_rejects_b_outside_with_one_exception(entry_point):
    # b = (0, 0, -0.2) lies below the spheroid, which spans z in [0, 1]; in
    # the plane y = 0 it is b_local = (1.2, 0). The probability and analyze
    # raised BOutsideEllipsoid (exit 1 in the CLI), the scans
    # InvalidReducedState (exit 3); now all raise the one subclass
    assert issubclass(BOutsideEllipsoid, InvalidReducedState)
    call = _spheroid_call(entry_point)
    in_plane = entry_point == "steerable_in_plane"
    where = "section ellipse" if in_plane else "ellipsoid"
    with pytest.raises(BOutsideEllipsoid, match=f"^b is outside the {where}"):
        call([1.2, 0.0] if in_plane else [0.0, 0.0, -0.2])


def test_verdict_does_not_depend_on_the_second_setting():
    # A state of `random_tangent_state` is rho = sum_k |v_k><v_k| with every
    # v_k orthogonal to the product vector |phi chi>; its steerability sum
    # over Alice's second setting is |Pi beta|^2 + |Pi gamma|^2 for every
    # setting, and Alice's filtering moves b along p q without changing the
    # ellipsoid. So b's threshold is one number across its pencil, and
    # every pencil plane gives b the same verdict.
    rng = np.random.default_rng(25)
    for _ in range(1000):
        state, ell, rep = sampling.random_tangent_state(rng)
        result = criteria.analyze(ell, state.b, p=rep.point, n_planes=90)
        thresholds = result.thresholds[result.valid]
        assert thresholds.size > 0
        assert thresholds.max() - thresholds.min() <= 1e-10
        margins = result.locus.margins
        classification = criteria.classify_margins(margins)
        assert classification != CROSSING or np.abs(margins).max() < BOUNDARY_BAND
        gap = result.pure_state_probability - thresholds.max()
        if abs(gap) > 1e-10:
            assert classification == (ALL_INSIDE if gap > 0.0 else ALL_OUTSIDE)


def _imports(module):
    """(module, names) of each `from ... import` in a steerell source file,
    the module relative to the package."""
    path = Path(criteria.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                name = name.removeprefix("steerell").lstrip(".")
            names = [alias.name for alias in node.names]
            if name == "":  # from . import x
                for sub in names:
                    yield sub, ["*"]
            else:
                yield name, names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("steerell."):
                    yield alias.name.removeprefix("steerell."), ["*"]


def test_layering_keeps_the_verdicts_off_the_construction():
    # criteria decides from the kernels' formulas, not from the homology of
    # projective; the oracle is the independent check of both, and takes
    # nothing from either but the pure-state weight
    assert [m for m, _ in _imports("criteria") if m == "projective"] == []
    oracle = list(_imports("oracle"))
    assert [m for m, _ in oracle if m == "projective"] == []
    assert [names for m, names in oracle if m == "criteria"] == [["pure_state_probability"]]


def _bad_contacts():
    """(ellipsoid, p, message) for three points p that are not the contact
    point, with the NotOnSurface message each must raise."""
    ell = _sphere(0.4)
    # p on both surfaces where they cross: the ellipsoid normal is not along p
    crossing = ellipsoid_from_geometry([0.0, 0.0, 0.8], [0.5, 0.5, 0.5])
    z = 1.39 / 1.6
    return [
        (ell, [0.0, 0.0, 0.9], "not on the unit sphere"),
        (ell, [1.0, 0.0, 0.0], "not on the ellipsoid surface"),
        (crossing, [np.sqrt(1.0 - z * z), 0.0, z], "normal at the point is not along it"),
    ]


def test_locus_rejects_bad_contact_and_reduced_points():
    # every scan through p, and a plane section, takes only the contact
    # point, with the messages of its one test; a scan takes only a b inside
    scans = {
        "locus_of_h": lambda ell, p, b: locus_of_h(ell, b, n_planes=12, p=p),
        "full-sphere p_bounds": lambda ell, p, b: p_bounds(ell, p=p, resolution=(7, 14)),
        "pencil p_bounds": lambda ell, p, b: p_bounds(ell, p=p, b=b, resolution=(7, 14)),
        "plane_section": lambda ell, p, b: plane_section(ell, p, [0.0, 1.0, 0.0]),
    }
    for scan in scans.values():
        for surface, p, message in _bad_contacts():
            with pytest.raises(NotOnSurface, match=message):
                scan(surface, p, [0.0, 0.0, 0.6])
    ell = _sphere(0.4)
    for name in ("locus_of_h", "pencil p_bounds"):
        with pytest.raises(BOutsideEllipsoid, match="outside the ellipsoid"):
            scans[name](ell, P_TOP, [0.0, 0.0, 0.1])
        with pytest.raises(InvalidReducedState, match="coincides with the contact point"):
            scans[name](ell, P_TOP, P_TOP)


def test_b_on_the_tangent_plane_is_not_in_the_scenario():
    # on the sphere of radius 0.4 touching at +z, b = p + (1e-5, 0, 0) is
    # 6.25e-10 outside, within TOL_GEOM, so on the surface: its weight is 0.
    # Its pencil holds the tangent plane at p, where the locus and analyze
    # raised DegeneratePlane (CLI exit 1) and the pencil bounds returned
    ell, _b, p = spheroid_geometry(0.4, 0.4)
    for b in (p + [1e-5, 0.0, 0.0], p + [0.0, 1e-5, -1e-12]):
        assert 0.0 < ell.surface_value(b) <= TOL_GEOM
        assert pure_state_probability(ell, p, b) == 0.0
        for call in (
            lambda: criteria.analyze(ell, b, p=p, n_planes=12),
            lambda: locus_of_h(ell, b, n_planes=12, p=p),
            lambda: p_bounds(ell, p=p, b=b, resolution=(7, 14)),
        ):
            with pytest.raises(InvalidReducedState, match="^b is on the tangent plane at the contact point") as info:
                call()
            assert not isinstance(info.value, BOutsideEllipsoid)


def test_pure_state_probability_requires_the_contact_point():
    # with b at the centre of the sphere of radius 0.4 touching at +z, the
    # chord formula gave 0.2554 at (1, 0, 0), off the ellipsoid, and 0.5714
    # at (0, 0, 0.9), off the sphere, against 0.5 at the contact point
    b = [0.0, 0.0, 0.6]
    assert pure_state_probability(_sphere(0.4), P_TOP, b) == pytest.approx(0.5, abs=1e-12)
    for surface, p, message in _bad_contacts():
        with pytest.raises(NotOnSurface, match=message):
            pure_state_probability(surface, p, b)


def _ellipsoids_leaving_the_ball():
    """(ellipsoid, message) for ellipsoids through P_TOP with their normal
    along it there, which leave the ball at P_TOP, with the NotOnSurface
    message each must raise."""
    flatter = "^ellipsoid is flatter than the unit sphere at the point"
    return [
        # touches from outside: analyze returned p_min 0.0 and p_max -1.0,
        # and p_bounds scanned (0.0, -0.9999999999999987)
        (ellipsoid_from_geometry([0.0, 0.0, -1.0], [2.0, 2.0, 2.0]), flatter),
        # flatter than the sphere along x alone
        (ellipsoid_from_geometry([0.0, 0.0, 0.5], [1.2, 0.4, 0.5]), flatter),
        # the centre beyond the tangent plane
        (ellipsoid_from_geometry([0.0, 0.0, 2.0], [1.0, 1.0, 1.0]), "^ellipsoid lies beyond the tangent plane"),
        (ellipsoid_from_geometry([0.0, 0.0, 1.5], [0.7, 0.6, 0.5]), "^ellipsoid lies beyond the tangent plane"),
    ]


def test_an_ellipsoid_leaving_the_ball_at_p_is_rejected():
    calls = {
        "pure_state_probability": lambda ell, b: pure_state_probability(ell, P_TOP, b),
        "analyze": lambda ell, b: criteria.analyze(ell, b, p=P_TOP, n_planes=12),
        "full-sphere p_bounds": lambda ell, b: p_bounds(ell, p=P_TOP, resolution=(7, 14)),
        "pencil p_bounds": lambda ell, b: p_bounds(ell, p=P_TOP, b=b, resolution=(7, 14)),
        "locus_of_h": lambda ell, b: locus_of_h(ell, b, n_planes=12, p=P_TOP),
        "plane_section": lambda ell, b: plane_section(ell, P_TOP, [0.0, 1.0, 0.0]),
    }
    for ell, message in _ellipsoids_leaving_the_ball():
        # on both surfaces, with the normal along P_TOP: the old contact test
        assert abs(ell.surface_value(P_TOP)) <= 1e-12
        grad = ell.inverse_shape_matrix() @ (P_TOP - ell.centre)
        assert np.linalg.norm(np.cross(grad, P_TOP)) <= 1e-12
        for call in calls.values():
            with pytest.raises(NotOnSurface, match=message):
                call(ell, ell.centre)


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
    q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
    thresh, valid = kernels.scan_pencil(minv, ell.centre, p, b, e1, e2, ts)
    for t, thr, ok in zip(ts, thresh, valid):
        normal = np.cos(t) * e1 + np.sin(t) * e2
        section = plane_section(ell, p, normal)
        hom = homology(section.m, section.n, section.delta, section.R, check=False)
        s, c, cos_b, sin_b, ok_plane = kernels.polar_factors(*(q @ normal))
        assert ok_plane
        mu, nu, ga = kernels.reduce_planes(mp, gp, s, c, cos_b, sin_b)
        np.testing.assert_allclose(
            [mu, nu, ga, s],
            [hom.R * hom.alpha, hom.R * hom.beta, hom.gamma, hom.R],
            rtol=0,
            atol=1e-9,
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
    assert classify_locus(ell, state.b, n_planes=48, p=tangency(ell).point) == ALL_INSIDE


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
    # the ellipse shrunk toward p by 1 - p_max (points strictly inside it
    # are steerable) and by 1 - p_min (points outside it are not)
    bounds = p_bounds_in_plane(section)
    assert bounds.p_min <= bounds.p_max
    e_conic = tangent_ellipse_conic(section.m, section.n, section.delta)

    def shrink(factor):
        f_inv = np.diag([1.0, 1.0, factor])
        return f_inv.T @ e_conic @ f_inv

    inner, outer = shrink(1.0 - bounds.p_max), shrink(1.0 - bounds.p_min)
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


@pytest.mark.parametrize("resolution", [(180, 360), (45, 90), (7, 14)])
def test_hemisphere_scan_loses_no_plane(resolution):
    # n and -n give the same plane, so the p_bounds scan of the upper rows of
    # the contact-frame polar grid must reach the extremes of the scan over
    # the whole sphere of that grid's normals, taken to the world frame
    n_theta, n_phi = resolution
    a = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    b = np.arange(n_phi) * 2.0 * np.pi / n_phi
    sin_a = np.sin(a)[:, None]
    comp = np.broadcast_arrays(sin_a * np.cos(b), sin_a * np.sin(b), np.cos(a)[:, None])
    contact_normals = np.stack(comp, axis=-1).reshape(-1, 3)
    for seed in range(5):
        _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(seed))
        p, minv = rep.point, ell.inverse_shape_matrix()
        q = kernels.contact_frame(minv, ell.centre, p)[0]
        lo, hi, valid = kernels.scan_bounds(minv, ell.centre, p, contact_normals @ q)
        assert valid.all()
        out = p_bounds(ell, p=p, resolution=resolution, refine=False)
        assert out.p_min == pytest.approx(max(lo.min(), 0.0), rel=0, abs=1e-12)
        assert out.p_max == pytest.approx(hi.max(), rel=0, abs=1e-12)
        assert out.n_planes == -(-n_theta // 2) * n_phi


def test_full_sphere_bounds_peak_under_two_megabytes():
    # the blocked scan keeps a warm (180, 360) call to small temporaries;
    # evaluated as whole arrays it peaked at 4.45 MB
    import tracemalloc

    _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(4))
    p_bounds(ell, p=rep.point)
    tracemalloc.start()
    try:
        p_bounds(ell, p=rep.point)
        tracemalloc.reset_peak()
        p_bounds(ell, p=rep.point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024


@pytest.mark.parametrize("refine", [False, True])
def test_bounds_hand_out_normals_the_caller_may_write(refine):
    # the caller owns the arg-normals: writing to them changes no later call
    _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(8))
    first = p_bounds(ell, p=rep.point, resolution=(7, 14), refine=refine)
    want = (first.p_min, first.p_max, first.argmin_normal.tolist(), first.argmax_normal.tolist())
    for normal in (first.argmin_normal, first.argmax_normal):
        assert normal.flags.writeable
        normal[:] = np.nan
    again = p_bounds(ell, p=rep.point, resolution=(7, 14), refine=refine)
    assert (again.p_min, again.p_max, again.argmin_normal.tolist(), again.argmax_normal.tolist()) == want


@functools.lru_cache(maxsize=1)
def _analyze_cases():
    """(ell, b, p) of 20 seeded tangent states and one member of each
    closed-form family, as the CLI derives them."""
    cases = []
    for seed in range(20):
        state, ell, rep = sampling.random_tangent_state(np.random.default_rng(seed))
        cases.append((ell, state.b, rep.point))
    families = (
        tangent_sphere_state(0.4),
        tangent_spheroid_state(0.5, 0.4),
        obese_state(0.5),
        tangent_x_state(0.2, 0.5, 0.6, -0.6),
    )
    for state in families:
        ell = steering_ellipsoid(state)
        cases.append((ell, state.b, tangency(ell).point))
    return cases


def _bounds_fields(bounds):
    return (
        bounds.p_min,
        bounds.p_max,
        bounds.mode,
        bounds.n_planes,
        bounds.argmin_normal.tolist(),
        bounds.argmax_normal.tolist(),
    )


def _closed_form_bounds(ell, p):
    """`criteria._isotropic_bounds` on the contact frame of ell at p."""
    return criteria._isotropic_bounds(*criteria._frame(ell, criteria._contact(ell, p, None), p))


@pytest.mark.parametrize("n_planes", [180, 7])
def test_analyze_equals_the_separate_calls(n_planes):
    # one contact check and one pencil pass give exactly what the separate
    # calls give, one at a time: every case is a state, so its full-sphere
    # bounds are the closed form's. The bounds are computed on first read,
    # so each is checked read alone and read before or after the other.
    reads = (("bounds",), ("bounds_pencil",), ("bounds", "bounds_pencil"), ("bounds_pencil", "bounds"))
    for ell, b, p in _analyze_cases():
        got = criteria.analyze(ell, b, p=p, n_planes=n_planes)
        assert got.pure_state_probability == pure_state_probability(ell, p, b)
        locus = locus_of_h(ell, b, n_planes=n_planes, p=p)
        for field in ("points", "margins", "normals"):
            assert np.array_equal(getattr(got.locus, field), getattr(locus, field), equal_nan=True), field
        separate = {
            "bounds": _closed_form_bounds(ell, p),
            "bounds_pencil": p_bounds(ell, p=p, b=b, resolution=(n_planes, n_planes)),
        }
        for names in reads:
            got = criteria.analyze(ell, b, p=p, n_planes=n_planes)
            for name in names:
                assert _bounds_fields(getattr(got, name)) == _bounds_fields(separate[name]), names


def test_margin_sign_is_the_sign_of_p_p_above_the_threshold():
    # the paper's per-plane statement, read from one analyze pass: b is
    # steerable in a plane iff p_p exceeds that plane's threshold at b's
    # chord slope. The pass's thresholds must also be scan_pencil's, bit
    # for bit, so that the reference evaluator and the pass cannot drift.
    checked = 0
    for seed in range(50):
        state, ell, rep = sampling.random_tangent_state(np.random.default_rng(seed))
        p, b = rep.point, state.b
        got = criteria.analyze(ell, b, p=p, n_planes=180)
        e1, e2, ts = criteria._pencil(p, b, 180)
        thresholds, valid = kernels.scan_pencil(ell.inverse_shape_matrix(), ell.centre, p, b, e1, e2, ts)
        assert np.array_equal(got.valid, valid)
        assert np.array_equal(got.thresholds, thresholds)
        margins = got.locus.margins
        keep = valid & (np.abs(margins) > 1e-8)
        assert np.array_equal(np.sign(margins[keep]), np.sign(got.pure_state_probability - thresholds[keep]))
        checked += int(keep.sum())
    # the identity is checked on nearly every plane, not vacuously
    assert checked >= 0.95 * 50 * 180


# ---------------------------------------------------------------------------
# the closed-form full-sphere bounds of an ellipsoid isotropic at p
# ---------------------------------------------------------------------------


def _chord_threshold(ell, p, b):
    """t(w) = w^T N w / w^T D w at b's chord w = Q (b - p), with
    N = M' - g I and D = (1 + g / m) M' - g I in the contact frame."""
    q, mp, gp = criteria._frame(ell, criteria._contact(ell, p, None), p)
    mp, g = np.array(mp), gp[2]
    kappa = g / (0.5 * (mp[0, 0] + mp[1, 1]))
    n, d = mp - g * np.eye(3), (1.0 + kappa) * mp - g * np.eye(3)
    w = q @ (b - p)
    return (w @ n @ w) / (w @ d @ w)


def _density_matrix_bounds(state):
    """(p_min, p_max) of a rank-3 state from its density matrix alone.

    The kernel of rho is a product vector |phi chi>. In the basis
    (|phi' chi>, |phi chi'>, |phi' chi'>), primes the orthogonal kets, Alice's
    filtering keeps the ellipsoid and sends phi' to any ket psi, and the
    threshold of the chord it gives b is r22 R / (r22 R + |r12|^2) with
    R = psi^H A psi / psi^H C psi, A = r11 M - conj(u) u^T and
    C = M + diag(0, r11): M is the block of rho on the last two basis kets
    and u = (r12, r13). The bounds are its values at the extreme
    generalized eigenvalues of (A, C).
    """
    rho = state.density_matrix()
    _, vecs = np.linalg.eigh(rho)
    left, _, right = np.linalg.svd(vecs[:, 0].reshape(2, 2))
    phi, phi_o, chi, chi_o = left[:, 0], left[:, 1], right[0], right[1]
    basis = np.array([np.kron(phi_o, chi), np.kron(phi, chi_o), np.kron(phi_o, chi_o)]).T
    r = basis.conj().T @ rho @ basis
    r11, r22, u = r[0, 0].real, r[1, 1].real, r[0, 1:]
    a = r11 * r[1:, 1:] - np.outer(u.conj(), u)
    inv = np.linalg.inv(np.linalg.cholesky(r[1:, 1:] + np.diag([0.0, r11])))
    ratio = np.linalg.eigvalsh(inv @ a @ inv.conj().T)
    t = r22 * ratio / (r22 * ratio + abs(r[0, 1]) ** 2)
    return max(float(t.min()), 0.0), float(t.max())


def _rank3_draws(seed, n_draws):
    rng = np.random.default_rng(seed)
    return [sampling.random_tangent_state(rng) for _ in range(n_draws)]


def test_closed_form_bounds_match_the_refined_scan():
    # on states the refined (180, 360) scan reaches the closed form to
    # 1.0e-12; a scan value is the threshold of a real plane, so the closed
    # form's interval holds the scan's, up to rounding. The plane of each
    # attaining normal holds the attaining chord, so its in-plane bounds
    # reach the global one.
    for state, ell, rep in _rank3_draws(11, 1000):
        p = rep.point
        frame = criteria._frame(ell, criteria._contact(ell, p, None), p)
        closed = criteria._isotropic_bounds(*frame)
        scan = criteria._full_bounds(*frame, (180, 360), True)
        assert (closed.mode, closed.n_planes) == ("ellipsoid", 0)
        assert abs(closed.p_min - scan.p_min) <= 2e-12
        assert abs(closed.p_max - scan.p_max) <= 2e-12
        assert closed.p_min <= scan.p_min + 2e-12
        assert scan.p_max <= closed.p_max + 2e-12
        top = p_bounds_in_plane(plane_section(ell, p, closed.argmax_normal))
        assert top.p_max == pytest.approx(closed.p_max, abs=1e-10)
        if closed.p_min > 0.0:
            bottom = p_bounds_in_plane(plane_section(ell, p, closed.argmin_normal))
            assert bottom.p_min == pytest.approx(closed.p_min, abs=1e-10)


def test_closed_form_bounds_match_the_density_matrix_form():
    # the same bounds from rho's kernel basis, through no ellipsoid
    for state, ell, rep in _rank3_draws(12, 1000):
        closed = _closed_form_bounds(ell, rep.point)
        lo, hi = _density_matrix_bounds(state)
        assert closed.p_min == pytest.approx(lo, abs=1e-11)
        assert closed.p_max == pytest.approx(hi, abs=1e-11)


def test_closed_form_bounds_of_the_closed_form_families():
    # a sphere's pencil has a double root: the quadratic formula's
    # discriminant cancelled there and left r = 0.4 of the default sweep grid
    # 8.6e-9 off 1 - r
    for r in (*np.linspace(0.05, 0.95, 19), 0.3, 0.4, 0.5):
        out = _closed_form_bounds(steering_ellipsoid(tangent_sphere_state(r)), P_TOP)
        assert (out.p_min, out.p_max) == pytest.approx((1.0 - r, 1.0 - r), abs=1e-14)
    # the obese states have rank 2, where the density-matrix form fails
    for c in (*np.linspace(0.0, 0.99, 100), 0.01, 0.5):
        out = _closed_form_bounds(steering_ellipsoid(obese_state(c)), P_TOP)
        assert (out.p_min, out.p_max) == pytest.approx((0.0, c / (1.0 + c)), abs=1e-15)
    grid = np.linspace(0.2, 0.8, 7)
    spheroids = [(m, n) for m in grid for n in grid if n * n <= m]
    for m, n in (*spheroids, (0.6, 0.5), (0.3, 0.5), (0.5, 0.4), (0.4, 0.4), (0.2, 0.4472)):
        out = _closed_form_bounds(steering_ellipsoid(tangent_spheroid_state(m, n)), P_TOP)
        assert (out.p_min, out.p_max) == pytest.approx(spheroid_p_bounds(m, n), abs=1e-14)
    # a physical X state (t_y = -t_x) has the spheroid (n, n, m) of
    # `x_semiaxes`; the X closed form is the threshold of b's axial chord,
    # one end of the interval
    for a, b, t in ((0.1, 0.4, 0.5), (0.2, 0.5, 0.6), (0.0, 0.4, 0.5)):
        state = tangent_x_state(a, b, t, -t)
        out = _closed_form_bounds(steering_ellipsoid(state), P_TOP)
        n_x, n_y, m = x_semiaxes(a, b, t, -t)
        assert n_x == pytest.approx(n_y, abs=1e-15)
        assert (out.p_min, out.p_max) == pytest.approx(spheroid_p_bounds(m, n_x), abs=1e-14)
        axial = x_state_p_bounds(a, b, t, -t)[0]
        assert min(abs(out.p_min - axial), abs(out.p_max - axial)) <= 1e-14
    out = _closed_form_bounds(steering_ellipsoid(tangent_x_state(0.1, 0.4, 0.5, -0.5)), P_TOP)
    assert (out.p_min, out.p_max) == pytest.approx((22.0 / 47.0, 41.0 / 66.0), abs=1e-14)


def test_chord_threshold_is_every_pencil_plane_threshold():
    # the quadratic-form threshold of b's chord is what `kernels` gives in
    # each plane through it, for every state
    for state, ell, rep in _rank3_draws(7, 400):
        p, b = rep.point, state.b
        result = criteria.analyze(ell, b, p=p, n_planes=60)
        assert result.valid.any()
        np.testing.assert_allclose(result.thresholds[result.valid], _chord_threshold(ell, p, b), rtol=0, atol=1e-10)


def test_anisotropic_ellipsoid_takes_the_scan():
    # an abstract tangent ellipsoid is not isotropic at p: no state has it,
    # and its threshold depends on the plane, so its bounds are scanned
    rng = np.random.default_rng(13)
    for _ in range(20):
        ell, p = sampling.random_tangent_ellipsoid(rng)
        frame = criteria._frame(ell, criteria._contact(ell, p, None), p)
        assert criteria._isotropic_bounds(*frame) is None
        b = sampling.random_interior_point(rng, ell)
        got = criteria.analyze(ell, b, p=p, n_planes=7).bounds
        assert got.n_planes == 4 * 14
        assert _bounds_fields(got) == _bounds_fields(criteria._full_bounds(*frame, (7, 14), True))


def test_full_sphere_path_is_logged_not_printed(caplog, capsys):
    state, ell, rep = sampling.random_tangent_state(np.random.default_rng(0))
    abstract, p = sampling.random_tangent_ellipsoid(np.random.default_rng(0))
    b = sampling.random_interior_point(np.random.default_rng(1), abstract)
    with caplog.at_level(logging.DEBUG, logger="steerell"):
        criteria.analyze(ell, state.b, p=rep.point, n_planes=7).bounds
        criteria.analyze(abstract, b, p=p, n_planes=7).bounds
    messages = [record.getMessage() for record in caplog.records if record.name == "steerell"]
    assert len(messages) == 2
    assert re.fullmatch(r"full-sphere bounds in closed form: anisotropy at p \S+", messages[0])
    assert float(messages[0].rsplit(" ", 1)[1]) <= 1e-12
    assert re.fullmatch(r"full-sphere bounds by the scan: anisotropy at p \S+", messages[1])
    assert float(messages[1].rsplit(" ", 1)[1]) > 1e-2
    assert capsys.readouterr() == ("", "")


def test_the_library_leaves_logging_unimported():
    # importing logging takes a fresh process about 7.5 ms, 5-6% of a CLI
    # call's set-up; a DEBUG record reaches only a program that configured
    # logging, which has imported it. The interpreter's start-up may import
    # it itself, so the test compares before and after.
    code = (
        "import sys, numpy as np; before = 'logging' in sys.modules; "
        "from steerell import criteria, sampling; "
        "state, ell, rep = sampling.random_tangent_state(np.random.default_rng(0)); "
        "criteria.analyze(ell, state.b, p=rep.point, n_planes=7).bounds; "
        "print(before, 'logging' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    before, after = out.stdout.split()
    assert after == before


# ---------------------------------------------------------------------------
# the refinement of the full-sphere bounds
# ---------------------------------------------------------------------------


def test_refinement_evaluates_few_planes(monkeypatch):
    # three golden-section sweeps of theta then phi for each bound took
    # 530 planes a call at (180, 360)
    ells = [sampling.random_tangent_state(np.random.default_rng(seed))[1:] for seed in range(20)]
    ells += [(steering_ellipsoid(obese_state(c)), None) for c in (0.25, 0.5, 0.75)]
    # the refinement reduces one plane at a time; the scans pass arrays
    count = [0]
    reduce_planes = kernels.reduce_planes

    def counting(mp, gp, s, c, cos_b, sin_b):
        count[0] += not isinstance(s, np.ndarray)
        return reduce_planes(mp, gp, s, c, cos_b, sin_b)

    monkeypatch.setattr(kernels, "reduce_planes", counting)
    for ell, rep in ells:
        p_bounds(ell, p=P_TOP if rep is None else rep.point)
    assert count[0] / len(ells) <= 250


@functools.lru_cache(maxsize=1)
def _tangent_ellipsoids():
    rng = np.random.default_rng(11)
    return [sampling.random_tangent_ellipsoid(rng) for _ in range(50)]


def _golden_minimize(fun, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def _golden_descent_bounds(ell, p, resolution):
    """(p_min, p_max) of the grid scan polished by three golden-section sweeps
    of theta then phi over +-1 cell, each search started afresh from its
    bracket: the refinement the line searches of `p_bounds` replaced."""
    n_theta, n_phi = resolution
    thetas = (np.arange(-(-n_theta // 2)) + 0.5) * np.pi / n_theta
    phis = np.arange(n_phi) * 2.0 * np.pi / n_phi
    sin_t = np.sin(thetas)[:, None]
    comp = np.broadcast_arrays(sin_t * np.cos(phis), sin_t * np.sin(phis), np.cos(thetas)[:, None])
    normals = np.stack(comp, axis=-1).reshape(-1, 3)
    minv = ell.inverse_shape_matrix()
    lo, hi, valid = kernels.scan_bounds(minv, ell.centre, p, normals)
    q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
    q, mp, gp = q.tolist(), mp.tolist(), gp.tolist()

    def value(theta, phi, sign):
        n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        x, y, d = (sum(qi * ni for qi, ni in zip(row, n)) for row in q)
        s, c, cos_b, sin_b, ok = kernels.polar_factors(x, y, d)
        if not ok or s * s < 5e-3**2:
            return math.inf
        mu, nu, ga = kernels.reduce_planes(mp, gp, s, c, cos_b, sin_b)
        lo_s, hi_s = kernels.plane_bounds(mu, nu, ga)
        return lo_s if sign > 0 else -hi_s

    dth, dph = math.pi / n_theta, 2.0 * math.pi / n_phi
    out = []
    for sign, grid in ((1.0, np.where(valid, lo, np.inf)), (-1.0, np.where(valid, -hi, np.inf))):
        idx = int(np.argmin(grid))
        th, ph = float(thetas[idx // n_phi]), float(phis[idx % n_phi])
        for _ in range(3):
            th, _v = _golden_minimize(lambda t: value(t, ph, sign), th - dth, th + dth)
            ph, _v = _golden_minimize(lambda f: value(th, f, sign), ph - dph, ph + dph)
        out.append(sign * min(float(grid[idx]), value(th, ph, sign)))
    return max(out[0], 0.0), out[1]


@pytest.mark.parametrize("resolution", [(180, 360), (90, 180)])
def test_refined_bounds_never_worse_than_the_grid(resolution):
    for ell, p in _tangent_ellipsoids():
        grid = p_bounds(ell, p=p, resolution=resolution, refine=False)
        out = p_bounds(ell, p=p, resolution=resolution)
        assert out.p_min <= grid.p_min
        assert out.p_max >= grid.p_max
        # the reported planes attain the reported bounds
        normals = np.array([out.argmin_normal, out.argmax_normal])
        lo, hi, valid = kernels.scan_bounds(ell.inverse_shape_matrix(), ell.centre, p, normals)
        assert valid.all()
        assert abs(max(lo[0], 0.0) - out.p_min) <= 1e-12
        assert abs(hi[1] - out.p_max) <= 1e-12


@pytest.mark.parametrize("resolution", [(180, 360), (90, 180)])
def test_refined_bounds_at_least_as_good_as_golden_descent(resolution):
    for ell, p in _tangent_ellipsoids():
        ref_min, ref_max = _golden_descent_bounds(ell, p, resolution)
        out = p_bounds(ell, p=p, resolution=resolution)
        assert out.p_min <= ref_min + 1e-13
        assert out.p_max >= ref_max - 1e-13


def _nelder_mead(fun, x0, scale):
    """(f, x) of a two-variable Nelder-Mead from x0 with an initial simplex of
    size `scale`, restarted from its own result on a simplex a tenth the size
    until a restart no longer lowers the value."""
    best = (fun(x0), x0)
    while True:
        a, b = best[1]
        simplex = [best, (fun((a + scale, b)), (a + scale, b)), (fun((a, b + scale)), (a, b + scale))]
        for _ in range(400):
            simplex.sort(key=lambda e: e[0])
            (f0, x0), (f1, x1), (f2, x2) = simplex
            if f2 - f0 <= 1e-16 * max(1.0, abs(f0)) and max(math.dist(x0, x1), math.dist(x0, x2)) < 1e-12:
                break
            centre = ((x0[0] + x1[0]) / 2.0, (x0[1] + x1[1]) / 2.0)

            def along(t, towards=x2, centre=centre):
                x = (centre[0] + t * (towards[0] - centre[0]), centre[1] + t * (towards[1] - centre[1]))
                return fun(x), x

            reflected = along(-1.0)
            if reflected[0] < f0:
                expanded = along(-2.0)
                simplex[2] = min(expanded, reflected, key=lambda e: e[0])
            elif reflected[0] < f1:
                simplex[2] = reflected
            else:
                contracted = along(-0.5 if reflected[0] < f2 else 0.5)
                if contracted[0] < min(reflected[0], f2):
                    simplex[2] = contracted
                else:
                    simplex = [simplex[0], along(0.5, x1, x0), along(0.5, x2, x0)]
        found = min(simplex, key=lambda e: e[0])
        if not found[0] < best[0]:
            return best
        best, scale = found, 0.1 * scale


def _reference_bounds(ell, p, n_a=360, n_b=1440, starts=10):
    """(p_min, p_max) over the planes with R >= 5e-3 (the cutoff of the
    refinement), found without `criteria._newton_polish`: a Nelder-Mead from
    each of the `starts` best local extremes of an (n_a, n_b) grid of
    contact-frame polar angles a in (0, pi/2), b in [0, 2 pi), four times
    finer in each angle than the (180, 360) scan."""
    _q, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, p)
    a = (np.arange(n_a) + 0.5) * (0.5 * np.pi / n_a)
    b = np.arange(n_b) * (2.0 * np.pi / n_b)
    sin_a = np.sin(a)[:, None]
    mu, nu, ga = kernels.reduce_planes(mp, gp, sin_a, np.cos(a)[:, None], np.cos(b), np.sin(b))
    lo, hi = kernels.plane_bounds(mu, nu, ga)
    keep = sin_a * sin_a >= 5e-3**2
    mp, gp = mp.tolist(), gp.tolist()
    out = []
    for sign, grid in ((1.0, lo), (-1.0, -hi)):
        grid = np.where(keep, grid, np.inf)
        # the row past a = pi/2 is the last row turned by pi: n and -n are
        # one plane
        padded = np.vstack([np.full(n_b, np.inf), grid, np.roll(grid[-1], n_b // 2)])
        local = np.ones(grid.shape, dtype=bool)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                if da or db:
                    local &= grid <= np.roll(padded[1 + da : 1 + da + n_a], -db, axis=1)
        idx = np.flatnonzero(local)
        idx = idx[np.argsort(grid.ravel()[idx])[:starts]]

        def value(angles, sign=sign):
            s = math.sin(angles[0])
            if s * s < 5e-3**2:
                return math.inf
            mu, nu, ga = kernels.reduce_planes(
                mp, gp, s, math.cos(angles[0]), math.cos(angles[1]), math.sin(angles[1])
            )
            lo_s, hi_s = kernels.plane_bounds(mu, nu, ga)
            return lo_s if sign > 0.0 else -hi_s

        starts_ab = [(float(a[i // n_b]), float(b[i % n_b])) for i in idx]
        out.append(sign * min(_nelder_mead(value, x, a[0])[0] for x in starts_ab))
    return max(out[0], 0.0), out[1]


@functools.lru_cache(maxsize=1)
def _referenced_ellipsoids():
    rng = np.random.default_rng(5)
    draws = [sampling.random_tangent_ellipsoid(rng) for _ in range(20)]
    return [(ell, p, _reference_bounds(ell, p)) for ell, p in draws]


@pytest.mark.parametrize("resolution", [(180, 360), (90, 180)])
def test_refined_bounds_reach_an_independent_reference(resolution):
    # a theta-then-phi coordinate descent stopped short in narrow valleys:
    # p_min too high on 15 of 20 of these draws, by up to 8.5e-6
    for ell, p, (ref_min, ref_max) in _referenced_ellipsoids():
        out = p_bounds(ell, p=p, resolution=resolution)
        assert out.p_min <= ref_min + 1e-12
        assert out.p_max >= ref_max - 1e-12


def test_refined_bounds_follow_a_flat_curved_valley():
    # p_min of this draw lies in a valley flat to 1e-9 over about a radian
    # and curved, so a straight step of 2e-4 along it climbs the wall: a
    # polish that stopped halving there left p_min 2.5e-10 high
    rng = np.random.default_rng(1)
    for _ in range(115):
        _state, ell, rep = sampling.random_tangent_state(rng)
    ref_min, ref_max = _reference_bounds(ell, rep.point)
    out = p_bounds(ell, p=rep.point)
    assert out.p_min <= ref_min + 1e-12
    assert out.p_max >= ref_max - 1e-12


def test_refined_bounds_cross_a_long_flat_valley():
    # the (90, 180) grid puts this draw's p_max near the pole of the
    # contact-frame chart, at one end of a valley flat to 4e-9 over a radian
    # and narrow in the azimuth: a polish capped at 50 steps stopped 1.2e-9
    # short of the far end
    rng = np.random.default_rng(2)
    for _ in range(137):
        ell, p = sampling.random_tangent_ellipsoid(rng)
    ref_min, ref_max = _reference_bounds(ell, p)
    out = p_bounds(ell, p=p, resolution=(90, 180))
    assert out.p_min <= ref_min + 1e-12
    assert out.p_max >= ref_max - 1e-12


def _polish(fun, x0):
    """(x, fx, values): `criteria._newton_polish` from x0 with every value it
    evaluated, run with every warning an error."""
    values = []

    def recorded(x):
        fx = fun(x)
        values.append(fx)
        return fx

    f0 = fun(x0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, fx = criteria._newton_polish(recorded, x0, f0)
    assert fx == fun(x)
    assert fx == min([f0] + values)
    return x, fx, values


def test_polish_finds_the_minimum_of_a_quadratic():
    x, fx, values = _polish(lambda x: 3.0 * (x[0] - 0.01) ** 2 + 0.5, (0.0,))
    assert abs(x[0] - 0.01) <= 1e-9 and abs(fx - 0.5) <= 1e-15
    assert len(values) <= 15

    def bowl(x):
        u, v = x[0] - 0.02, x[1] + 0.01
        return u * u + u * v + 2.0 * v * v

    x, fx, values = _polish(bowl, (0.0, 0.0))
    assert abs(x[0] - 0.02) <= 1e-9 and abs(x[1] + 0.01) <= 1e-9 and abs(fx) <= 1e-15
    assert len(values) <= 30


def test_polish_follows_a_narrow_valley():
    # Hessian eigenvalues 2e4 and 2 along the rotated axes: condition 1e4
    c, s = math.cos(0.3), math.sin(0.3)

    def valley(x):
        u = c * (x[0] - 0.04) + s * (x[1] + 0.03)
        v = -s * (x[0] - 0.04) + c * (x[1] + 0.03)
        return 1e4 * u * u + v * v + 0.25

    _x, fx, _values = _polish(valley, (0.0, 0.0))
    assert fx - 0.25 <= 1e-12


def test_polish_on_a_constant_keeps_its_value():
    assert _polish(lambda x: 0.25, (0.3, 0.7))[1] == 0.25


def test_polish_stops_at_an_infinite_stencil_value():
    # near-tangent planes evaluate to +inf
    def fun(x):
        return math.inf if x[0] < 0.2 else (x[0] - 0.1) ** 2 + x[1] ** 2

    x, fx, values = _polish(fun, (0.2, 0.0))
    # the stencil, and no step computed from it
    assert len(values) == 6 and math.inf in values
    assert (x, fx) == ((0.2, 0.0), fun((0.2, 0.0)))


def test_polish_never_returns_worse_than_its_start():
    # a start better than anything around it stays put, in 1-D and in 2-D
    assert _polish(lambda x: 0.0 if x == (0.5,) else 1.0 + x[0], (0.5,))[:2] == ((0.5,), 0.0)
    assert _polish(lambda x: 0.0 if x == (0.5, 0.5) else 1.0 + x[1], (0.5, 0.5))[:2] == ((0.5, 0.5), 0.0)
