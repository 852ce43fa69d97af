"""Triangle oracle: assemblage construction, membership test, model search."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerell import (
    CollinearSteeredStates,
    NoPureState,
    assemblage_from_geometry,
    assemblage_from_state,
    pure_state_probability,
    sampling,
    steerable_in_plane,
    steered_ensemble,
    tangent_x_geometry,
    triangle_criterion,
    triangle_search,
)
from steerell.oracle import _lift_to_circle, _section_conic
from steerell.projective import conic_value

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _geometry_assemblage(seed):
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    b = sampling.random_interior_point(rng, ell)
    if np.linalg.norm(b - p) < 0.05:
        return None
    try:
        return assemblage_from_geometry(
            ell, p, b, rng.uniform(0, np.pi), rng.uniform(0, np.pi)
        )
    except CollinearSteeredStates:
        return None


def _state_assemblage(seed):
    rng = np.random.default_rng(seed)
    state, ell, report = sampling.random_tangent_state(rng)
    for _ in range(50):
        axis = sampling.random_unit_vector(rng)
        ens = steered_ensemble(state, axis)
        if ens.probabilities.min() < 0.05:
            continue
        if np.linalg.norm(ens.points[0] - ens.points[1]) < 0.1:
            continue
        try:
            return assemblage_from_state(state, axis, ell=ell, report=report), state, ell
        except CollinearSteeredStates:
            continue
    return None


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_geometry_assemblage_is_consistent(seed):
    asm = _geometry_assemblage(seed)
    if asm is None:
        return
    assert 0.0 < asm.prob_pure < 1.0
    assert asm.probs1.min() > 0.0
    assert asm.probs1.sum() == pytest.approx(1.0, abs=1e-12)
    # both measurements average to the reduced point (no signalling)
    npt.assert_allclose((1.0 - asm.prob_pure) * asm.s_minus0, asm.b_local, atol=1e-10)
    avg1 = asm.probs1[0] * asm.s_plus1 + asm.probs1[1] * asm.s_minus1
    npt.assert_allclose(avg1, asm.b_local, atol=1e-10)
    # all three steered points sit on the section ellipse
    conic = _section_conic(asm.section)
    for pt in (asm.s_minus0, asm.s_plus1, asm.s_minus1):
        assert abs(conic_value(conic, pt)) < 1e-8


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_state_assemblage_is_consistent(seed):
    out = _state_assemblage(seed)
    if out is None:
        return
    asm, state, ell = out
    npt.assert_allclose(asm.b_local, asm.section.to_plane(state.b), atol=1e-12)
    w = pure_state_probability(ell, asm.section.point, state.b)
    assert asm.prob_pure == pytest.approx(w, abs=1e-9)
    npt.assert_allclose((1.0 - asm.prob_pure) * asm.s_minus0, asm.b_local, atol=1e-9)
    conic = _section_conic(asm.section)
    for pt in (asm.s_minus0, asm.s_plus1, asm.s_minus1):
        assert abs(conic_value(conic, pt)) < 1e-7


@given(seed=seeds)
@example(seed=9246)  # a chord end 4.4e-6 from the pure state: no assemblage
@settings(max_examples=50, deadline=None)
def test_oracle_agrees_with_plane_margin(seed):
    asm = _geometry_assemblage(seed)
    if asm is None:
        return
    margin = steerable_in_plane(asm.section, asm.b_local).margin
    if abs(margin) < 1e-8:
        return
    verdict = triangle_criterion(asm)
    assert verdict.steerable == (margin > 0.0)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_search_finds_model_exactly_when_unsteerable(seed):
    asm = _geometry_assemblage(seed)
    if asm is None:
        return
    verdict = triangle_criterion(asm)
    result = triangle_search(asm, grid=2000)
    if verdict.steerable:
        assert result is None
    else:
        assert result is not None
        assert result.max_residual < 1e-10
        assert result.weights.min() >= -1e-12
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # hidden states must stay inside (or on) the sphere section circle
        for s in (result.s2, result.s3):
            centre_dist = np.hypot(s[0] - asm.radius, s[1])
            assert centre_dist <= asm.radius + 1e-9


def test_exact_fallback_handles_coarse_grid():
    # with only the two endpoint candidates the sweep misses the admissible
    # window; the interval fallback still produces a machine-precision model
    asm = _geometry_assemblage(0)
    assert asm is not None
    assert not triangle_criterion(asm).steerable
    coarse = triangle_search(asm, grid=2)
    assert coarse is not None
    assert coarse.index == -1
    assert coarse.max_residual < 1e-12
    fine = triangle_search(asm, grid=2000)
    assert fine is not None
    assert fine.index >= 0
    assert fine.max_residual < 1e-12


def test_x_geometry_steerable_for_all_chords():
    ell, b, p = tangent_x_geometry(0.2, 0.5, 0.6, 0.4)
    for plane_angle in (0.0, 0.6, np.pi / 2, 2.4):
        for chord_angle in (0.3, 1.0, 1.8, 2.6):
            asm = assemblage_from_geometry(ell, p, b, plane_angle, chord_angle)
            assert triangle_criterion(asm).steerable
            assert triangle_search(asm, grid=500) is None


def test_measuring_along_contact_axis_rejected():
    rng = np.random.default_rng(5)
    state, ell, report = sampling.random_tangent_state(rng)
    with pytest.raises(CollinearSteeredStates):
        assemblage_from_state(state, report.axis, ell=ell, report=report)


def test_chord_through_pure_state_rejected():
    ell, b, p = tangent_x_geometry(0.2, 0.5, 0.6, 0.4)
    # the chord direction along b_local runs the chord through the origin
    with pytest.raises(CollinearSteeredStates):
        asm = assemblage_from_geometry(ell, p, b, 0.0, 0.0)
        triangle_criterion(asm)


def test_no_pure_state_for_untangent_ellipsoid():
    from steerell import state_from_pauli

    state = state_from_pauli([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], np.diag([0.4, -0.4, 0.4]))
    with pytest.raises(NoPureState):
        assemblage_from_state(state, [1.0, 0.0, 0.0])


def test_lift_to_circle_values():
    lifted = _lift_to_circle(np.array([0.3, 0.0]), 0.5, 1e-9)
    npt.assert_allclose(lifted, [1.0, 0.0], atol=1e-12)
    # points already on the circle are fixed
    t = 1.1
    on_circle = np.array([0.5 * (1 - np.cos(t)), 0.5 * np.sin(t)])
    npt.assert_allclose(_lift_to_circle(on_circle, 0.5, 1e-9), on_circle, atol=1e-12)
    with pytest.raises(CollinearSteeredStates):
        _lift_to_circle(np.array([0.0, 0.3]), 0.5, 1e-9)
