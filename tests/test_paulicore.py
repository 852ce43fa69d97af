"""Pauli-form state handling, steered ensembles and the canonical filter."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerell import sampling
from steerell.errors import AliceReducedPure, DegenerateOutcome, NonPhysical
from steerell.paulicore import (
    TwoQubitState,
    canonical_form,
    state_from_density,
    state_from_json_dict,
    state_from_pauli,
    state_to_json_dict,
    steered_ensemble,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_density_matrix_trace_and_hermiticity():
    rng = np.random.default_rng(0)
    state = sampling.random_state(rng)
    rho = state.density_matrix()
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    npt.assert_allclose(rho, rho.conj().T, atol=1e-12)


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_density_matrix_matches_kron_sum(seed):
    rng = np.random.default_rng(seed)
    a, b, T = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, (3, 3))
    eye = np.eye(2)
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    ref = np.kron(eye, eye) + sum(
        a[i] * np.kron(sigma[i], eye)
        + b[i] * np.kron(eye, sigma[i])
        + sum(T[i, j] * np.kron(sigma[i], sigma[j]) for j in range(3))
        for i in range(3)
    )
    npt.assert_allclose(TwoQubitState(a=a, b=b, T=T).density_matrix(), ref / 4.0, rtol=0, atol=1e-15)


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_pauli_density_round_trip(seed):
    rng = np.random.default_rng(seed)
    state = sampling.random_state(rng)
    back = state_from_density(state.density_matrix())
    npt.assert_allclose(back.a, state.a, atol=1e-12)
    npt.assert_allclose(back.b, state.b, atol=1e-12)
    npt.assert_allclose(back.T, state.T, atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_state_from_density_matches_per_term_traces(rank):
    rng = np.random.default_rng(rank)
    sigma = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    for _ in range(25):
        rho = sampling.random_density_matrix(rng, 4, rank)
        ref = np.array([[np.trace(rho @ np.kron(sigma[i], sigma[j])).real for j in range(4)] for i in range(4)])
        state = state_from_density(rho)
        npt.assert_allclose(state.a, ref[1:, 0], rtol=0, atol=1e-15)
        npt.assert_allclose(state.b, ref[0, 1:], rtol=0, atol=1e-15)
        npt.assert_allclose(state.T, ref[1:, 1:], rtol=0, atol=1e-15)
        # a, b and T own their data: writing one leaves the others alone
        b, T = state.b.copy(), state.T.copy()
        state.a[:] = 7.0
        npt.assert_array_equal(state.b, b)
        npt.assert_array_equal(state.T, T)


def test_nonphysical_x_parameters_rejected():
    # diag correlations (0.6, 0.4, 0.7) with a=0.2, b=0.5 reconstruct to a
    # matrix with a negative eigenvalue; the constructor must refuse it
    with pytest.raises(NonPhysical) as exc:
        state_from_pauli([0, 0, 0.2], [0, 0, 0.5], np.diag([0.6, 0.4, 0.7]))
    assert exc.value.min_eigenvalue == pytest.approx(-0.18600766, abs=1e-6)


def test_nonphysical_tolerance_floor():
    # slightly negative eigenvalues inside the tolerance pass through
    state = state_from_pauli([0, 0, 0], [0, 0, 0], np.diag([1.0, -1.0, 1.0]))
    assert isinstance(state, TwoQubitState)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        state_from_pauli([0, 0], [0, 0, 0], np.eye(3))
    with pytest.raises(ValueError):
        state_from_pauli([0, 0, 0], [0, 0, 0], np.eye(2))
    with pytest.raises(ValueError):
        state_from_density(np.eye(3) / 3)


def test_state_from_density_validates():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.2
    with pytest.raises(ValueError):
        state_from_density(rho)  # not Hermitian
    with pytest.raises(ValueError):
        state_from_density(np.eye(4, dtype=complex))  # trace 4


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_steered_ensemble_no_signalling(seed):
    rng = np.random.default_rng(seed)
    state = sampling.random_state(rng)
    axis = sampling.random_unit_vector(rng)
    ens = steered_ensemble(state, axis)
    assert ens.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    npt.assert_allclose(ens.average(), state.b, atol=1e-12)


def test_steered_ensemble_explicit_values():
    state = state_from_pauli([0, 0, 0.1], [0, 0, 0.4], np.diag([0.5, -0.5, 0.7]))
    ens = steered_ensemble(state, [0.0, 0.0, 1.0])
    npt.assert_allclose(ens.probabilities, [0.55, 0.45])
    npt.assert_allclose(ens.points[0], [0, 0, 1.1 / 1.1])
    npt.assert_allclose(ens.points[1], [0, 0, -0.3 / 0.9])


def test_degenerate_outcome_raises():
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex)
    state = state_from_density(rho)
    with pytest.raises(DegenerateOutcome):
        steered_ensemble(state, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        steered_ensemble(state, [0.0, 0.0, 0.0])


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_canonical_form_centres_alice(seed):
    rng = np.random.default_rng(seed)
    state = sampling.random_state(rng)
    canon = canonical_form(state)
    npt.assert_allclose(canon.a, np.zeros(3), atol=1e-9)


def test_canonical_form_preserves_ellipsoid():
    from steerell.ellipsoid import steering_ellipsoid

    rng = np.random.default_rng(5)
    state = sampling.random_state(rng)
    ell = steering_ellipsoid(state)
    ell_c = steering_ellipsoid(canonical_form(state))
    npt.assert_allclose(ell_c.centre, ell.centre, atol=1e-9)
    npt.assert_allclose(ell_c.semiaxes, ell.semiaxes, atol=1e-9)
    npt.assert_allclose(canonical_form(state).b, ell.centre, atol=1e-9)


def test_canonical_form_rejects_pure_alice():
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex)
    with pytest.raises(AliceReducedPure):
        canonical_form(state_from_density(rho))


def test_json_round_trip_pauli_form():
    rng = np.random.default_rng(11)
    state = sampling.random_state(rng)
    back = state_from_json_dict(state_to_json_dict(state))
    npt.assert_allclose(back.a, state.a, atol=1e-15)
    npt.assert_allclose(back.T, state.T, atol=1e-15)


def test_json_density_matrix_form():
    rng = np.random.default_rng(12)
    state = sampling.random_state(rng)
    rho = state.density_matrix()
    obj = {"density_matrix": np.stack([rho.real, rho.imag], axis=-1).tolist()}
    back = state_from_json_dict(obj)
    npt.assert_allclose(back.a, state.a, atol=1e-12)
    npt.assert_allclose(back.b, state.b, atol=1e-12)
    npt.assert_allclose(back.T, state.T, atol=1e-12)


def test_json_rejects_unknown_shape():
    with pytest.raises(ValueError):
        state_from_json_dict({"a": [0, 0, 0]})
    with pytest.raises(ValueError):
        state_from_json_dict({"density_matrix": [[0.0] * 4] * 4})
