"""Random generators for states, tangent states, and abstract tangent ellipsoids.

All generators take a numpy Generator so callers control determinism. Tangent
states come from a kernel construction: a rank-3 state annihilating a product
vector |phi>|chi> steers, for Alice's measurement along the Bloch vector of
|phi*>, to the pure state |chi_perp>, so its ellipsoid touches the sphere.
Rejection filters keep only well-conditioned single-contact instances.
"""
from __future__ import annotations

import numpy as np

from .ellipsoid import (
    SINGLE_TANGENT,
    SteeringEllipsoid,
    ellipsoid_from_geometry,
    steering_ellipsoid,
    tangency,
)
from .errors import SteerellError
from .paulicore import TwoQubitState, state_from_density

# draws a rejection sampler makes before it gives up
_MAX_TRIES = 200


def random_density_matrix(rng: np.random.Generator, dim: int = 4, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density matrix."""
    if rank is None:
        rank = dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(rng: np.random.Generator) -> TwoQubitState:
    """Random full-rank two-qubit state."""
    return state_from_density(random_density_matrix(rng))


def random_ket(rng: np.random.Generator) -> np.ndarray:
    """Random qubit ket."""
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _kernel_tangent_density(rng: np.random.Generator) -> np.ndarray:
    phi = random_ket(rng)
    chi = random_ket(rng)
    k = np.outer(phi, chi).reshape(4, 1)
    u, _, _ = np.linalg.svd(k, full_matrices=True)
    basis = u[:, 1:]
    small = random_density_matrix(rng, 3, 3)
    return basis @ small @ basis.conj().T


def random_tangent_state(rng: np.random.Generator):
    """Random physical state with a single-contact tangent ellipsoid.

    Returns (state, ellipsoid, tangency_report). Rejects samples with a nearly
    pure Alice marginal (1 - |a|^2 < 0.05), a nearly flat ellipsoid (least
    semiaxis below 0.05), a contact probability outside (0.02, 0.98), or a
    contact point within 0.05 of the reduced point b.
    """
    for _ in range(_MAX_TRIES):
        rho = _kernel_tangent_density(rng)
        # a draw the package rejects is redrawn; numpy's LinAlgError is a
        # ValueError. Any other exception is a fault and propagates.
        try:
            state = state_from_density(rho)
        except (SteerellError, ValueError):
            continue
        if state.alice_purity_gap() < 0.05:
            continue
        try:
            ell = steering_ellipsoid(state)
        except (SteerellError, ValueError):
            continue
        if ell.semiaxes[2] < 0.05:
            continue
        rep = tangency(ell)
        if rep.status != SINGLE_TANGENT:
            continue
        if rep.p_probability is None or not (0.02 < rep.p_probability < 0.98):
            continue
        if np.linalg.norm(rep.point - state.b) < 0.05:
            continue
        return state, ell, rep
    raise RuntimeError("failed to sample a well-conditioned tangent state")


def random_tangent_ellipsoid(rng: np.random.Generator):
    """Random abstract ellipsoid tangent to the unit sphere from inside.

    Draws semiaxes uniform in [0.1, 0.7] and an orientation, then places the centre at
    p - W p / sqrt(p' W p) for a random contact direction p, which is the
    unique centre putting the surface through p with outward normal p.
    Returns (ellipsoid, p). Rejection keeps only single contacts at p:
    `tangency` decides nesting from the exact |x|max, so an ellipsoid that
    leaves the ball is Degenerate there.
    """
    for _ in range(_MAX_TRIES):
        semi = np.sort(rng.uniform(0.1, 0.7, 3))[::-1]
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        w = q @ np.diag(semi * semi) @ q.T
        p = random_unit_vector(rng)
        wp = w @ p
        centre = p - wp / np.sqrt(p @ wp)
        ell = ellipsoid_from_geometry(centre, semi, axes=q)
        rep = tangency(ell)
        if rep.status != SINGLE_TANGENT:
            continue
        if np.linalg.norm(rep.point - p) > 1e-6:
            continue
        return ell, p
    raise RuntimeError("failed to sample a nested tangent ellipsoid")


def random_interior_point(rng: np.random.Generator, ell: SteeringEllipsoid) -> np.ndarray:
    """Uniform point in the ellipsoid shrunk by the factor 0.85 about its centre."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    u = 0.85 * rng.uniform() ** (1.0 / 3.0)
    return ell.centre + ell.axes @ (ell.semiaxes * v) * u


def random_nested_section(rng: np.random.Generator):
    """(m, n, delta, R) of a random ellipse tangent at the origin, nested in
    the circle of radius R through the origin."""
    for _ in range(_MAX_TRIES):
        r_circ = rng.uniform(0.4, 1.0)
        m = rng.uniform(0.15, 0.95) * r_circ
        n = rng.uniform(0.2, 1.0) * np.sqrt(m * r_circ)
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        if n > m:
            m, n = max(m, n), min(m, n)
        if n * n > 0.98 * m * r_circ:
            continue
        if _nested_in_circle(m, n, delta, r_circ):
            return m, n, delta, r_circ
    raise RuntimeError("failed to sample a nested section")


def _nested_in_circle(m: float, n: float, delta: float, r_circ: float) -> bool:
    t = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    g2 = m * m + n * n + (m * m - n * n) * np.cos(2.0 * delta)
    g = np.sqrt(g2)
    cu = g / np.sqrt(2.0)
    cv = (m * m - n * n) * np.sin(2.0 * delta) / (np.sqrt(2.0) * g)
    cd, sd = np.cos(delta), np.sin(delta)
    u = cu + m * np.cos(t) * cd - n * np.sin(t) * sd
    v = cv + m * np.cos(t) * sd + n * np.sin(t) * cd
    return float(((u - r_circ) ** 2 + v**2).max()) <= r_circ * r_circ * (1.0 + 1e-9)
