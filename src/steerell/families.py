"""Closed-form state families whose ellipsoid touches the Bloch sphere.

Three families with explicit steerability criteria and probability bounds:

* tangent X states: a, b along z, T = diag(t_x, t_y, 1 + a - b), touching the
  sphere at +z. Positivity of the density matrix forces t_y = -t_x (the
  matrix element <01|rho|01> vanishes, so its row must vanish too); the
  constructor enforces that by rejection. The full four-parameter geometry
  (any t_x, t_y with nested semiaxes) remains available as an abstract
  ellipsoid through `tangent_x_geometry`.
* maximally obese states: centre (0, 0, c), semiaxes (sqrt(1-c), sqrt(1-c),
  1-c); steerable for every c < 1.
* tangent spheres and spheroids: canonical states with semiaxes (n, n, m)
  touching at +z; the sphere threshold is 1 - r.
"""
from __future__ import annotations

import numpy as np

from .ellipsoid import SteeringEllipsoid, ellipsoid_from_geometry
from .errors import InvalidSemiaxes
from .paulicore import TwoQubitState, state_from_pauli
from .tolerances import TOL_GEOM


def _check_x_ranges(a, b, t_x, t_y):
    if not (-1.0 < a < 1.0):
        raise InvalidSemiaxes(f"a must lie in (-1, 1), got {a}")
    if not (-1.0 < b < 1.0):
        raise InvalidSemiaxes(f"b must lie in (-1, 1), got {b}")
    if abs(t_x) <= TOL_GEOM or abs(t_y) <= TOL_GEOM:
        raise InvalidSemiaxes("zero-volume X state (a transverse correlation vanishes)")
    if b < a:
        raise InvalidSemiaxes("tangency at +z needs a <= b (else |t_z| > 1)")


def tangent_x_state(a: float, b: float, t_x: float, t_y: float) -> TwoQubitState:
    """X state with t_z = 1 + a - b, steering Bob to |0> when Alice measures z
    and finds +1.

    Raises InvalidSemiaxes for out-of-range parameters and NonPhysical when
    the reconstruction is not a state (any t_y != -t_x).
    """
    _check_x_ranges(a, b, t_x, t_y)
    t_z = 1.0 + a - b
    return state_from_pauli([0.0, 0.0, a], [0.0, 0.0, b], np.diag([t_x, t_y, t_z]))


def x_semiaxes(a: float, b: float, t_x: float, t_y: float):
    """(n_x, n_y, m) semiaxes of the X-geometry ellipsoid."""
    root = np.sqrt(1.0 - a * a)
    return abs(t_x) / root, abs(t_y) / root, (1.0 - b) / (1.0 - a)


def tangent_x_geometry(a: float, b: float, t_x: float, t_y: float):
    """Abstract tangent ellipsoid and reduced point of the X geometry.

    Returns (ellipsoid, b_vec, p) with the contact point p = +z. Valid for any
    semiaxes nested in the ball (n_x^2 <= m, n_y^2 <= m, m <= 1), independent
    of whether a physical X state exists for these parameters.
    """
    _check_x_ranges(a, b, t_x, t_y)
    n_x, n_y, m = x_semiaxes(a, b, t_x, t_y)
    if n_x * n_x > m + TOL_GEOM or n_y * n_y > m + TOL_GEOM:
        raise InvalidSemiaxes("transverse semiaxis leaves the Bloch ball (n^2 > m)")
    centre = np.array([0.0, 0.0, (b - a) / (1.0 - a)])
    ell = ellipsoid_from_geometry(centre, [n_x, n_y, m])
    return ell, np.array([0.0, 0.0, b]), np.array([0.0, 0.0, 1.0])


def x_section_n(a: float, b: float, t_x: float, t_y: float, theta: float) -> float:
    """Transverse semiaxis n of the section at azimuth theta of the X geometry."""
    tau = abs(t_x * t_y) / np.sqrt(
        t_x * t_x * np.sin(theta) ** 2 + t_y * t_y * np.cos(theta) ** 2
    )
    return tau / np.sqrt(1.0 - a * a)


def x_state_steerable(a: float, b: float, t_x: float, t_y: float, theta: float):
    """Steerability of the X geometry in the section plane at azimuth theta.

    Evaluates the two equivalent closed forms

        tau_theta^2 > (1 - b)(b - a)
        1 - b < 2 m n_theta^2 / (n_theta^2 + m - m^2)

    and returns (steerable, margin_form1, margin_form2). The margins are the
    left minus right sides; their signs always agree.
    """
    _check_x_ranges(a, b, t_x, t_y)
    tau = abs(t_x * t_y) / np.sqrt(
        t_x * t_x * np.sin(theta) ** 2 + t_y * t_y * np.cos(theta) ** 2
    )
    margin1 = tau * tau - (1.0 - b) * (b - a)
    n_th = tau / np.sqrt(1.0 - a * a)
    m = (1.0 - b) / (1.0 - a)
    margin2 = 2.0 * m * n_th * n_th / (n_th * n_th + m - m * m) - (1.0 - b)
    if (margin1 > 0.0) != (margin2 > 0.0) and max(abs(margin1), abs(margin2)) > 1e-10:
        raise AssertionError(
            f"criterion forms disagree (margins {margin1:.3e}, {margin2:.3e})"
        )
    return margin1 > 0.0, margin1, margin2


def x_locus_endpoint(b: float, t: float) -> float:
    """u coordinate of the h-locus endpoint for transverse correlation t."""
    q = (1.0 - b) ** 2
    return 2.0 * q / (t * t + q)


def x_state_p_bounds(a: float, b: float, t_x: float, t_y: float):
    """(p_min, p_max) closed forms for the X geometry over its section pencil.

    p_min pairs with the larger transverse semiaxis, p_max with the smaller.
    """
    n_x, n_y, m = x_semiaxes(a, b, t_x, t_y)
    n_hi, n_lo = max(n_x, n_y), min(n_x, n_y)
    base = m * (1.0 - m)
    return base / (base + n_hi * n_hi), base / (base + n_lo * n_lo)


def _check_obese(c):
    if not (0.0 <= c < 1.0):
        raise InvalidSemiaxes(f"c must lie in [0, 1), got {c}")


def obese_state(c: float) -> TwoQubitState:
    """Maximally obese state with centre height c (0 <= c < 1).

    Written in the frame where the pure steered state sits at +z for Alice's
    +1 outcome along z; equals tangent_x_state(0, c, sqrt(1-c), -sqrt(1-c)).
    """
    _check_obese(c)
    s = np.sqrt(1.0 - c)
    t = np.diag([s, -s, 1.0 - c])
    return state_from_pauli([0.0, 0.0, 0.0], [0.0, 0.0, c], t)


def obese_density_matrix(c: float) -> np.ndarray:
    """Density matrix of the obese state as the two-term mixture
    (1 - c/2) |psi_c><psi_c| + (c/2) |00><00| (before the frame rotation)."""
    _check_obese(c)
    psi = np.zeros(4)
    psi[1] = np.sqrt(1.0 - c)
    psi[2] = 1.0
    psi = psi / np.sqrt(2.0 - c)
    rho = (1.0 - c / 2.0) * np.outer(psi, psi)
    rho[0, 0] += c / 2.0
    return rho.astype(complex)


def obese_steerable(c: float) -> bool:
    """Obese states are steerable in every section plane iff c < 1."""
    _check_obese(c)
    return True


def obese_geometry(c: float):
    """(ellipsoid, b_vec, p) of the obese state, built geometrically."""
    _check_obese(c)
    s = np.sqrt(1.0 - c)
    ell = ellipsoid_from_geometry([0.0, 0.0, c], [s, s, 1.0 - c])
    return ell, np.array([0.0, 0.0, c]), np.array([0.0, 0.0, 1.0])


def _check_sphere(r):
    if not (0.0 < r < 1.0):
        raise InvalidSemiaxes(f"r must lie strictly inside (0, 1), got {r}")


def tangent_sphere_state(r: float) -> TwoQubitState:
    """Canonical state whose ellipsoid is the sphere of radius r tangent at +z."""
    _check_sphere(r)
    return tangent_x_state(0.0, 1.0 - r, r, -r)


def sphere_threshold(r: float) -> float:
    """Steerability threshold of the tangent sphere: p > 1 - r, uniformly over
    planes and chords."""
    _check_sphere(r)
    return 1.0 - r


def sphere_inner_radius(r: float) -> float:
    """Radius of the inverse-image sphere (the locus of chord images), r^2."""
    _check_sphere(r)
    return r * r


def spheroid_fits(m: float, n: float) -> bool:
    """Whether the spheroid with semiaxes (n, n, m), tangent to the unit
    sphere at +z, fits inside it: n^2 <= m, up to TOL_GEOM."""
    # n^2 may exceed m by TOL_GEOM: sqrt(m)^2 rounds above m for about one
    # m in five, and n = sqrt(m) is the marginal (obese) spheroid
    return n * n <= m + TOL_GEOM


def _check_spheroid(m, n):
    if not (0.0 < m < 1.0) or n <= 0.0 or not spheroid_fits(m, n):
        raise InvalidSemiaxes(f"need 0 < m < 1 and n^2 <= m, got m = {m}, n = {n}")


def tangent_spheroid_state(m: float, n: float) -> TwoQubitState:
    """Canonical state with spheroid semiaxes (n, n, m) tangent at +z.

    Physical iff n^2 <= m (and m < 1); raises InvalidSemiaxes otherwise,
    with the rule of `spheroid_geometry` and `spheroid_p_bounds`.
    """
    _check_spheroid(m, n)
    return tangent_x_state(0.0, 1.0 - m, n, -n)


def spheroid_geometry(m: float, n: float):
    """(ellipsoid, b_vec, p) of the tangent spheroid in canonical position."""
    _check_spheroid(m, n)
    ell = ellipsoid_from_geometry([0.0, 0.0, 1.0 - m], [n, n, m])
    return ell, np.array([0.0, 0.0, 1.0 - m]), np.array([0.0, 0.0, 1.0])


def spheroid_p_bounds(m: float, n: float):
    """(p_min, p_max) closed forms for the tangent spheroid with semiaxes (n, n, m).

    The regime is set by sign(m - n) once and for all sections: prolate
    (m > n) pairs p_max with the axis-parallel limit 1 - n^2/m, oblate
    (m < n) swaps the pairing, and m = n collapses both to 1 - m.
    """
    _check_spheroid(m, n)
    base = m * (1.0 - m)
    inplane = base / (base + n * n)
    limit = 1.0 - n * n / m
    if abs(m - n) <= 1e-14:
        return 1.0 - m, 1.0 - m
    if m > n:
        return inplane, limit
    return limit, inplane
