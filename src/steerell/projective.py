"""Planar projective machinery: conics of the joint section and the homology
between them.

Work happens in homogeneous coordinates (u, v, w) on the section plane with
the contact point p at the origin. The sphere cuts the circle

    C = [[1, 0, -R], [0, 1, 0], [-R, 0, 0]]

and the ellipsoid cuts an ellipse through the origin tangent to the v axis,

    E = [[1 - 2 mu, -nu, -xi], [-nu, 1, 0], [-xi, 0, 0]],

with mu, nu, xi determined by the ellipse semiaxes (m, n), tilt delta and the
circle radius R (`kernels.ellipse_invariants`). The planar homology H with
centre p and axis the line at infinity maps E onto C; its only free column
is (alpha, beta, gamma) = (mu, nu, xi)/R.

This is the paper's construction, kept as written: the homology, the
transport of conics through it and the chord construction of h. No verdict
goes through it. `criteria` decides from the formulas of `kernels` on the
same invariants, and the tests hold those formulas to this module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import AtInfinity, NotNested
from .tolerances import TOL_GEOM


def circle_conic(radius: float) -> np.ndarray:
    """Circle of radius R centred at (R, 0), passing through the origin."""
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    return np.array([[1.0, 0.0, -r], [0.0, 1.0, 0.0], [-r, 0.0, 0.0]])


def tangent_ellipse_conic(m: float, n: float, delta: float) -> np.ndarray:
    """Conic of the ellipse with semiaxes m, n tilted by delta, tangent to the
    v axis at the origin and opening toward +u."""
    if m <= 0 or n <= 0:
        raise ValueError("semiaxes must be positive")
    mu, nu, xi, _ = kernels.ellipse_invariants(m, n, delta)
    return np.array([[1.0 - 2.0 * mu, -nu, -xi], [-nu, 1.0, 0.0], [-xi, 0.0, 0.0]])


def ellipse_point(m: float, n: float, delta: float, t: float) -> np.ndarray:
    """Point of that ellipse at parameter angle t."""
    mu, nu, xi, g = kernels.ellipse_invariants(m, n, delta)
    uc = g / np.sqrt(2.0)
    vc = (m * m - n * n) * np.sin(2.0 * delta) / (np.sqrt(2.0) * g)
    cd, sd = np.cos(delta), np.sin(delta)
    return np.array(
        [uc + cd * m * np.cos(t) - sd * n * np.sin(t), vc + sd * m * np.cos(t) + cd * n * np.sin(t)]
    )


def conic_value(conic: np.ndarray, pt) -> float:
    """Evaluate the conic form at an affine point; negative inside for the
    normalizations used here."""
    x = np.array([pt[0], pt[1], 1.0])
    return float(x @ conic @ x)


def normalize_conic(conic: np.ndarray) -> np.ndarray:
    """Scale so the largest-magnitude entry equals 1 (deterministic sign)."""
    idx = np.unravel_index(np.argmax(np.abs(conic)), conic.shape)
    pivot = conic[idx]
    if pivot == 0:
        raise ValueError("zero conic")
    return conic / pivot


@dataclass(frozen=True)
class Homology:
    """Planar homology with centre at the origin and axis the line at infinity.

    H = [[1, 0, 0], [0, 1, 0], [alpha, beta, gamma]] maps the section ellipse
    onto the section circle; gamma is the homology ratio (the eigenvalue of
    the centre direction relative to the axis eigenvalue pair).
    """

    alpha: float
    beta: float
    gamma: float
    R: float
    m: float
    n: float
    delta: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [self.alpha, self.beta, self.gamma]]
        )

    def inverse_matrix(self) -> np.ndarray:
        g = self.gamma
        return np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-self.alpha / g, -self.beta / g, 1.0 / g]]
        )


def homology(m: float, n: float, delta: float, radius: float, *, check: bool = True) -> Homology:
    """Homology mapping the tangent ellipse (m, n, delta) onto the circle of
    radius `radius`.

    With check=True the ellipse is verified to be nested inside the circle by
    dense boundary sampling (raises NotNested otherwise).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if m <= 0 or n <= 0:
        raise ValueError("semiaxes must be positive")
    mu, nu, xi, _ = kernels.ellipse_invariants(m, n, delta)
    if check:
        t = np.linspace(0.0, 2.0 * np.pi, 721)
        pts = ellipse_point(m, n, delta, t)
        f = (pts[0] - radius) ** 2 + pts[1] ** 2 - radius * radius
        if f.max() > 1e3 * TOL_GEOM:
            raise NotNested(f"ellipse leaves the circle (max violation {f.max():.3e})")
    return Homology(
        alpha=mu / radius, beta=nu / radius, gamma=xi / radius, R=radius, m=m, n=n, delta=delta
    )


def apply(h: Homology, pt) -> np.ndarray:
    """Image of an affine point under H (ellipse plane to circle plane)."""
    u, v = float(pt[0]), float(pt[1])
    den = h.alpha * u + h.beta * v + h.gamma
    if abs(den) < 1e-12:
        raise AtInfinity("point maps to the line at infinity")
    return np.array([u, v]) / den


def transport(h: Homology, conic: np.ndarray) -> np.ndarray:
    """Push a conic through the homology: E maps to (H^-1)^t E H^-1."""
    hinv = h.inverse_matrix()
    return hinv.T @ conic @ hinv


def _second_intersection_param(x0, direction, conic):
    """Line x0 + t*direction meets the conic at t=0 is not assumed; returns the
    two parameter roots (may be complex)."""
    xh = np.array([x0[0], x0[1], 1.0])
    dh = np.array([direction[0], direction[1], 0.0])
    qa = dh @ conic @ dh
    qb = dh @ conic @ xh
    qc = xh @ conic @ xh
    return qa, qb, qc


def chord_h_point(m: float, n: float, delta: float, radius: float, b, t: float) -> np.ndarray:
    """Locate the h point of b by the chord construction, without the homology.

    Draw the chord of the ellipse through b starting at the ellipse point with
    parameter t, lift both chord ends to the circle through the projection
    centre p (the origin), and intersect the lifted chord with the line p b.
    The result is independent of t and equals apply(homology(...), b).
    """
    e_conic = tangent_ellipse_conic(m, n, delta)
    b = np.asarray(b, dtype=float)
    e1 = ellipse_point(m, n, delta, t)
    dv = e1 - b
    qa, qb, qc = _second_intersection_param(b, dv, e_conic)
    # roots t1 * t2 = qc/qa and one root is exactly 1 (e1 lies on the conic);
    # the product form avoids cancellation near tangency
    t2 = qc / qa
    e2 = b + t2 * dv

    def lift(pt):
        # second intersection of the line through the origin and pt with the circle
        s = 2.0 * radius * pt[0] / (pt @ pt)
        return s * pt

    c1 = lift(e1)
    c2 = lift(e2)
    line_pb = kernels.cross3(np.array([b[0], b[1], 1.0]), np.array([0.0, 0.0, 1.0]))
    line_pb = line_pb / np.linalg.norm(line_pb)
    l1 = np.array([c1[0], c1[1], 1.0])
    l2 = np.array([c2[0], c2[1], 1.0])
    line_cc = kernels.cross3(l1 / np.linalg.norm(l1), l2 / np.linalg.norm(l2))
    line_cc = line_cc / np.linalg.norm(line_cc)
    hpt = kernels.cross3(line_pb, line_cc)
    if abs(hpt[2]) < 1e-12 * np.linalg.norm(hpt):
        raise AtInfinity("chord construction degenerates for this t")
    return hpt[:2] / hpt[2]
