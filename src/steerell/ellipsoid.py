"""Steering ellipsoid geometry: construction, sphere tangency, plane sections.

The steering ellipsoid of a two-qubit state is the closed surface traced by
Bob's steered Bloch vectors over all of Alice's projective measurements. It
has centre

    c = (b - T^t a) / (1 - |a|^2)

and orientation matrix

    Q = (T - a b^t)^t (I + a a^t / (1 - |a|^2)) (T - a b^t) / (1 - |a|^2),

whose eigenvalues are the squared semiaxes. Tangency with the Bloch sphere is
classified through the characteristic roots of det(kappa S - E) = 0, where S
and E are the homogeneous quadrics of the sphere and the ellipsoid normalized
so interior points give negative values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateEllipsoid, NotOnSurface, TangentPlane, EmptySection
from .paulicore import TwoQubitState
from .tolerances import TOL_GEOM, TOL_ROOT

# status constants for TangencyReport
SINGLE_TANGENT = "SingleTangent"
NO_CONTACT = "NoContact"
MULTI_TANGENT = "MultiTangent"
DEGENERATE = "Degenerate"

_S4 = np.diag([1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class SteeringEllipsoid:
    """Steering ellipsoid with centre, descending semiaxes and axis columns.

    `state` is the generating state when the ellipsoid was derived from one;
    purely geometric instances carry None.
    """

    centre: np.ndarray
    semiaxes: np.ndarray  # (3,) descending
    axes: np.ndarray  # (3, 3), column i is the unit axis for semiaxes[i]
    zero_volume: bool
    state: TwoQubitState | None = None

    def inverse_shape_matrix(self) -> np.ndarray:
        """W^-1 with surface (x - c)^t W^-1 (x - c) = 1."""
        if self.zero_volume:
            raise DegenerateEllipsoid("ellipsoid has zero volume")
        return self.axes @ np.diag(1.0 / self.semiaxes**2) @ self.axes.T

    def quadric(self) -> np.ndarray:
        """Homogeneous 4x4 quadric, negative inside the ellipsoid."""
        m = self.inverse_shape_matrix()
        c = self.centre
        e = np.empty((4, 4))
        e[:3, :3] = m
        e[:3, 3] = -m @ c
        e[3, :3] = -m @ c
        e[3, 3] = c @ m @ c - 1.0
        return e

    def surface_value(self, x) -> float:
        """(x - c)^t W^-1 (x - c) - 1; zero on the surface, negative inside."""
        d = np.asarray(x, dtype=float) - self.centre
        return float(d @ self.inverse_shape_matrix() @ d - 1.0)


@dataclass(frozen=True)
class TangencyReport:
    """Sphere-contact classification of a steering ellipsoid.

    status is one of SingleTangent, NoContact, MultiTangent, Degenerate.
    For SingleTangent, `point` is the contact point on the unit sphere; when
    the ellipsoid came from a state, `axis`/`outcome`/`p_probability` give the
    measurement direction, outcome sign and outcome probability producing the
    pure steered state.
    """

    status: str
    roots: np.ndarray  # (4,) real parts, ascending
    cluster_size: int
    kernel_dim: int
    point: np.ndarray | None = None
    axis: np.ndarray | None = None
    outcome: int | None = None
    p_probability: float | None = None


def steering_ellipsoid(state: TwoQubitState) -> SteeringEllipsoid:
    """Steering ellipsoid of Bob for the given state (Alice measures)."""
    gap = state.alice_purity_gap()
    if gap <= TOL_GEOM:
        raise DegenerateEllipsoid(f"Alice marginal is pure (1 - |a|^2 = {gap:.3e})")
    a, b, t = state.a, state.b, state.T
    tc = t - np.outer(a, b)
    centre = (b - t.T @ a) / gap
    q = tc.T @ (np.eye(3) + np.outer(a, a) / gap) @ tc / gap
    lam, vec = np.linalg.eigh(q)
    semis = np.sqrt(np.clip(lam, 0.0, None))[::-1]
    axes = vec[:, ::-1]
    return SteeringEllipsoid(
        centre=centre,
        semiaxes=semis,
        axes=axes,
        zero_volume=bool(semis[2] <= TOL_GEOM),
        state=state,
    )


def ellipsoid_from_geometry(centre, semiaxes, axes=None) -> SteeringEllipsoid:
    """Purely geometric ellipsoid (no generating state required).

    Semiaxes are sorted descending with axis columns permuted to match.
    """
    centre = np.asarray(centre, dtype=float)
    semis = np.asarray(semiaxes, dtype=float)
    if centre.shape != (3,) or semis.shape != (3,):
        raise ValueError("centre and semiaxes must be 3-vectors")
    if np.any(semis < 0):
        raise ValueError("semiaxes must be nonnegative")
    if axes is None:
        axes = np.eye(3)
    axes = np.asarray(axes, dtype=float)
    if np.abs(axes.T @ axes - np.eye(3)).max() > 1e-9:
        raise ValueError("axes columns must be orthonormal")
    order = np.argsort(semis)[::-1]
    return SteeringEllipsoid(
        centre=centre,
        semiaxes=semis[order],
        axes=axes[:, order],
        zero_volume=bool(semis[order][2] <= TOL_GEOM),
    )


def _kernel_basis(mat, rel_tol=1e-6):
    """Orthonormal basis of the numerical kernel and its dimension.

    The threshold is relative to the geometric mean of the two largest
    singular values, as the root tolerance of `tangency` is: for a nearly
    flat ellipsoid (smallest semiaxis c) the largest alone grows like 1/c^2,
    and a threshold proportional to it counted real directions as kernel.
    """
    _, sv, vt = np.linalg.svd(mat)
    thresh = max(rel_tol * float(np.sqrt(sv[0] * sv[1])), 1e-13)
    dim = int(np.sum(sv <= thresh))
    if dim == 0:
        return 0, np.empty((4, 0))
    return dim, vt[4 - dim :].T


def _dehomogenize(v):
    if abs(v[3]) < 1e-9 * np.linalg.norm(v):
        return None
    return v[:3] / v[3]


def _newton_polish(x0, m, centre):
    """At most five Newton steps on the tangency Lagrangian:
    x = lam M (x - c), (x-c)^t M (x-c) = 1."""
    x = np.array(x0, dtype=float)
    g = m @ (x - centre)
    lam = (x @ g) / max(g @ g, 1e-300)
    for _ in range(5):
        g = m @ (x - centre)
        f = np.empty(4)
        f[:3] = x - lam * g
        f[3] = 0.5 * ((x - centre) @ g - 1.0)
        if np.linalg.norm(f) < 1e-14:
            break
        jac = np.empty((4, 4))
        jac[:3, :3] = np.eye(3) - lam * m
        jac[:3, 3] = -g
        jac[3, :3] = g
        jac[3, 3] = 0.0
        try:
            if np.linalg.cond(jac) > 1e12:
                break
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        x = x + step[:3]
        lam = lam + step[3]
    return x


def tangency(ell: SteeringEllipsoid) -> TangencyReport:
    """Classify the contact between the ellipsoid and the unit sphere.

    The roots of det(kappa S - E) = 0 are computed as eigenvalues of S^-1 E.
    A doubled smallest root signals contact; the kernel of kappa* S - E then
    determines the contact set. The restricted sphere form on that kernel
    separates one contact point (SingleTangent), two points or a contact
    circle (MultiTangent), and the full-sphere case (Degenerate). Osculating
    contact (all four roots equal, as for maximally obese states) is still a
    single point and classified SingleTangent.
    """
    if ell.zero_volume:
        raise DegenerateEllipsoid("tangency undefined for zero-volume ellipsoid")
    e = ell.quadric()
    roots = np.linalg.eigvals(_S4 @ e)
    kr = np.sort(roots.real)
    # Rounding splits a double root kappa by about sqrt(eps |kr|_max kappa).
    # For a nearly flat ellipsoid (smallest semiaxis c) the largest root alone
    # grows like 1/c^2, and a tolerance proportional to it called every root
    # zero or clustered. The geometric mean of the two largest magnitudes is
    # close to the largest for a round ellipsoid, grows only like 1/c for a
    # flat one, and still bounds sqrt(|kr|_max kappa) for the lower roots.
    mags = np.sort(np.abs(kr))
    scale = float(np.sqrt(max(1.0, mags[2]) * max(1.0, mags[3])))
    tau = TOL_ROOT * scale

    def report(status, csize, kdim, point=None):
        axis = outcome = p_prob = None
        if status == SINGLE_TANGENT and point is not None and ell.state is not None:
            st = ell.state
            try:
                w = np.linalg.solve(st.T.T - np.outer(point, st.a), point - st.b)
                nw = np.linalg.norm(w)
                if abs(nw - 1.0) < 1e-6:
                    axis = w / nw
                    outcome = 1
                    p_prob = 0.5 * (1.0 + w @ st.a)
            except np.linalg.LinAlgError:
                pass
        return TangencyReport(
            status=status,
            roots=kr,
            cluster_size=csize,
            kernel_dim=kdim,
            point=point,
            axis=axis,
            outcome=outcome,
            p_probability=p_prob,
        )

    if kr[0] <= tau:
        return report(DEGENERATE, 0, 0)

    # size of the bottom root cluster (gap-based)
    csize = 1
    while csize < 4 and kr[csize] - kr[csize - 1] <= tau:
        csize += 1

    if csize == 1:
        # a smeared quadruple root (osculating contact) can split at the
        # eps^(1/4) level; rescue it through the kernel dimension
        if kr[3] - kr[0] <= 1e-3 * scale:
            kbar = float(np.mean(kr))
            dim, basis = _kernel_basis(kbar * _S4 - e, rel_tol=1e-4)
            if dim >= 3:
                csize = 4
            else:
                return report(NO_CONTACT, 1, dim)
        else:
            return report(NO_CONTACT, 1, 0)

    kbar = float(np.mean(kr[:csize]))
    dim, basis = _kernel_basis(kbar * _S4 - e)
    if dim == 0:
        return report(DEGENERATE, csize, 0)
    if dim == 4:
        return report(DEGENERATE, csize, 4)

    # contact points satisfy x^t S x = 0 restricted to the kernel
    sigma = basis.T @ _S4 @ basis
    if dim == 1:
        point = _dehomogenize(basis[:, 0])
        if point is None:
            return report(DEGENERATE, csize, 1)
    elif dim == 2:
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2
        if det < -1e-12:
            return report(MULTI_TANGENT, csize, 2)
        return report(DEGENERATE, csize, 2)
    else:
        lam, vec = np.linalg.eigh(sigma)
        small = np.abs(lam) <= 1e-6 * max(1.0, np.abs(lam).max())
        nonzero = lam[~small]
        if small.sum() == 1 and (np.all(nonzero > 0) or np.all(nonzero < 0)):
            point = _dehomogenize(basis @ vec[:, np.argmax(small)])
            if point is None:
                return report(DEGENERATE, csize, dim)
        else:
            # indefinite restricted form: a whole contact conic, not a point
            return report(DEGENERATE, csize, dim)

    m = ell.inverse_shape_matrix()
    point = _newton_polish(point, m, ell.centre)
    nrm = np.linalg.norm(point)
    d = point - ell.centre
    if abs(nrm - 1.0) > 1e-6 or abs(d @ m @ d - 1.0) > 1e-6:
        return report(DEGENERATE, csize, dim)
    point = point / nrm
    return report(SINGLE_TANGENT, csize, dim, point=point)


@dataclass(frozen=True)
class PlaneSection:
    """Joint section of the Bloch sphere and the ellipsoid by a plane through
    the contact point.

    In the in-plane frame (origin at the contact point p, u axis toward the
    circle centre, v = normal x u) the sphere cuts a circle of radius R centred
    at (R, 0) and the ellipsoid cuts an ellipse through the origin tangent to
    the v axis, with semiaxes m >= n and major-axis angle delta in
    (-pi/2, pi/2] measured from +u.
    """

    point: np.ndarray
    normal: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    R: float
    m: float
    n: float
    delta: float
    degenerate: bool

    def to_plane(self, x) -> np.ndarray:
        """Project a 3d point into (u, v) coordinates (assumes it lies on the plane)."""
        d = np.asarray(x, dtype=float) - self.point
        return np.array([d @ self.u_axis, d @ self.v_axis])

    def from_plane(self, uv) -> np.ndarray:
        u, v = float(uv[0]), float(uv[1])
        return self.point + u * self.u_axis + v * self.v_axis


def check_on_both_surfaces(ell: SteeringEllipsoid, p) -> None:
    """Raise NotOnSurface unless p lies on the unit sphere and on the ellipsoid surface."""
    if abs(np.linalg.norm(p) - 1.0) > 1e-6:
        raise NotOnSurface(f"point is not on the unit sphere (|p| = {np.linalg.norm(p):.9f})")
    if abs(ell.surface_value(p)) > 1e-6:
        raise NotOnSurface(f"point is not on the ellipsoid surface (value {ell.surface_value(p):.3e})")


def plane_section(ell: SteeringEllipsoid, point, normal) -> PlaneSection:
    """Section the sphere and ellipsoid by the plane through `point` with `normal`.

    `point` must be the sphere contact point (on the unit sphere and on the
    ellipsoid surface); only there is the section ellipse tangent to the
    v axis, which the downstream conic normal forms assume.
    """
    if ell.zero_volume:
        raise DegenerateEllipsoid("section undefined for zero-volume ellipsoid")
    p = np.asarray(point, dtype=float)
    nrm = np.asarray(normal, dtype=float)
    nn = np.linalg.norm(nrm)
    if nn <= TOL_GEOM:
        raise ValueError("normal must be a nonzero vector")
    nrm = nrm / nn
    check_on_both_surfaces(ell, p)
    minv = ell.inverse_shape_matrix()

    d = float(nrm @ p)
    r2 = 1.0 - d * d
    radius = np.sqrt(max(r2, 0.0))
    if radius <= TOL_GEOM:
        raise TangentPlane("plane is the common tangent plane at the contact point")
    u_axis = (d * nrm - p) / radius
    v_axis = kernels.cross3(nrm, u_axis)

    grad = minv @ (p - ell.centre)
    a_uu = u_axis @ minv @ u_axis
    a_uv = u_axis @ minv @ v_axis
    a_vv = v_axis @ minv @ v_axis
    l_u = u_axis @ grad
    l_v = v_axis @ grad
    if abs(l_v) > 1e-6 * np.hypot(l_u, l_v):
        raise NotOnSurface("section is not tangent to the v axis; point must be the contact point")

    a2 = np.array([[a_uu, a_uv], [a_uv, a_vv]])
    lvec = np.array([l_u, l_v])
    rho = float(lvec @ np.linalg.solve(a2, lvec))
    if rho <= TOL_GEOM * TOL_GEOM:
        raise EmptySection("section ellipse collapses to the contact point")
    lam, vec = np.linalg.eigh(a2)
    m_semi = float(np.sqrt(rho / lam[0]))
    n_semi = float(np.sqrt(rho / lam[1]))
    if m_semi - n_semi <= 1e-12 * m_semi:
        delta = 0.0
    else:
        delta = float(np.arctan2(vec[1, 0], vec[0, 0]))
        if delta <= -np.pi / 2.0:
            delta += np.pi
        elif delta > np.pi / 2.0:
            delta -= np.pi
    return PlaneSection(
        point=p,
        normal=nrm,
        u_axis=u_axis,
        v_axis=v_axis,
        R=float(radius),
        m=m_semi,
        n=n_semi,
        delta=delta,
        degenerate=bool(n_semi <= TOL_GEOM),
    )
