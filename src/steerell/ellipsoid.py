"""Steering ellipsoid geometry: construction, sphere tangency, plane sections.

The steering ellipsoid of a two-qubit state is the closed surface traced by
Bob's steered Bloch vectors over all of Alice's projective measurements. It
has centre

    c = (b - T^t a) / (1 - |a|^2)

and orientation matrix

    Q = (T - a b^t)^t (I + a a^t / (1 - |a|^2)) (T - a b^t) / (1 - |a|^2),

whose eigenvalues are the squared semiaxes. Contact with the Bloch sphere is
decided by the ellipsoid's farthest point from the origin, found from the
secular equation of the trust-region subproblem in the axis frame: an
ellipsoid in the ball touches the sphere where that point has |x| = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEllipsoid, NotOnSurface, TangentPlane, EmptySection
from .paulicore import TwoQubitState, finite_vec3
from .tolerances import TOL_CURVATURE, TOL_GEOM, TOL_SECULAR_GAP, TOL_TAU

# status constants for TangencyReport
SINGLE_TANGENT = "SingleTangent"
NO_CONTACT = "NoContact"
MULTI_TANGENT = "MultiTangent"
DEGENERATE = "Degenerate"

# Newton steps `_secular_gap` takes before it returns its last iterate
_SECULAR_STEPS = 60
# machine epsilon of a double
_EPS = 2.0**-52


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
        return (self.axes * (1.0 / self.semiaxes**2)) @ self.axes.T

    def surface_value(self, x) -> float:
        """(x - c)^t W^-1 (x - c) - 1; zero on the surface, negative inside."""
        x = np.asarray(x, dtype=float).tolist()
        value, _ = surface_form(self.inverse_shape_matrix().tolist(), self.centre.tolist(), x)
        return value


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
    excess: float  # |x|max - 1 over the ellipsoid; negative inside the ball
    secular_gap: float  # lambda - a_max^2 of the farthest-point secular equation
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


def _secular_gap(d, s):
    """Least t >= 0 with sum_i s_i / (t + d_i)^2 <= 1, on Python floats.

    With s_i = a_i^2 c'_i^2 and d_i = a_max^2 - a_i^2 this is the root
    t = lambda - a_max^2 of the secular equation |q(lambda)| = 1, where
    q_i = a_i c'_i / (lambda - a_i^2); 0 when |q| <= 1 already at the pole
    (the hard case). Newton on 1/|q| - 1, which is concave and increasing in
    t, climbs monotonically from the lower bracket; the bracket [lo, hi]
    still catches any step that leaves it and bisects instead.
    """
    # |q_i| <= 1 at the root gives t >= sqrt(s_i) - d_i, and |q| <=
    # sqrt(sum s) / t gives t <= sqrt(sum s)
    lo = max(0.0, max(math.sqrt(si) - di for di, si in zip(d, s)))
    hi = math.sqrt(sum(s))
    t = lo
    for _ in range(_SECULAR_STEPS):
        n2 = dn = 0.0
        for di, si in zip(d, s):
            if si > 0.0:
                u = 1.0 / (t + di)
                w = si * u * u
                n2 += w
                dn += w * u
        if n2 <= 1.0:
            if t == 0.0:
                return 0.0
            hi = t
        else:
            lo = t
        # Newton step for 1/sqrt(n2) - 1 = 0, d(1/sqrt(n2))/dt = dn / n2^1.5
        step = n2 * (math.sqrt(n2) - 1.0) / dn
        nxt = t + step
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 4.0 * _EPS * t:
            return nxt
        t = nxt
    return t


def _solve3(m, r):
    """x with m x = r for a 3x3 system of floats (nested lists), by the
    adjugate; None when m is exactly singular."""
    (a, b, c), (d, e, f), (g, h, i) = m
    r0, r1, r2 = r
    ca, cb, cc = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * ca + b * cb + c * cc
    if det == 0.0:
        return None
    return [
        (ca * r0 + (c * h - b * i) * r1 + (b * f - c * e) * r2) / det,
        (cb * r0 + (a * i - c * g) * r1 + (c * d - a * f) * r2) / det,
        (cc * r0 + (b * g - a * h) * r1 + (a * e - b * d) * r2) / det,
    ]


def _steering_axis(state: TwoQubitState, p):
    """(unit axis, outcome probability) of Alice's measurement whose outcome
    +1 steers Bob to the point p (a list of floats), or (None, None).

    The axis w solves b + T^t w = p (1 + a.w), that is (T^t - p a^t) w = p - b,
    and only a unit solution is a measurement.
    """
    a, b, t = state.a.tolist(), state.b.tolist(), state.T.tolist()
    m = [[t[j][i] - p[i] * a[j] for j in range(3)] for i in range(3)]
    w = _solve3(m, [pi - bi for pi, bi in zip(p, b)])
    if w is None:
        return None, None
    nw = math.sqrt(sum(wi * wi for wi in w))
    if abs(nw - 1.0) >= 1e-6:
        return None, None
    return np.array(w) / nw, 0.5 * (1.0 + sum(wi * ai for wi, ai in zip(w, a)))


def tangency(ell: SteeringEllipsoid) -> TangencyReport:
    """Classify the contact between the ellipsoid and the unit sphere.

    An ellipsoid inside the ball touches the sphere exactly where its
    farthest point from the origin has |x| = 1. In the axis frame (semiaxes
    a_i, centre c' = V^t c) that point is x' = c' + y with
    y_i = a_i^2 c'_i / (lambda - a_i^2), where lambda > a_max^2 solves the
    secular equation sum_i a_i^2 c'_i^2 / (lambda - a_i^2)^2 = 1.

    - Generic case, secular gap lambda - a_max^2 above TOL_SECULAR_GAP
      a_max^2: the farthest point is unique, and |x|max - 1 within TOL_GEOM
      of 0 is SingleTangent.
    - Hard case, lambda = a_max^2 (c' has no component along the largest
      axis): the farthest points are c' + w0 +- tau v, with w0 the solution
      off the largest axes v and tau^2 = a_max^2 (1 - sum_i w0_i^2 / a_i^2)
      over the other axes. tau^2 below TOL_TAU a_max^2 is osculating contact,
      one point c' + w0 (SingleTangent; every maximally obese state).
      Otherwise a single largest axis gives two points (MultiTangent), and a
      double or triple one a contact circle or the full sphere (Degenerate).
      tau^2 below -TOL_TAU a_max^2 means the other axes alone hold lambda
      off the pole: the generic case again.
    - |x|max below 1 - TOL_GEOM is NoContact. An ellipsoid that leaves the
      ball (|x|max above 1 + TOL_GEOM) meets the sphere along a curve and is
      Degenerate; only `ellipsoid_from_geometry` builds one, because every
      steering ellipsoid lies in the ball.

    `excess` is |x|max - 1 and `secular_gap` is lambda - a_max^2.
    """
    if ell.zero_volume:
        raise DegenerateEllipsoid("tangency undefined for zero-volume ellipsoid")
    a2 = [a * a for a in ell.semiaxes.tolist()]
    c = (ell.centre @ ell.axes).tolist()
    amax2 = a2[0]
    d = [amax2 - x for x in a2]
    gap = _secular_gap(d, [x * ci * ci for x, ci in zip(a2, c)])
    lam = amax2 + gap
    # |x|max^2 as the trust-region dual value lam (1 + sum_i c'_i^2 / (lam -
    # a_i^2)): a sum of positive terms, stationary in lam at the root
    excess = math.sqrt(lam * (1.0 + sum(ci * ci / (gap + di) for ci, di in zip(c, d) if ci))) - 1.0
    hard = gap <= TOL_SECULAR_GAP * amax2
    if hard:
        # axes whose pole lies within the gap tolerance count as largest; the
        # centre has no component along them to that tolerance
        largest = [di <= TOL_SECULAR_GAP * amax2 for di in d]
        tau2 = amax2 * (1.0 - sum(x * ci * ci / (di * di) for x, ci, di, big in zip(a2, c, d, largest) if not big))
        # tau^2 < 0: the other axes alone hold the root off the pole, and the
        # farthest point is the generic one
        hard = tau2 >= -TOL_TAU * amax2
    if hard:
        xp = [ci if big else amax2 * ci / di for ci, di, big in zip(c, d, largest)]
    else:
        # c'_i + y_i, written without the cancellation
        xp = [lam * ci / (gap + di) for ci, di in zip(c, d)]

    point = None
    if excess < -TOL_GEOM:
        status = NO_CONTACT
    elif excess > TOL_GEOM:
        status = DEGENERATE
    elif not hard or tau2 <= TOL_TAU * amax2:
        status = SINGLE_TANGENT
        x = [sum(vi * xi for vi, xi in zip(row, xp)) for row in ell.axes.tolist()]
        nx = math.sqrt(sum(xi * xi for xi in x))
        point = [xi / nx for xi in x]
    elif sum(largest) == 1:
        status = MULTI_TANGENT
    else:
        status = DEGENERATE

    axis = outcome = p_prob = None
    if point is not None and ell.state is not None:
        axis, p_prob = _steering_axis(ell.state, point)
        if axis is not None:
            outcome = 1
    return TangencyReport(
        status=status,
        excess=excess,
        secular_gap=gap,
        point=None if point is None else np.array(point),
        axis=axis,
        outcome=outcome,
        p_probability=p_prob,
    )


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
        (x0, x1, x2), (p0, p1, p2) = np.asarray(x, dtype=float).tolist(), self.point.tolist()
        d = (x0 - p0, x1 - p1, x2 - p2)
        return np.array([_dot3(d, self.u_axis.tolist()), _dot3(d, self.v_axis.tolist())])

    def from_plane(self, uv) -> np.ndarray:
        u, v = float(uv[0]), float(uv[1])
        return self.point + u * self.u_axis + v * self.v_axis


def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _mat3_vec(m, x):
    return [_dot3(row, x) for row in m]


def surface_form(minv, centre, x):
    """(value, g) at x on Python floats, with minv = W^-1 as nested lists and
    centre and x as three floats each: value = (x - c)^t W^-1 (x - c) - 1,
    zero on the surface and negative inside, and g = W^-1 (x - c), along the
    outward normal there."""
    d = [xi - ci for xi, ci in zip(x, centre)]
    g = _mat3_vec(minv, d)
    return _dot3(d, g) - 1.0, g


def check_on_both_surfaces(ell: SteeringEllipsoid, p) -> np.ndarray:
    """Raise NotOnSurface unless p is the contact point of an ellipsoid inside
    the ball: on the unit sphere, on the ellipsoid surface, with the
    ellipsoid normal there along p, so that every section through p is
    tangent to its v axis at p, and with the ellipsoid inside the ball near
    p: g = W^-1 (p - c) points along p, and W^-1 on the tangent plane at p
    has no eigenvalue below g.p (up to TOL_CURVATURE), i.e. no normal
    curvature below the sphere's. Returns the inverse shape matrix it tested
    p against. The checks run on Python floats, and a NaN coordinate fails
    them."""
    x = np.asarray(p, dtype=float).tolist()
    norm = math.hypot(*x)
    if not abs(norm - 1.0) <= 1e-6:
        raise NotOnSurface(f"point is not on the unit sphere (|p| = {norm:.9f})")
    minv = ell.inverse_shape_matrix()
    rows = minv.tolist()
    value, (g0, g1, g2) = surface_form(rows, ell.centre.tolist(), x)
    if not abs(value) <= 1e-6:
        raise NotOnSurface(f"point is not on the ellipsoid surface (value {value:.3e})")
    x0, x1, x2 = x
    # |g x p| <= 1e-6 |g|; a section's l_v = v.g is at most |g x p| in size,
    # as v is orthogonal to p
    off = math.hypot(g1 * x2 - g2 * x1, g2 * x0 - g0 * x2, g0 * x1 - g1 * x0)
    if not off <= 1e-6 * math.hypot(g0, g1, g2):
        raise NotOnSurface("ellipsoid normal at the point is not along it; point must be the contact point")
    if not g0 * x0 + g1 * x1 + g2 * x2 > 0.0:
        raise NotOnSurface("ellipsoid lies beyond the tangent plane at the point: its outward normal points against p")
    pn = n0, n1, n2 = [xi / norm for xi in x]
    # e1, e2: an orthonormal basis of the tangent plane at pn (Duff et al.,
    # "Building an orthonormal basis, revisited", JCGT 6, 2017)
    sign = math.copysign(1.0, n2)
    a = -1.0 / (sign + n2)
    b = n0 * n1 * a
    e1 = [1.0 + sign * n0 * n0 * a, sign * b, -sign * n0]
    e2 = [b, sign + n1 * n1 * a, -n1]
    w1, w2 = _mat3_vec(rows, e1), _mat3_vec(rows, e2)
    a00, a01, a11 = _dot3(e1, w1), _dot3(e1, w2), _dot3(e2, w2)
    least = 0.5 * (a00 + a11) - math.hypot(0.5 * (a00 - a11), a01)
    # g.pn with g taken at pn: W^-1 (pn - c) = g - (|p| - 1) W^-1 pn
    g_p = g0 * n0 + g1 * n1 + g2 * n2 - (norm - 1.0) * _dot3(pn, _mat3_vec(rows, pn))
    if least < g_p - TOL_CURVATURE * (rows[0][0] + rows[1][1] + rows[2][2]):
        raise NotOnSurface(
            f"ellipsoid is flatter than the unit sphere at the point (least normal curvature {least / g_p:.9f}),"
            " so it leaves the ball near it"
        )
    return minv


def plane_section(ell: SteeringEllipsoid, point, normal) -> PlaneSection:
    """Section the sphere and ellipsoid by the plane through `point` with `normal`.

    `point` must be the sphere contact point (`check_on_both_surfaces`);
    only there is the section ellipse tangent to the v axis, which the
    downstream conic normal forms assume.

    Runs on Python floats. With A the 2x2 restriction of W^-1 to the (u, v)
    frame and l that of its gradient at p, the section ellipse has
    rho = l^t A^-1 l (by the adjugate) and semiaxes sqrt(rho / lambda) over
    the eigenvalues lambda = mid -+ hypot((a_uu - a_vv)/2, a_uv) of A; the
    major axis, along the smaller eigenvalue, makes the angle
    delta = atan2(-2 a_uv, a_vv - a_uu) / 2 with +u.
    """
    p = finite_vec3(point, "point")
    nrm = finite_vec3(normal, "normal")
    if ell.zero_volume:
        raise DegenerateEllipsoid("section undefined for zero-volume ellipsoid")
    nn = math.hypot(*nrm)
    if nn <= TOL_GEOM:
        raise ValueError("normal must be a nonzero vector")
    nrm = [x / nn for x in nrm]
    point_arr = np.array(p)
    minv = check_on_both_surfaces(ell, point_arr).tolist()

    d = _dot3(nrm, p)
    r2 = 1.0 - d * d
    radius = math.sqrt(max(r2, 0.0))
    if radius <= TOL_GEOM:
        raise TangentPlane("plane is the common tangent plane at the contact point")
    u_axis = [(d * ni - pi) / radius for ni, pi in zip(nrm, p)]
    (n0, n1, n2), (u0, u1, u2) = nrm, u_axis
    v_axis = [n1 * u2 - n2 * u1, n2 * u0 - n0 * u2, n0 * u1 - n1 * u0]

    _, grad = surface_form(minv, ell.centre.tolist(), p)
    minv_v = _mat3_vec(minv, v_axis)
    a_uu = _dot3(u_axis, _mat3_vec(minv, u_axis))
    a_uv = _dot3(u_axis, minv_v)
    a_vv = _dot3(v_axis, minv_v)
    l_u = _dot3(u_axis, grad)
    l_v = _dot3(v_axis, grad)

    mid = 0.5 * (a_uu + a_vv)
    half_gap = math.hypot(0.5 * (a_uu - a_vv), a_uv)
    lam_small, lam_big = mid - half_gap, mid + half_gap
    det = a_uu * a_vv - a_uv * a_uv
    # W^-1 is positive definite, so A is too: det and both eigenvalues are
    # positive. Rounding could take them to zero or below only on an
    # ellipsoid too thin for doubles; that raises a SteerellError here, not
    # ZeroDivisionError or a math domain error below.
    if not (det > 0.0 and lam_small > 0.0):
        raise DegenerateEllipsoid("ellipsoid too thin to section in this plane")
    rho = (a_vv * l_u * l_u - 2.0 * a_uv * l_u * l_v + a_uu * l_v * l_v) / det
    if rho <= TOL_GEOM * TOL_GEOM:
        raise EmptySection("section ellipse collapses to the contact point")
    m_semi = math.sqrt(rho / lam_small)
    n_semi = math.sqrt(rho / lam_big)
    if m_semi - n_semi <= 1e-12 * m_semi:
        delta = 0.0
    else:
        delta = 0.5 * math.atan2(-2.0 * a_uv, a_vv - a_uu)
        # atan2(-0.0, x < 0) is -pi; the range is (-pi/2, pi/2]
        if delta <= -math.pi / 2.0:
            delta += math.pi
    return PlaneSection(
        point=point_arr,
        normal=np.array(nrm),
        u_axis=np.array(u_axis),
        v_axis=np.array(v_axis),
        R=radius,
        m=m_semi,
        n=n_semi,
        delta=delta,
        degenerate=n_semi <= TOL_GEOM,
    )
