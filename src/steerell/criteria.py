"""Steerability criteria in the two-measurement, one-pure-steered-state setting.

Alice holds one measurement that steers Bob to a pure state (the sphere
contact point p of the steering ellipsoid) and one further projective
measurement. For a section plane through p, Bob's reduced point b is
steerable in that plane iff its homology image h lands strictly inside the
section ellipse; expanding that containment gives a signed margin

    margin = 2 R (gamma^2 + beta (1 + gamma) v_b) u_b
             - (1 - 2 R alpha (1 + gamma)) u_b^2 - v_b^2 > 0.

Scanning planes also bounds the admissible probability p of the pure steered
state: per plane the extremal thresholds over chord slopes are attained at
the two stationary slopes (or at slope 0 and the axis-parallel limit when
beta = 0), and the global extrema over planes give (p_min, p_max) such that
p > p_max is sufficient and p > p_min necessary for steerability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .ellipsoid import (
    SINGLE_TANGENT,
    PlaneSection,
    SteeringEllipsoid,
    check_on_both_surfaces,
    plane_section,  # noqa: F401  (perfbench/test_perfbench.py reads criteria.plane_section)
    tangency,
)
from .errors import (
    AtInfinity,
    BOutsideEllipsoid,
    DegeneratePlane,
    InvalidReducedState,
    NotOnSurface,
    NoTangency,
)
from .projective import Homology, apply, conic_value, homology, tangent_ellipse_conic
from .tolerances import BOUNDARY_BAND, TOL_GEOM

ALL_INSIDE = "AllInside"
CROSSING = "Crossing"
ALL_OUTSIDE = "AllOutside"


@dataclass(frozen=True)
class PlaneVerdict:
    """Steerability verdict for one section plane."""

    steerable: bool
    margin: float
    indeterminate: bool
    b_local: np.ndarray
    h_local: np.ndarray | None
    section: PlaneSection
    map: Homology


@dataclass(frozen=True)
class PlaneBounds:
    """Extremal steerability thresholds within one section plane."""

    p_min: float
    p_max: float
    k_at_min: float
    k_at_max: float


@dataclass(frozen=True)
class LocusResult:
    """Locus of h over the pencil of planes through the line p b."""

    points: np.ndarray  # (n, 3) h points in 3d (nan rows where h is at infinity)
    margins: np.ndarray  # (n,) signed margin of b in each plane
    normals: np.ndarray  # (n, 3)


@dataclass(frozen=True)
class ProbBounds:
    """Global bounds on the pure-state probability over scanned planes."""

    p_min: float
    p_max: float
    mode: str  # "ellipsoid" or "pencil"
    argmin_normal: np.ndarray
    argmax_normal: np.ndarray
    n_planes: int


def steerable_in_plane(section: PlaneSection, b_local, *, band: float = BOUNDARY_BAND) -> PlaneVerdict:
    """Decide steerability of the in-plane reduced point b_local.

    Raises DegeneratePlane for collapsed sections and InvalidReducedState when
    b_local is not inside the section ellipse.
    """
    if section.degenerate:
        raise DegeneratePlane("section ellipse is collapsed")
    b_local = np.asarray(b_local, dtype=float)
    hom = homology(section.m, section.n, section.delta, section.R, check=False)
    e_conic = tangent_ellipse_conic(section.m, section.n, section.delta)
    val = conic_value(e_conic, b_local)
    if val > TOL_GEOM:
        raise InvalidReducedState(f"b is outside the section ellipse (conic value {val:.3e})")
    margin = kernels.plane_margin(hom.alpha, hom.beta, hom.gamma, hom.R, float(b_local[0]), float(b_local[1]))
    try:
        h_local = apply(hom, b_local)
    except AtInfinity:
        h_local = None
    return PlaneVerdict(
        steerable=bool(margin > 0.0),
        margin=float(margin),
        indeterminate=bool(abs(margin) < band),
        b_local=b_local,
        h_local=h_local,
        section=section,
        map=hom,
    )


def pure_state_probability(ell: SteeringEllipsoid, p, b, *, tol: float = TOL_GEOM) -> float:
    """Probability weight of the pure steered state fixed by p and b.

    Equals 1 - |p b| / |p q| with q the far intersection of the line p b with
    the ellipsoid surface. Raises BOutsideEllipsoid when b is not inside.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    if ell.surface_value(b) > tol:
        raise BOutsideEllipsoid(f"b is outside the ellipsoid (value {ell.surface_value(b):.3e})")
    d = b - p
    length = float(np.linalg.norm(d))
    if length <= tol:
        return 1.0
    direction = d / length
    minv = ell.inverse_shape_matrix()
    qa = direction @ minv @ direction
    qb = direction @ minv @ (p - ell.centre)
    q0 = ell.surface_value(p)
    disc = max(qb * qb - qa * q0, 0.0)
    t_far = (-qb + np.sqrt(disc)) / qa
    if t_far < length - tol:
        raise BOutsideEllipsoid("b lies beyond the far surface along the chord")
    return float(1.0 - length / t_far)


def _pencil(p, b, n_planes, tol=TOL_GEOM):
    """Frame (e1, e2) orthogonal to b - p and the angles t of the n_planes
    pencil planes with normals cos(t) e1 + sin(t) e2."""
    d = b - p
    length = np.linalg.norm(d)
    if length <= tol:
        raise InvalidReducedState("b coincides with the contact point; the pencil is undefined")
    direction = d / length
    seed = np.array([1.0, 0.0, 0.0])
    if abs(direction @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(direction, seed)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(direction, e1)
    return e1, e2, np.linspace(0.0, np.pi, n_planes, endpoint=False)


def _resolve_contact(ell: SteeringEllipsoid, p):
    if p is not None:
        return np.asarray(p, dtype=float)
    rep = tangency(ell)
    if rep.status != SINGLE_TANGENT:
        raise NoTangency(f"ellipsoid contact is {rep.status}, need SingleTangent")
    return rep.point


def locus_of_h(ell: SteeringEllipsoid, b, *, n_planes: int = 180, p=None) -> LocusResult:
    """h points and margins of b over the pencil of planes through p and b.

    All planes are reduced in one array pass: each plane's homology column
    (alpha, beta, gamma) and in-plane frame (u, v) come from
    `kernels.reduce_planes`, b's in-plane coordinates are (b - p).u and
    (b - p).v, and h = (u_b, v_b) / (alpha u_b + beta v_b + gamma). Rows
    where h maps to the line at infinity stay NaN.

    Raises NotOnSurface unless p is the contact point, InvalidReducedState
    when b is at p or outside the ellipsoid.
    """
    p = _resolve_contact(ell, p)
    b = np.asarray(b, dtype=float)
    e1, e2, ts = _pencil(p, b, n_planes)
    check_on_both_surfaces(ell, p)
    minv = ell.inverse_shape_matrix()
    g = minv @ (p - ell.centre)
    # every pencil section is tangent to its v axis at p only if the
    # ellipsoid normal at p is along p
    if np.linalg.norm(np.cross(g, p)) > 1e-6 * np.linalg.norm(g):
        raise NotOnSurface("ellipsoid normal at the point is not along it; point must be the contact point")
    if ell.surface_value(b) > TOL_GEOM:
        raise InvalidReducedState(f"b is outside the ellipsoid (value {ell.surface_value(b):.3e})")
    normals = kernels.pencil_normals(e1, e2, ts)
    al, be, ga, radius, u, v, valid = kernels.reduce_planes(minv, g, p, *normals)
    if not valid.all():
        # such a plane has normal +-p, which puts b on the tangent plane at p
        raise DegeneratePlane("a pencil plane is the tangent plane at the contact point")
    d = b - p
    ub = d[0] * u[0] + d[1] * u[1] + d[2] * u[2]
    vb = d[0] * v[0] + d[1] * v[1] + d[2] * v[2]
    margins = kernels.plane_margin(al, be, ga, radius, ub, vb)
    den = al * ub + be * vb + ga
    scale = 1.0 / np.where(np.abs(den) < 1e-12, np.nan, den)
    hu, hv = ub * scale, vb * scale
    points = np.stack([p[k] + hu * u[k] + hv * v[k] for k in range(3)], axis=-1)
    return LocusResult(points=points, margins=margins, normals=np.stack(normals, axis=-1))


def classify_locus(ell: SteeringEllipsoid, b, *, n_planes: int = 180, p=None) -> str:
    """AllInside / Crossing / AllOutside classification of the h locus.

    AllInside means h falls inside the section ellipse in every pencil plane
    (steerable everywhere); margins of exactly zero count as outside.
    """
    locus = locus_of_h(ell, b, n_planes=n_planes, p=p)
    return classify_margins(locus.margins)


def classify_margins(margins) -> str:
    """AllInside when every margin is positive, AllOutside when none is,
    Crossing otherwise; margins of exactly zero count as outside."""
    margins = np.asarray(margins, dtype=float)
    if np.all(margins > 0.0):
        return ALL_INSIDE
    if np.all(margins <= 0.0):
        return ALL_OUTSIDE
    return CROSSING


def p_bounds_in_plane(section: PlaneSection) -> PlaneBounds:
    """Extremal steerability thresholds over all chord slopes of one plane."""
    if section.degenerate:
        raise DegeneratePlane("section ellipse is collapsed")
    hom = homology(section.m, section.n, section.delta, section.R, check=False)
    lo, hi, k_min, k_max = kernels.plane_bounds(hom.alpha, hom.beta, hom.gamma, hom.R)
    return PlaneBounds(p_min=float(lo), p_max=float(hi), k_at_min=float(k_min), k_at_max=float(k_max))


def _golden_minimize(fun, lo, hi, tol=1e-10):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
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


def _normal_from_angles(theta, phi):
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def p_bounds(
    ell: SteeringEllipsoid,
    *,
    p=None,
    b=None,
    resolution: tuple[int, int] = (180, 360),
    refine: bool = True,
) -> ProbBounds:
    """Global probability bounds over plane scans.

    With b=None every plane through the contact point p is scanned and the
    per-plane extremal thresholds over all chord slopes are aggregated
    (sufficient / necessary bounds for steerability of any reduced point).
    With b given, only the pencil of planes containing the line p b is
    scanned and the per-plane threshold is evaluated at b's own chord slope,
    which bounds the thresholds actually faced by that reduced point.

    Grid optima are polished by golden-section coordinate descent when
    refine=True. The global minimum is clamped at 0.
    """
    p = _resolve_contact(ell, p)
    minv = ell.inverse_shape_matrix()
    # the refinement evaluates one plane at a time, on Python floats
    minv_f, g_f, p_f = minv.tolist(), (minv @ (p - ell.centre)).tolist(), p.tolist()
    if b is None:
        n_theta, n_phi = resolution
        thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
        phis = np.arange(n_phi) * 2.0 * np.pi / n_phi
        sin_t = np.sin(thetas)[:, None]
        normals = np.empty((n_theta, n_phi, 3))
        normals[..., 0] = sin_t * np.cos(phis)
        normals[..., 1] = sin_t * np.sin(phis)
        normals[..., 2] = np.cos(thetas)[:, None]
        normals = normals.reshape(-1, 3)
        lo, hi, valid = kernels.scan_bounds(minv, ell.centre, p, normals)
        lo = np.where(valid, lo, np.inf)
        hi = np.where(valid, hi, -np.inf)
        imin = int(np.argmin(lo))
        imax = int(np.argmax(hi))
        p_min, p_max = float(lo[imin]), float(hi[imax])
        arg_min, arg_max = normals[imin], normals[imax]

        if refine:
            dth, dph = np.pi / n_theta, 2.0 * np.pi / n_phi

            def plane_value(theta, phi, which):
                al, be, ga, radius, _, _, ok = kernels.reduce_planes(
                    minv_f, g_f, p_f, *_normal_from_angles(theta, phi)
                )
                # reject nearly tangent planes: the conic reduction noise
                # grows like eps/R^2 and fakes extrema below this radius
                if not ok or radius < 5e-3:
                    return np.inf
                lo_s, hi_s, _, _ = kernels.plane_bounds(al, be, ga, radius)
                return float(lo_s) if which == 0 else -float(hi_s)

            for which, idx in ((0, imin), (1, imax)):
                th0, ph0 = thetas[idx // n_phi], phis[idx % n_phi]
                for _ in range(3):
                    th0, _v = _golden_minimize(
                        lambda t: plane_value(t, ph0, which), th0 - dth, th0 + dth
                    )
                    ph0, _v = _golden_minimize(
                        lambda f: plane_value(th0, f, which), ph0 - dph, ph0 + dph
                    )
                val = plane_value(th0, ph0, which)
                if which == 0 and val < p_min:
                    p_min, arg_min = float(val), np.array(_normal_from_angles(th0, ph0))
                elif which == 1 and -val > p_max:
                    p_max, arg_max = float(-val), np.array(_normal_from_angles(th0, ph0))
        mode = "ellipsoid"
        n_planes = int(valid.sum())
    else:
        b = np.asarray(b, dtype=float)
        n_t = max(resolution)
        e1, e2, ts = _pencil(p, b, n_t)
        thresh, valid = kernels.scan_pencil(minv, ell.centre, p, b, e1, e2, ts)
        tl = np.where(valid, thresh, np.inf)
        th = np.where(valid, thresh, -np.inf)
        imin = int(np.argmin(tl))
        imax = int(np.argmax(th))
        p_min, p_max = float(tl[imin]), float(th[imax])
        e1_f, e2_f, db_f = e1.tolist(), e2.tolist(), (b - p).tolist()

        def pencil_value(t, sign):
            nrm = kernels.pencil_normals(e1_f, e2_f, t)
            al, be, ga, radius, u, v, ok = kernels.reduce_planes(minv_f, g_f, p_f, *nrm)
            if not ok:
                return np.inf
            val, ok = kernels.pencil_threshold(al, be, ga, radius, u, v, db_f)
            return sign * float(val) if ok else np.inf

        if refine:
            dt = np.pi / n_t
            t_min, v = _golden_minimize(lambda t: pencil_value(t, 1.0), ts[imin] - dt, ts[imin] + dt)
            if v < p_min:
                p_min = float(v)
                imin_t = t_min
            else:
                imin_t = ts[imin]
            t_max, v = _golden_minimize(lambda t: pencil_value(t, -1.0), ts[imax] - dt, ts[imax] + dt)
            if -v > p_max:
                p_max = float(-v)
                imax_t = t_max
            else:
                imax_t = ts[imax]
        else:
            imin_t, imax_t = ts[imin], ts[imax]
        arg_min = np.array(kernels.pencil_normals(e1, e2, imin_t))
        arg_max = np.array(kernels.pencil_normals(e1, e2, imax_t))
        mode = "pencil"
        n_planes = int(valid.sum())

    return ProbBounds(
        p_min=float(max(p_min, 0.0)),
        p_max=float(p_max),
        mode=mode,
        argmin_normal=arg_min,
        argmax_normal=arg_max,
        n_planes=n_planes,
    )


def shrunken_ellipses(section: PlaneSection):
    """Conics of the section ellipse shrunk toward p by its extremal thresholds.

    Returns (inner, outer, bounds): the inner conic scales the ellipse by
    1 - p_max (reduced points strictly inside it are steerable in the plane),
    the outer by 1 - p_min (points outside it are not).
    """
    bounds = p_bounds_in_plane(section)
    e_conic = tangent_ellipse_conic(section.m, section.n, section.delta)

    def shrink(factor):
        f_inv = np.diag([1.0, 1.0, factor])
        return f_inv.T @ e_conic @ f_inv

    inner = shrink(1.0 - bounds.p_max)
    outer = shrink(1.0 - bounds.p_min)
    return inner, outer, bounds
