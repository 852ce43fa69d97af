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

import functools
import math
import sys
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
    margin = kernels.plane_margin(
        hom.R * hom.alpha, hom.R * hom.beta, hom.gamma, hom.R, float(b_local[0]), float(b_local[1])
    )
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
    e1 = kernels.cross3(direction, seed)
    e1 = e1 / np.linalg.norm(e1)
    e2 = kernels.cross3(direction, e1)
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

    All planes are reduced in one array pass in the contact frame of
    `kernels.contact_frame`: each plane's (R alpha, R beta, gamma) and R^2
    come from `kernels.reduce_planes`, b's in-plane coordinates (u_b, v_b),
    scaled by R, from `kernels.chord_coords`, and
    h = (u_b, v_b) / (alpha u_b + beta v_b + gamma). Rows where h maps to the
    line at infinity stay NaN.

    Raises NotOnSurface unless p is the contact point, InvalidReducedState
    when b is at p or outside the ellipsoid.
    """
    p = _resolve_contact(ell, p)
    b = np.asarray(b, dtype=float)
    e1, e2, ts = _pencil(p, b, n_planes)
    check_on_both_surfaces(ell, p)
    q, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, p)
    # every pencil section is tangent to its v axis at p only if the
    # ellipsoid normal at p is along p
    if math.hypot(gp[0], gp[1]) > 1e-6 * np.linalg.norm(gp):
        raise NotOnSurface("ellipsoid normal at the point is not along it; point must be the contact point")
    if ell.surface_value(b) > TOL_GEOM:
        raise InvalidReducedState(f"b is outside the ellipsoid (value {ell.surface_value(b):.3e})")
    x, y, d = kernels.pencil_normals(q @ e1, q @ e2, ts)
    mu, nu, ga, r2, valid = kernels.reduce_planes(mp, gp, x, y, d)
    if not valid.all():
        # such a plane has normal +-p, which puts b on the tangent plane at p
        raise DegeneratePlane("a pencil plane is the tangent plane at the contact point")
    wu, wv = kernels.chord_coords(x, y, d, r2, q @ (b - p))
    radius = np.sqrt(r2)
    margins = kernels.plane_margin(mu, nu, ga, radius, wu / radius, wv / radius)
    # den = r2 (alpha u_b + beta v_b + gamma); h = p + (w_u u' + w_v v') / den
    # with u' = (d x, d y, -r2) and v' = (-y, x, 0) the R-scaled in-plane axes
    den = mu * wu + nu * wv + ga * r2
    scale = 1.0 / np.where(np.abs(den) < 1e-12 * r2, np.nan, den)
    hu, hv = wu * scale, wv * scale
    points = p + np.stack([(hu * d * x - hv * y), (hu * d * y + hv * x), -hu * r2], axis=-1) @ q
    normals = np.stack(kernels.pencil_normals(e1, e2, ts), axis=-1)
    return LocusResult(points=points, margins=margins, normals=normals)


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
    mu, nu = hom.R * hom.alpha, hom.R * hom.beta
    lo, hi = kernels.plane_bounds(mu, nu, hom.gamma)
    k_min, k_max = kernels.plane_slopes(mu, nu)
    return PlaneBounds(p_min=float(lo), p_max=float(hi), k_at_min=float(k_min), k_at_max=float(k_max))


# golden-section fraction, sqrt(eps) and absolute tolerance of the line search
_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)
_XATOL = 1e-10


def _brent_minimize(fun, lo, hi, x, fx):
    """Minimise fun on [lo, hi] by Brent's bounded line search, started at x
    with its known value fx = fun(x).

    Parabolic steps through the three best points, safeguarded by
    golden-section steps, as in scipy's `fminbound`, with tolerance
    sqrt(eps) |x| + 1e-10 / 3. Returns the best (x, fun(x)) evaluated, so
    never a worse point than the start. A parabola needs finite values:
    near-tangent planes evaluate to +inf, and with one of those among the
    three points the step is golden.
    """
    a, b = lo, hi
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1 and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
                golden = False
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fun(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _normal_from_angles(theta, phi):
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


@functools.lru_cache(maxsize=4)
def _hemisphere_grid(n_theta: int, n_phi: int):
    """(thetas, phis, normals) of the full-sphere scan, read-only.

    n and -n give the same plane, so the grid covers the upper hemisphere of
    the (n_theta, n_phi) grid of normals, plus the equator row when n_theta
    is odd. It depends on the resolution alone, so it is built once for each.
    """
    thetas = (np.arange(-(-n_theta // 2)) + 0.5) * np.pi / n_theta
    phis = np.arange(n_phi) * 2.0 * np.pi / n_phi
    sin_t = np.sin(thetas)[:, None]
    comp = np.empty((3, len(thetas), n_phi))
    comp[0] = sin_t * np.cos(phis)
    comp[1] = sin_t * np.sin(phis)
    comp[2] = np.cos(thetas)[:, None]
    # an (n, 3) view of contiguous component rows, which the kernel rotates
    # into the contact frame with one matrix product per block
    normals = comp.reshape(3, -1).T
    for arr in (thetas, phis, comp, normals):
        arr.flags.writeable = False
    return thetas, phis, normals


def p_bounds(
    ell: SteeringEllipsoid,
    *,
    p=None,
    b=None,
    resolution: tuple[int, int] = (180, 360),
    refine: bool = True,
) -> ProbBounds:
    """Global probability bounds over plane scans.

    With b=None every plane through the contact point p is scanned, one
    normal per plane (a hemisphere of the (n_theta, n_phi) grid of normals,
    since n and -n give the same plane), and the per-plane extremal
    thresholds over all chord slopes are aggregated (sufficient / necessary
    bounds for steerability of any reduced point); n_planes counts the
    valid planes scanned.
    With b given, only the pencil of planes containing the line p b is
    scanned and the per-plane threshold is evaluated at b's own chord slope,
    which bounds the thresholds actually faced by that reduced point.

    With refine=True the grid extremes are polished by line searches
    (`_brent_minimize`) that start at the grid point with its grid value, so
    no refined bound is worse than the grid's. In full-sphere mode they
    sweep theta then phi, each over +-1 grid cell about the current point,
    at most 4 times and no further once a sweep fails to improve the value;
    in pencil mode one search runs over +-1 cell of t. Planes with
    R < 5e-3 count as +inf there. The global minimum is clamped at 0.
    """
    p = _resolve_contact(ell, p)
    minv = ell.inverse_shape_matrix()
    q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
    # the refinement evaluates one plane at a time, on Python floats
    mp_f, gp_f = mp.tolist(), gp.tolist()
    if b is None:
        n_theta, n_phi = resolution
        thetas, phis, normals = _hemisphere_grid(n_theta, n_phi)
        lo, hi, valid = kernels.scan_bounds(minv, ell.centre, p, normals)
        invalid = ~valid
        lo[invalid] = np.inf
        hi[invalid] = -np.inf
        imin = int(np.argmin(lo))
        imax = int(np.argmax(hi))
        p_min, p_max = float(lo[imin]), float(hi[imax])
        # copies: the grid is shared by every call at this resolution
        arg_min, arg_max = normals[imin].copy(), normals[imax].copy()

        if refine:
            dth, dph = np.pi / n_theta, 2.0 * np.pi / n_phi
            (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q.tolist()

            def plane_value(theta, phi, which):
                nx, ny, nz = _normal_from_angles(theta, phi)
                x = q00 * nx + q01 * ny + q02 * nz
                y = q10 * nx + q11 * ny + q12 * nz
                d = q20 * nx + q21 * ny + q22 * nz
                mu, nu, ga, r2, ok = kernels.reduce_planes(mp_f, gp_f, x, y, d)
                # reject nearly tangent planes, R < 5e-3; the reduction's
                # rounding error grows like eps/R (3e-11 relative at
                # R = 1e-5, measured against exact arithmetic)
                if not ok or r2 < 5e-3**2:
                    return np.inf
                lo_s, hi_s = kernels.plane_bounds(mu, nu, ga)
                return lo_s if which == 0 else -hi_s

            for which, idx in ((0, imin), (1, imax)):
                th, ph = float(thetas[idx // n_phi]), float(phis[idx % n_phi])
                best = val = p_min if which == 0 else -p_max
                # sweep theta then phi, +-1 cell about the current point, until
                # a sweep stops lowering the value; capped at 3 sweeps, p_min
                # came out above that of three golden-section sweeps on about
                # half of 300 random ellipsoids (by up to 4e-10), capped at 4
                # by no more than rounding (2e-16)
                for _ in range(4):
                    th, val = _brent_minimize(
                        lambda t: plane_value(t, ph, which), th - dth, th + dth, th, val
                    )
                    ph, val = _brent_minimize(
                        lambda f: plane_value(th, f, which), ph - dph, ph + dph, ph, val
                    )
                    if not val < best:
                        break
                    best = val
                if which == 0 and val < p_min:
                    p_min, arg_min = val, np.array(_normal_from_angles(th, ph))
                elif which == 1 and -val > p_max:
                    p_max, arg_max = -val, np.array(_normal_from_angles(th, ph))
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
        qe1_f, qe2_f, db_f = (q @ e1).tolist(), (q @ e2).tolist(), (q @ (b - p)).tolist()

        def pencil_value(t, sign):
            x, y, d = kernels.pencil_normals(qe1_f, qe2_f, t)
            mu, nu, ga, r2, ok = kernels.reduce_planes(mp_f, gp_f, x, y, d)
            if not ok:
                return np.inf
            k, ok = kernels.chord_slope(x, y, d, r2, db_f)
            return sign * kernels.pencil_threshold(mu, nu, ga, k) if ok else np.inf

        imin_t, imax_t = float(ts[imin]), float(ts[imax])
        if refine:
            dt = np.pi / n_t
            imin_t, p_min = _brent_minimize(
                lambda t: pencil_value(t, 1.0), imin_t - dt, imin_t + dt, imin_t, p_min
            )
            imax_t, v = _brent_minimize(
                lambda t: pencil_value(t, -1.0), imax_t - dt, imax_t + dt, imax_t, -p_max
            )
            p_max = -v
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
