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


def steerable_in_plane(section: PlaneSection, b_local) -> PlaneVerdict:
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
        indeterminate=bool(abs(margin) < BOUNDARY_BAND),
        b_local=b_local,
        h_local=h_local,
        section=section,
        map=hom,
    )


def pure_state_probability(ell: SteeringEllipsoid, p, b) -> float:
    """Probability weight of the pure steered state fixed by p and b.

    Equals 1 - |p b| / |p q| with q the far intersection of the line p b with
    the ellipsoid surface. Raises BOutsideEllipsoid when b is not inside.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    if ell.surface_value(b) > TOL_GEOM:
        raise BOutsideEllipsoid(f"b is outside the ellipsoid (value {ell.surface_value(b):.3e})")
    d = b - p
    length = float(np.linalg.norm(d))
    if length <= TOL_GEOM:
        return 1.0
    direction = d / length
    minv = ell.inverse_shape_matrix()
    qa = direction @ minv @ direction
    qb = direction @ minv @ (p - ell.centre)
    q0 = ell.surface_value(p)
    disc = max(qb * qb - qa * q0, 0.0)
    t_far = (-qb + np.sqrt(disc)) / qa
    if t_far < length - TOL_GEOM:
        raise BOutsideEllipsoid("b lies beyond the far surface along the chord")
    return float(1.0 - length / t_far)


def _pencil(p, b, n_planes):
    """Frame (e1, e2) orthogonal to b - p and the angles t of the n_planes
    pencil planes with normals cos(t) e1 + sin(t) e2."""
    d = b - p
    length = np.linalg.norm(d)
    if length <= TOL_GEOM:
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


# Newton polish: central-difference step, floor of the Hessian's
# eigenvalues, step cap, the step length it stops at, and a cap on steps
_FD_STEP = 1e-5
_EIG_FLOOR = 1e-8
_MAX_STEP = 0.05
_MIN_STEP = 1e-7
_MAX_ITERATIONS = 50


def _newton_polish(fun, x, fx):
    """Minimise fun over one or two coordinates by damped Newton steps,
    started at the tuple x with its known value fx = fun(x).

    Gradient and Hessian come from central differences with step 1e-5
    (three values in 1-D, six in 2-D), the Hessian's eigenvalues floored at
    1e-8 so that each step goes downhill. A step is capped at 0.05 and
    halved until it lowers the value or is shorter than 1e-7: in a flat,
    curved valley even a straight step of 2e-4 can climb the valley wall,
    and stopping there left p_min up to 2.5e-10 high. The polish stops after
    a step shorter than 1e-7, on a step that no halving made lower, on a
    non-finite value in the stencil (near-tangent planes evaluate to +inf),
    or after 50 steps. Returns the best (x, fun(x)) evaluated, so never a
    worse point than the start.
    """
    h = _FD_STEP
    best_x, best_f = x, fx
    for _ in range(_MAX_ITERATIONS):
        if len(x) == 1:
            (t,) = x
            stencil = [(t + h,), (t - h,)]
        else:
            a, b = x
            stencil = [(a + h, b), (a - h, b), (a, b + h), (a, b - h), (a + h, b + h), (a - h, b - h)]
        values = [fun(point) for point in stencil]
        for point, value in zip(stencil, values):
            if value < best_f:
                best_x, best_f = point, value
        if not all(map(math.isfinite, values)):
            break
        if len(x) == 1:
            fp, fm = values
            curv = (fp - 2.0 * fx + fm) / (h * h)
            step = (-(fp - fm) / (2.0 * h) / max(curv, _EIG_FLOOR),)
        else:
            fap, fam, fbp, fbm, fpp, fmm = values
            ga, gb = (fap - fam) / (2.0 * h), (fbp - fbm) / (2.0 * h)
            haa = (fap - 2.0 * fx + fam) / (h * h)
            hbb = (fbp - 2.0 * fx + fbm) / (h * h)
            hab = (fpp - fap - fbp + 2.0 * fx - fam - fbm + fmm) / (2.0 * h * h)
            # eigenvalues mid +- rad along (c, s) and (-s, c)
            mid, rad = 0.5 * (haa + hbb), math.hypot(0.5 * (haa - hbb), hab)
            angle = 0.5 * math.atan2(2.0 * hab, haa - hbb)
            c, s = math.cos(angle), math.sin(angle)
            k1 = (c * ga + s * gb) / max(mid + rad, _EIG_FLOOR)
            k2 = (c * gb - s * ga) / max(mid - rad, _EIG_FLOOR)
            step = (s * k2 - c * k1, -s * k1 - c * k2)
        length = math.hypot(*step)
        if length > _MAX_STEP:
            step = tuple(si * (_MAX_STEP / length) for si in step)
            length = _MAX_STEP
        while True:
            trial = tuple(xi + si for xi, si in zip(x, step))
            f_trial = fun(trial)
            # written to end the halvings on a NaN step as well
            if f_trial < fx or not length >= _MIN_STEP:
                break
            step = tuple(0.5 * si for si in step)
            length *= 0.5
        if not f_trial < fx:
            break
        x, fx = trial, f_trial
        if fx < best_f:
            best_x, best_f = x, fx
        if length < _MIN_STEP:
            break
    return best_x, best_f


@functools.lru_cache(maxsize=4)
def _hemisphere_grid(n_theta: int, n_phi: int):
    """Normals of the full-sphere scan, an (n, 3) read-only array.

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
    normals.flags.writeable = False
    return normals


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

    With refine=True each grid extreme is polished by `_newton_polish`,
    started at the grid point with its grid value, so no refined bound is
    worse than the grid's. In full-sphere mode it runs over the
    contact-frame polar angles (a, b) of the normal, (x, y, d) =
    (sin a cos b, sin a sin b, cos a); the chart needs no wrapping, as the
    threshold is even in the normal, and its pole a = 0 is the tangent
    plane. Planes with R < 5e-3 count as +inf there. In pencil mode it runs
    over the pencil angle t. The global minimum is clamped at 0.
    """
    p = _resolve_contact(ell, p)
    minv = ell.inverse_shape_matrix()
    q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
    # the refinement evaluates one plane at a time, on Python floats
    mp_f, gp_f = mp.tolist(), gp.tolist()
    if b is None:
        normals = _hemisphere_grid(*resolution)
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

            def polar(angles):
                a, b = angles
                sin_a = math.sin(a)
                return sin_a * math.cos(b), sin_a * math.sin(b), math.cos(a)

            def plane_value(angles, sign):
                mu, nu, ga, r2, ok = kernels.reduce_planes(mp_f, gp_f, *polar(angles))
                # reject nearly tangent planes, R < 5e-3; the reduction's
                # rounding error grows like eps/R (3e-11 relative at
                # R = 1e-5, measured against exact arithmetic)
                if not ok or r2 < 5e-3**2:
                    return np.inf
                lo_s, hi_s = kernels.plane_bounds(mu, nu, ga)
                return lo_s if sign > 0.0 else -hi_s

            refined = []
            for sign, normal, value in ((1.0, arg_min, p_min), (-1.0, arg_max, -p_max)):
                x, y, d = (q @ normal).tolist()
                start = (math.atan2(math.hypot(x, y), d), math.atan2(y, x))
                angles, val = _newton_polish(lambda ab: plane_value(ab, sign), start, value)
                if val < value:
                    normal = np.array(polar(angles)) @ q
                refined.append((normal, sign * val))
            (arg_min, p_min), (arg_max, p_max) = refined
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
            (imin_t,), p_min = _newton_polish(lambda t: pencil_value(t[0], 1.0), (imin_t,), p_min)
            (imax_t,), v = _newton_polish(lambda t: pencil_value(t[0], -1.0), (imax_t,), -p_max)
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
