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

When the ellipsoid is isotropic at p, as every state's is, a chord's
threshold is the same in every plane through it, a ratio of two quadratic
forms in the chord direction, and `analyze` takes the full-sphere bounds
from it in closed form (`_isotropic_bounds`), scanning no plane. Public
`p_bounds`, and `analyze` on an ellipsoid that is anisotropic at p, scan.

Every verdict and bound here comes from the per-plane formulas of `kernels`:
one plane's (alpha, beta, gamma) from its ellipse invariants
(`kernels.ellipse_invariants`), the scans' from the contact-frame reduction,
and the closed form from the same reduction read in every plane at once.
The homology of `projective`, the paper's construction, is the tests'
reference for them; this module does not use it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .ellipsoid import (
    PlaneSection,
    SteeringEllipsoid,
    check_on_both_surfaces,
    plane_section,  # noqa: F401  (perfbench/test_perfbench.py reads criteria.plane_section)
    surface_form,
)
from .errors import BOutsideEllipsoid, DegeneratePlane, InvalidReducedState
from .paulicore import require_finite
from .tolerances import BOUNDARY_BAND, TOL_ANISOTROPY, TOL_GEOM

ALL_INSIDE = "AllInside"
CROSSING = "Crossing"
ALL_OUTSIDE = "AllOutside"


@dataclass(frozen=True)
class PlaneVerdict:
    """Steerability verdict for one section plane; h_local is b's homology
    image, None where it maps to the line at infinity."""

    steerable: bool
    margin: float
    indeterminate: bool
    h_local: np.ndarray | None


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


@dataclass(frozen=True)
class Analysis:
    """What `analyze` derives from one contact check and one pencil pass.

    The two bounds are computed the first time they are read, on the
    contact frame and the pencil pass that `analyze` holds, so a caller that
    reports one of them does not pay for the other. The full-sphere bounds
    are in closed form, with n_planes 0, when the ellipsoid is isotropic at
    p (`_isotropic_bounds`).
    """

    pure_state_probability: float
    locus: LocusResult
    thresholds: np.ndarray  # (n,) threshold of each pencil plane at b's chord slope, 0 where invalid
    valid: np.ndarray  # (n,) pencil planes where b's chord is valid
    _frame: tuple = field(repr=False)  # (Q, M', g') of `_contact`
    _pass: _Pencil = field(repr=False)  # the `_pencil_pass`

    @cached_property
    def bounds(self) -> ProbBounds:
        """Full-sphere bounds: in closed form (`_isotropic_bounds`) when the
        ellipsoid is isotropic at p, as every state's is, and otherwise on
        the (n, 2n) grid, refined."""
        bounds = _isotropic_bounds(*self._frame)
        if bounds is None:
            n_planes = len(self._pass.ts)
            bounds = _full_bounds(*self._frame, (n_planes, 2 * n_planes), True)
        return bounds

    @cached_property
    def bounds_pencil(self) -> ProbBounds:
        """Bounds over the n pencil planes, refined."""
        return _pencil_bounds(*self._frame, self._pass, self.thresholds, self.valid, True)


def _section_invariants(section: PlaneSection):
    """(mu, nu, gamma, xi) of a section, from `kernels.ellipse_invariants`:
    its homology column (alpha, beta, gamma) is (mu, nu, xi) / R."""
    if section.degenerate:
        raise DegeneratePlane("section ellipse is collapsed")
    mu, nu, xi, _ = kernels.ellipse_invariants(section.m, section.n, section.delta)
    return mu, nu, xi / section.R, xi


def steerable_in_plane(section: PlaneSection, b_local) -> PlaneVerdict:
    """Decide steerability of the in-plane reduced point b_local.

    The margin is `kernels.plane_margin` and h_local = (u, v) / den with
    den = (mu u + nu v) / R + gamma, None where |den| < 1e-12.

    Raises DegeneratePlane for collapsed sections, BOutsideEllipsoid when
    b_local is not inside the section ellipse and ValueError when it is not
    finite.
    """
    ub, vb = require_finite(np.asarray(b_local, dtype=float), "b_local").tolist()
    mu, nu, ga, xi = _section_invariants(section)
    # the ellipse's conic [[1 - 2 mu, -nu, -xi], [-nu, 1, 0], [-xi, 0, 0]] at b
    val = (1.0 - 2.0 * mu) * ub * ub - 2.0 * nu * ub * vb + vb * vb - 2.0 * xi * ub
    if val > TOL_GEOM:
        raise BOutsideEllipsoid(f"b is outside the section ellipse (conic value {val:.3e})")
    radius = section.R
    margin = kernels.plane_margin(mu, nu, ga, radius, ub, vb)
    den = (mu * ub + nu * vb) / radius + ga
    h_local = None if abs(den) < 1e-12 else np.array([ub / den, vb / den])
    return PlaneVerdict(
        steerable=bool(margin > 0.0),
        margin=float(margin),
        indeterminate=bool(abs(margin) < BOUNDARY_BAND),
        h_local=h_local,
    )


def pure_state_probability(ell: SteeringEllipsoid, p, b) -> float:
    """Probability weight of the pure steered state fixed by p and b.

    Equals 1 - |p b| / |p q| with q the far intersection of the line p b with
    the ellipsoid surface. Raises NotOnSurface unless p is the contact point,
    BOutsideEllipsoid when b is not inside (see `_contact`) and ValueError
    when b is not finite.
    """
    p = np.asarray(p, dtype=float)
    b = require_finite(np.asarray(b, dtype=float), "b")
    return _probability(_contact(ell, p, b), ell.centre, p, b)


def _probability(minv, centre, p, b):
    """`pure_state_probability` on the inverse shape matrix of `_contact`,
    which has checked p and b."""
    d = b - p
    length = float(np.linalg.norm(d))
    if length <= TOL_GEOM:
        return 1.0
    direction = d / length
    qa = direction @ minv @ direction
    qb = direction @ minv @ (p - centre)
    q0, _ = surface_form(minv.tolist(), centre.tolist(), p.tolist())
    disc = max(qb * qb - qa * q0, 0.0)
    t_far = (-qb + np.sqrt(disc)) / qa
    # `_contact` admits a b up to TOL_GEOM outside the surface, which on a
    # chord nearly tangent at p can put it past q: such a b is on the
    # surface, so q is b itself
    if t_far <= length:
        return 0.0
    return float(1.0 - length / t_far)


def _pencil(p, b, n_planes):
    """Frame (e1, e2) orthogonal to b - p and the angles t of the n_planes
    pencil planes with normals cos(t) e1 + sin(t) e2. Raises
    InvalidReducedState when b is at p or on the tangent plane at p."""
    d = b - p
    length = np.linalg.norm(d)
    if length <= TOL_GEOM:
        raise InvalidReducedState("b coincides with the contact point; the pencil is undefined")
    direction = d / length
    # the pencil's plane nearest the tangent plane at p has circle radius
    # R = |p . direction|, and `kernels.polar_factors` rejects R <= 1e-6;
    # `_contact` admits such a b only within TOL_GEOM of the surface
    if abs(float(p @ direction)) <= 1e-6:
        raise InvalidReducedState("b is on the tangent plane at the contact point; the pencil holds that plane")
    seed = np.array([1.0, 0.0, 0.0])
    if abs(direction @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = kernels.cross3(direction, seed)
    e1 = e1 / np.linalg.norm(e1)
    e2 = kernels.cross3(direction, e1)
    return e1, e2, np.linspace(0.0, np.pi, n_planes, endpoint=False)


def _contact(ell: SteeringEllipsoid, p, b):
    """The inverse shape matrix, once p is checked to be the contact point and
    b, when given, to be inside the ellipsoid: the one check of each that
    every entry point runs.

    Raises NotOnSurface unless p is the contact point
    (`check_on_both_surfaces`), and BOutsideEllipsoid when b is given and
    outside the ellipsoid.
    """
    minv = check_on_both_surfaces(ell, p)
    if b is not None:
        value, _ = surface_form(minv.tolist(), ell.centre.tolist(), b.tolist())
        if value > TOL_GEOM:
            raise BOutsideEllipsoid(f"b is outside the ellipsoid (value {value:.3e})")
    return minv


def _frame(ell: SteeringEllipsoid, minv, p):
    """(Q, M', g'), the contact frame of `kernels.contact_frame`, with M' and
    g' as Python floats for the scans and the refinement."""
    q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
    return q, mp.tolist(), gp.tolist()


class _Pencil(NamedTuple):
    """The pencil planes through p and b, reduced once in the contact frame."""

    e1: np.ndarray
    e2: np.ndarray
    ts: np.ndarray
    frame: tuple  # Q e1, Q e2 and Q (b - p), as lists of floats
    planes: tuple  # `kernels.pencil_planes`


def _pencil_pass(q, mp, gp, p, b, n_planes):
    """The n_planes planes of `_pencil`, reduced by `kernels.pencil_planes`
    in the contact frame (Q, M', g') of `_contact`."""
    e1, e2, ts = _pencil(p, b, n_planes)
    qe1, qe2, db = q @ e1, q @ e2, q @ (b - p)
    planes = kernels.pencil_planes(qe1, qe2, mp, gp, ts, db)
    return _Pencil(e1, e2, ts, (qe1.tolist(), qe2.tolist(), db.tolist()), planes)


def _locus(pencil, p, q):
    """The `LocusResult` of a `_pencil_pass`; see `locus_of_h`."""
    x, y, d, radius, mu, nu, ga, wu, wv, valid = pencil.planes
    if not valid.all():
        # such a plane has normal +-p, which puts b on the tangent plane at
        # p; `_pencil` rejects that b, so only rounding at the edge of its
        # test arrives here
        raise DegeneratePlane("a pencil plane is the tangent plane at the contact point")
    r2 = radius * radius
    margins = kernels.plane_margin(mu, nu, ga, radius, wu / radius, wv / radius)
    # den = r2 (alpha u_b + beta v_b + gamma); h = p + (w_u u' + w_v v') / den
    # with u' = (d x, d y, -r2) and v' = (-y, x, 0) the R-scaled in-plane axes
    den = mu * wu + nu * wv + ga * r2
    scale = 1.0 / np.where(np.abs(den) < 1e-12 * r2, np.nan, den)
    hu, hv = wu * scale, wv * scale
    points = p + np.stack([(hu * d * x - hv * y), (hu * d * y + hv * x), -hu * r2], axis=-1) @ q
    normals = np.stack(kernels.pencil_normals(pencil.e1, pencil.e2, pencil.ts), axis=-1)
    return LocusResult(points=points, margins=margins, normals=normals)


def locus_of_h(ell: SteeringEllipsoid, b, *, p, n_planes: int = 180) -> LocusResult:
    """h points and margins of b over the pencil of planes through p and b.

    All planes are reduced in one array pass in the contact frame of
    `kernels.contact_frame` (`kernels.pencil_planes`, the pass that pencil
    `p_bounds` and `analyze` share): each plane's radius R comes from
    `kernels.polar_factors`, its (R alpha, R beta, gamma) from
    `kernels.reduce_planes`, b's in-plane coordinates (u_b, v_b), scaled by
    R, from `kernels.chord_coords`, and
    h = (u_b, v_b) / (alpha u_b + beta v_b + gamma). Rows where h maps to the
    line at infinity stay NaN.

    Raises NotOnSurface unless p is the contact point, BOutsideEllipsoid
    when b is outside the ellipsoid, InvalidReducedState when b is at p or
    on the tangent plane at p and ValueError when b is not finite.
    """
    p = np.asarray(p, dtype=float)
    b = require_finite(np.asarray(b, dtype=float), "b")
    q, mp, gp = _frame(ell, _contact(ell, p, b), p)
    return _locus(_pencil_pass(q, mp, gp, p, b, n_planes), p, q)


def classify_locus(ell: SteeringEllipsoid, b, *, p, n_planes: int = 180) -> str:
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
    """Extremal steerability thresholds over all chord slopes of one plane,
    `kernels.plane_bounds` and `kernels.plane_slopes`; p_min is clamped at 0,
    as in `p_bounds`. Raises DegeneratePlane for collapsed sections."""
    mu, nu, ga, _ = _section_invariants(section)
    lo, hi = kernels.plane_bounds(mu, nu, ga)
    k_min, k_max = kernels.plane_slopes(mu, nu)
    return PlaneBounds(
        p_min=float(max(lo, 0.0)), p_max=float(hi), k_at_min=float(k_min), k_at_max=float(k_max)
    )


# Newton polish: central-difference step, floor of the Hessian's
# eigenvalues, step cap, the step length it stops at, and a cap on steps
_FD_STEP = 1e-5
_EIG_FLOOR = 1e-8
_MAX_STEP = 0.05
_MIN_STEP = 1e-7
_MAX_ITERATIONS = 200


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
    or after 200 steps. Where the curvature is below the rounding noise of
    the central differences (about 1e-6 here), the steps stay short: from
    a grid extreme near the pole of the full-sphere chart, one polish took
    74 steps along a valley flat to 4e-9 over a radian, and a cap of 50
    left p_max 1.2e-9 low. Returns the best (x, fun(x)) evaluated, so never
    a worse point than the start.
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


def p_bounds(
    ell: SteeringEllipsoid,
    *,
    p,
    b=None,
    resolution: tuple[int, int] = (180, 360),
    refine: bool = True,
) -> ProbBounds:
    """Global probability bounds over plane scans.

    With b=None every plane through the contact point p is scanned on the
    contact-frame polar grid of `kernels.polar_grid`: normals (x, y, d) =
    (sin a cos b, sin a sin b, cos a) in the frame of `kernels.contact_frame`,
    with a_i = (i + 1/2) pi / n_theta for i < ceil(n_theta / 2) and
    b_j = 2 pi j / n_phi, one normal per plane since n and -n give the same
    plane. The per-plane extremal thresholds over all chord slopes are
    aggregated (sufficient / necessary bounds for steerability of any reduced
    point); n_planes counts the planes scanned, ceil(n_theta / 2) n_phi.
    With b given, only the pencil of planes containing the line p b is
    scanned and the per-plane threshold is evaluated at b's own chord slope,
    which bounds the thresholds actually faced by that reduced point;
    n_planes counts the pencil planes where b's chord is valid.

    With refine=True each grid extreme is polished by `_newton_polish`,
    started at the grid point with its grid value, so no refined bound is
    worse than the grid's. In full-sphere mode it runs over the polar angles
    (a, b) of the grid; the chart needs no wrapping, as the threshold is even
    in the normal, and its pole a = 0 is the tangent plane. Planes with
    R = |sin a| < 5e-3 count as +inf there. In pencil mode it runs over the
    pencil angle t. The global minimum is clamped at 0.

    Raises NotOnSurface unless p is the contact point, BOutsideEllipsoid
    when b is outside the ellipsoid, InvalidReducedState when b is at p or
    on the tangent plane at p and ValueError when b is not finite.
    """
    p = np.asarray(p, dtype=float)
    if b is not None:
        b = require_finite(np.asarray(b, dtype=float), "b")
    q, mp, gp = _frame(ell, _contact(ell, p, b), p)
    if b is None:
        return _full_bounds(q, mp, gp, resolution, refine)
    pencil = _pencil_pass(q, mp, gp, p, b, max(resolution))
    return _pencil_bounds(q, mp, gp, pencil, *kernels.pencil_thresholds(pencil.planes), refine)


def analyze(ell: SteeringEllipsoid, b, *, p, n_planes: int) -> Analysis:
    """`pure_state_probability`, `locus_of_h` over n_planes pencil planes,
    the full-sphere bounds and pencil `p_bounds` over the same n_planes
    planes, refined, from one contact check and one reduction of the pencil.

    The full-sphere bounds are the closed form of `_isotropic_bounds` when
    the ellipsoid is isotropic at p, as every state's is, and otherwise
    full-sphere `p_bounds` at resolution (n_planes, 2 n_planes), refined.
    The other results equal those of the separate calls. The pencil pass
    gives the margins, the h points and, per plane, the threshold at b's
    chord slope: b is steerable in a plane iff p_p exceeds its threshold.
    The two bounds are computed on first read (`Analysis.bounds`,
    `Analysis.bounds_pencil`): `steerell analyze` reads both, and each
    `family-sweep` row reads the one its family reports.

    Raises NotOnSurface unless p is the contact point, BOutsideEllipsoid
    when b is not inside the ellipsoid, InvalidReducedState when b is at p,
    where the pencil is undefined, or on the tangent plane at p, which the
    pencil then holds, and ValueError when b is not finite.
    """
    p = np.asarray(p, dtype=float)
    b = require_finite(np.asarray(b, dtype=float), "b")
    minv = _contact(ell, p, b)
    p_p = _probability(minv, ell.centre, p, b)
    q, mp, gp = _frame(ell, minv, p)
    pencil = _pencil_pass(q, mp, gp, p, b, n_planes)
    locus = _locus(pencil, p, q)
    thresholds, valid = kernels.pencil_thresholds(pencil.planes)
    return Analysis(
        pure_state_probability=p_p,
        locus=locus,
        thresholds=thresholds,
        valid=valid,
        _frame=(q, mp, gp),
        _pass=pencil,
    )


def _debug(message, *args):
    """Log at DEBUG to `logging.getLogger("steerell")`.

    Importing `logging` costs a fresh process about 7.5 ms, 5-6% of the
    set-up of one CLI call, and only a program that has configured logging,
    and so imported it, can see a DEBUG record; so the library does not
    import it itself.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("steerell").debug(message, *args)


def _isotropic_bounds(q, mp, gp):
    """Full-sphere bounds in closed form from the contact frame (Q, M', g')
    of `_contact`, or None when the ellipsoid is anisotropic at p
    (`TOL_ANISOTROPY`) or the pencil (N, D) below is not definite; the
    bounds are then scanned.

    With m = M'00 = M'11 (M'01 = 0), g = g'2 and kappa = g / m, b's chord
    from p in direction w has the threshold

        t(w) = w^T N w / w^T D w,   N = M' - g I,   D = (1 + kappa) M' - g I,

    in every plane through the chord: in a plane whose axis in the tangent
    plane at p is v, `kernels.pencil_threshold` reads
    w^T N w / (w^T N w + (g / v^T M' v) w^T M' w), and isotropy makes
    v^T M' v = m for every v. Nesting makes N positive semidefinite, so D is
    definite and the bounds are the extreme generalized eigenvalues of
    (N, D). The tangent direction e_perp orthogonal to (M'02, M'12) is an
    eigenvector of both, with eigenvalue 1 - kappa. On the span of
    e_par = (M'02, M'12) / h and p, h = |(M'02, M'12)|, the pencil (N2, D2)
    in standard form is S = L^-1 N2 L^-T with D2 = L L^T, and 1 - kappa is
    S's first diagonal entry, so it lies between S's eigenvalues: they are
    the bounds. They are mid -+ hypot((S00 - S11) / 2, S01), a discriminant
    with no cancellation; the roots of det(N2 - lambda D2) = 0 by the
    quadratic formula lost half their digits at the double root of a sphere
    (8.6e-9 at r = 0.4). When h = 0, one of them is 1 - kappa: the limit of
    the threshold as the chord tends to e_par, a tangent direction. p_min is
    clamped at 0, as in `p_bounds`.

    No plane is scanned, so n_planes is 0. Both attaining chords lie in the
    span of e_par and p, so argmin_normal and argmax_normal (two arrays) are
    e_perp in the world frame, the normal of the plane through p that holds
    them. When h = 0, e_par is Q's first axis.
    """
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = mp
    anisotropy = max(abs(m00 - m11), 2.0 * abs(m01)) / m00
    if anisotropy > TOL_ANISOTROPY:
        _debug("full-sphere bounds by the scan: anisotropy at p %.3e", anisotropy)
        return None
    m, g = 0.5 * (m00 + m11), gp[2]
    kappa = g / m
    h = math.hypot(m02, m12)
    # N2 and D2 on (e_par, p); D2's first entry (1 + kappa) m - g is m
    n00, n01, n11 = m - g, h, m22 - g
    d00, d01, d11 = m, (1.0 + kappa) * h, (1.0 + kappa) * m22 - g
    det_d = d00 * d11 - d01 * d01
    if not det_d > 0.0:
        _debug("full-sphere bounds by the scan: det D2 = %.3e, anisotropy at p %.3e", det_d, anisotropy)
        return None
    # S = L^-1 N2 L^-T for the Cholesky factor L of D2; r = L10 / L00
    r = d01 / d00
    s00 = n00 / d00
    s01 = (n01 - r * n00) / math.sqrt(det_d)
    s11 = (n11 - r * (2.0 * n01 - r * n00)) * d00 / det_d
    mid, rad = 0.5 * (s00 + s11), math.hypot(0.5 * (s00 - s11), s01)
    cos_p, sin_p = (m02 / h, m12 / h) if h > 0.0 else (1.0, 0.0)
    normal = cos_p * q[1] - sin_p * q[0]
    _debug("full-sphere bounds in closed form: anisotropy at p %.3e", anisotropy)
    return ProbBounds(
        p_min=float(max(mid - rad, 0.0)),
        p_max=float(mid + rad),
        mode="ellipsoid",
        argmin_normal=normal,
        argmax_normal=normal.copy(),
        n_planes=0,
    )


# Each mode of `p_bounds` gives its scan's extremes (lo_min at plane imin,
# hi_max at plane imax, over n_planes planes) and its chart: the chart point
# of grid plane i, the signed value to minimise at a chart point (+inf on
# planes it rejects), and the normal at a chart point.


def _full_bounds(q, mp, gp, resolution, refine):
    """Full-sphere `p_bounds` in the contact frame (Q, M', g') of `_contact`."""
    n_theta, n_phi = resolution
    scan = kernels.scan_grid(mp, gp, n_theta, n_phi)
    grid_a, grid_b = kernels.polar_grid(n_theta, n_phi)

    def chart_point(i):
        return float(grid_a[i // n_phi]), float(grid_b[i % n_phi])

    def signed_value(angles, sign):
        a, b = angles
        s = math.sin(a)
        # reject nearly tangent planes, R < 5e-3; the reduction's rounding
        # error grows like eps/R (3e-11 relative at R = 1e-5, measured
        # against exact arithmetic)
        if s * s < 5e-3**2:
            return np.inf
        mu, nu, ga = kernels.reduce_planes(mp, gp, s, math.cos(a), math.cos(b), math.sin(b))
        lo_s, hi_s = kernels.plane_bounds(mu, nu, ga)
        return lo_s if sign > 0.0 else -hi_s

    def chart_normal(angles):
        a, b = angles
        s = math.sin(a)
        return np.array([s * math.cos(b), s * math.sin(b), math.cos(a)]) @ q

    return _refined_bounds("ellipsoid", scan, chart_point, signed_value, chart_normal, refine)


def _pencil_bounds(q, mp, gp, pencil, thresholds, valid, refine):
    """Pencil `p_bounds` over the planes of a `_pencil_pass`, from their
    `kernels.pencil_thresholds`."""
    lo, hi = np.where(valid, thresholds, np.inf), np.where(valid, thresholds, -np.inf)
    imin, imax = int(np.argmin(lo)), int(np.argmax(hi))
    scan = float(lo[imin]), imin, float(hi[imax]), imax, int(valid.sum())
    qe1_f, qe2_f, db_f = pencil.frame

    def chart_point(i):
        return (float(pencil.ts[i]),)

    def signed_value(t, sign):
        x, y, d = kernels.pencil_normals(qe1_f, qe2_f, t[0])
        s, c, cos_b, sin_b, ok = kernels.polar_factors(x, y, d)
        if not ok:
            return np.inf
        r2 = s * s
        k, ok = kernels.chord_slope(*kernels.chord_coords(x, y, d, r2, db_f), r2)
        if not ok:
            return np.inf
        mu, nu, ga = kernels.reduce_planes(mp, gp, s, c, cos_b, sin_b)
        return sign * kernels.pencil_threshold(mu, nu, ga, k)

    def chart_normal(t):
        return np.array(kernels.pencil_normals(pencil.e1, pencil.e2, t[0]))

    return _refined_bounds("pencil", scan, chart_point, signed_value, chart_normal, refine)


def _refined_bounds(mode, scan, chart_point, signed_value, chart_normal, refine):
    """`ProbBounds` from a scan's extremes, each polished by `_newton_polish`
    from its grid point when refine is set."""
    lo_min, imin, hi_max, imax, n_planes = scan
    extremes = []
    for sign, i, value in ((1.0, imin, lo_min), (-1.0, imax, -hi_max)):
        point, polished = chart_point(i), value
        if refine:
            point, polished = _newton_polish(lambda x: signed_value(x, sign), point, value)
        # the polish returns the grid point itself unless it improved on it
        extremes.append((sign * polished, chart_normal(point)))
    (p_min, arg_min), (p_max, arg_max) = extremes
    return ProbBounds(
        p_min=float(max(p_min, 0.0)),
        p_max=float(p_max),
        mode=mode,
        argmin_normal=arg_min,
        argmax_normal=arg_max,
        n_planes=n_planes,
    )
