"""Steerability criteria in the two-measurement, one-pure-steered-state setting.

Alice holds one measurement that steers Bob to a pure state (the sphere
contact point p of the steering ellipsoid) and one further projective
measurement. For a section plane through p, Bob's reduced point b is
steerable in that plane iff its homology image h lands strictly inside the
section ellipse; expanding that containment gives a signed margin

    margin = 2 R (gamma^2 + beta (1 + gamma) v_b) u_b
             - (1 - 2 R alpha (1 + gamma)) u_b^2 - v_b^2 > 0.

The thresholds also bound the admissible probability p of the pure steered
state: per plane the extremal thresholds over chord slopes are attained at
the two stationary slopes (or at slope 0 and the axis-parallel limit when
beta = 0), and the extrema over all planes give (p_min, p_max) such that
p > p_max is sufficient and p > p_min necessary for steerability.

A chord's threshold depends on the plane through it only through v^T M' v,
v the plane's axis in the tangent plane at p, which ranges over the two
eigenvalues of M''s tangent block. So both bounds, over every plane through
p (`_ellipsoid_bounds`) and over the pencil through b (`_chord_bounds`),
are closed forms for every tangent ellipsoid, and no plane is scanned for
them.

Every verdict and bound here comes from the per-plane formulas of `kernels`:
one plane's (alpha, beta, gamma) from its ellipse invariants
(`kernels.ellipse_invariants`), the pencil's from the contact-frame
reduction, and the closed forms from the same reduction read in every plane
at once.
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
from .errors import BOutsideEllipsoid, DegeneratePlane, InvalidReducedState, NotNested
from .paulicore import require_finite
from .tolerances import BOUNDARY_BAND, TOL_GEOM

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
    """Bounds on the pure-state probability over every plane through p
    (mode "ellipsoid") or over the pencil of planes through p and b (mode
    "pencil"), in closed form. The arg-normals are the normals of planes
    that attain them; n_planes is 0 for the full sphere, which scans none,
    and the count of valid pencil planes in pencil mode."""

    p_min: float
    p_max: float
    mode: str  # "ellipsoid" or "pencil"
    argmin_normal: np.ndarray
    argmax_normal: np.ndarray
    n_planes: int


@dataclass(frozen=True)
class Analysis:
    """What `analyze` derives from one contact check and one pencil pass.

    The two bounds are computed the first time they are read, in closed
    form on the contact frame and the pencil pass that `analyze` holds, so a
    caller that reports one of them does not pay for the other.
    """

    pure_state_probability: float
    locus: LocusResult
    thresholds: np.ndarray  # (n,) threshold of each pencil plane at b's chord slope, 0 where invalid
    valid: np.ndarray  # (n,) pencil planes where b's chord is valid
    _frame: tuple = field(repr=False)  # (Q, M', g') of `_contact`
    _pass: _Pencil = field(repr=False)  # the `_pencil_pass`

    @cached_property
    def bounds(self) -> ProbBounds:
        """Full-sphere bounds, `_ellipsoid_bounds`."""
        return _ellipsoid_bounds(*self._frame)

    @cached_property
    def bounds_pencil(self) -> ProbBounds:
        """Bounds over the pencil through b, `_chord_bounds`; n_planes counts
        the pencil planes where b's chord is valid."""
        return _chord_bounds(*self._frame, self._pass.frame[2], int(self.valid.sum()))


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
    g' as Python floats for the pencil pass and the closed forms."""
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


def p_bounds(
    ell: SteeringEllipsoid,
    *,
    p,
    b=None,
    resolution: tuple[int, int] = (180, 360),
    refine: bool = True,
) -> ProbBounds:
    """Probability bounds over planes through the contact point p, in closed
    form (`_ellipsoid_bounds`, `_chord_bounds`).

    With b=None they are over every plane through p: p > p_max is
    sufficient and p > p_min necessary for the steerability of any reduced
    point; n_planes is 0. With b given they are over the pencil of planes
    containing the line p b, at b's own chord, which bounds the thresholds
    actually faced by that reduced point; n_planes counts the planes of the
    max(resolution)-plane pencil where b's chord is valid. p_min is clamped
    at 0, and p_min <= p_max holds in floating point.

    The bounds are exact, so neither `resolution`, beyond that count, nor
    `refine` changes them; both are still accepted.

    Raises NotOnSurface unless p is the contact point, BOutsideEllipsoid
    when b is outside the ellipsoid, InvalidReducedState when b is at p or
    on the tangent plane at p and ValueError when b is not finite.
    """
    p = np.asarray(p, dtype=float)
    if b is not None:
        b = require_finite(np.asarray(b, dtype=float), "b")
    q, mp, gp = _frame(ell, _contact(ell, p, b), p)
    if b is None:
        return _ellipsoid_bounds(q, mp, gp)
    pencil = _pencil_pass(q, mp, gp, p, b, max(resolution))
    _, valid = kernels.pencil_thresholds(pencil.planes)
    return _chord_bounds(q, mp, gp, pencil.frame[2], int(valid.sum()))


def analyze(ell: SteeringEllipsoid, b, *, p, n_planes: int) -> Analysis:
    """`pure_state_probability`, `locus_of_h` over n_planes pencil planes,
    and the full-sphere and pencil `p_bounds`, the pencil's plane count over
    the same n_planes planes, from one contact check and one reduction of
    the pencil.

    The results equal those of the separate calls. The pencil pass
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


# A state's ellipsoid is isotropic at p (M'00 = M'11, M'01 = 0): rounding
# splits the eigenvalues of M''s tangent block by at most 2.5e-14 of the
# larger on 3,000 random tangent states. Below this split they count as
# equal, and the full-sphere bounds take the 2x2 form.
_EQUAL_TANGENT = 1e-12


def _tangent_axes(mp):
    """(lam1, v1, lam2, v2): the eigenvalues lam1 <= lam2 of M''s tangent
    block [[M'00, M'01], [M'01, M'11]], mid -+ hypot, and their unit
    eigenvectors as contact-frame 3-vectors."""
    (m00, m01, _), (_, m11, _), _ = mp
    mid, rad = 0.5 * (m00 + m11), math.hypot(0.5 * (m00 - m11), m01)
    angle = 0.5 * math.atan2(2.0 * m01, m00 - m11)
    c, s = math.cos(angle), math.sin(angle)
    return mid - rad, np.array([-s, c, 0.0]), mid + rad, np.array([c, s, 0.0])


def _plane_normal(q, v, w, other):
    """World-frame unit normal of span(v, w), the plane through p whose axis
    in the tangent plane is v and which holds the chord w (contact frame).
    A w along v lies in every plane holding v; this is then span(v, p),
    whose normal is the other tangent axis."""
    normal = kernels.cross3(v, w)
    length = math.sqrt(normal @ normal)
    if length <= 1e-12 * math.sqrt(w @ w):
        return other @ q
    return (normal / length) @ q


def _definite_extreme(n, d, i):
    """(value, w): the i-th generalized eigenvalue of (n, d), in ascending
    order, and its eigenvector, from `eigh` of the symmetric standard form
    L^-1 n L^-T, d = L L^T. Raises NotNested when d is not definite."""
    try:
        inv = np.linalg.inv(np.linalg.cholesky(d))
    except np.linalg.LinAlgError:
        raise NotNested("the ellipsoid leaves the ball: its chord pencil is not definite") from None
    values, vectors = np.linalg.eigh(inv @ n @ inv.T)
    return float(values[i]), inv.T @ vectors[:, i]


def _ellipsoid_bounds(q, mp, gp):
    """Full-sphere bounds in closed form from the contact frame (Q, M', g')
    of `_contact`, for every tangent ellipsoid.

    With g = g'2 and N = M' - g I, b's chord from p in direction w has, in
    the plane through it whose axis in the tangent plane at p is the unit v,
    the threshold (`kernels.pencil_threshold`; see the header of `kernels`)

        t(w; V) = A / (A + (g / V) B),   A = w^T N w,   B = w^T M' w,

    with V = v^T M' v. Every pair (v, w), w off the tangent plane, is a
    plane through p, so over all planes V ranges over the eigenvalues
    lam1 <= lam2 of M''s tangent block, and t increases with V: p_min is
    the least generalized eigenvalue of (N, N + (g / lam1) M') and p_max
    the greatest of (N, N + (g / lam2) M'). Nesting makes N positive
    semidefinite, so both pencils are definite; an ellipsoid that leaves
    the ball can make them indefinite, and raises NotNested.

    Where lam1 = lam2 = m up to rounding (`_EQUAL_TANGENT`), as for every
    state, the two pencils are one, (N, D) with D = (1 + kappa) M' - g I and
    kappa = g / m. The tangent direction e_perp orthogonal to (M'02, M'12)
    is an eigenvector of both N and D, with eigenvalue 1 - kappa. On the
    span of e_par = (M'02, M'12) / h and p, h = |(M'02, M'12)|, the pencil
    (N2, D2) in standard form is S = L^-1 N2 L^-T with D2 = L L^T, and
    1 - kappa is S's first diagonal entry, so it lies between S's
    eigenvalues: they are the bounds, mid -+ hypot((S00 - S11) / 2, S01), a
    discriminant with no cancellation. The roots of det(N2 - lambda D2) = 0
    by the quadratic formula lost half their digits at the double root of a
    sphere (8.6e-9 at r = 0.4), and a cubic formula has the same loss, so
    otherwise each 3x3 pencil goes to `eigh` in standard form
    (`_definite_extreme`). When h = 0, one bound is 1 - kappa: the limit of
    the threshold as the chord tends to e_par, a tangent direction.

    p_min is clamped at 0, as in `p_bounds`, and p_max at p_min: the
    attaining chord of p_min has t(w; lam2) >= p_min, so only rounding
    could order them the other way. No plane is scanned, so n_planes is 0.
    argmin_normal and argmax_normal are the world-frame normals of the
    planes span(v_i, w*) that attain them (`_plane_normal`); in the 2x2
    form both attaining chords lie in the span of e_par and p, whose normal
    is e_perp, and e_par is Q's first axis when h = 0.
    """
    lam1, v1, lam2, v2 = _tangent_axes(mp)
    g = gp[2]
    if lam2 - lam1 <= _EQUAL_TANGENT * lam2:
        branch = "2x2"
        (m00, _, m02), (_, m11, m12), (_, _, m22) = mp
        m = 0.5 * (m00 + m11)
        kappa = g / m
        h = math.hypot(m02, m12)
        # N2 and D2 on (e_par, p); D2's first entry (1 + kappa) m - g is m
        n00, n01, n11 = m - g, h, m22 - g
        d00, d01, d11 = m, (1.0 + kappa) * h, (1.0 + kappa) * m22 - g
        det_d = d00 * d11 - d01 * d01
        if not det_d > 0.0:
            raise NotNested("the ellipsoid leaves the ball: its chord pencil is not definite")
        # S = L^-1 N2 L^-T for the Cholesky factor L of D2; r = L10 / L00
        r = d01 / d00
        s00 = n00 / d00
        s01 = (n01 - r * n00) / math.sqrt(det_d)
        s11 = (n11 - r * (2.0 * n01 - r * n00)) * d00 / det_d
        mid, rad = 0.5 * (s00 + s11), math.hypot(0.5 * (s00 - s11), s01)
        p_min, p_max = mid - rad, mid + rad
        cos_p, sin_p = (m02 / h, m12 / h) if h > 0.0 else (1.0, 0.0)
        arg_min = cos_p * q[1] - sin_p * q[0]
        arg_max = arg_min.copy()
    else:
        branch = "3x3"
        m = np.array(mp)
        n = m - g * np.eye(3)
        p_min, w_min = _definite_extreme(n, n + (g / lam1) * m, 0)
        p_max, w_max = _definite_extreme(n, n + (g / lam2) * m, -1)
        arg_min, arg_max = _plane_normal(q, v1, w_min, v2), _plane_normal(q, v2, w_max, v1)
    _debug("full-sphere bounds in closed form (%s): lambda1/g %.17g, lambda2/g %.17g", branch, lam1 / g, lam2 / g)
    p_min = max(p_min, 0.0)
    return ProbBounds(
        p_min=float(p_min),
        p_max=float(max(p_max, p_min)),
        mode="ellipsoid",
        argmin_normal=arg_min,
        argmax_normal=arg_max,
        n_planes=0,
    )


def _chord_bounds(q, mp, gp, w, n_planes):
    """Pencil bounds in closed form at b's chord w = Q (b - p), a list of
    contact-frame floats, from the contact frame (Q, M', g') of `_contact`:
    t(w; lam1) and t(w; lam2) of `_ellipsoid_bounds`.

    The planes through p and b are span(v, w), one for every unit tangent
    v, so V = v^T M' v ranges over [lam1, lam2] and t(w; V) increases with
    it. A = w^T N w is clamped at 0 first: nesting makes it nonnegative,
    and a rounding-negative A would reverse the order of the two values.
    With A >= 0 and lam1 <= lam2, t(w; lam1) <= t(w; lam2) holds in
    floating point too, as every step is monotone. n_planes is the caller's
    count of valid pencil planes; argmin_normal and argmax_normal are the
    normals of span(v1, w) and span(v2, w).
    """
    lam1, v1, lam2, v2 = _tangent_axes(mp)
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = mp
    g = gp[2]
    x, y, z = w
    cross = 2.0 * (m01 * x * y + m02 * x * z + m12 * y * z)
    a = max((m00 - g) * x * x + (m11 - g) * y * y + (m22 - g) * z * z + cross, 0.0)
    b = m00 * x * x + m11 * y * y + m22 * z * z + cross
    _debug("pencil bounds in closed form: lambda1/g %.17g, lambda2/g %.17g", lam1 / g, lam2 / g)
    w = np.array(w)
    return ProbBounds(
        p_min=a / (a + (g / lam1) * b),
        p_max=a / (a + (g / lam2) * b),
        mode="pencil",
        argmin_normal=_plane_normal(q, v1, w, v2),
        argmax_normal=_plane_normal(q, v2, w, v1),
        n_planes=n_planes,
    )
