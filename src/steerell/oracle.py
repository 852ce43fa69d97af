"""Independent steerability oracle built from in-plane triangle geometry.

An assemblage in this scenario consists of one measurement steering Bob to a
pure state p (so the other outcome lands on the far intersection of line pb
with the ellipsoid) plus a second measurement whose two steered states span a
chord of the section ellipse through b. Everything lives in the plane of the
three steered points, with p at the origin and the Bloch-sphere section a
circle of radius R centred at (R, 0).

A local model needs hidden states {p, s2, s3} with s2 on the ray p -> s_plus1
extended to the circle and s3 on the ray p -> s_minus1 extended to the circle,
such that s_minus0 lies between s2 and s3. Collinearity ratios then fix every
weight, so the assemblage is unsteerable exactly when s_minus0 falls inside
the triangle spanned by p and the two circle points. This module implements
that membership test directly and, separately, an exact interval search for
an explicit model with full bookkeeping, without touching the conic machinery
used by the criteria module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .criteria import pure_state_probability
from .ellipsoid import (
    SINGLE_TANGENT,
    PlaneSection,
    SteeringEllipsoid,
    plane_section,
    steering_ellipsoid,
    tangency,
)
from .errors import CollinearSteeredStates, NoPureState
from .paulicore import TwoQubitState, steered_ensemble
from .tolerances import TOL_GEOM

# the oracle's one tolerance: circle lifts and the triangle test count a
# point within TRIANGLE_TOL * R of the pure state, or within
# TRIANGLE_TOL * R^2 of a triangle edge, as on it
TRIANGLE_TOL = 1e-9


@dataclass(frozen=True)
class Assemblage:
    """Two-measurement, one-pure-outcome assemblage in its section plane.

    The pure steered state sits at the in-plane origin. `prob_pure` is the
    probability of that outcome; `s_minus0` is the other steered state of the
    same measurement. The second measurement steers to `s_plus1`, `s_minus1`
    with probabilities `probs1`.
    """

    section: PlaneSection
    b_local: np.ndarray
    prob_pure: float
    s_minus0: np.ndarray
    probs1: np.ndarray
    s_plus1: np.ndarray
    s_minus1: np.ndarray

    @property
    def radius(self) -> float:
        return self.section.R


@dataclass(frozen=True)
class OracleVerdict:
    """Triangle membership verdict. `depth` is the least signed clearance of
    s_minus0 against the triangle edges, negative when outside (steerable)."""

    steerable: bool
    depth: float
    c1: np.ndarray
    c2: np.ndarray


@dataclass(frozen=True)
class TriangleSearchResult:
    """Explicit local model found by the exact search. `index` is always -1;
    it stays only because the benchmark's tracer reads it."""

    index: int
    s2: np.ndarray
    s3: np.ndarray
    eps_plus1: float
    eps_minus1: float
    eps_minus0: float
    weights: np.ndarray
    max_residual: float


def assemblage_from_state(
    state: TwoQubitState,
    axis1,
    *,
    ell: SteeringEllipsoid | None = None,
    report=None,
) -> Assemblage:
    """Assemblage of a tangent state: Alice measures along the contact axis
    (outcome +1 steers Bob to the pure state) and along `axis1`."""
    if ell is None:
        ell = steering_ellipsoid(state)
    if report is None:
        report = tangency(ell)
    if report.status != SINGLE_TANGENT or report.axis is None:
        raise NoPureState(f"no single contact point (tangency status {report.status})")
    ens0 = steered_ensemble(state, report.axis)
    p = ens0.points[0]
    if abs(np.linalg.norm(p) - 1.0) > 1e-6:
        raise NoPureState("contact-axis outcome is not pure")
    ens1 = steered_ensemble(state, np.asarray(axis1, dtype=float))
    return _assemble(ell, p, state.b, ens0.probabilities[0], ens0.points[1],
                     ens1.probabilities, ens1.points[0], ens1.points[1])


def assemblage_from_geometry(
    ell: SteeringEllipsoid,
    p,
    b,
    plane_angle: float,
    chord_angle: float,
) -> Assemblage:
    """Assemblage built from an abstract tangent ellipsoid.

    The plane is the member of the pencil through p and b selected by
    `plane_angle`; the second measurement's chord passes through b in the
    in-plane direction `chord_angle`. The complementary outcome of the pure
    measurement is placed at the far intersection of line pb with the
    ellipsoid, exactly where a physical tangency measurement sends it.

    Raises CollinearSteeredStates when b is at p, when the chord misses the
    section ellipse, or when a chord end sits at the pure state.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - p
    nd = np.linalg.norm(d)
    if nd < TOL_GEOM:
        raise CollinearSteeredStates("b coincides with the contact point")
    d = d / nd
    seed = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ d) * d
    e1 /= np.linalg.norm(e1)
    e2 = kernels.cross3(d, e1)
    normal = np.cos(plane_angle) * e1 + np.sin(plane_angle) * e2
    section = plane_section(ell, p, normal)

    p_pure = pure_state_probability(ell, p, b)
    b_local = section.to_plane(b)
    s_minus0 = b_local / (1.0 - p_pure)

    conic = _section_conic(section)
    direction = np.array([np.cos(chord_angle), np.sin(chord_angle)])
    a2 = conic[:2, :2]
    lin = conic[:2, 2]
    qa = direction @ a2 @ direction
    qb = 2.0 * (a2 @ b_local + lin) @ direction
    qc = b_local @ a2 @ b_local + 2.0 * lin @ b_local + conic[2, 2]
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0 or abs(qa) < 1e-15:
        raise CollinearSteeredStates("chord does not cross the section ellipse")
    root = np.sqrt(disc)
    t_plus = (-qb + root) / (2.0 * qa)
    t_minus = (-qb - root) / (2.0 * qa)
    s_plus1 = b_local + t_plus * direction
    s_minus1 = b_local + t_minus * direction
    for end in (s_plus1, s_minus1):
        # an end at the pure state has no circle lift, so the oracle could
        # not judge this assemblage
        _lift_to_circle(end, section.R)
    lam = -t_minus / (t_plus - t_minus)
    probs1 = np.array([lam, 1.0 - lam])
    return Assemblage(
        section=section,
        b_local=b_local,
        prob_pure=float(p_pure),
        s_minus0=s_minus0,
        probs1=probs1,
        s_plus1=s_plus1,
        s_minus1=s_minus1,
    )


def _section_conic(section: PlaneSection) -> np.ndarray:
    """Homogeneous conic of the section ellipse in its own (u, v) frame."""
    m, n, delta = section.m, section.n, section.delta
    g2 = m * m + n * n + (m * m - n * n) * np.cos(2.0 * delta)
    g = np.sqrt(g2)
    cu = g / np.sqrt(2.0)
    cv = (m * m - n * n) * np.sin(2.0 * delta) / (np.sqrt(2.0) * g)
    cd, sd = np.cos(delta), np.sin(delta)
    rot = np.array([[cd, -sd], [sd, cd]])
    a2 = rot @ np.diag([1.0 / (m * m), 1.0 / (n * n)]) @ rot.T
    centre = np.array([cu, cv])
    conic = np.zeros((3, 3))
    conic[:2, :2] = a2
    conic[:2, 2] = -a2 @ centre
    conic[2, :2] = conic[:2, 2]
    conic[2, 2] = centre @ a2 @ centre - 1.0
    return conic


def _assemble(ell, p, b, prob_pure, s_minus0_3d, probs1, s_plus1_3d, s_minus1_3d):
    normal = kernels.cross3(s_plus1_3d - p, s_minus1_3d - p)
    scale = max(np.linalg.norm(s_plus1_3d - p), np.linalg.norm(s_minus1_3d - p))
    if np.linalg.norm(normal) < 1e-10 * max(scale * scale, 1e-12):
        raise CollinearSteeredStates("second measurement steers along the pb line")
    section = plane_section(ell, p, normal / np.linalg.norm(normal))
    return Assemblage(
        section=section,
        b_local=section.to_plane(b),
        prob_pure=float(prob_pure),
        s_minus0=section.to_plane(s_minus0_3d),
        probs1=np.asarray(probs1, dtype=float),
        s_plus1=section.to_plane(s_plus1_3d),
        s_minus1=section.to_plane(s_minus1_3d),
    )


def _lift_to_circle(point: np.ndarray, radius: float) -> np.ndarray:
    """Second intersection of the ray from the origin through `point` with the
    circle of radius `radius` centred at (radius, 0)."""
    norm2 = point @ point
    if point[0] <= TRIANGLE_TOL * radius or norm2 <= (TRIANGLE_TOL * radius) ** 2:
        raise CollinearSteeredStates("steered state coincides with the pure state")
    return (2.0 * radius * point[0] / norm2) * point


def triangle_criterion(asm: Assemblage) -> OracleVerdict:
    """Steerable iff s_minus0 lies strictly outside the triangle spanned by
    the origin and the circle lifts of the second measurement's steered
    states. Boundary contact within TRIANGLE_TOL (relative to R^2) counts as
    inside, so the oracle only claims steering with clearance."""
    r = asm.radius
    c1 = _lift_to_circle(asm.s_plus1, r)
    c2 = _lift_to_circle(asm.s_minus1, r)
    x = asm.s_minus0

    def cross(a, bb):
        return a[0] * bb[1] - a[1] * bb[0]

    orient = cross(c1, c2)
    scale = r * r
    if abs(orient) <= TRIANGLE_TOL * scale:
        raise CollinearSteeredStates("degenerate triangle (collinear chord)")
    sgn = 1.0 if orient > 0 else -1.0
    edges = (
        cross(c1, x) * sgn / np.linalg.norm(c1),
        cross(c2 - c1, x - c1) * sgn / np.linalg.norm(c2 - c1),
        cross(-c2, x - c2) * sgn / np.linalg.norm(c2),
    )
    depth = float(min(edges))
    return OracleVerdict(steerable=depth < -TRIANGLE_TOL * scale, depth=depth, c1=c1, c2=c2)


def _exact_feasible_lam2(sp1, c1, sm1, c2, sm0):
    """Exact triangle feasibility: (lam2, lam3, eps0) of the least admissible
    lam2 in [0, 1], or None when no local model exists.

    s2 = sp1 + lam2 (c1 - sp1) runs over the segment from s_plus1 to its
    circle lift; s3 is where the line through s2 and sm0 meets the ray from
    sm1 toward c2, at sm1 + lam3 (c2 - sm1), and sm0 splits [s2, s3] with s2's
    weight eps0. Every constraint is a ratio of functions linear in lam2, so
    the admissible set is a union of intervals whose endpoints are roots of
    four linear polynomials. Testing the cut points and the midpoints of the
    induced partition of [0, 1] decides feasibility without a grid.
    """
    (ax, ay), (c1x, c1y), (mx, my), (c2x, c2y), (zx, zy) = (
        (float(v[0]), float(v[1])) for v in (sp1, c1, sm1, c2, sm0)
    )

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    e = (c2x - mx, c2y - my)
    d0 = (zx - ax, zy - ay)
    d1 = (-(c1x - ax), -(c1y - ay))
    q0 = (mx - ax, my - ay)
    den_c = (cross(d0, e), cross(d1, e))
    ts_c = (cross(q0, e), cross(d1, e))
    l3_c = (cross(q0, d0), cross(q0, d1) + cross(d1, d0))

    cuts = {0.0, 1.0}
    for c0, c1_ in (den_c, (ts_c[0] - den_c[0], ts_c[1] - den_c[1]), l3_c,
                    (l3_c[0] - den_c[0], l3_c[1] - den_c[1])):
        if abs(c1_) > 1e-15:
            root = -c0 / c1_
            if 0.0 < root < 1.0:
                cuts.add(root)
    grid_pts = sorted(cuts)
    candidates = [0.5 * (a + b) for a, b in zip(grid_pts[:-1], grid_pts[1:])]
    for lam2 in sorted(candidates + grid_pts):
        den = den_c[0] + lam2 * den_c[1]
        if abs(den) < 1e-15:
            continue
        tsol = (ts_c[0] + lam2 * ts_c[1]) / den
        lam3 = (l3_c[0] + lam2 * l3_c[1]) / den
        if tsol < 1.0 - 1e-9 or lam3 < -1e-9 or lam3 > 1.0 + 1e-9:
            continue
        eps0 = 1.0 - 1.0 / tsol if tsol > 1.0 else 0.0
        return lam2, lam3, eps0
    return None


def triangle_search(asm: Assemblage) -> TriangleSearchResult | None:
    """Explicit local model from the exact interval search.

    s2 lies on the segment from s_plus1 to its circle lift and s3 on the
    segment from s_minus1 to its lift, at the least admissible lam2 of
    `_exact_feasible_lam2`. The four hidden-strategy weights are
    reconstructed from collinearity ratios and every defining equation of
    the assemblage is re-checked; the worst violation is reported as
    `max_residual`. Returns None when no model exists (the steerable case).
    """
    r = asm.radius
    c1 = _lift_to_circle(asm.s_plus1, r).tolist()
    c2 = _lift_to_circle(asm.s_minus1, r).tolist()
    (ax, ay), (mx, my), (zx, zy) = (v.tolist() for v in (asm.s_plus1, asm.s_minus1, asm.s_minus0))
    exact = _exact_feasible_lam2((ax, ay), c1, (mx, my), c2, (zx, zy))
    if exact is None:
        return None
    lam2, lam3, eps0 = exact
    s2x, s2y = ax + lam2 * (c1[0] - ax), ay + lam2 * (c1[1] - ay)
    s3x, s3y = mx + lam3 * (c2[0] - mx), my + lam3 * (c2[1] - my)
    n2 = math.hypot(s2x, s2y)
    n3 = math.hypot(s3x, s3y)
    if n2 < TRIANGLE_TOL or n3 < TRIANGLE_TOL:
        return None
    eps_p1 = 1.0 - math.hypot(ax, ay) / n2
    eps_m1 = 1.0 - math.hypot(mx, my) / n3
    q_plus, q_minus = asm.probs1.tolist()
    w0 = q_plus * eps_p1
    w1 = q_minus * eps_m1
    w2 = q_plus * (1.0 - eps_p1)
    w3 = q_minus * (1.0 - eps_m1)
    p_pure = asm.prob_pure
    rest = 1.0 - p_pure
    # the hidden state p sits at the origin, so w0 and w1 weigh a zero vector
    resid = (
        abs(w0 + w1 + w2 + w3 - 1.0),
        abs(w0 + w1 - p_pure),
        abs(w2 + w3 - rest),
        math.hypot(w2 * s2x + w3 * s3x - rest * zx, w2 * s2y + w3 * s3y - rest * zy),
        math.hypot(w2 * s2x - q_plus * ax, w2 * s2y - q_plus * ay),
        math.hypot(w3 * s3x - q_minus * mx, w3 * s3y - q_minus * my),
        max(0.0, -min(w0, w1, w2, w3)),
    )
    return TriangleSearchResult(
        index=-1,
        s2=np.array([s2x, s2y]),
        s3=np.array([s3x, s3y]),
        eps_plus1=eps_p1,
        eps_minus1=eps_m1,
        eps_minus0=eps0,
        weights=np.array([w0, w1, w2, w3]),
        max_residual=max(resid),
    )
