"""Per-plane formulas and the vectorized kernels built on them.

Each formula has one implementation, written component-wise so that the same
code takes arrays of planes (the scans) and Python floats (the golden-section
refinement in `criteria.p_bounds`):

  reduce_planes     plane normals -> (alpha, beta, gamma, R, u, v, valid)
  plane_margin      signed steerability margin of an in-plane point
  plane_bounds      per-plane extremal thresholds over chord slopes
  plane_slopes      the chord slopes attaining them
  pencil_threshold  per-plane threshold at the chord slope of b

Kernels:
  scan_bounds     per-plane probability bounds over a grid of plane normals
  scan_pencil     per-plane steerability thresholds over the pencil through b
  triangle_sweep  brute-force search for a local-model triangle in a section
"""
from __future__ import annotations

import math

import numpy as np

# kept as constants: perfbench records them and compares only runs that agree
HAVE_NUMBA = False
DEFAULT_BACKEND = "numpy"

# ---------------------------------------------------------------------------
# per-plane conic reduction and closed-form bounds
#
# For a plane through the contact point p with unit normal n the in-plane
# frame is u = (d n - p)/R, v = n x u with d = n.p, R = sqrt(1 - d^2).
# The ellipsoid section conic, normalized to unit v^2 coefficient, yields
# (alpha, beta, gamma) = (mu, nu, xi)/R and the per-plane extremal
# probabilities over chord slopes follow in closed form.
# ---------------------------------------------------------------------------

_BETA_EPS = 1e-12
_R2_EPS = 1e-12


# The refinement calls the per-plane formulas one plane at a time on Python
# floats; numpy functions would turn those into numpy scalars, whose
# arithmetic is several times slower. These two keep floats as floats.
def _select(cond, a, b):
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def reduce_planes(minv, g, p, nx, ny, nz):
    """(alpha, beta, gamma, R, u, v, valid) of the planes through p with unit
    normal (nx, ny, nz).

    `minv` is the ellipsoid's inverse shape matrix and g = minv (p - centre);
    both and p may be arrays or nested lists of floats. The normal components
    are floats or arrays of one shape; u and v come back as component triples.
    Near-tangent planes are invalid and are reduced with R = 1 so that their
    values stay finite; callers mask them.
    """
    d = nx * p[0] + ny * p[1] + nz * p[2]
    r2 = 1.0 - d * d
    valid = r2 > _R2_EPS
    radius = _sqrt(_select(valid, r2, 1.0))
    ux = (d * nx - p[0]) / radius
    uy = (d * ny - p[1]) / radius
    uz = (d * nz - p[2]) / radius
    vx = ny * uz - nz * uy
    vy = nz * ux - nx * uz
    vz = nx * uy - ny * ux
    m0, m1, m2 = minv
    mux = m0[0] * ux + m0[1] * uy + m0[2] * uz
    muy = m1[0] * ux + m1[1] * uy + m1[2] * uz
    muz = m2[0] * ux + m2[1] * uy + m2[2] * uz
    mvx = m0[0] * vx + m0[1] * vy + m0[2] * vz
    mvy = m1[0] * vx + m1[1] * vy + m1[2] * vz
    mvz = m2[0] * vx + m2[1] * vy + m2[2] * vz
    auu = ux * mux + uy * muy + uz * muz
    auv = ux * mvx + uy * mvy + uz * mvz
    avv = vx * mvx + vy * mvy + vz * mvz
    lu = ux * g[0] + uy * g[1] + uz * g[2]
    al = 0.5 * (1.0 - auu / avv) / radius
    be = -(auv / avv) / radius
    ga = -(lu / avv) / radius
    return al, be, ga, radius, (ux, uy, uz), (vx, vy, vz), valid


def plane_margin(al, be, ga, radius, ub, vb):
    """Signed margin of the in-plane point (ub, vb): positive iff its homology
    image lies strictly inside the section circle, i.e. iff it is steerable in
    that plane."""
    return (
        2.0 * radius * (ga * ga + be * (1.0 + ga) * vb) * ub
        - (1.0 - 2.0 * radius * al * (1.0 + ga)) * ub * ub
        - vb * vb
    )


def plane_bounds(al, be, ga, radius):
    """Extremal thresholds (p_min, p_max) of one plane over all chord slopes k.

    With beta != 0 the extremes sit at the two stationary slopes; with
    beta = 0 the threshold is monotone in k^2, so they sit at k = 0 and at
    the axis-parallel limit k = inf (see `plane_slopes`).
    """
    beta_zero = abs(be) <= _BETA_EPS
    s = _sqrt(al * al + be * be)
    den = 1.0 - radius * (1.0 + ga) * (2.0 * al + radius * be * be * (1.0 + ga))
    num = 1.0 - ga - radius * radius * be * be * (1.0 + ga) - radius * al * (2.0 - ga * ga)
    lo = (num - radius * ga * ga * s) / den
    hi = (num + radius * ga * ga * s) / den
    p0 = (1.0 - ga - 2.0 * radius * al) / (1.0 - 2.0 * radius * al * (1.0 + ga))
    lim = 1.0 - ga
    falls = al < -_BETA_EPS  # threshold at k = 0 above the axis-parallel limit
    rises = al > _BETA_EPS
    lo = _select(beta_zero, _select(rises, p0, lim), lo)
    hi = _select(beta_zero, _select(falls, p0, lim), hi)
    return lo, hi


def plane_slopes(al, be):
    """Chord slopes (k_at_min, k_at_max) at which `plane_bounds` are attained.

    k = inf stands for the axis-parallel limit.
    """
    beta_zero = abs(be) <= _BETA_EPS
    s = _sqrt(al * al + be * be)
    be_safe = _select(beta_zero, 1.0, be)
    k_min = (-al + s) / be_safe
    k_max = (-al - s) / be_safe
    falls = al < -_BETA_EPS
    k_min = _select(beta_zero, _select(falls, np.inf, 0.0), k_min)
    k_max = _select(beta_zero, _select(falls, 0.0, np.inf), k_max)
    return k_min, k_max


def pencil_threshold(al, be, ga, radius, u, v, db):
    """Threshold p(k_b) of each plane at the chord slope of b, db = b - p.

    Returns (threshold, valid); planes where b is not on the u > 0 side of p
    are invalid.
    """
    ub = db[0] * u[0] + db[1] * u[1] + db[2] * u[2]
    vb = db[0] * v[0] + db[1] * v[1] + db[2] * v[2]
    valid = ub > _R2_EPS
    k = vb / _select(valid, ub, 1.0)
    sig = al + k * be
    thresh = ((1.0 + k * k) * (1.0 - ga) - 2.0 * radius * sig) / (
        1.0 + k * k - 2.0 * radius * (1.0 + ga) * sig
    )
    return thresh, valid


def pencil_normals(e1, e2, ts):
    """Components of the normals cos(t) e1 + sin(t) e2."""
    ct, st = np.cos(ts), np.sin(ts)
    return ct * e1[0] + st * e2[0], ct * e1[1] + st * e2[1], ct * e1[2] + st * e2[2]


def scan_bounds(minv, centre, p, normals):
    """Per-plane (p_min, p_max, valid) for the planes with the given unit normals.

    Planes pass through the contact point p of the ellipsoid (inverse shape
    matrix `minv`, centre `centre`); near-tangent planes come back invalid.
    """
    minv = np.asarray(minv, dtype=float)
    p = np.asarray(p, dtype=float)
    normals = np.asarray(normals, dtype=float)
    g = minv @ (p - centre)
    al, be, ga, radius, _, _, valid = reduce_planes(minv, g, p, *normals.T)
    lo, hi = plane_bounds(al, be, ga, radius)
    return np.where(valid, lo, 0.0), np.where(valid, hi, 0.0), valid


def scan_pencil(minv, centre, p, b, e1, e2, ts):
    """Per-plane steerability thresholds p(k_b, b_k) over the pencil of planes
    containing the line through p and b.

    The pencil is parametrized by normals cos(t) e1 + sin(t) e2 with (e1, e2)
    orthonormal and orthogonal to b - p.
    """
    minv = np.asarray(minv, dtype=float)
    p = np.asarray(p, dtype=float)
    g = minv @ (p - centre)
    normals = pencil_normals(e1, e2, np.asarray(ts, dtype=float))
    al, be, ga, radius, u, v, valid = reduce_planes(minv, g, p, *normals)
    thresh, valid_b = pencil_threshold(al, be, ga, radius, u, v, np.asarray(b, dtype=float) - p)
    valid = valid & valid_b
    return np.where(valid, thresh, 0.0), valid


# ---------------------------------------------------------------------------
# triangle sweep
#
# In-plane points: the pure state sits at the origin. Candidate s2 runs on the
# segment [sp1, c1]; for each s2 the third vertex s3 is the intersection of
# line(s2, sm0) with the ray from sm1 toward c2, accepted when it lands on
# [sm1, c2] with sm0 between s2 and s3.
# ---------------------------------------------------------------------------

_SEG_TOL = 1e-9


def triangle_sweep(sp1, c1, sm1, c2, sm0, grid: int):
    """Search the section for a triangle (origin, s2, s3) absorbing the assemblage.

    Returns (found, index, lam2, lam3, eps0): lam2 locates s2 on [sp1, c1],
    lam3 locates s3 on [sm1, c2], eps0 is the weight of s2 in the convex split
    of sm0 along [s2, s3]. The first admissible grid index is returned.
    """
    sp1, c1, sm1, c2, sm0 = (np.asarray(x, dtype=float) for x in (sp1, c1, sm1, c2, sm0))
    if grid < 2:
        raise ValueError("grid must be at least 2")
    lam2 = np.arange(grid) / (grid - 1.0)
    s2 = sp1[None, :] + lam2[:, None] * (c1 - sp1)[None, :]
    d = sm0[None, :] - s2
    e = c2 - sm1
    den = d[:, 0] * e[1] - d[:, 1] * e[0]
    q = sm1[None, :] - s2
    ok = np.abs(den) >= 1e-15
    den_safe = np.where(ok, den, 1.0)
    tsol = (q[:, 0] * e[1] - q[:, 1] * e[0]) / den_safe
    lam3 = (q[:, 0] * d[:, 1] - q[:, 1] * d[:, 0]) / den_safe
    ok &= tsol >= 1.0 - _SEG_TOL
    ok &= (lam3 >= -_SEG_TOL) & (lam3 <= 1.0 + _SEG_TOL)
    if not ok.any():
        return False, -1, 0.0, 0.0, 0.0
    i = int(np.argmax(ok))
    eps0 = 1.0 - 1.0 / tsol[i] if tsol[i] > 1.0 else 0.0
    return True, i, float(lam2[i]), float(lam3[i]), float(eps0)
