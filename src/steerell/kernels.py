"""Per-plane formulas and the vectorized kernels built on them.

Each formula has one implementation, written component-wise so that the same
code takes arrays of planes (the scans) and Python floats (the golden-section
refinement in `criteria.p_bounds`):

  contact_frame     rotation Q to the contact-point frame, M' and g' in it
  reduce_planes     contact-frame normals -> (mu, nu, gamma, r2, valid)
  chord_coords      R (u_b, v_b): in-plane coordinates of b - p, scaled by R
  chord_slope       k = v_b / u_b, valid where b is on the u > 0 side of p
  plane_margin      signed steerability margin of an in-plane point
  plane_bounds      per-plane extremal thresholds over chord slopes
  plane_slopes      the chord slopes attaining them
  pencil_threshold  per-plane threshold at the chord slope k of b

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
# per-plane conic reduction in the contact frame
#
# Q has rows (e1, e2, p), with e1 x e2 = p, so a plane normal n reads
# (x, y, d) = Q n. The plane through p has circle radius R with
# R^2 = r2 = x^2 + y^2, and its in-plane frame u = (d n - p)/R, v = n x u is
# u' = (d x, d y, -r2), v' = (-y, x, 0) in Q coordinates, scaled by R.
# With M' = Q minv Q^T and g' = Q minv (p - centre), the section conic's
# homology column (alpha, beta, gamma) satisfies
#
#   mu = R alpha = (1 - u'M'u' / V) / 2,   nu = R beta = -u'M'v' / V,
#   gamma = -u'.g' / V,                     V = v'M'v',
#
# every factor of R cancelling. The per-plane bounds, slopes and pencil
# threshold depend on (mu, nu, gamma) only, so the scans and the refinement
# take no square root of r2 and build no u, v; r2 itself carries no
# 1 - d^2 cancellation near the tangent plane.
# ---------------------------------------------------------------------------

_BETA_EPS = 1e-12
_R2_EPS = 1e-12


# The refinement calls the per-plane formulas one plane at a time on Python
# floats; numpy functions would turn those into numpy scalars, whose
# arithmetic is several times slower. These keep floats as floats.
def _select(cond, a, b):
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def contact_frame(minv, centre, p):
    """(Q, M', g') at the contact point p of the ellipsoid with inverse shape
    matrix `minv` and centre `centre`.

    Q's rows are (e1, e2, p) with e1 x e2 = p, M' = Q minv Q^T and
    g' = Q minv (p - centre). For p = e_z, Q is the identity.
    """
    minv = np.asarray(minv, dtype=float)
    p = np.asarray(p, dtype=float)
    # e1: the coordinate axis least aligned with p, made orthogonal to p
    k = int(np.argmin(np.abs(p)))
    e1 = -p[k] * p
    e1[k] += 1.0
    e1 /= np.linalg.norm(e1)
    q = np.array([e1, cross3(p, e1), p])
    return q, q @ minv @ q.T, q @ (minv @ (p - centre))


def cross3(a, b):
    """a x b for two 3-vectors, bit-identical to numpy's cross, in about
    4 us; numpy's cross itself takes 30-50 us a call on numpy 2.4."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def reduce_planes(mp, gp, x, y, d):
    """(mu, nu, gamma, r2, valid) of the planes through p with contact-frame
    normal (x, y, d); mu = R alpha, nu = R beta and r2 = R^2.

    `mp` and `gp` are M' and g' of `contact_frame`, as arrays or nested lists
    of floats; g' may have transverse components. The normal components are
    floats or arrays of one shape. Near-tangent planes are invalid and come
    back as mu = nu = gamma = 0; callers mask them.
    """
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = mp
    xx, yy, xy = x * x, y * y, x * y
    r2 = xx + yy
    valid = r2 > _R2_EPS
    vv = m11 * xx - 2.0 * m01 * xy + m00 * yy
    inv = valid / _select(valid, vv, 1.0)  # 1/V, and 0 on invalid planes
    # The scans pass tens of thousands of planes, and allocating fresh
    # arrays of that size costs more than the arithmetic on them, so the
    # temporaries are updated in place and dropped as soon as they are used.
    # -V nu = u'M'v' = d (m01 (x^2 - y^2) + (m11 - m00) x y) - r2 (m12 x - m02 y)
    xx -= yy
    xx *= m01
    xy *= m11 - m00
    xy += xx
    xy *= d
    del xx, yy
    nu = r2 * (m12 * x - m02 * y)
    nu -= xy
    nu *= inv
    del xy
    # u'M'u' = r2 t - d^2 V with t = tr d^2 - 2 d (m02 x + m12 y) + m22 r2 and
    # tr = m00 + m11, since m00 x^2 + 2 m01 x y + m11 y^2 = tr r2 - V
    d2 = d * d
    t = (m00 + m11) * d2
    t -= d * (2.0 * m02 * x + 2.0 * m12 * y)
    t += m22 * r2
    t *= r2
    mu = (1.0 + d2) * vv
    mu -= t
    mu *= inv
    mu *= 0.5
    del t, d2, vv
    # -V gamma = u'.g' = d (g'0 x + g'1 y) - r2 g'2
    ga = r2 * gp[2]
    ga -= d * (gp[0] * x + gp[1] * y)
    ga *= inv
    return mu, nu, ga, r2, valid


def chord_coords(x, y, d, r2, db):
    """R (u_b, v_b): the in-plane coordinates of db = Q (b - p), scaled by R,
    in the planes with contact-frame normal (x, y, d)."""
    return d * (x * db[0] + y * db[1]) - r2 * db[2], x * db[1] - y * db[0]


def chord_slope(x, y, d, r2, db):
    """(k, valid): the chord slope v_b / u_b of db = Q (b - p) in each plane;
    valid where u_b > 1e-12, i.e. where b is on the u > 0 side of p."""
    wu, wv = chord_coords(x, y, d, r2, db)
    valid = (wu > 0.0) & (wu * wu > _R2_EPS * _R2_EPS * r2)
    return wv / _select(valid, wu, 1.0), valid


def plane_margin(mu, nu, ga, radius, ub, vb):
    """Signed margin of the in-plane point (ub, vb): positive iff its homology
    image lies strictly inside the section circle, i.e. iff it is steerable in
    that plane. (mu, nu) = R (alpha, beta) and radius = R."""
    return (
        2.0 * (radius * ga * ga + nu * (1.0 + ga) * vb) * ub
        - (1.0 - 2.0 * mu * (1.0 + ga)) * ub * ub
        - vb * vb
    )


def plane_bounds(mu, nu, ga):
    """Extremal thresholds (p_min, p_max) of one plane over all chord slopes k.

    The extremes sit at the two stationary slopes; at nu = 0 the same
    expressions give the values at k = 0 and at the axis-parallel limit
    k = inf (see `plane_slopes`).
    """
    # (num -+ gamma^2 sqrt(mu^2 + nu^2)) / den, updated in place as in
    # `reduce_planes`
    opg = 1.0 + ga
    nu2 = nu * nu
    spread = _sqrt(mu * mu + nu2)
    nu2 *= opg
    g2 = ga * ga
    spread *= g2
    num = 1.0 - ga - nu2 - mu * (2.0 - g2)
    den = 2.0 * mu + nu2
    den *= -opg
    den += 1.0
    del opg, nu2, g2
    lo = num - spread
    lo /= den
    num += spread
    num /= den
    return lo, num


def plane_slopes(mu, nu):
    """Chord slopes (k_at_min, k_at_max) at which `plane_bounds` are attained.

    With nu = 0 the threshold is monotone in k^2, so they are k = 0 and the
    axis-parallel limit, written k = inf.
    """
    beta_zero = abs(nu) <= _BETA_EPS
    s = _sqrt(mu * mu + nu * nu)
    nu_safe = _select(beta_zero, 1.0, nu)
    k_min = (-mu + s) / nu_safe
    k_max = (-mu - s) / nu_safe
    falls = mu < -_BETA_EPS  # threshold at k = 0 above the axis-parallel limit
    k_min = _select(beta_zero, _select(falls, np.inf, 0.0), k_min)
    k_max = _select(beta_zero, _select(falls, 0.0, np.inf), k_max)
    return k_min, k_max


def pencil_threshold(mu, nu, ga, k):
    """Threshold p(k) of each plane at chord slope k."""
    sig = mu + k * nu
    kk = 1.0 + k * k
    return (kk * (1.0 - ga) - 2.0 * sig) / (kk - 2.0 * (1.0 + ga) * sig)


def pencil_normals(e1, e2, ts):
    """Components of the normals cos(t) e1 + sin(t) e2."""
    if isinstance(ts, np.ndarray):
        ct, st = np.cos(ts), np.sin(ts)
    else:
        ct, st = math.cos(ts), math.sin(ts)
    return ct * e1[0] + st * e2[0], ct * e1[1] + st * e2[1], ct * e1[2] + st * e2[2]


def scan_bounds(minv, centre, p, normals):
    """Per-plane (p_min, p_max, valid) for the planes with the given unit normals.

    Planes pass through the contact point p of the ellipsoid (inverse shape
    matrix `minv`, centre `centre`); near-tangent planes come back invalid.
    """
    q, mp, gp = contact_frame(minv, centre, p)
    x, y, d = q @ np.asarray(normals, dtype=float).T
    mu, nu, ga, _, valid = reduce_planes(mp.tolist(), gp.tolist(), x, y, d)
    lo, hi = plane_bounds(mu, nu, ga)
    # masked planes reduce to mu = nu = gamma = 0, whose bounds are finite
    lo *= valid
    hi *= valid
    return lo, hi, valid


def scan_pencil(minv, centre, p, b, e1, e2, ts):
    """Per-plane steerability thresholds p(k_b, b_k) over the pencil of planes
    containing the line through p and b.

    The pencil is parametrized by normals cos(t) e1 + sin(t) e2 with (e1, e2)
    orthonormal and orthogonal to b - p. Planes where b is not on the u > 0
    side of p come back invalid, as do near-tangent planes.
    """
    q, mp, gp = contact_frame(minv, centre, p)
    x, y, d = pencil_normals(q @ e1, q @ e2, np.asarray(ts, dtype=float))
    mu, nu, ga, r2, valid = reduce_planes(mp.tolist(), gp.tolist(), x, y, d)
    k, valid_b = chord_slope(x, y, d, r2, q @ (np.asarray(b, dtype=float) - p))
    valid = valid & valid_b
    return np.where(valid, pencil_threshold(mu, nu, ga, k), 0.0), valid


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
