"""Per-plane formulas and the vectorized kernels built on them.

Every steerability verdict and bound comes from these formulas. Each has one
implementation, written component-wise so that the same code takes arrays of
planes (the pencil and the scans) and Python floats (the one-plane verdicts
of `criteria.steerable_in_plane` and `criteria.p_bounds_in_plane`). The
homology of `projective` is the paper's construction of the same column
(alpha, beta, gamma); the tests hold these formulas to it.

The reduction also says how the plane matters: along a chord, the threshold
depends on the plane only through v^T M' v, with v the plane's axis in the
tangent plane at p (see the header of the reduction below), and v^T M' v
ranges over the two eigenvalues of M''s tangent block. `criteria` takes
both its bounds, over every plane through p and over the pencil through b,
in closed form from that, and scans no plane for them.

  ellipse_invariants
                    (m, n, delta) of a section ellipse -> (mu, nu, xi, g),
                    with (mu, nu, xi) = R (alpha, beta, gamma)
  contact_frame     rotation Q to the contact-point frame, M' and g' in it
  polar_factors     contact-frame normals (x, y, d) -> (s, c, C, S, valid)
  reduce_planes     polar factors -> (mu, nu, gamma)
  chord_coords      R (u_b, v_b): in-plane coordinates of b - p, scaled by R
  chord_slope       k = v_b / u_b, valid where b is on the u > 0 side of p
  plane_margin      signed steerability margin of an in-plane point
  plane_bounds      per-plane extremal thresholds over chord slopes
  plane_slopes      the chord slopes attaining them
  pencil_threshold  per-plane threshold at the chord slope k of b

Kernels:
  pencil_planes   one reduction of the pencil through p and b, from which
                  `criteria` takes margins, h points and, by
                  `pencil_thresholds`, each plane's threshold at b
  scan_bounds     per-plane probability bounds for given world-frame normals,
                  in blocks of SCAN_BLOCK = 2,048 planes, which take no page
                  faults once warm (measurements at SCAN_BLOCK); no caller
                  in the package: the tests and the benchmark call it
  scan_pencil     per-plane steerability thresholds over the pencil through b
                  from world-frame inputs: `pencil_planes` and
                  `pencil_thresholds` in a contact frame of its own
  triangle_sweep  brute-force grid search for a local-model triangle in a
                  section; no caller in the package, it is the tests'
                  reference for `oracle.triangle_search`, which is exact
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
# (x, y, d) = Q n = (s C, s S, c) in polar factors: s = sin a, c = cos a,
# C = cos b and S = sin b, with a the angle of n from p. The plane through p
# has circle radius R = |s|, and its in-plane frame u = (d n - p)/R,
# v = n x u is u' = (d x, d y, -s^2), v' = (-y, x, 0) in Q coordinates,
# scaled by R. With M' = Q minv Q^T and g' = Q minv (p - centre), the section
# conic's homology column (alpha, beta, gamma) satisfies
#
#   mu = R alpha = (1 - u'M'u' / V) / 2,   nu = R beta = -u'M'v' / V,
#   gamma = -u'.g' / V,                     V = v'M'v' = s^2 W,
#
# with W = m11 C^2 - 2 m01 C S + m00 S^2, positive as M' is. Every factor of
# R cancels:
#
#   nu    = (s (m12 C - m02 S) - c (m01 (C^2 - S^2) + (m11 - m00) C S)) / W
#   mu    = (1 + c^2) / 2 - ((m00 + m11) c^2 + m22 s^2) / (2 W)
#           + c s (m02 C + m12 S) / W
#   gamma = (g'2 - (c / s) (g'0 C + g'1 S)) / W
#
# Each term is a function of the polar angle a alone times a function of
# the azimuth b alone, so a grid of planes on (a, b) reduces by broadcasting
# with no rotation of its normals. The per-plane bounds, slopes and pencil
# threshold depend on (mu, nu, gamma) only, and none of it carries a 1 - d^2
# cancellation near the tangent plane.
#
# For g' = (0, 0, g), the in-plane chord of slope k runs along
# w = u'/R + k v'/R. With V1 = v^T M' v for the unit axis v = v'/R,
# 1 + k^2 - 2 (mu + k nu) = w^T M' w / V1 and gamma = g / V1, so
# `pencil_threshold` reads
#
#   t = w^T N w / (w^T N w + (g / V1) w^T M' w),   N = M' - g I.
#
# Only V1 depends on the plane, and t increases with it. It is m for every v
# when m00 = m11 = m and m01 = 0, and then every plane through the chord
# gives the same t.
# ---------------------------------------------------------------------------

_BETA_EPS = 1e-12
_R2_EPS = 1e-12


# The one-plane verdicts call the per-plane formulas on Python floats; numpy
# functions would turn those into numpy scalars, whose arithmetic is several
# times slower. These keep floats as floats.
def _select(cond, a, b):
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def ellipse_invariants(m, n, delta):
    """(mu, nu, xi, g) of the ellipse with semiaxes m, n tilted by delta,
    tangent to the v axis at the origin and opening toward +u, on Python
    floats: its conic is [[1 - 2 mu, -nu, -xi], [-nu, 1, 0], [-xi, 0, 0]],
    its centre is at distance g / sqrt(2) along u, and in a section of circle
    radius R the homology column is (mu, nu, xi) / R."""
    m2, n2 = m * m, n * n
    cd, sd = math.cos(delta), math.sin(delta)
    # g^2 = m^2 + n^2 + (m^2 - n^2) cos 2 delta, written without the
    # cancellation that rounds it to zero when n << m and delta = pi/2
    g2 = 2.0 * (m2 * cd * cd + n2 * sd * sd)
    g = math.sqrt(g2)
    # g2 >= 2 min(m, n)^2 is positive for the positive semiaxes the callers
    # require; only semiaxes below about 1e-100 underflow it
    if not g2 * g > 0.0:
        raise ValueError("semiaxes too small for the ellipse invariants")
    mu = (m2 - n2) * math.cos(2.0 * delta) / g2
    nu = (m2 - n2) * math.sin(2.0 * delta) / g2
    xi = 2.0 * math.sqrt(2.0) * m2 * n2 / (g2 * g)
    return mu, nu, xi, g


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


def polar_factors(x, y, d):
    """(s, c, C, S, valid): the contact-frame normals (x, y, d) as
    (s C, s S, c), with s = hypot(x, y) the circle radius R of the plane.

    Floats or arrays of one shape. A plane is valid iff s^2 > 1e-12: nearer
    the tangent plane its in-plane frame is undefined. An invalid plane comes
    back as (s, C, S) = (1, 1, 0), an ordinary plane on which `reduce_planes`
    stays finite; callers mask it.
    """
    if isinstance(x, np.ndarray):
        s = np.hypot(x, y)
        valid = s * s > _R2_EPS
        s[~valid] = 1.0
        cos_b, sin_b = x / s, y / s
        cos_b[~valid] = 1.0
        sin_b[~valid] = 0.0
        return s, d, cos_b, sin_b, valid
    s = math.hypot(x, y)
    if not s * s > _R2_EPS:
        return 1.0, d, 1.0, 0.0, False
    return s, d, x / s, y / s, True


def reduce_planes(mp, gp, s, c, cos_b, sin_b):
    """(mu, nu, gamma) of the planes through p with contact-frame normal
    (s cos_b, s sin_b, c); mu = R alpha, nu = R beta with R = |s|, s != 0.

    `mp` and `gp` are M' and g' of `contact_frame`, as arrays or nested lists
    of floats; g' may have transverse components. The factors are floats or
    arrays that broadcast. Callers with Cartesian normals take the factors
    from `polar_factors`.
    """
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = mp
    cc, ss, cs = cos_b * cos_b, sin_b * sin_b, cos_b * sin_b
    # each term is a factor of the polar angle times a factor of the azimuth
    # over W
    inv = 1.0 / (m11 * cc - 2.0 * m01 * cs + m00 * ss)
    c2 = c * c
    mu = (c * s) * ((m02 * cos_b + m12 * sin_b) * inv) - ((m00 + m11) * c2 + m22 * (s * s)) * (0.5 * inv)
    mu = mu + (0.5 + 0.5 * c2)
    nu = s * ((m12 * cos_b - m02 * sin_b) * inv) - c * ((m01 * (cc - ss) + (m11 - m00) * cs) * inv)
    return mu, nu, gp[2] * inv - (c / s) * ((gp[0] * cos_b + gp[1] * sin_b) * inv)


def chord_coords(x, y, d, r2, db):
    """R (u_b, v_b): the in-plane coordinates of db = Q (b - p), scaled by R,
    in the planes with contact-frame normal (x, y, d)."""
    return d * (x * db[0] + y * db[1]) - r2 * db[2], x * db[1] - y * db[0]


def chord_slope(wu, wv, r2):
    """(k, valid): the chord slope v_b / u_b from R (u_b, v_b) of
    `chord_coords`; valid where u_b > 1e-12, i.e. where b is on the u > 0
    side of p."""
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
    # (num -+ gamma^2 sqrt(mu^2 + nu^2)) / den
    opg = 1.0 + ga
    g2 = ga * ga
    nu2 = nu * nu
    spread = _sqrt(mu * mu + nu2) * g2
    tilt = nu2 * opg
    num = 1.0 - ga - tilt - mu * (2.0 - g2)
    den = 1.0 - opg * (2.0 * mu + tilt)
    return (num - spread) / den, (num + spread) / den


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
    ct, st = np.cos(ts), np.sin(ts)
    return ct * e1[0] + st * e2[0], ct * e1[1] + st * e2[1], ct * e1[2] + st * e2[2]


def pencil_planes(qe1, qe2, mp, gp, ts, db):
    """The pencil planes with contact-frame normals cos(t) qe1 + sin(t) qe2,
    reduced once: (x, y, d, R, mu, nu, gamma, R u_b, R v_b, valid).

    qe1 and qe2 are the pencil frame in contact-frame coordinates, db is
    Q (b - p), and `mp`, `gp` are M' and g' of `contact_frame`. Near-tangent
    planes are invalid (`polar_factors`) and have mu = nu = gamma = 0.
    """
    x, y, d = pencil_normals(qe1, qe2, ts)
    s, c, cos_b, sin_b, valid = polar_factors(x, y, d)
    mu, nu, ga = (term * valid for term in reduce_planes(mp, gp, s, c, cos_b, sin_b))
    wu, wv = chord_coords(x, y, d, s * s, db)
    return x, y, d, s, mu, nu, ga, wu, wv, valid


def pencil_thresholds(planes):
    """(thresholds, valid) of the `pencil_planes` planes: each plane's
    threshold at the chord slope of b, 0 where the plane or b's chord
    (`chord_slope`) is invalid."""
    _, _, _, s, mu, nu, ga, wu, wv, valid = planes
    k, valid_b = chord_slope(wu, wv, s * s)
    valid = valid & valid_b
    return np.where(valid, pencil_threshold(mu, nu, ga, k), 0.0), valid


# Planes per block of `scan_bounds`. glibc gives the free top of its heap
# back to the OS once it exceeds the trim threshold (128 KB, or twice the
# largest mmap chunk freed so far), and the next call faults those pages in
# again. Blocks of 16 KB arrays keep what a warm call frees below the
# threshold, so it takes no page faults. At 4,096 planes a 32,400-normal
# `scan_bounds` call took up to 35 faults, by the environment.
SCAN_BLOCK = 2048


def scan_bounds(minv, centre, p, normals):
    """Per-plane (p_min, p_max, valid) for the planes with the given unit normals.

    Planes pass through the contact point p of the ellipsoid (inverse shape
    matrix `minv`, centre `centre`); near-tangent planes come back invalid,
    with bounds 0. Returns float64, float64 and bool arrays of length
    len(normals). The normals are rotated into the contact frame and reduced
    in blocks of SCAN_BLOCK planes, so that every temporary stays small; the
    results are bit-identical to a single-block evaluation.
    """
    q, mp, gp = contact_frame(minv, centre, p)
    mp, gp = mp.tolist(), gp.tolist()
    normals = np.asarray(normals, dtype=float)
    n = len(normals)
    lo, hi, valid = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for start in range(0, n, SCAN_BLOCK):
        block = slice(start, start + SCAN_BLOCK)
        s, c, cos_b, sin_b, ok = polar_factors(*(q @ normals[block].T))
        # masked planes reduce to mu = nu = gamma = 0, whose bounds are finite
        mu, nu, ga = (term * ok for term in reduce_planes(mp, gp, s, c, cos_b, sin_b))
        lo_b, hi_b = plane_bounds(mu, nu, ga)
        np.multiply(lo_b, ok, out=lo[block])
        np.multiply(hi_b, ok, out=hi[block])
        valid[block] = ok
    return lo, hi, valid


def scan_pencil(minv, centre, p, b, e1, e2, ts):
    """Per-plane steerability thresholds p(k_b, b_k) over the pencil of planes
    containing the line through p and b.

    The pencil is parametrized by normals cos(t) e1 + sin(t) e2 with (e1, e2)
    orthonormal and orthogonal to b - p. Planes where b is not on the u > 0
    side of p come back invalid, as do near-tangent planes.
    """
    q, mp, gp = contact_frame(minv, centre, p)
    db = q @ (np.asarray(b, dtype=float) - p)
    ts = np.asarray(ts, dtype=float)
    return pencil_thresholds(pencil_planes(q @ e1, q @ e2, mp.tolist(), gp.tolist(), ts, db))


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
