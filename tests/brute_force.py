"""Brute-force and independent references for the closed-form probability
bounds.

The package takes both bounds in closed form and scans no plane for them.
These evaluate the per-plane formulas of `kernels` on dense sets of planes
instead, with nothing of the closed forms: every plane of a polar grid
through p for the full-sphere bounds, and every plane of a dense pencil
through p and b for the pencil bounds. A grid value is the threshold of a
real plane, so the closed-form interval holds every one of them, up to
rounding, and the grid's extremes approach it as the grid is refined.

The full-sphere bounds are also the extreme generalized eigenvalues of two
chord pencils (N, N + (g / lam_i) M'), and two references solve those
pencils without the package's closed form, which evaluates them at the
ellipsoid's principal axes: `eigh_bounds` in double precision, by numpy's
Cholesky factor and `eigh`, and `decimal_bounds` in 50-digit decimal
arithmetic, by bisection on the inertia of N - t D.
"""
import decimal

import numpy as np

from steerell import criteria, kernels


def polar_grid(n_theta, n_phi):
    """Polar angles (a, b) of a grid of planes through p, in the contact
    frame: a_i = (i + 1/2) pi / n_theta for i < ceil(n_theta / 2) and
    b_j = 2 pi j / n_phi.

    Plane i n_phi + j has contact-frame normal (sin a_i cos b_j,
    sin a_i sin b_j, cos a_i). n and -n give the same plane, so the rows
    cover the hemisphere d > 0 of the (n_theta, n_phi) grid, plus the
    equator row when n_theta is odd. No row holds the tangent plane a = 0.
    """
    a = (np.arange(-(-n_theta // 2)) + 0.5) * np.pi / n_theta
    b = np.arange(n_phi) * 2.0 * np.pi / n_phi
    return a, b


def grid_bounds(mp, gp, n_theta, n_phi):
    """(lo_min, i_min, hi_max, i_max, n_planes) over the planes of
    `polar_grid(n_theta, n_phi)`, from one whole-array evaluation of
    `kernels.plane_bounds` on `kernels.reduce_planes`: the least per-plane
    p_min, the greatest per-plane p_max, the first planes attaining them and
    the number of planes. `mp` and `gp` are M' and g' of
    `kernels.contact_frame`."""
    a, b = polar_grid(n_theta, n_phi)
    lo, hi = kernels.plane_bounds(
        *kernels.reduce_planes(mp, gp, np.sin(a)[:, None], np.cos(a)[:, None], np.cos(b), np.sin(b))
    )
    return float(lo.min()), int(lo.argmin()), float(hi.max()), int(hi.argmax()), lo.size


def full_sphere_range(ell, p, resolution=(180, 360)):
    """(least per-plane p_min, greatest per-plane p_max) over the polar grid
    of planes through the contact point p of ell."""
    _, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, p)
    lo, _, hi, _, _ = grid_bounds(mp, gp, *resolution)
    return lo, hi


def pencil_range(ell, p, b, n_planes=3600):
    """(least, greatest) threshold at b's chord over the valid planes of an
    n_planes-plane pencil through p and b (`kernels.scan_pencil`)."""
    e1, e2, ts = criteria._pencil(np.asarray(p, dtype=float), np.asarray(b, dtype=float), n_planes)
    thresholds, valid = kernels.scan_pencil(ell.inverse_shape_matrix(), ell.centre, p, b, e1, e2, ts)
    return float(thresholds[valid].min()), float(thresholds[valid].max())


def _contact_pencils(ell, p):
    """(M', g, lam1, lam2) at the contact point p of ell: M' and g = g'2 of
    `kernels.contact_frame`, and the eigenvalues lam1 <= lam2 of M''s
    tangent block by numpy's `eigvalsh`."""
    _, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, p)
    lam1, lam2 = np.linalg.eigvalsh(mp[:2, :2])
    return mp, float(gp[2]), float(lam1), float(lam2)


def eigh_bounds(ell, p):
    """(p_min, p_max), unclamped, at the contact point p of ell: the least
    generalized eigenvalue of (N, N + (g / lam1) M') and the greatest of
    (N, N + (g / lam2) M'), N = M' - g I, each from `eigh` of the symmetric
    standard form L^-1 N L^-T, with L the Cholesky factor of the second
    matrix."""
    mp, g, lam1, lam2 = _contact_pencils(ell, p)
    n = mp - g * np.eye(3)

    def extreme(d, i):
        inv = np.linalg.inv(np.linalg.cholesky(d))
        return float(np.linalg.eigvalsh(inv @ n @ inv.T)[i])

    return extreme(n + (g / lam1) * mp, 0), extreme(n + (g / lam2) * mp, -1)


def _negative_pivots(s):
    """The number of negative eigenvalues of a symmetric 3x3 matrix, given
    by its six upper entries as Decimals: the number of negative pivots of
    its LDL^T factorization, by Sylvester's law of inertia. A zero pivot
    counts as negative: it is taken as -1e-60."""
    tiny = decimal.Decimal("-1e-60")
    a00, a01, a02, a11, a12, a22 = s
    a00 = a00 or tiny
    l1, l2 = a01 / a00, a02 / a00
    d1 = (a11 - l1 * a01) or tiny
    e = a12 - l2 * a01
    d2 = a22 - l2 * a02 - e * e / d1
    return (a00 < 0) + (d1 < 0) + (d2 <= 0)


def decimal_bounds(ell, p):
    """(p_min, p_max), unclamped, at the contact point p of ell: the
    generalized eigenvalues of `eigh_bounds`, computed in 50-digit decimal
    arithmetic on the double M' and g' of `kernels.contact_frame`,
    with nothing of numpy's linear algebra.

    lam1 <= lam2 are mid -+ sqrt(((M'00 - M'11) / 2)^2 + M'01^2). For a
    positive definite D, the number of generalized eigenvalues of (N, D)
    below t is the number of negative eigenvalues of N - t D
    (`_negative_pivots`), so each eigenvalue is bisected to 1e-25 where that
    count first reaches 1, for the least, or 3, for the greatest. Returns
    Decimals; raises ValueError when a pencil is not definite.
    """
    mp, g, _, _ = _contact_pencils(ell, p)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        m = [[decimal.Decimal(float(x)) for x in row] for row in mp]
        g = decimal.Decimal(g)
        upper = [m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2]]
        n = [x - g if i in (0, 3, 5) else x for i, x in enumerate(upper)]
        mid = (m[0][0] + m[1][1]) / 2
        rad = (((m[0][0] - m[1][1]) / 2) ** 2 + m[0][1] ** 2).sqrt()
        out = []
        for lam, rank in ((mid - rad, 1), (mid + rad, 3)):
            kappa = g / lam
            d = [x + kappa * y for x, y in zip(n, upper)]
            if _negative_pivots(d):
                raise ValueError("the chord pencil is not definite")

            def count_below(t, d=d):
                return _negative_pivots([x - t * y for x, y in zip(n, d)])

            lo, hi = decimal.Decimal(-1), decimal.Decimal(1)
            while count_below(lo) >= rank:
                lo *= 2
            while count_below(hi) < rank:
                hi *= 2
            while hi - lo > decimal.Decimal("1e-25"):
                t = (lo + hi) / 2
                if count_below(t) >= rank:
                    hi = t
                else:
                    lo = t
            out.append((lo + hi) / 2)
    return tuple(out)
