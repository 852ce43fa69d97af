"""Brute-force references for the closed-form probability bounds.

The package takes both bounds in closed form and scans no plane for them.
These evaluate the per-plane formulas of `kernels` on dense sets of planes
instead, with nothing of the closed forms: every plane of a polar grid
through p for the full-sphere bounds, and every plane of a dense pencil
through p and b for the pencil bounds. A grid value is the threshold of a
real plane, so the closed-form interval holds every one of them, up to
rounding, and the grid's extremes approach it as the grid is refined.
"""
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
