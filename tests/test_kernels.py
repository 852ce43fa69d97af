"""Triangle sweep, the cross product, the contact-frame plane reduction and
the closed-form per-plane bounds."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steerell import ellipsoid_from_geometry, kernels, sampling


def _triangle_inputs(seed):
    # raw segment data; no geometric validity needed for the sweep itself
    rng = np.random.default_rng(seed)
    sp1 = rng.uniform(-1, 1, 2)
    c1 = sp1 + rng.uniform(0.1, 1.0, 2)
    sm1 = rng.uniform(-1, 1, 2)
    c2 = sm1 + rng.uniform(-1.0, -0.1, 2)
    sm0 = rng.uniform(-1, 1, 2)
    return sp1, c1, sm1, c2, sm0


def test_triangle_sweep_known_intersection():
    # s2 fixed at (0,0): line to sm0=(1,0) meets the ray (2,-1)->(2,1) at
    # (2,0): t=2, lam3=0.5, eps0=1/2
    sp1 = np.array([0.0, 0.0])
    c1 = np.array([0.0, 0.0])
    sm1 = np.array([2.0, -1.0])
    c2 = np.array([2.0, 1.0])
    sm0 = np.array([1.0, 0.0])
    found, idx, lam2, lam3, eps0 = kernels.triangle_sweep(sp1, c1, sm1, c2, sm0, 7)
    assert found
    assert idx == 0
    assert lam3 == pytest.approx(0.5)
    assert eps0 == pytest.approx(0.5)


def test_triangle_sweep_no_solution():
    # ray points away: no admissible intersection
    sp1 = np.array([0.1, 0.0])
    c1 = np.array([0.9, 0.0])
    sm1 = np.array([0.0, 0.5])
    c2 = np.array([0.0, 2.0])
    sm0 = np.array([-0.5, -0.5])
    found, idx, *_ = kernels.triangle_sweep(sp1, c1, sm1, c2, sm0, 101)
    assert not found
    assert idx == -1


def test_grid_validation():
    args = _triangle_inputs(3)
    with pytest.raises(ValueError):
        kernels.triangle_sweep(*args, 1)


def test_cross3_equals_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((1000, 3)) * 10.0 ** rng.uniform(-8, 8, (1000, 1))
    b = rng.standard_normal((1000, 3)) * 10.0 ** rng.uniform(-8, 8, (1000, 1))
    b[:100] = a[:100] * rng.uniform(-3, 3, (100, 1))  # parallel and antiparallel
    b[100:150] = 0.0
    a[150:200] = 0.0
    b[200:250] = a[200:250]
    for x, y in zip(a, b):
        assert np.array_equal(kernels.cross3(x, y), np.cross(x, y))


@given(
    al=st.floats(-0.8, 0.8, allow_nan=False),
    be=st.floats(-0.8, 0.8, allow_nan=False),
    ga=st.floats(0.05, 0.95, allow_nan=False),
    radius=st.floats(0.1, 1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_bounds_closed_form_is_extremal(al, be, ga, radius):
    # the closed-form pair must bracket the threshold at every chord slope;
    # only draws whose denominator quadratic stays positive correspond to
    # nested sections, so poles are excluded up front
    disc = (radius * (1 + ga) * be) ** 2 - (1 - 2 * radius * (1 + ga) * al)
    assume(disc < -1e-3)
    lo, hi = kernels.plane_bounds(radius * al, radius * be, ga)
    k_min, k_max = kernels.plane_slopes(radius * al, radius * be)
    ks = np.tan(np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 801))

    def threshold(k):
        sig = al + k * be
        return ((1 + k**2) * (1 - ga) - 2 * radius * sig) / (1 + k**2 - 2 * radius * (1 + ga) * sig)

    vals = np.append(threshold(ks), 1 - ga)  # axis-parallel limit
    assert lo <= vals.min() + 1e-7
    assert hi >= vals.max() - 1e-7
    # the returned slopes attain the extremes (k = inf is the axis-parallel limit)
    for k, want in ((k_min, lo), (k_max, hi)):
        got = 1 - ga if np.isinf(k) else threshold(k)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(
    al=st.floats(-0.8, 0.8, allow_nan=False),
    be=st.sampled_from([0.0, 1e-13, -1e-13]),
    ga=st.floats(0.05, 0.95, allow_nan=False),
    radius=st.floats(0.1, 1.0, allow_nan=False),
)
@example(al=0.3, be=0.0, ga=0.5, radius=0.5)  # alpha > 0
@example(al=-0.3, be=1e-13, ga=0.5, radius=0.5)  # alpha < 0
@example(al=0.0, be=-1e-13, ga=0.5, radius=0.5)  # alpha = 0
@example(al=1e-12, be=0.0, ga=0.75, radius=1.0)  # p0 = lim - 1.1e-12
@settings(max_examples=200, deadline=None)
def test_bounds_at_beta_zero_equal_the_slope_zero_and_limit_values(al, be, ga, radius):
    # plane_bounds has no beta = 0 branch: at beta = 0 its general formula
    # must give the threshold at k = 0 and the axis-parallel limit, ordered
    # by the sign of alpha (the threshold is monotone in k^2 between them)
    den0 = 1 - 2 * radius * al * (1 + ga)
    assume(den0 > 1e-3)  # nested sections only
    p0 = (1 - ga - 2 * radius * al) / den0
    lim = 1 - ga
    got = kernels.plane_bounds(radius * al, radius * be, ga)
    assert got == pytest.approx((min(p0, lim), max(p0, lim)), rel=1e-12, abs=1e-12)


def _fraction_sqrt(x, digits=40):
    scale = 10**digits
    return Fraction(math.isqrt(x.numerator * scale * scale // x.denominator), scale)


def _world_frame_reduction(minv, centre, p, normal):
    """(R alpha, R beta, gamma) from the world-frame formulas u = (d n - p)/R,
    v = n x u, in exact rational arithmetic on the given floats; the normal
    is scaled to unit length and R = sqrt(1 - d^2) taken to 40 digits."""

    def dot(a, b):
        return sum(s * t for s, t in zip(a, b))

    m = [[Fraction(v) for v in row] for row in minv.tolist()]
    p = [Fraction(v) for v in p.tolist()]
    g = [dot(row, [s - Fraction(c) for s, c in zip(p, centre.tolist())]) for row in m]
    n = [Fraction(v) for v in normal.tolist()]
    norm = _fraction_sqrt(dot(n, n))
    n = [v / norm for v in n]
    d = dot(n, p)
    radius = _fraction_sqrt(1 - d * d)
    u = [(d * s - t) / radius for s, t in zip(n, p)]
    v = [n[1] * u[2] - n[2] * u[1], n[2] * u[0] - n[0] * u[2], n[0] * u[1] - n[1] * u[0]]
    mv = [dot(row, v) for row in m]
    auu = dot(u, [dot(row, u) for row in m])
    auv, avv = dot(u, mv), dot(v, mv)
    return np.array([float((1 - auu / avv) / 2), float(-auv / avv), float(-dot(u, g) / (radius * avv))])


@pytest.mark.parametrize("seed", range(5))
def test_reduction_is_accurate_near_the_tangent_plane(seed):
    # planes at circle radius R from the contact point: the contact-frame
    # reduction must match the world-frame formulas in exact arithmetic on
    # the same float normal; evaluated in floats, those formulas lose
    # about eps/R^2 (2e-8 at R = 1e-4, 2e-6 at R = 1e-5) and fail this
    rng = np.random.default_rng(seed)
    ell, p = sampling.random_tangent_ellipsoid(rng)
    minv = ell.inverse_shape_matrix()
    q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
    for radius in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        for _ in range(4):
            w = rng.standard_normal(3)
            w -= (w @ p) * p
            w /= np.linalg.norm(w)
            normal = np.sqrt(1.0 - radius * radius) * p + radius * w
            s, c, cos_b, sin_b, valid = kernels.polar_factors(*(q @ normal))
            assert valid
            mu, nu, ga = kernels.reduce_planes(mp, gp, s, c, cos_b, sin_b)
            want = _world_frame_reduction(minv, ell.centre, p, normal)
            err = np.abs(np.array([mu, nu, ga]) - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= 1e-9, (radius, err)


@pytest.mark.parametrize("shape", ["random", "sphere"])
def test_masked_planes_are_invalid_zero_and_warning_free(shape):
    # normals +-p give the tangent plane at p and one within 1e-7 of p is
    # too close to it to reduce; both kernels must mask them without a
    # RuntimeWarning (the suite turns those into errors). On the sphere
    # touching at p = e_z the normals +-p have x = y = 0 exactly, so V = 0.
    if shape == "random":
        ell, p = sampling.random_tangent_ellipsoid(np.random.default_rng(0))
    else:
        ell, p = ellipsoid_from_geometry([0.0, 0.0, 0.5], [0.5, 0.5, 0.5]), np.array([0.0, 0.0, 1.0])
    minv = ell.inverse_shape_matrix()
    w = np.cross(p, [1.0, 0.0, 0.0])
    w /= np.linalg.norm(w)
    near = p + 1e-7 * w
    near /= np.linalg.norm(near)
    lo, hi, valid = kernels.scan_bounds(minv, ell.centre, p, np.array([p, -p, near, w]))
    assert valid.tolist() == [False, False, False, True]
    assert lo[:3].tolist() == [0.0] * 3 and hi[:3].tolist() == [0.0] * 3
    assert np.isfinite([lo[3], hi[3]]).all() and lo[3] <= hi[3]
    # the pencil with e1 = p holds the normals p, -p and near p at these t
    b = p + 0.1 * np.cross(p, w)
    thresh, valid = kernels.scan_pencil(minv, ell.centre, p, b, p, w, [0.0, np.pi, 1e-7])
    assert valid.tolist() == [False] * 3
    assert thresh.tolist() == [0.0] * 3


def _normals_around_block_edges(p, n, block):
    # random unit normals with the masked planes p, -p and one within 1e-7
    # of p placed on both sides of each block boundary
    rng = np.random.default_rng(n)
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    w = np.cross(p, [1.0, 0.0, 0.0])
    w /= np.linalg.norm(w)
    near = p + 1e-7 * w
    near /= np.linalg.norm(near)
    for edge in range(0, n + 1, block):
        for offset, normal in zip((-2, -1, 0, 1), (p, -p, near, p)):
            if 0 <= edge + offset < n:
                normals[edge + offset] = normal
    return normals


@pytest.mark.parametrize(
    "blocks, extra",
    [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
    ids=["0", "1", "block-1", "block", "block+1", "3*block+5"],
)
def test_scan_bounds_blocks_match_one_block_bit_for_bit(monkeypatch, blocks, extra):
    block = kernels.SCAN_BLOCK
    n = blocks * block + extra
    ell, p = sampling.random_tangent_ellipsoid(np.random.default_rng(3))
    minv = ell.inverse_shape_matrix()
    normals = _normals_around_block_edges(p, n, block)
    got = kernels.scan_bounds(minv, ell.centre, p, normals)
    monkeypatch.setattr(kernels, "SCAN_BLOCK", max(n, 1))
    want = kernels.scan_bounds(minv, ell.centre, p, normals)
    for g, w, dtype in zip(got, want, (np.float64, np.float64, np.bool_)):
        assert g.dtype == w.dtype == dtype and g.shape == (n,)
        assert np.array_equal(g, w)
    if n > block:
        assert not got[2][block - 2 : block + 2].any()


def _grid_normals(q, a, b):
    """World-frame normals of the contact-frame polar grid with polar angles a
    (rows) and azimuths b (columns), in row-major order; q is the contact
    frame's rotation."""
    sin_a = np.sin(a)[:, None]
    x, y, d = np.broadcast_arrays(sin_a * np.cos(b), sin_a * np.sin(b), np.cos(a)[:, None])
    return np.stack([x, y, d], axis=-1).reshape(-1, 3) @ q


@pytest.mark.parametrize("resolution", [(180, 360), (45, 90), (7, 14)])
def test_scan_bounds_blocks_match_one_block_on_full_grids(monkeypatch, resolution):
    # the shipped block, many short blocks (so that even the (7, 14) grid
    # crosses edges) and, last, one block: the reference
    for seed in range(3):
        ell, p = sampling.random_tangent_ellipsoid(np.random.default_rng(seed))
        q = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, p)[0]
        normals = _grid_normals(q, *kernels.polar_grid(*resolution))
        results = []
        for block in (kernels.SCAN_BLOCK, 13, len(normals)):
            monkeypatch.setattr(kernels, "SCAN_BLOCK", block)
            results.append(kernels.scan_bounds(ell.inverse_shape_matrix(), ell.centre, p, normals))
        for got in results[:-1]:
            for g, w in zip(got, results[-1]):
                assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("block", ["shipped", "one row"])
@pytest.mark.parametrize("resolution", [(180, 360), (45, 90), (7, 14), (9, 18)])
def test_grid_scan_matches_scan_bounds_plane_by_plane(monkeypatch, resolution, block):
    # the factored reduction of the polar grid against the explicit-normal
    # evaluator on the same planes, rotated to the world frame and back; a
    # SCAN_BLOCK below n_phi gives one row a block
    if block == "one row":
        monkeypatch.setattr(kernels, "SCAN_BLOCK", 13)
    n_theta, n_phi = resolution
    a, b = kernels.polar_grid(n_theta, n_phi)
    assert len(a) == -(-n_theta // 2) and len(b) == n_phi
    assert a[-1] < np.pi / 2 or (n_theta % 2 and a[-1] == pytest.approx(np.pi / 2))
    for seed in range(3):
        ell, p = sampling.random_tangent_ellipsoid(np.random.default_rng(seed))
        minv = ell.inverse_shape_matrix()
        q, mp, gp = kernels.contact_frame(minv, ell.centre, p)
        mp, gp = mp.tolist(), gp.tolist()
        lo, hi, valid = kernels.scan_bounds(minv, ell.centre, p, _grid_normals(q, a, b))
        assert valid.all()
        grid_lo, grid_hi = (
            bound.ravel()
            for bound in kernels.plane_bounds(
                *kernels.reduce_planes(mp, gp, np.sin(a)[:, None], np.cos(a)[:, None], np.cos(b), np.sin(b))
            )
        )
        # the two paths differ by rounding alone: 1.8e-14 at most over 20 draws
        np.testing.assert_allclose(grid_lo, lo, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grid_hi, hi, rtol=0, atol=1e-12)
        # the kernel keeps the first extreme of the per-plane values
        got = kernels.scan_grid(mp, gp, n_theta, n_phi)
        want = (grid_lo.min(), int(grid_lo.argmin()), grid_hi.max(), int(grid_hi.argmax()), len(a) * n_phi)
        assert got == want


def _whole_grid_scan(mp, gp, n_theta, n_phi):
    """scan_grid's result from one whole-array evaluation of the polar grid:
    the reference for the blocked kernel."""
    a, b = kernels.polar_grid(n_theta, n_phi)
    lo, hi = kernels.plane_bounds(
        *kernels.reduce_planes(mp, gp, np.sin(a)[:, None], np.cos(a)[:, None], np.cos(b), np.sin(b))
    )
    return float(lo.min()), int(lo.argmin()), float(hi.max()), int(hi.argmax()), lo.size


# grids of several shapes, one after another; the n_phi of (3, 20000) is
# above SCAN_BLOCK, so each of its blocks is one row, wider than SCAN_BLOCK
_INTERLEAVED = [(180, 360), (7, 11), (181, 360), (3, 20000), (90, 180), (180, 360)]


@pytest.mark.parametrize("block", ["shipped", "13"])
def test_scan_grid_equals_a_whole_array_reference_bit_for_bit(monkeypatch, block):
    if block == "13":
        monkeypatch.setattr(kernels, "SCAN_BLOCK", 13)
    for seed in range(3):
        _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(seed))
        _, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, rep.point)
        mp, gp = mp.tolist(), gp.tolist()
        for resolution in _INTERLEAVED:
            assert kernels.scan_grid(mp, gp, *resolution) == _whole_grid_scan(mp, gp, *resolution), resolution


def test_warm_scan_grid_takes_almost_no_page_faults():
    # blocks of 16K planes as fresh arrays took 316 minor faults a call,
    # from crossing glibc's 128 KB mmap threshold; the workspace takes none
    resource = pytest.importorskip("resource")
    _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(4))
    _, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, rep.point)
    mp, gp = mp.tolist(), gp.tolist()
    kernels.scan_grid(mp, gp, 180, 360)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        kernels.scan_grid(mp, gp, 180, 360)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert (after - before) / 20 < 5


def test_warm_scans_take_almost_no_page_faults_in_a_fresh_process():
    # the fault count of a call depends on what the process allocated and
    # freed before, so it is measured where nothing else ran. Blocks of
    # 16,384 planes took about 450 faults a scan_grid call and 1,200 a
    # scan_bounds call here, and blocks of 4,096 up to 35 a scan_bounds
    # call, depending on the environment
    pytest.importorskip("resource")
    code = """if True:
        import resource, numpy as np
        from steerell import kernels, sampling

        _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(4))
        minv = ell.inverse_shape_matrix()
        q, mp, gp = kernels.contact_frame(minv, ell.centre, rep.point)
        mp, gp = mp.tolist(), gp.tolist()
        a, b = kernels.polar_grid(180, 360)
        sin_a = np.sin(a)[:, None]
        x, y, d = np.broadcast_arrays(sin_a * np.cos(b), sin_a * np.sin(b), np.cos(a)[:, None])
        normals = np.stack([x, y, d], axis=-1).reshape(-1, 3) @ q
        assert len(normals) == 32400
        for scan in (
            lambda: kernels.scan_grid(mp, gp, 180, 360),
            lambda: kernels.scan_bounds(minv, ell.centre, rep.point, normals),
        ):
            scan()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(20):
                scan()
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    grid, normals = map(float, out.stdout.split())
    assert grid < 5 and normals < 5, (grid, normals)


def test_concurrent_scans_keep_their_own_workspace():
    # a workspace shared between threads would let one scan overwrite the
    # blocks of another while numpy runs with the GIL released, or while
    # the other thread holds it between two array passes
    import sys
    import threading

    jobs = []
    for seed, resolution in ((0, (180, 360)), (1, (90, 180))):
        _state, ell, rep = sampling.random_tangent_state(np.random.default_rng(seed))
        _, mp, gp = kernels.contact_frame(ell.inverse_shape_matrix(), ell.centre, rep.point)
        jobs.append((mp.tolist(), gp.tolist(), *resolution))
    serial = [kernels.scan_grid(*job) for job in jobs]
    results = [[], []]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        for _ in range(50):
            results[i].append(kernels.scan_grid(*jobs[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial, results):
        assert got == [want] * 50
