"""Triangle sweep and the closed-form per-plane bounds."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steerell import kernels


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
    lo, hi = kernels.plane_bounds(al, be, ga, radius)
    k_min, k_max = kernels.plane_slopes(al, be)
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
