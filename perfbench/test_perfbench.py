"""Self-checks of the benchmark's own arithmetic and tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stats  # noqa: E402
import tracer as tracing  # noqa: E402


def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [5, 6] nests in the second
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert stats.self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert sum(stats.self_times(starts, ends, parents)) == pytest.approx(10.0)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    starts = [0.0, 1.0, 2.0, 9.0]
    ends = [10.0, 4.0, 5.0, 12.0]
    parents = [-1, 0, 0, 0]
    # children cover [1, 5] and [9, 10] of the root
    assert stats.self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(stats.MIN_INPUTS) == stats.TAIL_PCT
    assert stats.samples_beyond(stats.MIN_INPUTS, stats.TAIL_PCT) >= stats.MIN_BEYOND
    assert stats.tail_percentile(99) == 89
    assert stats.tail_percentile(199) == 94
    assert stats.tail_percentile(9) is None
    for n in range(10, 2000):
        pct = stats.tail_percentile(n)
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND
        assert stats.samples_beyond(n, pct + 1) < stats.MIN_BEYOND


def test_percentile_matches_numpy():
    values = np.random.default_rng(3).exponential(size=257).tolist()
    for pct in (0, 50, 90, 95, 100):
        assert stats.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_median_per_input_keeps_the_middle_call():
    samples = [("a", 1, 0.2), ("a", 1, 0.1), ("a", 1, 5.0), ("b", 2, 0.3), ("b", 2, 0.5)]
    assert stats.median_per_input(samples) == {"a": (1, 0.2), "b": (2, pytest.approx(0.4))}


def test_median_rate_counts_each_input_once_at_its_median():
    samples = [("a", 1, 0.1), ("b", 2, 0.35), ("a", 1, 0.2), ("b", 2, 0.3), ("a", 1, 5.0)]
    assert stats.median_rate(samples) == pytest.approx(3 / (0.2 + 0.325))


def test_scaled_time_uses_the_calibrations_of_the_calls_cpu():
    import run

    cpu = run.QuietCpu()
    before = (1, {0: 9e-3, 1: 1e-3})  # the call ran on CPU 1
    after = (0, {0: 1e-3, 1: 4e-3})
    assert cpu.scaled(0.1, before, after) == pytest.approx(0.1 * cpu.REF_CAL_S / 2e-3)


def test_scan_bounds_bytes_match_the_kernel_arrays():
    from steerell import kernels

    n = 37
    minv, centre, p = np.eye(3) * 4.0, np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, 1.0])
    normals = np.random.default_rng(0).standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    lo, hi, valid = kernels.scan_bounds(minv, centre, p, normals)
    moved = sum(a.nbytes for a in (minv, centre, p, normals, lo, hi, valid))
    assert stats.scan_bounds_bytes(n) == moved
    assert stats.scan_bounds_bytes(64800) == 64800 * 41 + 120


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    import steerell
    import steerell.cli

    state = tmp_path / "state.json"
    state.write_text(json.dumps(steerell.state_to_json_dict(steerell.families.obese_state(0.5))))
    argv = ["analyze", "--state", str(state), "--planes", "12", "--out", str(tmp_path / "out.json")]
    originals = (steerell.cli.main, steerell.criteria.plane_section, steerell.kernels.scan_bounds)

    tr = tracing.Tracer()
    tr.install(steerell)
    try:
        assert steerell.cli.main(argv) == 0
    finally:
        tr.uninstall()
    assert (steerell.cli.main, steerell.criteria.plane_section, steerell.kernels.scan_bounds) == originals

    assert tr.names[0] == "cli.analyze" and tr.parents[0] == -1
    names = tr.names
    assert names.count("ellipsoid.plane_section") == 12
    assert {names[tr.parents[i]] for i, n in enumerate(names) if n == "ellipsoid.plane_section"} == {
        "criteria.locus_of_h"
    }
    assert {names[tr.parents[i]] for i, n in enumerate(names) if n == "kernels.scan_bounds"} == {
        "criteria.p_bounds.full"
    }
    selfs = stats.self_times(tr.starts, tr.ends, tr.parents)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(tr.ends[0] - tr.starts[0])
    metrics = tracing.layer_metrics(tr, tr.summary(), 1, 0.0)
    assert metrics["kernels.scan_bounds.planes"] == 12 * 24
    assert metrics["ellipsoid.inverse_shape_matrix.calls"] > 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        listed = {m["name"] for m in json.load(handle)["per_layer"]}
    assert listed - set(metrics) == {n for n in listed if n.startswith("trace.")}
    assert set(metrics) <= listed
