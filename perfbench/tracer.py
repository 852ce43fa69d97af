"""Outside-in tracing of steerell: spans around each module's public functions.

The tracer replaces each traced function at every name a steerell module
holds it under (the CLI, `criteria`, `sampling` and `oracle` import several
functions by name), records one span per call in memory, and restores the
originals on `uninstall`. Nothing inside the package changes.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

import stats

# (module, function) pairs wrapped in spans, and the span name of each
TRACED = [
    ("paulicore", "state_from_json_dict"),
    ("paulicore", "state_from_pauli"),
    ("paulicore", "state_from_density"),
    ("paulicore", "steered_ensemble"),
    ("sampling", "random_tangent_state"),
    ("ellipsoid", "steering_ellipsoid"),
    ("ellipsoid", "tangency"),
    ("ellipsoid", "plane_section"),
    ("projective", "homology"),
    ("criteria", "locus_of_h"),
    ("criteria", "steerable_in_plane"),
    ("criteria", "p_bounds"),
    ("criteria", "pure_state_probability"),
    ("kernels", "scan_bounds"),
    ("kernels", "scan_pencil"),
    ("kernels", "triangle_sweep"),
    ("oracle", "assemblage_from_state"),
    ("oracle", "triangle_criterion"),
    ("oracle", "triangle_search"),
    ("families", "x_state_steerable"),
    ("cli", "main"),
]

REFINE_SAMPLE = 20  # inputs per p_bounds mode replayed with refine=False


def _p_bounds_name(args, kwargs):
    return "criteria.p_bounds." + ("full" if kwargs.get("b") is None else "pencil")


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + str(argv[0]).replace("-", "_")


class Tracer:
    """In-memory span recorder. One instance per traced phase."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.failed: list = []
        self._stack: list = []
        self.op_id = -1
        self.op_key = None  # input of the current operation
        self.counts = defaultdict(int)  # counter name -> total
        self.obs = defaultdict(list)  # span name -> observations from results
        self.p_bounds_calls = {}  # (mode, input) -> first (args, kwargs, result)
        self._patched: list = []

    # ------------------------------------------------------------ recording

    def start_op(self, op_id, op_key):
        self.op_id, self.op_key = op_id, op_key

    def _wrap(self, name, func, observe=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            idx = len(tracer.names)
            tracer.names.append(span)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op_id)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.failed.append(True)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            tracer.failed[idx] = False
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    def _observe_p_bounds(self, span, args, kwargs, result):
        mode = span.rsplit(".", 1)[1]
        res = kwargs.get("resolution", (180, 360))
        grid = res[0] * res[1] if mode == "full" else max(res)
        self.obs["p_bounds.grid"].append(grid)
        self.obs["p_bounds.n_planes"].append(result.n_planes)
        self.p_bounds_calls.setdefault((mode, self.op_key), (args, dict(kwargs), result))

    def _observe_scan_bounds(self, span, args, kwargs, result):
        self.obs["scan_bounds.planes"].append(len(args[3]))

    def _observe_scan_pencil(self, span, args, kwargs, result):
        self.obs["scan_pencil.angles"].append(len(args[6]))

    def _observe_triangle_sweep(self, span, args, kwargs, result):
        found, index = result[0], result[1]
        self.obs["triangle_sweep.points"].append(index + 1 if found else args[5])

    def _observe_triangle_search(self, span, args, kwargs, result):
        if result is not None:
            self.obs["triangle_search.fallback"].append(result.index == -1)

    def _observe_verdict(self, span, args, kwargs, result):
        self.obs["steerable_in_plane.indeterminate"].append(result.indeterminate)

    # ------------------------------------------------------------ patching

    def install(self, steerell):
        """Wrap every traced function wherever a steerell module refers to it."""
        observers = {
            "criteria.p_bounds": self._observe_p_bounds,
            "kernels.scan_bounds": self._observe_scan_bounds,
            "kernels.scan_pencil": self._observe_scan_pencil,
            "kernels.triangle_sweep": self._observe_triangle_sweep,
            "oracle.triangle_search": self._observe_triangle_search,
            "criteria.steerable_in_plane": self._observe_verdict,
        }
        modules = [m for n, m in sys.modules.items() if n == "steerell" or n.startswith("steerell.")]
        for mod_name, func_name in TRACED:
            original = getattr(getattr(steerell, mod_name), func_name)
            qual = f"{mod_name}.{func_name}"
            name = {"criteria.p_bounds": _p_bounds_name, "cli.main": _cli_name}.get(qual, qual)
            wrapper = self._wrap(name, original, observers.get(qual))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        cls = steerell.ellipsoid.SteeringEllipsoid
        original = cls.inverse_shape_matrix
        counts = self.counts

        @functools.wraps(original)
        def counted(ell):
            counts["ellipsoid.inverse_shape_matrix"] += 1
            return original(ell)

        self._patched.append((cls, "inverse_shape_matrix", original))
        setattr(cls, "inverse_shape_matrix", counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def save(self, path):
        """Write the spans out: names, start/end, parent index, op id."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            op=np.array(self.ops, dtype=np.int64),
        )

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, failures."""
        selfs = stats.self_times(self.starts, self.ends, self.parents)
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "failed": 0})
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["total"] += self.ends[i] - self.starts[i]
            row["self"] += selfs[i]
            row["failed"] += self.failed[i]
        return out

    def children_of(self, parent_name, child_name):
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        return sum(
            1
            for i, name in enumerate(self.names)
            if name == child_name and self.parents[i] >= 0 and self.names[self.parents[i]] == parent_name
        )


def layer_metrics(tr, summ, n_ops, refine_ratio):
    """Per-layer metrics keyed `<module>.<function>.<quantity>`.

    `.calls` and `self_ms` are per operation (one CLI call); `.us` and the
    kernels' `.ms` are inclusive time per call of that function. `summ` is
    `tr.summary()`.
    """

    def calls(name):
        return summ[name]["calls"] if name in summ else 0

    def per_op_ms(name, key="self"):
        return summ[name][key] / n_ops * 1e3 if name in summ else 0.0

    def per_call(name, key="total", scale=1e6):
        return summ[name][key] / summ[name]["calls"] * scale if calls(name) else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    m = {
        "criteria.p_bounds.full.self_ms": per_op_ms("criteria.p_bounds.full"),
        "criteria.p_bounds.pencil.self_ms": per_op_ms("criteria.p_bounds.pencil"),
        "criteria.p_bounds.refine_improved_ratio": refine_ratio,
        "criteria.locus_of_h.self_ms": per_op_ms("criteria.locus_of_h"),
        "criteria.steerable_in_plane.indeterminate_ratio": mean(tr.obs["steerable_in_plane.indeterminate"]),
        "ellipsoid.inverse_shape_matrix.calls": tr.counts["ellipsoid.inverse_shape_matrix"] / n_ops,
        "ellipsoid.steering_ellipsoid.us": per_call("ellipsoid.steering_ellipsoid"),
        "paulicore.state_from_json_dict.us": per_call("paulicore.state_from_json_dict"),
        "paulicore.steered_ensemble.us": per_call("paulicore.steered_ensemble"),
        "sampling.random_tangent_state.self_ms": per_op_ms("sampling.random_tangent_state"),
        "oracle.assemblage_from_state.us": per_call("oracle.assemblage_from_state"),
        "oracle.triangle_criterion.us": per_call("oracle.triangle_criterion"),
        "oracle.triangle_search.self_us": per_call("oracle.triangle_search", "self"),
        "oracle.triangle_search.exact_fallback_ratio": mean(tr.obs["triangle_search.fallback"]),
        "kernels.triangle_sweep.us": per_call("kernels.triangle_sweep"),
        "kernels.triangle_sweep.grid_points_to_hit": mean(tr.obs["triangle_sweep.points"]),
    }
    grid = sum(tr.obs["p_bounds.grid"])
    m["criteria.p_bounds.valid_plane_ratio"] = sum(tr.obs["p_bounds.n_planes"]) / grid if grid else 0.0
    for name in (
        "ellipsoid.plane_section",
        "criteria.steerable_in_plane",
        "projective.homology",
        "ellipsoid.tangency",
        "paulicore.state_from_density",
        "families.x_state_steerable",
    ):
        m[name + ".calls"] = calls(name) / n_ops
        m[name + ".us"] = per_call(name)

    planes = tr.obs["scan_bounds.planes"]
    m["kernels.scan_bounds.ms"] = per_call("kernels.scan_bounds", scale=1e3)
    m["kernels.scan_bounds.planes"] = mean(planes)
    m["kernels.scan_bounds.ns_per_plane"] = (
        summ["kernels.scan_bounds"]["total"] / sum(planes) * 1e9 if planes else 0.0
    )
    m["kernels.scan_bounds.bytes_computed"] = mean([stats.scan_bounds_bytes(n) for n in planes])
    angles = tr.obs["scan_pencil.angles"]
    m["kernels.scan_pencil.ms"] = per_call("kernels.scan_pencil", scale=1e3)
    m["kernels.scan_pencil.ns_per_angle"] = (
        summ["kernels.scan_pencil"]["total"] / sum(angles) * 1e9 if angles else 0.0
    )

    sampled = calls("sampling.random_tangent_state")
    attempts = tr.children_of("sampling.random_tangent_state", "paulicore.state_from_density")
    accepted = sampled - summ["sampling.random_tangent_state"]["failed"] if sampled else 0
    m["sampling.accept_ratio"] = accepted / attempts if attempts else 0.0
    m["oracle.assemblage_attempts_per_sample"] = (
        calls("oracle.assemblage_from_state") / sampled if sampled else 0.0
    )
    for command in ("analyze", "family_sweep", "oracle_compare"):
        m[f"cli.{command}.self_ms"] = per_call(f"cli.{command}", "self", scale=1e3)
    return m
