"""The benchmark's workloads: seeded inputs, CLI calls and their output checks.

Each operation is one in-process `steerell.cli.main(argv)` call that writes
its result to a file; the check reads that file back after the clock stops
and compares it with a reference computed before timing starts.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FAMILY_TOL = 1e-6  # C8: closed-form bounds must match the scans this well
RESIDUAL_TOL = 1e-8  # C6: local-model reconstruction residual
MIN_COMPARED = 0.9  # C6: share of samples the oracle must decide

# analyze pool composition (fixed counts keep the mix equal across seeds;
# 100 states, so ten lie beyond the p90 tail over inputs)
POOL_RANDOM = 70
POOL_PER_FAMILY = 5  # each of sphere, spheroid, obese, X
POOL_GENERIC = 10  # full-rank states, one in ten; they must exit 3

# family_sweep takes every SWEEP_STRIDE-th row of each default grid, from a
# seeded offset: 101 or 102 of the 203 rows, each run about three times in 25 s
SWEEP_STRIDE = 2
SWEEP_FAMILIES = ("sphere", "spheroid", "obese", "xstate")

ORACLE_CALLS = 120  # distinct oracle-compare seeds per pass, each run about twice
ORACLE_N = 30  # samples per oracle-compare call


@dataclass
class Op:
    """One CLI call. `key` names the input so repeats can be grouped."""

    key: str
    argv: list
    items: int
    describe: str
    out: str  # the file the call writes; removed before each call
    check: Callable[[int, str], list]  # (exit code, out) -> problems


@dataclass
class Workload:
    """Ops in a fixed order; ops[0] is the warm-up and set-up probe call."""

    name: str
    item: str
    ops: list
    notes: dict = field(default_factory=dict)


def _close(value, ref, what):
    err = abs(float(value) - ref)
    return [] if err <= FAMILY_TOL else [f"{what} {value!r} differs from closed form {ref!r} by {err:.3e}"]


# ---------------------------------------------------------------- analyze


def _check_analyze(expect, ref):
    def check(code, out_path):
        if not os.path.exists(out_path):
            return [f"exit code {code} and no output written"]
        with open(out_path) as handle:
            out = json.load(handle)
        if expect == "generic":
            problems = [] if code == 3 else [f"exit code {code}, expected 3"]
            status = out.get("tangency", {}).get("status")
            if status != "NoContact":
                problems.append(f"tangency status {status}, expected NoContact")
            return problems
        if code != 0:
            return [f"exit code {code}, expected 0 ({out.get('error', '')})"]
        problems = []
        lo, hi = out["margin_min"], out["margin_max"]
        if out["steerable"] != (hi > 0.0):
            problems.append(f"steerable={out['steerable']} but margin_max={hi!r}")
        cls = "AllInside" if lo > 0.0 else "AllOutside" if hi <= 0.0 else "Crossing"
        if out["classification"] != cls:
            problems.append(f"classification {out['classification']} but margins [{lo!r}, {hi!r}]")
        for key in ("p_bounds", "p_bounds_pencil"):
            b = out[key]
            if not 0.0 <= b["p_min"] <= b["p_max"]:
                problems.append(f"{key} not ordered: {b['p_min']!r}, {b['p_max']!r}")
        if ref is not None:
            bounds = out["p_bounds_pencil" if expect == "x" else "p_bounds"]
            problems += _close(bounds["p_min"], ref[0], "p_min")
            problems += _close(bounds["p_max"], ref[1], "p_max")
        if expect == "obese" and out["classification"] != "AllInside":
            problems.append(f"obese state classified {out['classification']}")
        return problems

    return check


def build_analyze(rng, workdir, steerell):
    families, sampling = steerell.families, steerell.sampling
    out = os.path.join(workdir, "analyze.json")
    members = []  # (kind, state, reference bounds, parameters)
    for _ in range(POOL_RANDOM):
        state, _ell, _rep = sampling.random_tangent_state(rng)
        members.append(("random", state, None, {}))
    for _ in range(POOL_PER_FAMILY):
        r = float(rng.uniform(0.05, 0.95))
        members.append(("sphere", families.tangent_sphere_state(r), (1.0 - r, 1.0 - r), {"r": r}))
        m = float(rng.uniform(0.2, 0.8))
        n = float(rng.uniform(0.2, min(0.8, np.sqrt(m))))
        members.append(
            ("spheroid", families.tangent_spheroid_state(m, n), families.spheroid_p_bounds(m, n), {"m": m, "n": n})
        )
        c = 0.99 - float(rng.uniform(0.0, 0.99))  # c in (0, 0.99]
        members.append(("obese", families.obese_state(c), (0.0, c / (1.0 + c)), {"c": c}))
        a = float(rng.uniform(0.0, 0.6))
        b = float(rng.uniform(a + 0.05, 0.8))
        t = float(rng.uniform(0.1, min(0.9, np.sqrt((1.0 + a) * (1.0 - b)))))
        members.append(
            ("x", families.tangent_x_state(a, b, t, -t), families.x_state_p_bounds(a, b, t, -t), {"a": a, "b": b, "t": t})
        )
    for _ in range(POOL_GENERIC):
        members.append(("generic", sampling.random_state(rng), None, {}))

    ops = []
    for i, (kind, state, ref, params) in enumerate(members):
        path = os.path.join(workdir, f"state{i:03d}.json")
        obj = steerell.state_to_json_dict(state)
        with open(path, "w") as handle:
            json.dump(obj, handle)
        ops.append(
            Op(
                key=f"state{i:03d}",
                argv=["analyze", "--state", path, "--out", out],
                items=1,
                describe=f"{kind} state file {path} {json.dumps(params)} {json.dumps(obj)}",
                out=out,
                check=_check_analyze(kind, ref),
            )
        )
    return Workload("analyze", "state", ops, notes={"pool": len(ops), "generic": POOL_GENERIC})


# ---------------------------------------------------------------- sweeps


def _check_row(family, params, ref):
    def check(code, out_path):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != 1:
            return [f"{len(rows)} rows, expected 1"]
        row = rows[0]
        problems = [
            f"row {k}={row[k]} but asked for {v!r}" for k, v in params.items() if float(row[k]) != v
        ]
        problems += _close(row["p_min"], ref[0], "p_min")
        problems += _close(row["p_max"], ref[1], "p_max")
        if family == "obese" and row["steerable"] != "true":
            problems.append("obese row not steerable")
        if family == "xstate" and row["forms_agree"] != "true":
            problems.append("X criterion forms disagree")
        return problems

    return check


def _sweep_rows(families):
    """Rows of each family's default grid, in the CLI's own order."""
    rows = []
    for r in np.linspace(0.05, 0.95, 19):
        rows.append(("sphere", {"r": float(r)}, (1.0 - r, 1.0 - r)))
    grid = np.linspace(0.2, 0.8, 7)
    for m in grid:
        for n in grid:
            if n * n > m:
                continue
            rows.append(("spheroid", {"m": float(m), "n": float(n)}, families.spheroid_p_bounds(m, n)))
    for c in np.linspace(0.0, 0.99, 100):
        rows.append(("obese", {"c": float(c)}, (0.0, c / (1.0 + c))))
    for a in np.linspace(0.0, 0.6, 4):
        for b in np.linspace(0.2, 0.8, 4):
            if b <= a:
                continue
            for t in np.linspace(0.1, 0.9, 5):
                if t * t > (1.0 + a) * (1.0 - b):
                    continue
                params = {"a": float(a), "b": float(b), "t": float(t)}
                rows.append(("xstate", params, families.x_state_p_bounds(a, b, t, -t)))
    return rows


def build_family_sweep(rng, workdir, steerell):
    """Every SWEEP_STRIDE-th row of each family's default grid, from a seeded offset."""
    offsets = {f: int(rng.integers(SWEEP_STRIDE)) for f in SWEEP_FAMILIES}
    out = os.path.join(workdir, "family_sweep.csv")
    ops = []
    index = dict.fromkeys(offsets, -1)
    for family, params, ref in _sweep_rows(steerell.families):
        index[family] += 1
        if index[family] % SWEEP_STRIDE != offsets[family]:
            continue
        argv = ["family-sweep", "--family", family]
        for k, v in params.items():
            argv += ["--param", f"{k}={v!r}:{v!r}:1"]
        ops.append(
            Op(
                key=f"{family}:{json.dumps(params)}",
                argv=argv + ["--out", out],
                items=1,
                describe=f"family {family} row {json.dumps(params)}",
                out=out,
                check=_check_row(family, params, ref),
            )
        )
    return Workload("family_sweep", "row", ops, notes={"rows": len(ops), "offsets": offsets})


# ---------------------------------------------------------------- oracle


def _check_oracle(n):
    def check(code, out_path):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        with open(out_path) as handle:
            out = json.load(handle)
        problems = []
        if out["n_agree"] != out["n_compared"]:
            problems.append(f"{out['n_compared'] - out['n_agree']} disagreements")
        if out["n_models_missing"]:
            problems.append(f"{out['n_models_missing']} local models missing")
        if not out["max_reconstruction_residual"] <= RESIDUAL_TOL:
            problems.append(f"residual {out['max_reconstruction_residual']!r} > {RESIDUAL_TOL}")
        if out["n_compared"] < MIN_COMPARED * n:
            problems.append(f"only {out['n_compared']} of {n} samples compared")
        return problems

    return check


def build_oracle_compare(rng, workdir, steerell):
    out = os.path.join(workdir, "oracle.json")
    seeds = rng.integers(0, 2**31 - 1, size=ORACLE_CALLS)
    ops = [
        Op(
            key=f"seed{s}",
            argv=["oracle-compare", "--n", str(ORACLE_N), "--seed", str(int(s)), "--out", out],
            items=ORACLE_N,
            describe=f"oracle-compare --n {ORACLE_N} --seed {int(s)}",
            out=out,
            check=_check_oracle(ORACLE_N),
        )
        for s in seeds
    ]
    return Workload("oracle_compare", "sample", ops, notes={"calls": len(ops), "n": ORACLE_N})


BUILDERS = {
    "analyze": build_analyze,
    "family_sweep": build_family_sweep,
    "oracle_compare": build_oracle_compare,
}
