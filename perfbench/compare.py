"""Compare two sets of benchmark records against BENCHMARK.json's bounds.

Usage, from the repository root:

    python3 perfbench/compare.py --base .perfbench_out/base/*.json --new .perfbench_out/new/*.json

Records are the result-*.json files run.py writes. For each workload and
end-to-end metric it prints both medians and quartile spreads, the change,
and a verdict: "worse" when the new median is worse than the base median by
more than the bound, "unresolved" when the base spread alone exceeds the
bound, else "within". It refuses (exit 2) to compare records whose numba
availability or backend differ, or that mix traced and untraced runs.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

ENVIRONMENT_KEYS = ("have_numba", "backend")


def load(paths):
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def refusal(base, new):
    """Why these records cannot be compared, or None."""
    everything = base + new
    for key in ENVIRONMENT_KEYS:
        values = {str(r["meta"][key]) for r in everything}
        if len(values) > 1:
            return f"records differ in {key}: {sorted(values)}"
    if {r["meta"]["trace"] for r in everything} != {0}:
        return "end-to-end metrics come only from untraced (--trace 0) runs"
    return None


def spread(values):
    return stats.relative_iqr(values) if len(values) > 1 else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reason = refusal(base, new)
    if reason:
        sys.stderr.write(f"refusing to compare: {reason}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]

    worse = 0
    workloads = sorted({r["meta"]["workload"] for r in base} & {r["meta"]["workload"] for r in new})
    for workload in workloads:
        print(f"\n{workload}")
        for m in metrics:
            b = [r["result"]["metrics"][m["name"]]["value"] for r in base if r["meta"]["workload"] == workload]
            n = [r["result"]["metrics"][m["name"]]["value"] for r in new if r["meta"]["workload"] == workload]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb
            loss = change if m["better"] == "lower" else -change
            if loss > m["bound"]:
                verdict = "worse"
                worse += 1
            elif spread(b) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within"
            print(
                f"  {m['name']:18s} base {mb:10.4g} (spread {spread(b):.3f}, n={len(b)})"
                f"  new {mn:10.4g} (spread {spread(n):.3f}, n={len(n)})"
                f"  change {change:+.2%}  bound {m['bound']:.0%}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
