"""Benchmark of the steerell command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

One client drives `steerell.cli.main` in-process in a closed loop: the next
call starts when the previous one has returned. Each call's wall time is
scaled to a reference CPU speed by a calibration loop run just before and
just after it (see QuietCpu), so that other tenants of a shared host, who
slow the CPU for minutes at a time, move the figures far less; the
unscaled wall-clock figures go to the full record. Inputs come from
--seed; --held-out draws them from a second, disjoint stream so that a
claim tuned on ordinary seeds can be confirmed on inputs not seen while
writing it.
Every call's output is checked against a reference (see workloads.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
half the time untraced and half traced, and prints the per-layer metrics
from the spans plus the tracing overhead. The last stdout line is the JSON
result; the line before it holds the run metadata. A fuller record,
including every failed check, goes to .perfbench_out/ at the root.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread: the program's linear algebra is on 3x3 and 4x4 matrices,
# where OpenBLAS's extra threads only spin. On a 2-core box they made analyze
# about 30% slower and doubled its run-to-run spread. Probes inherit this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = (4, 3)  # fresh processes before and after the measured loop
# probe.py --reference's time, in seconds, on a quiet 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4); set-up is reported at that reference speed
REF_SETUP_S = 0.09
PROBE_TIMEOUT_S = 120
SELF_SUM_SLACK = 0.01  # tolerated gap between summed span self times and op time, at least


# One call's cost: wall seconds, and wall seconds at the reference CPU speed.
Timing = collections.namedtuple("Timing", "wall scaled")


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, a metric not computed)."""


def load_program():
    """Import steerell from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "steerell", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no steerell sources at {init}")
    sys.path.insert(0, SRC)
    import steerell
    import steerell.cli

    if os.path.realpath(steerell.__file__) != os.path.realpath(init):
        raise BenchError(f"imported steerell from {steerell.__file__}, not {init}")
    return steerell


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(steerell, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "steerell": steerell.__version__,
        "have_numba": bool(steerell.HAVE_NUMBA),
        "backend": steerell.DEFAULT_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
    }


class QuietCpu:
    """Runs each call on the fastest allowed CPU and measures that CPU's speed.

    On a shared host a CPU runs 20-100% slower for seconds to minutes at a
    time as other tenants come and go, and the program's calls slow with
    it. Before every call a fixed calibration loop runs on each allowed
    CPU and the process pins itself to the fastest. A call's wall time
    times REF_CAL_S over the geometric mean of the loop's times on its CPU
    just before and just after it is its time at the reference speed: the
    speed at which the loop takes REF_CAL_S. The loop is benchmark code, so
    a change to the program cannot move it. This acts on this process only;
    the program and its inputs are unchanged.
    """

    # the loop's time, in seconds, on a quiet CPU of a 2-vCPU x86-64 VM
    # (Python 3.11, numpy 2.4); only ratios to it enter a metric
    REF_CAL_S = 0.6e-3
    REPEATS = 3

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.chosen = []  # loop seconds on the CPU chosen in each calibration
        rng = np.random.default_rng(0)
        self._x = rng.random((64800, 3))
        self._m = rng.random((3, 3))
        self._v = rng.random(3)

    def _calibrate(self):
        """Small-matrix products in an interpreted loop, then a pass over a 1.5 MB array."""
        t0 = time.perf_counter()
        m, v = self._m, self._v
        acc = 0.0
        for i in range(300):
            w = m @ v
            acc += float(w[0] * w[1]) + math.sqrt(i + 1.0)
        acc += float((self._x @ m).sum())
        return time.perf_counter() - t0

    def steer(self):
        """Calibrates every allowed CPU and pins to the fastest.

        Returns (chosen cpu, {cpu: loop seconds}).
        """
        times = {}
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            times[cpu] = min(self._calibrate() for _ in range(self.REPEATS))
        best = min(self.cpus, key=times.get)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best})
        self.chosen.append(times[best])
        return best, times

    def scaled(self, wall, before, after):
        """`wall` seconds at the reference speed, from the steer() results around them."""
        cpu = before[0]
        return wall * self.REF_CAL_S / math.sqrt(before[1][cpu] * after[1][cpu])

    def release(self):
        os.sched_setaffinity(0, self.cpus)

    def summary(self):
        times = self.chosen or [float("nan")]
        return {
            "cpus": self.cpus,
            "choices": len(self.chosen),
            "calibration_ms_min": min(times) * 1e3,
            "calibration_ms_median": statistics.median(times) * 1e3,
            "calibration_ms_max": max(times) * 1e3,
        }


class Checks:
    """Counts attempted and failed operations; reports each distinct failure once."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._seen = set()

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.fail(op.key, op.describe, problems)

    def fail(self, key, describe, problems):
        self.failed += 1
        msg = "; ".join(problems)
        if (key, msg) not in self._seen:
            self._seen.add((key, msg))
            self.failures.append({"input": describe, "problems": problems})
            sys.stderr.write(f"FAILED {self.workload}: {msg}\n  input: {describe}\n")


def call(steerell, op):
    """One timed CLI call. Returns (exit code or None, wall seconds, captured text)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            code = steerell.cli.main(op.argv)
        except Exception:  # a traceback is a failed operation, not a crash of the run
            code = None
            traceback.print_exc(file=buf)
        t1 = time.perf_counter()
    return code, t1 - t0, buf.getvalue()


def check(op, code, captured, checks):
    if code is None:
        problems = ["raised: " + captured.strip().splitlines()[-1]]
    else:
        try:
            problems = op.check(code, op.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output ({type(exc).__name__}: {exc}); exit code {code}; {captured.strip()}"]
    checks.record(op, problems)


def run_loop(steerell, wl, seconds, order_rng, checks, cpu, min_samples=1, whole_passes=False, on_op=None):
    """Closed loop over shuffled passes of the workload's ops.

    Stops once `seconds` have passed and `min_samples` ops have run (at the
    end of a pass if `whole_passes`), or at a hard limit of twice
    `seconds`. Returns (key, items, Timing) per op.
    """
    calls = []  # (op, wall seconds, calibration before it)
    start = time.perf_counter()
    finished = False
    while not finished:
        for i in order_rng.permutation(len(wl.ops)):
            op = wl.ops[i]
            before = cpu.steer()
            if on_op is not None:
                on_op(len(calls), op)
            code, wall, captured = call(steerell, op)
            calls.append((op, wall, before))
            check(op, code, captured, checks)
            elapsed = time.perf_counter() - start
            done = elapsed >= seconds and len(calls) >= min_samples
            if (done and not whole_passes) or elapsed >= 2 * seconds:
                finished = True
                break
        else:
            finished = done
    afters = [c[2] for c in calls[1:]] + [cpu.steer()]
    return [
        (op.key, op.items, Timing(wall, cpu.scaled(wall, before, after)))
        for (op, wall, before), after in zip(calls, afters)
    ]


def spawn_probe(*args):
    """Wall seconds of one probe.py run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), *args],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def measure_setup(op, cpu, count):
    """Set-up of `count` fresh processes: import plus one call of the warm-up op.

    Returns (wall seconds, reference seconds) per probe. A fresh process
    faults in its memory and code cold, and slows less under contention
    than the warm calibration loop, so each probe has its own reference:
    the geometric mean of probe.py --reference runs just before and after it.
    """
    cpu.steer()  # the probes inherit the chosen CPU
    refs = [spawn_probe("--reference")]
    walls = []
    for _ in range(count):
        walls.append(spawn_probe(SRC, json.dumps(op.argv)))
        refs.append(spawn_probe("--reference"))
        cpu.steer()
    return [(wall, math.sqrt(refs[i] * refs[i + 1])) for i, wall in enumerate(walls)]


def seconds_of(samples, clock):
    """(key, items, seconds) per op, in "scaled" (reference-speed) or "wall" seconds."""
    return [(key, items, getattr(timing, clock)) for key, items, timing in samples]


def end_to_end(samples, setup_s, clock="scaled"):
    """Each input counts once, at its median call: rate and latency percentiles over inputs."""
    timed = seconds_of(samples, clock)
    lat = [dt for _items, dt in stats.median_per_input(timed).values()]
    return {
        "throughput_per_s": stats.median_rate(timed),
        "latency_p50_ms": stats.percentile(lat, 50) * 1e3,
        "latency_tail_ms": stats.percentile(lat, stats.TAIL_PCT) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def pencil_rate(samples):
    """family_sweep's X rows (pencil mode) on their own, so a pencil change is not diluted."""
    rows = [(k, n, t.scaled) for k, n, t in samples if k.startswith("xstate:")]
    return {"xstate_rows_per_s": stats.median_rate(rows)} if rows else {}


def refine_improved_ratio(steerell, tr):
    """Share of p_bounds results that refinement moved, replayed untimed.

    Takes the first REFINE_SAMPLE inputs of each mode in sorted order, so
    the same seed replays the same calls whatever order the run took.
    """
    moved = total = 0
    for mode in ("full", "pencil"):
        keys = sorted(k for m, k in tr.p_bounds_calls if m == mode)[: tracing.REFINE_SAMPLE]
        for key in keys:
            args, kwargs, refined = tr.p_bounds_calls[(mode, key)]
            coarse = steerell.criteria.p_bounds(*args, **{**kwargs, "refine": False})
            moved += (coarse.p_min != refined.p_min) + (coarse.p_max != refined.p_max)
            total += 2
    return moved / total if total else 0.0


def traced(steerell, wl, seconds, order_rng, checks, cpu):
    """Half the time untraced, half traced; per-layer metrics from the spans."""
    # both phases cover every input, so both rates see the same inputs; the
    # traced phase runs whole passes, so its per-operation counts repeat exactly
    full_pass = len(wl.ops)
    plain = run_loop(steerell, wl, seconds / 2.0, order_rng, checks, cpu, min_samples=full_pass)
    tr = tracing.Tracer()
    tr.install(steerell)
    try:
        spans = run_loop(
            steerell, wl, seconds / 2.0, order_rng, checks, cpu, whole_passes=True,
            on_op=lambda i, op: tr.start_op(i, op.key),
        )
    finally:
        tr.uninstall()
    tp_plain = stats.median_rate(seconds_of(plain, "scaled"))
    tp_traced = stats.median_rate(seconds_of(spans, "scaled"))
    overhead = 1.0 - tp_traced / tp_plain
    summ = tr.summary()
    metrics = tracing.layer_metrics(tr, summ, len(spans), refine_improved_ratio(steerell, tr))
    op_time = sum(timing.wall for _k, _n, timing in spans)  # spans are on the wall clock
    self_sum = sum(row["self"] for row in summ.values())
    metrics.update(
        {
            "trace.overhead_ratio": overhead,
            "trace.throughput_delta_per_s": tp_traced - tp_plain,
            "trace.self_sum_ratio": self_sum / op_time,
            "trace.spans_per_op": len(tr.names) / len(spans),
        }
    )
    gap = abs(1.0 - self_sum / op_time)
    if gap > max(overhead, SELF_SUM_SLACK):
        checks.fail("trace", "traced phase", [f"span self times miss {gap:.3%} of op time"])
    tr.save(os.path.join(OUT_DIR, f"spans-{wl.name}.npz"))
    return metrics


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def select(metrics, entries):
    """Exactly the metrics BENCHMARK.json lists, with their units."""
    missing = [e["name"] for e in entries if e["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {e["name"]: {"value": float(metrics[e["name"]]), "unit": e["unit"]} for e in entries}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true", help="draw inputs from the held-out seed stream")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bench = spec()
    steerell = load_program()
    meta = metadata(steerell, args)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    cpu = QuietCpu()
    try:
        seq = np.random.SeedSequence([args.seed, 1 if args.held_out else 0])
        input_seq, order_seq = seq.spawn(2)
        wl = workloads.BUILDERS[args.workload](np.random.default_rng(input_seq), workdir, steerell)
        order_rng = np.random.default_rng(order_seq)
        if len(wl.ops) < stats.MIN_INPUTS:
            raise BenchError(f"{wl.name} has {len(wl.ops)} inputs; the p{stats.TAIL_PCT} tail needs {stats.MIN_INPUTS}")
        checks = Checks(wl.name)

        warm = wl.ops[0]
        probes = [] if args.trace else measure_setup(warm, cpu, SETUP_PROBES[0])
        code, _timing, captured = call(steerell, warm)
        check(warm, code, captured, checks)

        if args.trace:
            metrics = select(traced(steerell, wl, args.seconds, order_rng, checks, cpu), bench["per_layer"])
            samples = None
        else:
            # every input at least once, so each counts in the percentiles
            samples = run_loop(steerell, wl, args.seconds, order_rng, checks, cpu, min_samples=len(wl.ops))
            probes += measure_setup(warm, cpu, SETUP_PROBES[1])
            setup_s = statistics.median(wall * REF_SETUP_S / ref for wall, ref in probes)
            metrics = select(end_to_end(samples, setup_s), bench["end_to_end"])
    finally:
        cpu.release()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    summary = {
        "failed_ratio": checks.failed / checks.attempted,
        "items": wl.item,
        "inputs": wl.notes,
        "setup_probes_wall_s": [wall for wall, _ref in probes],
        "setup_reference_s": [ref for _wall, ref in probes],
        "cpu": cpu.summary(),
    }
    if samples is not None:
        summary.update(
            {
                "samples": len(samples),
                "calls": [(key, timing.wall, timing.scaled) for key, _items, timing in samples],
                "wall_clock": end_to_end(samples, statistics.median(wall for wall, _ref in probes), clock="wall"),
                **pencil_rate(samples),
                "inputs_timed": len(stats.median_per_input(seconds_of(samples, "wall"))),
                "tail_percentile": stats.TAIL_PCT,
            }
        )
    record = {"meta": meta, "summary": summary, "failures": checks.failures, "result": result}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-heldout" if args.held_out else "")
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    if "xstate_rows_per_s" in summary:
        print(f"{'xstate_rows_per_s':48s} {summary['xstate_rows_per_s']:14.6g} 1/s")
    print(f"{'failed_ratio':48s} {summary['failed_ratio']:14.6g} ({checks.failed}/{checks.attempted})")
    print(json.dumps({"meta": meta, "summary": summary}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
