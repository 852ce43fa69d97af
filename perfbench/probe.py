"""Set-up probe: time `import steerell` plus one CLI call in a fresh process.

Usage: python3 perfbench/probe.py SRC_DIR ARGV_JSON
       python3 perfbench/probe.py --reference
Prints {"wall_s": wall seconds, "code": exit code} as one JSON line.

With --reference it times a fixed fresh-process task instead: importing
numpy and the standard modules the CLI uses, then a little numpy work. It
never imports steerell, so a change to the program cannot move it; the
runner scales each probe by the reference runs on either side of it.
"""
import contextlib
import io
import json
import sys
import time


def reference():
    t0 = time.perf_counter()
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401

    import numpy as np

    x = np.random.default_rng(0).random((64800, 3))
    for _ in range(20):
        np.linalg.eigh(np.cov(x[:1000].T))
    print(json.dumps({"wall_s": time.perf_counter() - t0, "code": 0}))


def main():
    if sys.argv[1:] == ["--reference"]:
        return reference()
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import steerell.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = steerell.cli.main(argv)
    print(json.dumps({"wall_s": time.perf_counter() - t0, "code": code}))


if __name__ == "__main__":
    main()
