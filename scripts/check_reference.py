#!/usr/bin/env python3
"""Check every answer recorded in bench/reference.json against the code.

Builds each item of the four pools (cli, invariants, reduce, scan) with the
benchmark's own ``workloads.build_op``, runs it once, and compares its
answer with the recorded one and, where the item has one, its second-route
check.  One line per pool gives the items that held and the time taken; a
failing item is listed, and makes the exit status 1.  The benchmark's files
are read, never written, except that the ``cli`` items run in bench/out/.

Items run in key order, which puts ``cli:reduce d3 --trace d3.trace`` before
the ``cli:replay-trace d3.trace`` that reads its trace file.  The whole check
takes about 4 s (2-vCPU machine, Python 3.11).

Run:  PYTHONPATH=src python scripts/check_reference.py
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import plumbcalc  # noqa: E402
import workloads  # noqa: E402


def main():
    failures = []
    for pool, items in workloads.load_reference().items():
        t0 = perf_counter()
        held = 0
        for key in sorted(items):
            op = workloads.build_op(plumbcalc, key)
            try:
                result = op.run()
                ok = op.answer(result) == items[key]["answer"] and op.check(result)
            except Exception as exc:  # an error is a wrong answer; report it and go on
                ok, key = False, f"{key}: {exc!r}"
            if ok:
                held += 1
            else:
                failures.append(key)
        print(f"{pool}: {held}/{len(items)} answers hold ({perf_counter() - t0:.1f} s)")
    for key in failures:
        print(f"FAIL {key}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
