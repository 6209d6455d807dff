#!/usr/bin/env python3
"""Exhaustive sweep of the greedy pass over small weighted trees.

For every unlabeled tree of 1-6 vertices with weights in -4..2, and of 7
vertices with weights in -3..1, every weighting with |det| = 1 goes through
the reducer's greedy pass.  Where the pass stops on a non-empty diagram,
the NOT-S3 routes of the test suite (mu-bar, a minimal definite component,
a node with three branches of |det| >= 2) are asked whether that end can be
S^3.  One line per tree size gives the counts; a tree whose stuck end no
route rules out is listed, and makes the exit status 1.

The tier-1 suite runs the same sweep up to 5 vertices
(tests/test_calculus.py).  This one takes about 30 s (2-vCPU machine,
Python 3.11), and CI compares its output with tests/data/tree_sweep.out.

Run:  PYTHONPATH=src python scripts/tree_sweep.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import NOT_S3_ROUTES, tree_sweep  # noqa: E402

SWEEPS = [(n, range(-4, 3)) for n in range(1, 7)] + [(7, range(-3, 2))]
COLUMNS = ("shapes", "weightings", "det1", "emptied", "stuck")


def main():
    routes = [route.__name__ for route in NOT_S3_ROUTES]
    print(" ".join(("n", "weights") + COLUMNS + tuple(routes) + ("uncaught",)))
    failed = False
    for n, weights in SWEEPS:
        counts, uncaught = tree_sweep(n, weights)
        cells = [n, f"{weights.start}..{weights.stop - 1}"]
        cells += [counts[key] for key in COLUMNS + tuple(routes)] + [len(uncaught)]
        print(" ".join(map(str, cells)))
        for g in uncaught:
            print(f"  uncaught: {g.vertices} {g.edges}")
        failed = failed or bool(uncaught)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
