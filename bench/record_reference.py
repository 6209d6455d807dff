"""Record ``reference.json``: the benchmark's input pools and their answers.

    python3 bench/record_reference.py [--workload NAME ...]

For every pool item this builds the op exactly as a benchmark run does,
runs it once, and stores its stratum, its work count and the answer text.
Run it on the commit whose answers are the reference; it takes a few
minutes.  A run then compares every answer it gets with the stored one.

Work counts are sizes, not times: vertices for stars and trees, a1*a2 for
the lattice-point count, (p, q) grid points for scan boxes, and
``canonical_form`` calls for reducer searches.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from itertools import combinations
from math import gcd

import workloads as wl
from spans import Tracer

sys.path.insert(0, str(wl.SRC))
import plumbcalc as pc  # noqa: E402


def _stars():
    """Brieskorn stars Sigma(2,3,N) and Sigma(3,5,N) whose vertex count is
    within 1 of each target size, a few per family."""
    items = {}
    rng = random.Random("stars")
    for target in (100, 200, 400):
        for a, b, scale in ((2, 3, 6.0), (3, 5, 14.55)):
            centre = int(scale * target)
            found = []
            for n_arm in range(centre - 200, centre + 200):
                if n_arm < 7 or gcd(n_arm, a * b) != 1:
                    continue
                key = f"star:{a},{b},{n_arm}"
                if key == "star:3,5,2003":
                    continue
                n = len(wl.brieskorn_star(pc, f"{a},{b},{n_arm}"))
                if abs(n - target) <= 1:
                    found.append((key, n))
            for key, n in rng.sample(found, min(5, len(found))):
                items[key] = (f"star-{target}", n)
    return items


def _fat():
    items = {}
    rng = random.Random("fat")
    for name, lo, hi in (("fat-300", 301, 321), ("fat-500", 501, 521)):
        odd = range(lo | 1, hi + 1, 2)
        triples = [t for t in combinations(odd, 3)
                   if gcd(t[0], t[1]) == gcd(t[0], t[2]) == gcd(t[1], t[2]) == 1]
        for t in rng.sample(triples, 8):
            items["fat:" + ",".join(map(str, t))] = (name, t[0] * t[1])
    return items


def _gamma():
    items = {}
    rng = random.Random("gamma")
    for _ in range(10):
        i, j = sorted(rng.sample(range(9), 2))
        items[f"gamma:d2:{i},{j},{rng.choice((-1, 1))}"] = ("gamma-d2", 10)
    bases = ["2,3,697", "2,3,703", "2,3,709", "3,5,1727", "3,5,1741"]
    for base in bases:
        n = len(wl.brieskorn_star(pc, base))
        for _ in range(2):
            i, j = sorted(rng.sample(range(n), 2))
            items[f"gamma:{base}:{i},{j},{rng.choice((-1, 1))}"] = ("gamma-star", n + 1)
    return items


def _scan_boxes():
    items = {}
    rng = random.Random("scan")
    boxes = [(f"wide-{b}", b, 20) for b in (150, 250, 350, 500, 600)]
    boxes += [(f"narrow-{b}", b, 1000) for b in (40, 60, 80, 100)]
    for name, bound, rs in boxes:
        combos = [(p, q) for p in range(bound - 6, bound + 1) for q in range(bound - 6, bound + 1)]
        for p, q in rng.sample(combos, 8):
            items[f"scan:{p},{q},{rs}"] = (name, 4 * (p - 1) * (q - 1))
    return items


def _reduce_items():
    """Reducer searches.  The searching kinds are cut into bands of
    canonical_form counts, each 1.25 times wider than the last, so that one
    item per band gives about the same total on every seed."""
    s3 = [f"s3:{i}" for i in range(160)]
    stars = ["e8", "2,3,7", "2,3,11", "2,5,7", "2,5,9", "2,7,9", "3,4,5", "3,4,7", "3,5,7"]
    shallow = [f"unknown:{s}:{d}:20000" for s in stars for d in (0, 1)]
    deep = [f"unknown:{s}:2:{b}" for s in stars for b in (20000, 300)]
    deep.remove("unknown:e8:2:20000")
    items = {key: ("unknown-shallow", None) for key in shallow}
    for keys, prefix in ((s3, "s3"), (deep, "unknown-deep")):
        work = {key: _forms_counted(key) for key in keys}
        low = min(work.values())
        for key in keys:
            band = int(math.log(work[key] / low) / math.log(1.25))
            items[key] = (f"{prefix}-{band:02d}", work[key])
    for n in (60, 80, 100, 120):
        for index in range(12):
            g = wl.random_tree(pc, n, index)
            if abs(pc.determinant(pc.linking_matrix(g))) != 1:
                items[f"noths:{n},{index}"] = (f"noths-{n}", n)
    return items


def _forms_counted(key: str) -> int:
    op = wl.build_op(pc, key)
    tracer = Tracer()
    tracer.install()
    try:
        op.run()
    finally:
        tracer.uninstall()
    return tracer.spans["calculus.canonical_form"][0]


def _cli_items():
    light = ("cli:expand -9 4", "cli:seifert 5 9 13", "cli:mu 5 9 13")
    return {key: ("tour-light" if key in light else "tour", 1)
            for key in wl.WORKLOADS["cli"].fixed}


POOLS = {
    "invariants": lambda: {**_stars(), **_fat(), **_gamma()},
    "scan": _scan_boxes,
    "reduce": _reduce_items,
    "cli": _cli_items,
}


def record(name: str) -> dict:
    pool = POOLS[name]()
    for key in wl.WORKLOADS[name].fixed:
        pool.setdefault(key, ("fixed", None))
    out = {}
    for key in sorted(pool, key=lambda k: (k != "cli:reduce d3 --trace d3.trace", k)):
        stratum, work = pool[key]
        op = wl.build_op(pc, key)
        result = op.run()
        if not op.check(result):
            raise SystemExit(f"{key}: the program's second route disagrees")
        out[key] = {"stratum": stratum, "work": work, "answer": op.answer(result)}
        print(f"{name} {key} {stratum} {out[key]['answer'][:60]!r}", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(POOLS))
    args = parser.parse_args()
    reference = wl.load_reference() if wl.REFERENCE.exists() else {}
    for name in args.workload or sorted(POOLS):
        reference[name] = record(name)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
