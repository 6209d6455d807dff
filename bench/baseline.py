"""Measure every workload over several seeds and append the figures to
``baseline.json``.

    python3 bench/baseline.py [--seeds 10] [--first-seed 1] [--workload NAME ...]
                              [--label TEXT] [--no-write]

For each workload this runs the benchmark command of BENCHMARK.json once
per seed untraced, and once traced, all for ``run_seconds``.  It prints,
per end-to-end metric, the median and quartiles over the seeds and the
spread (quartile distance over median) against the metric's bound, and
appends one entry to ``baseline.json``: the machine, the seeds, every run's
metrics, the fixed ops' latencies and the traced run's per-layer metrics.
Entries are only ever appended, so a later commit's figures sit next to
this one's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl

SPEC_PATH = wl.ROOT / "BENCHMARK.json"
BASELINE = wl.BENCH_DIR / "baseline.json"

# Which end-to-end metric each layer's per-layer metrics should move, and on
# which workload.
LAYER_EFFECTS = {
    "arith": "wall_s on invariants (a small share)",
    "seifert": "op_p50_ms and wall_s on invariants; wall_s on scan through mu-cache misses",
    "lattice": "op_tail_ms and wall_s on invariants; wall_s on reduce through the det precheck",
    "graphs": "wall_s and op_tail_ms on reduce",
    "calculus": "wall_s and op_tail_ms on reduce",
    "scan": "wall_s and op_p50_ms on scan",
    "graphio": "op_p50_ms on cli",
    "cli": "op_p50_ms and wall_s on cli; setup_s on every workload",
    "trace": "none: the cost of the traced run itself",
}


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def fixed_ops(lines: list[str]) -> dict[str, float]:
    out = {}
    for line in lines:
        parts = line.split()
        if parts[:2] == ["fixed", "op"]:
            out[" ".join(parts[2:-2])] = float(parts[-2])
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--label", default="")
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    pyc = Path(importlib.util.cache_from_source(str(wl.SRC / "plumbcalc" / "__init__.py")))
    entry = {
        "label": args.label,
        "commit": _commit(),
        "machine": run.machine_info(pyc.exists()),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "layer_effects": LAYER_EFFECTS,
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        runs, fixed = [], []
        for seed in seeds:
            result, lines = bench(spec, name, seed, 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            fixed.append(fixed_ops(lines))
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k} {v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric in bounds:
            summary[metric] = spread([r["metrics"][metric] for r in runs])
            s = summary[metric]
            print(f"  {name:<10} {metric:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                  f"  q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {bounds[metric]}")
        traced, _ = bench(spec, name, seeds[0], 1)
        entry["workloads"][name] = {
            "why": w["why"],
            "summary": summary,
            "fixed_ops_ms": {k: statistics.median(f[k] for f in fixed) for k in fixed[0]},
            "runs": runs,
            "traced": {"seed": seeds[0],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    if not args.no_write:
        history = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"entries": []}
        history["entries"].append(entry)
        BASELINE.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=wl.ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
