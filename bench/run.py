"""Run one workload of the plumbcalc benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``invariants``, ``scan``, ``reduce`` and
``cli``.  A run builds its inputs from the seed, then runs passes over that
batch of ops, one op at a time in this one process (a closed loop with a
single caller), for about ``--seconds`` seconds.  Every op's answer is
checked after its timing; a wrong answer or an exception counts as a failed
op and the run goes on.

With ``--trace 0`` the run reports the end-to-end metrics:

    wall_s       s      median time of one pass over the batch
    op_p50_ms    ms     median op latency
    op_tail_ms   ms     the highest percentile of the ladder below that
                        leaves at least 10 of the planned ops beyond it
    setup_s      s      ``import plumbcalc`` plus building the inputs, the
                        median of this process and twelve fresh ones
    peak_rss_mb  MB     peak resident memory of the workload process (for
                        ``cli``, of the largest CLI process)

and prints ``fail_frac`` (failed ops / attempted ops) with them.  With
``--trace 1`` half the time runs untraced and half with the ``spans``
wrappers installed, and the run reports the per-layer metrics of the traced
passes (per pass, median over passes) plus ``trace.overhead_s``, the traced
minus the untraced pass time.  The traced ``cli`` passes call
``plumbcalc.cli.main`` in this process instead of starting processes, and
so do their untraced partners.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The run exits 2 without
a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import Tracer

LADDER = (50, 75, 80, 85, 90, 95, 98, 99, 99.5, 99.9)
SETUP_PROBES = 12
INTERPRETER_PROBES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

CLI_SUBCOMMANDS = ("expand", "seifert", "mu", "invariants", "reduce", "replay-trace",
                   "check", "scan")

PER_LAYER = (
    ("arith.neg_cont_frac.calls", "count"),
    ("arith.neg_cont_frac.self_s", "s"),
    ("seifert.brieskorn_seifert.self_s", "s"),
    ("seifert.star_plumbing.self_s", "s"),
    ("seifert.star_plumbing.vertices", "count"),
    ("seifert.signature.calls", "count"),
    ("seifert.signature.self_s", "s"),
    ("seifert.signature.pairs", "count"),
    ("lattice.linking_matrix.self_s", "s"),
    ("lattice.determinant.calls", "count"),
    ("lattice.determinant.self_s", "s"),
    ("lattice.determinant.n3", "count"),
    ("lattice.signature.self_s", "s"),
    ("lattice.wu_class.self_s", "s"),
    ("lattice.mu_bar.self_s", "s"),
    ("lattice.rohlin_mu_bar.self_s", "s"),
    ("lattice.vertices", "count"),
    ("graphs.build.calls", "count"),
    ("graphs.build.self_s", "s"),
    ("graphs.components.calls", "count"),
    ("graphs.components.self_s", "s"),
    ("graphs.has_edge.calls", "count"),
    *((f"calculus.{fn}.{m}", unit)
      for fn in ("reduce_to_s3", "canonical_form", "apply_move", "applicable_moves", "replay")
      for m, unit in (("calls", "count"), ("self_s", "s"))),
    ("calculus.blow_up_moves.calls", "count"),
    ("calculus.new_state_ratio", "ratio"),
    ("calculus.verdict.S3", "count"),
    ("calculus.verdict.UNKNOWN", "count"),
    ("calculus.verdict.NOT-HS", "count"),
    ("calculus.budget_hit", "count"),
    ("scan.scan_range.calls", "count"),
    ("scan.scan_range.self_s", "s"),
    ("scan.pairs", "count"),
    ("scan.records", "count"),
    ("scan.hit_ratio", "ratio"),
    ("scan.mu_misses", "count"),
    ("scan.mu_hit_ratio", "ratio"),
    ("graphio.parse_graph.self_s", "s"),
    ("graphio.parse_trace.self_s", "s"),
    ("graphio.format_trace.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    *((f"cli.main.{sub}.self_s", "s") for sub in CLI_SUBCOMMANDS),
    ("trace.overhead_s", "s"),
)


# -- set-up ------------------------------------------------------------------------


def setup(keys: list[str]):
    """Import the package and build every op's inputs; returns (seconds,
    package, ops)."""
    start = perf_counter()
    sys.path.insert(0, str(wl.SRC))
    import plumbcalc as pc

    ops = [wl.build_op(pc, key) for key in keys]
    return perf_counter() - start, pc, ops


def setup_probes(args) -> list[float]:
    """The same set-up, each in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        times.append(float(out.split()[-1]))
    return times


def interpreter_probes() -> tuple[float, float]:
    """Median wall time of a fresh ``python -c pass``, and of a fresh
    ``import plumbcalc`` minus that."""
    env = wl.cli_env()
    bare, loaded = [], []
    for _ in range(INTERPRETER_PROBES):
        for code, into in (("pass", bare), ("import plumbcalc", loaded)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            into.append(perf_counter() - start)
    interp = statistics.median(bare)
    return interp, statistics.median(loaded) - interp


# -- measurement -------------------------------------------------------------------


class Measurement:
    """Pass times, op latencies and failures of one mode of a run."""

    def __init__(self):
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layers: list[dict] = []  # per traced pass
        self.op_spans: list[dict] = []  # per traced op

    def run(self, ops, reference: dict, seconds: float, tracer_factory=None) -> None:
        """Run passes until the next one would end after ``seconds``."""
        start = perf_counter()
        spent: list[float] = []
        while True:
            t0 = perf_counter()
            tracer = tracer_factory() if tracer_factory else None
            outcomes = self._pass(ops, tracer)
            self._check(outcomes, reference)
            spent.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(spent) > seconds:
                return

    def _pass(self, ops, tracer):
        outcomes = []
        if tracer is not None:
            tracer.install()
        try:
            pass_start = perf_counter()
            for op in ops:
                call = op.run
                if tracer is not None and op.span:
                    call = lambda op=op: tracer.call(op.span, op.run)  # noqa: E731
                before = tracer.snapshot() if tracer is not None else None
                t0 = perf_counter()
                try:
                    result, error = call(), None
                except Exception as exc:  # an op that raises is a failed op
                    result, error = None, exc
                self.latencies.append(perf_counter() - t0)
                outcomes.append((op, result, error))
                if tracer is not None:
                    self.op_spans.append({"op": op.key, "spans": _delta(before, tracer.snapshot())})
            self.walls.append(perf_counter() - pass_start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            self.layers.append(tracer.snapshot())
        return outcomes

    def _check(self, outcomes, reference: dict) -> None:
        for op, result, error in outcomes:
            self.attempted += 1
            ok = error is None
            if ok:
                try:
                    ok = op.answer(result) == reference[op.key]["answer"] and op.check(result)
                except Exception:  # a malformed result is a wrong answer
                    ok = False
            if not ok:
                self.failed += 1
                self.failures.append(f"{op.key}: {error!r}" if error else op.key)


def _delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def tail_level(planned_ops: int) -> float:
    """The highest ladder percentile with at least 10 planned ops beyond it."""
    levels = [p for p in LADDER if planned_ops * (100 - p) / 100 >= 10]
    return levels[-1] if levels else LADDER[0]


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(snap: dict) -> dict:
    values = {name: snap.get(name, 0) for name, _ in PER_LAYER}
    forms = snap.get("calculus.canonical_form.calls", 0)
    values["calculus.new_state_ratio"] = snap.get("calculus.distinct_forms", 0) / forms if forms else 0
    pairs = snap.get("scan.pairs", 0)
    values["scan.hit_ratio"] = snap.get("scan.records", 0) / pairs if pairs else 0
    lookups = snap.get("scan.mu_lookups", 0)
    values["scan.mu_hit_ratio"] = 1 - snap.get("scan.mu_misses", 0) / lookups if lookups else 0
    return values


# -- reporting ----------------------------------------------------------------------


def machine_info(warm: bool) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "bytecode_cache": "warm" if warm else "cold"}


def landmarks(keys: list[str], m: Measurement, workload: wl.Workload) -> list[str]:
    """Median latency of each fixed op (the single timings ROADMAP.md lists)."""
    lines = []
    n = len(keys)
    for i, key in enumerate(keys):
        if key in workload.fixed:
            samples = m.latencies[i::n]
            lines.append(f"  fixed op {key:<34} {statistics.median(samples) * 1e3:10.3f} ms")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the plumbcalc benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run a batch of the smallest items (used by the self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (wl.SRC / "plumbcalc" / "__init__.py").is_file():
        print(f"error: no plumbcalc sources under {wl.SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    reference = wl.load_reference()[workload.name]
    keys = wl.select(workload, reference, args.seed, args.tiny)
    if args.setup_probe:
        print(setup(keys)[0])
        return 0

    pyc = importlib.util.cache_from_source(str(wl.SRC / "plumbcalc" / "__init__.py"))
    info = machine_info(Path(pyc).exists())
    setup_main, pc, ops = setup(keys)
    planned = max(1, int(args.seconds // workload.pass_s)) * len(ops)
    level = tail_level(planned)

    if args.trace:
        import plumbcalc.cli  # noqa: F401  (loaded before the wrappers go in)

        if workload.name == "cli":
            ops = [wl.cli_in_process(pc, key) for key in keys]
        plain, traced = Measurement(), Measurement()
        plain.run(ops, reference, args.seconds / 2)
        traced.run(ops, reference, args.seconds / 2, Tracer)
        passes = [layer_metrics(snap) for snap in traced.layers]
        values = {name: statistics.median(p[name] for p in passes) for name, _ in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls)
        values["cli.interpreter_s"], values["cli.import_s"] = interpreter_probes()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        wl.WORK_DIR.mkdir(parents=True, exist_ok=True)
        out = wl.WORK_DIR / f"spans-{workload.name}-{args.seed}.json"
        out.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                   "ops": traced.op_spans}) + "\n")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        failures = plain.failures + traced.failures
        print(f"workload {workload.name}  seed {args.seed}  traced passes {len(traced.walls)}"
              f"  untraced passes {len(plain.walls)}  spans written to {out}")
        print(f"  trace.overhead_s {values['trace.overhead_s']:.4f} s")
    else:
        m = Measurement()
        m.run(ops, reference, args.seconds)
        if workload.name == "cli":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_main] + setup_probes(args)
        beyond = len(m.latencies) - math.ceil(level / 100 * len(m.latencies))
        values = {
            "wall_s": statistics.median(m.walls),
            "op_p50_ms": statistics.median(m.latencies) * 1e3,
            "op_tail_ms": percentile(m.latencies, level) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        attempted, failed, failures = m.attempted, m.failed, m.failures
        print(f"workload {workload.name}  seed {args.seed}  passes {len(m.walls)}"
              f"  ops/pass {len(ops)}  ops {len(m.latencies)}")
        notes = {
            "wall_s": f"median of {len(m.walls)} passes",
            "op_p50_ms": f"{len(m.latencies)} ops",
            "op_tail_ms": f"p{level:g}, {beyond} ops beyond",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "largest CLI process" if workload.name == "cli" else "this process",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<12} {values[name]:12.4f} {unit:<5} ({notes[name]})")
        print(f"  {'fail_frac':<12} {failed / attempted:12.4f} ratio ({failed} of {attempted} ops)")
        for line in landmarks(keys, m, workload):
            print(line)
    print("  machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
