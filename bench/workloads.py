"""The benchmark's four workloads: their inputs, ops and answer checks.

Every input a run uses is an item of a finite pool recorded in
``reference.json`` (see ``record_reference.py``).  An item is a key that
names the input (``star:2,3,2401``, ``scan:600,598,20``, ``s3:17``, ...), the
stratum it belongs to, its size as a work count and the answer recorded for
it.  A run takes its inputs from the pool with its ``--seed``: the fixed
items of the workload plus, from each stratum of the plan, a seeded sample
of the stated size.  Strata are narrow in work, so every seed gives a batch
of about the same cost.  Each workload's plan puts several items of one
stratum at the median and at the tail percentile, so those order statistics
fall among ops of one size.

Each op is one call into the public ``plumbcalc`` API (or, for ``cli``, one
fresh ``python -m plumbcalc.cli`` process).  Ops look functions up on the
package at call time, so the traced run's wrappers see them.  An op's
answer is checked after it was timed: by the program's second route where
one exists, and against the recorded answer otherwise.

Nothing here imports ``plumbcalc`` at module level: the import is part of
the measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
GOLDEN_SCAN = ROOT / "tests" / "data" / "scan_default.records"
WORK_DIR = BENCH_DIR / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: tuple[str, ...]  # keys run in every pass
    plan: tuple[tuple[str, int], ...]  # (stratum, items per pass); "x-*": each x- stratum
    tiny: tuple[tuple[str, int], ...]  # the plan of the self-test's tiny runs
    # Typical seconds per pass; a run plans seconds // pass_s passes, and the
    # planned op count fixes the tail percentile.
    pass_s: float


# The fixed items include the single timings of ROADMAP.md's first open item.
WORKLOADS = {
    "invariants": Workload(
        "invariants",
        fixed=("star:3,5,2003", "fat:1009,1013,1019"),
        plan=(
            ("gamma-d2", 2), ("fat-300", 2), ("gamma-star", 3), ("star-100", 2),
            ("fat-500", 5), ("star-200", 4), ("star-400", 1),
        ),
        tiny=(("gamma-d2", 1), ("fat-300", 1), ("star-100", 1)),
        pass_s=9.0,
    ),
    "scan": Workload(
        "scan",
        fixed=("scan:100,100,20", "scan:200,200,20", "scan:400,400,20"),
        plan=(
            ("wide-150", 3), ("narrow-40", 3), ("wide-250", 3), ("narrow-60", 4),
            ("narrow-80", 3), ("wide-350", 2), ("narrow-100", 2), ("wide-600", 5),
        ),
        tiny=(("wide-150", 1), ("narrow-40", 1)),
        pass_s=7.0,
    ),
    "reduce": Workload(
        "reduce",
        fixed=("unknown:e8:2:20000",),
        plan=(
            ("s3-*", 1), ("unknown-shallow", 4), ("unknown-deep-*", 1),
            ("noths-60", 2), ("noths-100", 6), ("noths-120", 2),
        ),
        tiny=(("s3-00", 1), ("unknown-shallow", 1), ("noths-60", 1)),
        pass_s=9.0,
    ),
    "cli": Workload(
        "cli",
        fixed=(
            "cli:expand -9 4", "cli:seifert 5 9 13", "cli:mu 5 9 13",
            "cli:invariants d2", "cli:reduce d3 --trace d3.trace",
            "cli:replay-trace d3.trace", "cli:check 3 13 23", "cli:check 5 9 13",
            "cli:scan",
        ),
        plan=(),
        tiny=(("tour-light", 2),),
        pass_s=1.2,
    ),
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def select(workload: Workload, items: dict, seed: int, tiny: bool = False) -> list[str]:
    """The keys one pass runs, in the order it runs them, drawn from the
    workload's recorded ``items``."""
    rng = random.Random(f"{workload.name}:{seed}")
    by_stratum: dict[str, list[str]] = {}
    for key, item in sorted(items.items()):
        by_stratum.setdefault(item["stratum"], []).append(key)
    keys = [] if tiny else list(workload.fixed)
    for pattern, count in workload.tiny if tiny else workload.plan:
        if pattern.endswith("*"):
            strata = sorted(s for s in by_stratum if s.startswith(pattern[:-1]))
        else:
            strata = [pattern]
        for stratum in strata:
            keys += rng.sample(by_stratum[stratum], count)
    if workload.name == "cli":
        return _cli_order(keys, rng)
    rng.shuffle(keys)
    return keys


def _cli_order(keys: list[str], rng: random.Random) -> list[str]:
    """Shuffle the tour, keeping ``replay-trace`` right after the ``reduce``
    that writes its trace file."""
    pairs = {"cli:reduce d3 --trace d3.trace": "cli:replay-trace d3.trace"}
    heads = [k for k in keys if k not in pairs.values()]
    rng.shuffle(heads)
    out = []
    for k in heads:
        out.append(k)
        if k in pairs and pairs[k] in keys:
            out.append(pairs[k])
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- generated inputs ------------------------------------------------------------


def s3_diagram(pc, index: int):
    """An S^3 diagram: 8-14 random blow-ups of the empty diagram."""
    rng = random.Random(f"s3-{index}")
    g = pc.PlumbingGraph.build({})
    for j in range(rng.randint(8, 14)):
        eps = rng.choice((-1, 1))
        kind = rng.random()
        if g.is_empty or kind < 0.15:
            attach = ()
        elif kind < 0.6 or not g.edges:
            attach = (rng.choice(g.ids),)
        else:
            attach = rng.choice(g.edges)
        g = pc.blow_up(g, f"v{j:02d}", eps, attach)
    return g


def random_tree(pc, n: int, index: int):
    """A connected tree on n vertices with small negative-leaning weights."""
    rng = random.Random(f"tree-{n}-{index}")
    weights = {}
    edges = []
    for i in range(n):
        vid = f"t{i:03d}"
        weights[vid] = rng.choice((-5, -4, -3, -3, -2, -2, -2, -1, 0, 1, 2))
        if i:
            edges.append((vid, f"t{rng.randrange(i):03d}"))
    return pc.PlumbingGraph.build(weights, edges)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def brieskorn_star(pc, text: str):
    return pc.star_plumbing(pc.brieskorn_seifert(pc.BrieskornTriple(*_ints(text))))


def augmented_matrix(pc, base: str, attach: str) -> list[list[int]]:
    """The linking matrix of ``base`` (``d2`` or a Brieskorn triple) plus
    one -1-framed vertex linking rows i and j with +1 and sign s: a cycle,
    so the matrix is no plumbing forest."""
    from plumbcalc.fixtures import fixture_graph

    g = fixture_graph("d2") if base == "d2" else brieskorn_star(pc, base)
    i, j, s = _ints(attach)
    entries = pc.linking_matrix(g).entries
    n = len(entries)
    rows = [list(row) + [0] for row in entries]
    extra = [0] * (n + 1)
    extra[n] = -1
    for pos, lk in ((i, 1), (j, s)):
        rows[pos][n] = lk
        extra[pos] = lk
    rows.append(extra)
    return rows


def format_records(records) -> str:
    """The scan report of ``plumbcalc scan --out``, as the program writes it."""
    from plumbcalc.cli import _record_lines

    return "".join(line + "\n" for line in _record_lines(records))


# -- ops ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed call.  ``answer`` turns the call's result into the text the
    reference stores; ``check`` adds the program's second route, if any."""

    key: str
    run: Callable[[], object]
    answer: Callable[[object], str]
    check: Callable[[object], bool] = lambda result: True
    span: str | None = None  # set when the benchmark itself opens the span


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_op(pc, key: str) -> Op:
    """Build the inputs of one pool item through the public constructors."""
    kind, _, rest = key.partition(":")
    if kind == "star":
        return _star_op(pc, key, rest)
    if kind == "fat":
        t = pc.BrieskornTriple(*_ints(rest))

        def fat():
            return (pc.rohlin_from_signature(t),
                    pc.rohlin_mu_bar(pc.star_plumbing(pc.brieskorn_seifert(t))))

        return Op(key, fat, lambda mu: f"mu={mu[0]}", lambda mu: mu[0] == mu[1])
    if kind == "gamma":
        base, _, attach = rest.rpartition(":")
        rows = augmented_matrix(pc, base, attach)
        return Op(key, lambda: pc.determinant(rows), lambda det: f"det={det}")
    if kind == "scan":
        pb, qb, rs = _ints(rest)
        params = pc.ScanParams(pb, qb, (-rs, rs), (-rs, rs))
        return _scan_op(pc, key, params)
    if kind == "s3":
        g = s3_diagram(pc, int(rest))
        return Op(key, lambda: pc.reduce_to_s3(g), lambda res: str(res[0]),
                  lambda res: _replays_to_empty(pc, g, res[1]))
    if kind == "unknown":
        name, depth, budget = rest.split(":")
        if name == "e8":
            from plumbcalc.fixtures import fixture_graph

            g = fixture_graph("e8")
        else:
            g = brieskorn_star(pc, name)
        return Op(
            key,
            lambda: pc.reduce_to_s3(g, budget=int(budget), blow_up_depth=int(depth)),
            lambda res: f"{res[0]} budget_exhausted={res[0].budget_exhausted}",
        )
    if kind == "noths":
        n, index = _ints(rest)
        g = random_tree(pc, n, index)
        return Op(key, lambda: pc.reduce_to_s3(g), lambda res: str(res[0]))
    if kind == "cli":
        return _cli_op(key, rest.split())
    raise ValueError(f"unknown item kind in {key!r}")


def _star_op(pc, key: str, triple: str) -> Op:
    t = pc.BrieskornTriple(*_ints(triple))
    g = pc.star_plumbing(pc.brieskorn_seifert(t))

    def invariants():
        m = pc.linking_matrix(g)
        return (pc.determinant(m), pc.signature(m), pc.wu_class(g), pc.mu_bar(g),
                pc.rohlin_mu_bar(g))

    def answer(res):
        det, sig, wu, mubar, rohlin = res
        return (f"det={det} sig={sig} wu={len(wu)}:{sha(','.join(sorted(wu)))} "
                f"mubar={mubar} rohlin={rohlin}")

    def check(res):
        # For an all-odd triple the lattice-point count is a second route.
        return not pc.all_odd(t) or res[4] == pc.rohlin_from_signature(t)

    return Op(key, invariants, answer, check)


def _scan_op(pc, key: str, params) -> Op:
    def check(records):
        if any(abs(pc.surgery_coefficient(r.p, r.q, r.r, r.s)) != 1 for r in records):
            return False
        if params == pc.DEFAULT_SCAN_PARAMS:
            return format_records(records).encode() == GOLDEN_SCAN.read_bytes()
        return True

    def answer(records):
        return f"records={len(records)} digest={sha(format_records(records))}"

    return Op(key, lambda: pc.scan_range(params), answer, check)


def _replays_to_empty(pc, start, trace) -> bool:
    g = start
    for move in trace.moves:
        g = pc.apply_move(g, move)
    return g.is_empty


def _cli_op(key: str, argv: list[str]) -> Op:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "plumbcalc.cli", *argv]
    env = cli_env()

    def run():
        proc = subprocess.run(cmd, cwd=WORK_DIR, env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout

    return Op(key, run, lambda res: f"exit={res[0]}\n{res[1]}")


def cli_in_process(pc, key: str) -> Op:
    """The same CLI call made in this process through ``plumbcalc.cli.main``,
    for the traced run, which times it as the span ``cli.main.<subcommand>``."""
    import contextlib
    import io

    argv = key.partition(":")[2].split()
    argv = [str(WORK_DIR / a) if a.endswith(".trace") else a for a in argv]
    WORK_DIR.mkdir(parents=True, exist_ok=True)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pc.cli.main(argv)
        return code, out.getvalue()

    return Op(key, run, lambda res: f"exit={res[0]}\n{res[1]}", span=f"cli.main.{argv[0]}")
