"""Outside-in tracing of plumbcalc's layers for the traced benchmark run.

A :class:`Tracer` wraps the public functions of each package module at
runtime.  Every module attribute bound to a wrapped function is replaced,
including names one module re-imported from another (``plumbcalc.calculus
.determinant``, ``plumbcalc.scan.rohlin_from_signature``, ...), so calls
between layers are timed as well as calls from the benchmark.  Methods and
classmethods (``PlumbingGraph.build``, ``MoveTrace.replay``) are wrapped on
their class.  Nothing in the package is edited; :meth:`Tracer.uninstall`
puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly caused.  Spans are aggregated in memory
(calls, total and self seconds per span name) together with the layer
counters below; the benchmark snapshots them per op and per pass and writes
them out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, span name).  The span name is "<layer>.<function>";
# brieskorn_signature_fast is the lattice-point count that the per-layer
# metrics call "seifert.signature".
TRACED = (
    ("plumbcalc.arith", "neg_cont_frac", "arith.neg_cont_frac"),
    ("plumbcalc.seifert", "brieskorn_seifert", "seifert.brieskorn_seifert"),
    ("plumbcalc.seifert", "star_plumbing", "seifert.star_plumbing"),
    ("plumbcalc.seifert", "brieskorn_signature_fast", "seifert.signature"),
    ("plumbcalc.seifert", "rohlin_from_signature", "seifert.rohlin_from_signature"),
    ("plumbcalc.lattice", "linking_matrix", "lattice.linking_matrix"),
    ("plumbcalc.lattice", "determinant", "lattice.determinant"),
    ("plumbcalc.lattice", "signature", "lattice.signature"),
    ("plumbcalc.lattice", "wu_class", "lattice.wu_class"),
    ("plumbcalc.lattice", "mu_bar", "lattice.mu_bar"),
    ("plumbcalc.lattice", "rohlin_mu_bar", "lattice.rohlin_mu_bar"),
    ("plumbcalc.calculus", "reduce_to_s3", "calculus.reduce_to_s3"),
    ("plumbcalc.calculus", "canonical_form", "calculus.canonical_form"),
    ("plumbcalc.calculus", "apply_move", "calculus.apply_move"),
    ("plumbcalc.calculus", "applicable_moves", "calculus.applicable_moves"),
    ("plumbcalc.calculus", "blow_up_moves", "calculus.blow_up_moves"),
    ("plumbcalc.scan", "scan_range", "scan.scan_range"),
    ("plumbcalc.graphio", "parse_graph", "graphio.parse_graph"),
    ("plumbcalc.graphio", "parse_trace", "graphio.parse_trace"),
    ("plumbcalc.graphio", "format_trace", "graphio.format_trace"),
)

# (module, class, attribute, span name) for methods wrapped on the class.
TRACED_METHODS = (
    ("plumbcalc.graphs", "PlumbingGraph", "build", "graphs.build"),
    ("plumbcalc.graphs", "PlumbingGraph", "components", "graphs.components"),
    ("plumbcalc.graphs", "PlumbingGraph", "has_edge", "graphs.has_edge"),
    ("plumbcalc.calculus", "MoveTrace", "replay", "calculus.replay"),
)


class Tracer:
    """Span aggregation plus the layer counters, for one traced run."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []  # child time of each open span
        self._open: dict[str, int] = {}  # open span count per name
        self._forms: list[set[str]] = []  # canonical forms per open reduce
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._stack.append(0.0)
        self._open[name] = self._open.get(name, 0) + 1
        return perf_counter()

    def _exit(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self._open[name] -= 1
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            result = None
            start = enter(name)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                exit_(name, start)
                if after is not None:
                    after(self, args, result)

        return wrapper

    def install(self) -> None:
        """Replace every package-level binding of the traced functions."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "plumbcalc" or n.startswith("plumbcalc."))]
        for modname, attr, name in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for modname, clsname, attr, name in TRACED_METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat view of everything recorded so far: ``<span>.calls``,
        ``<span>.total_s``, ``<span>.self_s`` and the raw counters."""
        flat: dict[str, float] = dict(self.counters)
        for name, (calls, total, self_s) in self.spans.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.total_s"] = total
            flat[f"{name}.self_s"] = self_s
        return flat


# -- counters recorded at the layer boundaries ------------------------------------
# An "after" hook runs when the call ends, with result None if it raised.


def _star_plumbing(tracer, args, graph):
    if graph is not None:
        tracer.count("seifert.star_plumbing.vertices", len(graph))


def _signature(tracer, args, result):
    a1, a2, _ = args[0].indices
    tracer.count("seifert.signature.pairs", (a1 - 1) * (a2 - 1))


def _rohlin_from_signature(tracer, args, result):
    if tracer._open.get("scan.scan_range"):
        tracer.count("scan.mu_misses")


def _linking_matrix(tracer, args, matrix):
    if matrix is not None:
        tracer.count("lattice.vertices", len(matrix))


def _determinant(tracer, args, result):
    m = args[0]
    n = len(m.entries) if hasattr(m, "entries") else len(m)
    tracer.count("lattice.determinant.n3", n ** 3)


def _canonical_form(tracer, args, form):
    if tracer._forms and form is not None:
        tracer._forms[-1].add(form)


def _reduce_start(tracer, args):
    tracer._forms.append(set())


def _reduce_to_s3(tracer, args, result):
    tracer.count("calculus.distinct_forms", len(tracer._forms.pop()))
    if result is None:
        return
    verdict = result[0]
    tracer.count(f"calculus.verdict.{verdict.status.value}")
    if verdict.budget_exhausted:
        tracer.count("calculus.budget_hit")


def _scan_range(tracer, args, records):
    params = args[0]
    tracer.count("scan.pairs", 4 * (params.p_bound - 1) * (params.q_bound - 1))
    if records is not None:
        tracer.count("scan.records", len(records))
        tracer.count("scan.mu_lookups", sum(1 for rec in records if rec.all_odd))


_BEFORE = {"calculus.reduce_to_s3": _reduce_start}

_AFTER = {
    "seifert.star_plumbing": _star_plumbing,
    "seifert.signature": _signature,
    "seifert.rohlin_from_signature": _rohlin_from_signature,
    "lattice.linking_matrix": _linking_matrix,
    "lattice.determinant": _determinant,
    "calculus.canonical_form": _canonical_form,
    "calculus.reduce_to_s3": _reduce_to_s3,
    "scan.scan_range": _scan_range,
}
