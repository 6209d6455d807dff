"""Line-oriented file formats for plumbing graphs and move traces.

Lines end at a line feed (CRLF works too); a leading byte-order mark is
ignored.

Graph files: ``#`` comments and blank lines are ignored; every other line is

    vertex <id> <weight>
    edge <id> <id>

Trace files are a graph file (the start diagram) followed by move lines, one
move per line:

    blowdown <id>
    absorb <id>
    split <id>
    cancel <id> <id>
    blowup <weight> <id> [<id> [<id>]]

``absorb`` and ``split`` name the weight-0 vertex of a 0-chain absorption
or a splitting.  ``blowup`` lines come from the reducer's chain rewrite (a
run of -1 blow-ups next to one vertex, then its blow-down) and from a search
with a positive blow-up depth.

Parsing reports the offending line for every malformed document.  One loop
reads the lines.  It checks the tokens itself (directives, graph-line
arity, weights as ASCII ``[+-]?[0-9]+``, move-line ids, no graph line after
a move), feeds each graph line to the graphs module's forest validator and
each move to the calculus module's move checker (id count, a blow-up's +-1
weight and distinct attachments: what a move can fail without a diagram).
Every check raises DomainError or MoveError, which the loop reports as
GraphFormatError("<source>:<lineno>: <message>") at the offending line.
On each line, id errors are reported before weight errors.

A weight longer than Python's int/str digit limit (4300 digits by default;
``sys.set_int_max_str_digits``) is reported as such; the CLI lifts the limit
while a command runs, library callers set it themselves.
"""

from __future__ import annotations

import re

from .calculus import _MOVE_ARITY, Move, MoveTrace, _check_move
from .errors import DomainError, GraphFormatError, MoveError
from .graphs import PlumbingGraph, _check_id, _ForestBuilder

__all__ = [
    "parse_graph",
    "parse_trace",
    "format_graph",
    "format_trace",
    "to_dot",
]

# The weights format_graph writes; int() also takes "1_0" and non-ASCII digits.
_WEIGHT_RE = re.compile(r"[+-]?[0-9]+")


def _parse(text: str, source: str, allow_moves: bool) -> tuple[PlumbingGraph, list[Move]]:
    """(start graph, moves) of a graph or trace document."""
    forest, moves = _ForestBuilder(), []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        try:
            if kind in ("vertex", "edge"):
                if moves:
                    raise DomainError(f"{kind} line after the first move line")
                if len(args) != 2:
                    last = "<weight>" if kind == "vertex" else "<id>"
                    raise DomainError(f"{kind} line needs exactly: {kind} <id> {last}")
                if kind == "edge":
                    forest.add_edge(*args)
                    continue
                forest.add_vertex(args[0], 0)  # its id errors come before weight errors
                forest.weights[args[0]] = _weight(args[1], "weight")
            elif kind not in _MOVE_ARITY:
                raise DomainError(f"unknown directive {kind!r}")
            elif not allow_moves:
                raise DomainError(f"move line {kind!r} in a graph file")
            else:
                ids = args[1:] if kind == "blowup" else args
                for token in ids:  # id errors come before weight errors
                    _check_id(token)
                weight = _weight(args[0], "blow-up weight") if kind == "blowup" and args else None
                move = Move(kind, tuple(ids), weight=weight)
                _check_move(move)
                moves.append(move)
        except (DomainError, MoveError) as exc:
            raise GraphFormatError(f"{source}:{lineno}: {exc}") from None
    return PlumbingGraph.build(forest.weights, forest.edges), moves


def _weight(token: str, what: str) -> int:
    if not _WEIGHT_RE.fullmatch(token):
        raise DomainError(f"{what} {token!r} is not an integer")
    try:
        return int(token)
    except ValueError:  # the only failure left: Python's int/str digit limit
        raise DomainError(
            f"{what} of {len(token.lstrip('+-'))} digits exceeds Python's int/str "
            "digit limit (see sys.set_int_max_str_digits)"
        ) from None


def parse_graph(text: str, source: str = "<graph>") -> PlumbingGraph:
    return _parse(text, source, allow_moves=False)[0]


def parse_trace(text: str, source: str = "<trace>") -> tuple[PlumbingGraph, list[Move]]:
    """Parse a trace document into (start graph, moves).  Moves are not
    replayed here; use MoveTrace.replay or apply_move to validate them
    against the graph."""
    return _parse(text, source, allow_moves=True)


def format_graph(g: PlumbingGraph, comments=()) -> str:
    """The graph file of g, after one ``#`` line per line of each comment:
    a line break inside a comment must not start a graph line."""
    lines = [f"# {line}" if line else "#" for c in comments for line in c.splitlines() or [""]]
    lines += [f"vertex {v} {w}" for v, w in g.vertices]
    lines += [f"edge {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n" if lines else ""


def format_trace(trace: MoveTrace, comments=()) -> str:
    body = format_graph(trace.start, comments)
    move_lines = "".join(f"{m}\n" for m in trace.moves)
    return body + move_lines


def to_dot(g: PlumbingGraph) -> str:
    """DOT graph ``plumbing`` with weights as labels and stable (sorted)
    ordering."""
    lines = ["graph plumbing {"]
    for v, w in g.vertices:
        lines.append(f'  "{v}" [label="{v}: {w}"];')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
