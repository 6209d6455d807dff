"""Line-oriented file formats for plumbing graphs and move traces.

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

Parsing reports the offending line for every malformed document.  This
module checks only the format (directives, arity, integer weights, move-line
id tokens, no graph line after a move); the graph invariants are checked by
the graphs module's forest validator, fed one line at a time so the
diagnostic points at the exact line that breaks them.
"""

from __future__ import annotations

from .calculus import _MOVE_ARITY, Move, MoveTrace
from .errors import DomainError, GraphFormatError
from .graphs import VERTEX_ID_RE, PlumbingGraph, _ForestBuilder

__all__ = [
    "parse_graph",
    "parse_trace",
    "format_graph",
    "format_trace",
    "to_dot",
]


def _add_vertex(forest: _ForestBuilder, v: str, token: str) -> None:
    """add_vertex with the weight token read as an int.  A token that does
    not read as one is passed on as it is: add_vertex rejects it after its
    id checks, as "weight <token> is not an integer"."""
    try:
        weight = int(token)
    except ValueError:
        weight = token
    forest.add_vertex(v, weight)


# Graph-line directive -> (usage, forest validator call it drives).
_GRAPH_LINES = {
    "vertex": ("vertex <id> <weight>", _add_vertex),
    "edge": ("edge <id> <id>", _ForestBuilder.add_edge),
}


class _Parser:
    def __init__(self, text: str, source: str):
        self.source = source
        self.lines = text.splitlines()
        self.forest = _ForestBuilder()
        self.moves: list[Move] = []

    def fail(self, lineno: int, message: str):
        raise GraphFormatError(f"{self.source}:{lineno}: {message}")

    def run(self, allow_moves: bool):
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            directive, args = tokens[0], tokens[1:]
            if directive in _GRAPH_LINES:
                self.graph_line(lineno, directive, args)
            elif directive in _MOVE_ARITY:
                if not allow_moves:
                    self.fail(lineno, f"move line {directive!r} in a graph file")
                self.move(lineno, directive, args)
            else:
                self.fail(lineno, f"unknown directive {directive!r}")

    def graph_line(self, lineno: int, directive: str, args):
        usage, add = _GRAPH_LINES[directive]
        if self.moves:
            self.fail(lineno, f"{directive} line after the first move line")
        if len(args) != 2:
            self.fail(lineno, f"{directive} line needs exactly: {usage}")
        try:
            add(self.forest, *args)
        except DomainError as exc:
            self.fail(lineno, str(exc))

    def move(self, lineno: int, kind: str, args):
        low, high = _MOVE_ARITY[kind]
        ids = args[1:] if kind == "blowup" else args
        if not low <= len(ids) <= high:
            if kind == "blowup":
                self.fail(lineno, "blowup line needs: blowup <weight> <id> [<id> [<id>]]")
            self.fail(lineno, f"{kind} line needs exactly {low} vertex id(s)")
        weight = None
        if kind == "blowup":
            try:
                weight = int(args[0])
            except ValueError:
                self.fail(lineno, f"blow-up weight {args[0]!r} is not an integer")
        for token in ids:
            if not VERTEX_ID_RE.match(token):
                self.fail(lineno, f"bad vertex id {token!r}")
        self.moves.append(Move(kind, tuple(ids), weight=weight))


def parse_graph(text: str, source: str = "<graph>") -> PlumbingGraph:
    parser = _Parser(text, source)
    parser.run(allow_moves=False)
    return parser.forest.graph()


def parse_trace(text: str, source: str = "<trace>") -> tuple[PlumbingGraph, list[Move]]:
    """Parse a trace document into (start graph, moves).  Moves are not
    replayed here; use MoveTrace.replay or apply_move to validate them
    against the graph."""
    parser = _Parser(text, source)
    parser.run(allow_moves=True)
    return parser.forest.graph(), parser.moves


def format_graph(g: PlumbingGraph, comments=()) -> str:
    lines = [f"# {c}" if c else "#" for c in comments]
    lines += [f"vertex {v} {w}" for v, w in g.vertices]
    lines += [f"edge {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n" if lines else ""


def format_trace(trace: MoveTrace, comments=()) -> str:
    body = format_graph(trace.start, comments)
    move_lines = "".join(f"{m}\n" for m in trace.moves)
    return body + move_lines


def to_dot(g: PlumbingGraph, name: str = "plumbing") -> str:
    """DOT rendering with weights as labels and stable (sorted) ordering."""
    lines = [f"graph {name} {{"]
    for v, w in g.vertices:
        lines.append(f'  "{v}" [label="{v}: {w}"];')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
