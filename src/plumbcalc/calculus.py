"""Plumbing-calculus rewriting: W. Neumann's moves on weighted forests, and
a reducer that certifies diagrams as S^3 with replayable move traces.

Every move's preconditions and edits live in one place, a private mutable
diagram (weights and adjacency).  ``apply_move`` and ``blow_up`` return
validated graphs; the greedy pass and trace replay edit one private copy
and validate only the graph it ends as, which is enough because each move
keeps a simple forest a simple forest when its preconditions hold.
Every move preserves |det| of the linking matrix, so the reducer rejects
|det| != 1 inputs immediately and never re-checks determinants.  The moves
are the blow-down and its inverse, the blow-up; W. Neumann's 0-chain
absorption and splitting ("A calculus for plumbing applied to the topology
of complex surface singularities and degenerating complex curves", Trans.
AMS 268, 1981), of which the zero-pair cancellation is the case of a
two-vertex component; and the chain rewrite, which is e - 1 blow-ups
followed by one blow-down and so needs no move of its own.

The reducer first runs one deterministic greedy pass on such a copy,
building no graph per move: it applies blow-downs in (valence, id) order
while any applies, then a zero move (splitting before absorption, by id),
then a chain rewrite, and repeats.
A pass that reaches the empty diagram is an S3 verdict, and its trace is
replay-verified like every other.

When the pass stops short, the reducer falls back to a breadth-first search
from the start diagram over blow-downs and cancellations, with
canonical-form memoization.  The search's states are private diagrams
too, each successor an edited copy of its parent, and a graph is built
only for a trace it returns.  Move enumeration is ordered (blow-downs by
(valence, id), then cancellations by edge ids); together with FIFO
expansion this makes verdicts and traces deterministic for a fixed input
and budget.  Blow-ups are excluded from the search unless a positive
blow-up depth is requested: without them the state space is finite (every
move drops the vertex count), so exhausting it without reaching the empty
graph is an honest Unknown, as is exceeding the state budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import count

from .errors import DomainError, MoveError
from .graphs import VERTEX_ID_RE, PlumbingGraph
from .lattice import _graph_walk

__all__ = [
    "Move",
    "MoveTrace",
    "Verdict",
    "ReductionVerdict",
    "DEFAULT_BUDGET",
    "blow_up",
    "blow_up_moves",
    "applicable_moves",
    "apply_move",
    "reduce_to_s3",
    "canonical_form",
]

# Caps the diagrams the greedy pass visits and, separately, the states the
# breadth-first search admits.
DEFAULT_BUDGET = 100_000

# Move kind -> (fewest, most) vertex ids; ``blowup`` also takes a weight.
_MOVE_ARITY = {
    "blowdown": (1, 1),
    "absorb": (1, 1),
    "split": (1, 1),
    "cancel": (2, 2),
    "blowup": (1, 3),
}


# -- moves -------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """One calculus move.

    kinds "blowdown", "absorb" and "split" carry (vertex,), the vertex
    blown down or the weight-0 vertex absorbed or split off; kind "cancel"
    carries the (u, v) edge of a two-vertex component; kind "blowup" carries
    the new vertex id followed by 0..2 attachment vertices, with the blown
    weight in ``weight``.  ``pre`` optionally records the weights of the
    touched vertices at recording time; replay re-checks it (and all move
    preconditions) when present."""

    kind: str
    ids: tuple[str, ...]
    weight: int | None = None
    pre: tuple[tuple[str, int], ...] | None = field(default=None, compare=False)

    def __str__(self) -> str:
        if self.kind == "blowup":
            return f"blowup {self.weight} {' '.join(self.ids)}"
        return f"{self.kind} {' '.join(self.ids)}"


def blow_up(
    g: PlumbingGraph, new_id: str, weight: int, attach: tuple[str, ...] = ()
) -> PlumbingGraph:
    """Insert a vertex of weight +-1 with 0, 1 or 2 attachments, raising
    each attachment's weight by the new weight: a blow-down's inverse, which
    builds diagrams.  A two-vertex attachment must be an existing edge, which
    the new vertex splits (undoing the edge a valence-2 blow-down makes)."""
    return apply_move(g, Move("blowup", (new_id, *attach), weight=weight))


def applicable_moves(g: PlumbingGraph) -> list[Move]:
    """Every applicable move, in the fixed deterministic order the reducer
    searches them: blow-downs sorted by (valence, vertex id), so leaves come
    before interior vertices, then cancellations sorted by edge."""
    return _Diagram(g).moves()


def blow_up_moves(g: PlumbingGraph) -> list[Move]:
    """Every blow-up of the graph (isolated, one-point, edge-splitting, both
    weights), in deterministic order.  Only searched when the reducer's
    blow-up depth is positive: these moves grow the diagram."""
    return _Diagram(g).blow_ups()


def apply_move(g: PlumbingGraph, move: Move) -> PlumbingGraph:
    """Apply a move, re-checking its preconditions (and its recorded
    pre-weights, when it carries them) against this graph.  Every id the
    move names, except a blow-up's new id, must be a vertex of g."""
    return _replay(g, (move,))


def _replay(start: PlumbingGraph, moves) -> PlumbingGraph:
    """Apply the moves in order to one mutable copy of start, and build the
    graph they end at: one validation however many moves there are."""
    diagram = _Diagram(start)
    for move in moves:
        diagram.apply(move)
    return diagram.graph()


class _Diagram:
    """A mutable copy of a graph's weights and adjacency, and the one place
    where each move's preconditions are checked and its edits made.
    When its preconditions hold a move keeps the diagram a simple forest:
    a valence-2 blow-down joins two vertices that are in separate trees
    once the blown vertex is gone, an absorption merges two trees, and a
    two-point blow-up splits an existing edge.  So only the graph that
    ``graph`` builds at the end needs validating.

    ``copy`` gives an independent diagram to edit, so the search can keep
    each state it queues.  ``moves`` and ``blow_ups`` list the search's
    moves in its fixed order, each recording the weights it touches."""

    def __init__(self, g: PlumbingGraph):
        self.weight = dict(g._weight_map)
        self.adj = dict(g._adjacency)  # neighbor tuples, made sets when edited

    def copy(self) -> "_Diagram":
        twin = _Diagram.__new__(_Diagram)
        twin.weight = dict(self.weight)
        twin.adj = {v: tuple(ns) for v, ns in self.adj.items()}
        return twin

    def graph(self) -> PlumbingGraph:
        adj = self.adj
        return PlumbingGraph.build(self.weight, [(u, x) for u in adj for x in adj[u] if u < x])

    def pre(self, *vs: str) -> tuple[tuple[str, int], ...]:
        """The weights of vs, as a move records them."""
        return tuple(sorted((v, self.weight[v]) for v in vs))

    def moves(self) -> list[Move]:
        """The blow-downs by (valence, id), then the cancellations by edge."""
        weight, adj = self.weight, self.adj
        ones = sorted((len(adj[v]), v) for v, w in weight.items() if w in (1, -1))
        moves = [Move("blowdown", (v,), pre=self.pre(v, *adj[v])) for k, v in ones if k <= 2]
        for u in sorted(v for v, ns in adj.items() if len(ns) == 1):
            (x,) = adj[u]
            if u < x and len(adj[x]) == 1 and 0 in (weight[u], weight[x]):
                moves.append(Move("cancel", (u, x), pre=self.pre(u, x)))
        return moves

    def blow_ups(self) -> list[Move]:
        """Every blow-up with the smallest free ``z<k>`` id: isolated, then
        at each vertex by id, then splitting each edge, each weight -1
        before +1."""
        new_id = next(f"z{k}" for k in count() if f"z{k}" not in self.weight)
        edges = sorted((u, x) for u, ns in self.adj.items() for x in ns if u < x)
        sites = [(), *((v,) for v in sorted(self.weight)), *edges]
        return [
            Move("blowup", (new_id, *site), weight=eps, pre=self.pre(*site))
            for site in sites
            for eps in (-1, 1)
        ]

    def apply(self, move: Move) -> None:
        if move.kind not in _MOVE_ARITY:
            raise MoveError(f"unknown move kind {move.kind!r}")
        low, high = _MOVE_ARITY[move.kind]
        if not low <= len(move.ids) <= high:
            raise MoveError(f"malformed move: {move.kind} with {len(move.ids)} vertex id(s)")
        if move.kind != "blowup":  # blowup checks its attachments itself
            for v in move.ids:
                if v not in self.weight:
                    raise MoveError(f"cannot apply {move}: no vertex {v!r}")
        if move.pre is not None:
            for v, w in move.pre:
                if v not in self.weight or self.weight[v] != w:
                    raise MoveError(
                        f"move {move} was recorded against a different graph "
                        f"(vertex {v!r} weight mismatch)"
                    )
        if move.kind != "blowup":
            getattr(self, move.kind)(*move.ids)
        elif move.weight is None:
            raise MoveError("blow-up move carries no weight")
        else:
            self.blowup(move.weight, *move.ids)

    def _edit(self, v: str) -> set[str]:
        ns = self.adj[v]
        if type(ns) is not set:
            ns = self.adj[v] = set(ns)
        return ns

    def _drop(self, v: str) -> None:
        for n in self.adj.pop(v):
            self._edit(n).discard(v)
        del self.weight[v]

    def _join(self, u: str, v: str) -> None:
        self._edit(u).add(v)
        self._edit(v).add(u)

    def blowdown(self, v: str) -> None:
        """Blow down a +-1 vertex of valence <= 2: it goes away, each
        neighbor's weight drops by the blown weight, and two neighbors
        become adjacent.  |det| is kept: the vertex spans a unimodular
        summand whose complement is the new diagram, up to edge signs."""
        eps, nbrs = self.weight[v], tuple(self.adj[v])
        if eps not in (1, -1):
            raise MoveError(f"cannot blow down {v!r}: weight {eps} is not +-1")
        if len(nbrs) > 2:
            raise MoveError(f"cannot blow down {v!r}: valence {len(nbrs)} > 2")
        self._drop(v)
        for n in nbrs:
            self.weight[n] -= eps
        if len(nbrs) == 2:
            self._join(*nbrs)

    def blowup(self, weight: int, new_id: str, *attach: str) -> None:
        if type(weight) is not int or weight not in (1, -1):
            raise MoveError(f"blow-up weight must be +-1, got {weight!r}")
        if new_id in self.weight:
            raise MoveError(f"vertex id {new_id!r} already in use")
        if len(set(attach)) != len(attach):
            raise MoveError("blow-up attaches to at most 2 distinct vertices")
        for v in attach:
            if v not in self.weight:
                raise MoveError(f"cannot attach to missing vertex {v!r}")
        edge = attach if len(attach) == 2 else ()
        if edge and edge[1] not in self.adj[edge[0]]:
            raise MoveError(
                f"two-point blow-up needs an existing edge ({edge[0]!r}, {edge[1]!r}) to split"
            )
        if not isinstance(new_id, str) or not VERTEX_ID_RE.match(new_id):
            raise MoveError(f"bad vertex id {new_id!r} for a blow-up")
        if edge:
            self._edit(edge[0]).remove(edge[1])
            self._edit(edge[1]).remove(edge[0])
        self.weight[new_id] = weight
        self.adj[new_id] = set()
        for v in attach:
            self.weight[v] += weight
            self._join(new_id, v)

    def cancel(self, u: str, v: str) -> None:
        """Delete a two-vertex component with a weight 0, whatever the other
        weight: its det is -1, so it bounds S^3; a split whose neighbor is a leaf."""
        if v not in self.adj[u]:
            raise MoveError(f"no edge ({u!r}, {v!r})")
        if len(self.adj[u]) != 1 or len(self.adj[v]) != 1:
            raise MoveError(
                f"cannot cancel ({u!r}, {v!r}): the edge is not a whole component"
            )
        if self.weight[u] != 0 and self.weight[v] != 0:
            raise MoveError(f"cannot cancel ({u!r}, {v!r}): neither endpoint has weight 0")
        self._drop(u)
        self._drop(v)

    def absorb(self, v: str) -> None:
        """0-chain absorption: a weight-0 vertex of valence 2 goes away, and
        its neighbors u < w merge into u, of weight w_u + w_w, with w's other
        edges.  |det| is kept: v and u span a summand of det -1 whose
        complement is the merged diagram, up to edge signs."""
        if self.weight[v] != 0:
            raise MoveError(f"cannot absorb {v!r}: weight {self.weight[v]} is not 0")
        if len(self.adj[v]) != 2:
            raise MoveError(f"cannot absorb {v!r}: valence {len(self.adj[v])} is not 2")
        u, w = sorted(self.adj[v])
        self._drop(v)
        self.weight[u] += self.weight[w]
        for x in self.adj[w]:
            self._join(u, x)
        self._drop(w)

    def split(self, v: str) -> None:
        """Splitting: a weight-0 leaf and its neighbor both go away, and the
        neighbor's other branches become separate components.  |det| is
        kept: expanding along the leaf's row leaves +-det of the rest."""
        if self.weight[v] != 0:
            raise MoveError(f"cannot split at {v!r}: weight {self.weight[v]} is not 0")
        if len(self.adj[v]) != 1:
            raise MoveError(f"cannot split at {v!r}: valence {len(self.adj[v])} is not 1")
        (u,) = self.adj[v]
        self._drop(v)
        self._drop(u)


@dataclass(frozen=True)
class MoveTrace:
    """A replayable move sequence: applying ``moves`` to ``start`` must
    reproduce ``end`` exactly."""

    start: PlumbingGraph
    moves: tuple[Move, ...]
    end: PlumbingGraph

    def replay(self) -> PlumbingGraph:
        g = _replay(self.start, self.moves)
        if g != self.end:
            raise MoveError("trace replay did not reproduce the recorded end graph")
        return g


# -- canonical form ------------------------------------------------------------


def canonical_form(g: PlumbingGraph) -> str:
    """Label-invariant encoding of a weighted forest: each tree is encoded
    rooted at its center, and the trees' codes are sorted and joined by
    "|".  Equal strings iff the graphs are isomorphic as weighted forests.

    One leaf-peeling pass over the whole forest: each round encodes the
    vertices with at most one neighbor left unencoded as
    "(weight" + sorted codes of their encoded neighbors + ")" and pushes
    each code to that one neighbor, which joins the next round once it has
    one neighbor left.  A vertex with none left is a tree's single center.
    Two adjacent vertices of one round are a bicentral tree's centers: each
    is encoded once more with the other as an extra child, and the smaller
    string is kept.  Every vertex is reached because every PlumbingGraph
    is a forest.
    """
    return _forest_code(g._weight_map, g._adjacency)


def _forest_code(weight: dict[str, int], adj) -> str:
    """``canonical_form`` of the forest with these weights and adjacency."""
    left = {v: len(ns) for v, ns in adj.items()}  # neighbors not yet encoded
    children: dict[str, list[str]] = {v: [] for v in adj}
    code: dict[str, str] = {}
    parts = []
    layer = [v for v, k in left.items() if k <= 1]
    while layer:
        up = {v: next((n for n in adj[v] if n not in code), None) for v in layer}
        for v in layer:
            code[v] = f"({weight[v]}{''.join(sorted(children[v]))})"
        nxt = []
        for v, u in up.items():
            if u is None:  # a single center
                parts.append(code[v])
            elif u in up:  # a bicentral pair, met once from each side
                if v < u:
                    parts.append(min(
                        f"({weight[a]}{''.join(sorted([*children[a], code[b]]))})"
                        for a, b in ((v, u), (u, v))
                    ))
            else:
                children[u].append(code[v])
                left[u] -= 1
                if left[u] == 1:
                    nxt.append(u)
        layer = nxt
    return "|".join(sorted(parts))


# -- reducer -------------------------------------------------------------------


class Verdict(Enum):
    S3 = "S3"
    NOT_HOMOLOGY_SPHERE = "NOT-HS"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ReductionVerdict:
    status: Verdict
    det_abs: int | None = None  # set for NOT_HOMOLOGY_SPHERE
    budget_exhausted: bool | None = None  # set for UNKNOWN

    def __str__(self) -> str:
        if self.status is Verdict.NOT_HOMOLOGY_SPHERE:
            return f"NOT-HS({self.det_abs})"
        return self.status.value


def reduce_to_s3(
    g: PlumbingGraph, budget: int = DEFAULT_BUDGET, blow_up_depth: int = 0
) -> tuple[ReductionVerdict, MoveTrace | None]:
    """Find a move sequence from g to the empty diagram.

    Returns (S3, trace) when found; the trace is replay-verified before it
    is returned; (NOT-HS(|det|), None) immediately when |det| != 1; and
    (UNKNOWN, None) when neither the greedy pass nor the search reaches the
    empty diagram: the search's reachable state space is exhausted, or its
    memo budget is hit, distinguished by ``budget_exhausted``.

    The greedy pass runs first and visits at most ``budget`` diagrams.  The
    search runs only when the pass stops short.  With ``blow_up_depth`` > 0
    it may also insert up to that many +-1 vertices along any path.
    Blow-downs and cancellations alone keep its state space finite;
    blow-ups make Unknown-by-budget the common negative outcome instead of
    Unknown-by-exhaustion.
    """
    for name, value in (("budget", budget), ("blow-up depth", blow_up_depth)):
        if type(value) is not int:  # a float or bool would run silently
            raise DomainError(f"{name} {value!r} is not an integer")
    if budget < 1:
        raise DomainError("budget must be positive")
    if blow_up_depth < 0:
        raise DomainError("blow-up depth must be >= 0")
    det_abs = abs(_graph_walk(g)[1])
    if det_abs != 1:
        return ReductionVerdict(Verdict.NOT_HOMOLOGY_SPHERE, det_abs=det_abs), None
    trace = _greedy_pass(g, budget)
    if trace.end.is_empty:
        trace.replay()
        return ReductionVerdict(Verdict.S3), trace
    return _search(g, budget, blow_up_depth)


def _greedy_pass(g: PlumbingGraph, budget: int) -> MoveTrace:
    """Apply moves to a private copy of g until none applies, or until one
    more would take the pass past ``budget`` diagrams (the start counts as
    one).  Each step takes the first blow-down by (valence, id); else the
    first zero move by (valence, id), so splits come before absorptions;
    else the first chain rewrite by (valence, id).  A split whose neighbor
    is a leaf is recorded as a cancel.  Returns the moves made, ending
    wherever the pass stopped.

    Termination: let Phi be the sum over the vertices of max(1, w + 3).  A
    blow-down of -1 raises at most two neighbors' terms by 1 while its own
    term 2 goes; a blow-down of +1 lowers Phi by at least 4, an absorption
    by at least 3 (the merged term is at most the two it replaces, less 3,
    or 1), a split by at least 4.  So every step but a chain rewrite drops
    a vertex and does not raise Phi.  A chain rewrite of weight e adds
    e - 2 <= Phi - 5 vertices, but its term e + 3 becomes e - 1 terms of 1
    and its neighbors' terms do not rise, so Phi drops by at least 4 and
    Phi (Phi + 1) / 2 by at least 4 Phi - 6.  Hence n + Phi (Phi + 1) / 2
    falls at every step, and its start value bounds the number of steps.
    """
    diagram = _Diagram(g)
    weight, adj = diagram.weight, diagram.adj
    moves: list[Move] = []
    fresh = (f"z{k}" for k in count() if f"z{k}" not in g._weight_map)
    phi = sum(max(1, w + 3) for w in weight.values())
    bound = len(weight) + phi * (phi + 1) // 2
    steps = 0
    while True:
        candidates = [
            (rank, len(adj[v]), v)
            for v, w in weight.items()
            if (rank := _pass_rank(w, len(adj[v]))) is not None
        ]
        if not candidates:
            break
        rank, _, v = min(candidates)
        e = weight[v]
        if len(moves) + (e if rank == 2 else 1) >= budget:
            break
        steps += 1
        assert steps <= bound, "the reduction measure bounds the greedy pass"
        if rank == 2:  # chain rewrite: e - 1 blow-ups next to v bring it to +1
            u = min(adj[v])
            for _ in range(e - 1):
                z = next(fresh)
                moves.append(Move("blowup", (z, v, u), weight=-1, pre=diagram.pre(v, u)))
                diagram.apply(moves[-1])
                u = z
        nbrs = sorted(adj[v])
        kind, ids = "blowdown", (v,)
        if rank == 1:
            kind = "absorb" if len(nbrs) == 2 else "split"
            if kind == "split" and len(adj[nbrs[0]]) == 1:
                kind, ids = "cancel", tuple(sorted((v, *nbrs)))
        moves.append(Move(kind, ids, pre=diagram.pre(v, *nbrs)))
        diagram.apply(moves[-1])
    return MoveTrace(start=g, moves=tuple(moves), end=diagram.graph())


def _pass_rank(w: int, valence: int) -> int | None:
    """The greedy pass's move class at a vertex: 0 blow-down, 1 zero move
    (split or absorption), 2 chain rewrite, None when none applies."""
    if valence > 2:
        return None
    if w in (1, -1):
        return 0
    if valence == 0:
        return None  # an isolated 0 or |w| >= 2 vertex: |det| != 1
    if w == 0:
        return 1
    return 2 if w >= 2 else None


def _search(
    g: PlumbingGraph, budget: int, blow_up_depth: int
) -> tuple[ReductionVerdict, MoveTrace | None]:
    """Breadth-first search from g over ``_Diagram.moves`` (and
    ``_Diagram.blow_ups`` up to ``blow_up_depth`` per path) for the empty
    diagram, admitting at most ``budget`` canonical states."""
    # BFS states are (diagram, blow-ups used); memoized per canonical form
    # and blow-up count so deeper-blow-up revisits of a diagram are pruned.
    start = _Diagram(g)
    start_key = (_forest_code(start.weight, start.adj), 0)
    parents: dict[tuple[str, int], tuple[tuple[str, int], Move] | None] = {start_key: None}
    queue: deque[tuple[_Diagram, tuple[str, int]]] = deque([(start, start_key)])
    budget_hit = False
    while queue:
        current, key = queue.popleft()
        if not current.weight:
            moves = []
            walk = key
            while parents[walk] is not None:
                pkey, move = parents[walk]
                moves.append(move)
                walk = pkey
            moves.reverse()
            trace = MoveTrace(start=g, moves=tuple(moves), end=current.graph())
            trace.replay()
            return ReductionVerdict(Verdict.S3), trace
        ups = key[1]
        candidates = current.moves()
        if ups < blow_up_depth:
            candidates += current.blow_ups()
        for move in candidates:
            successor = current.copy()
            successor.apply(move)
            skey = (_forest_code(successor.weight, successor.adj), ups + (move.kind == "blowup"))
            if skey in parents:
                continue
            if len(parents) >= budget:
                # Nothing more can be admitted, so only a queued empty
                # diagram can still end the search: expand nothing else.
                budget_hit = True
                queue = deque(item for item in queue if not item[0].weight)
                break
            parents[skey] = (key, move)
            queue.append((successor, skey))
    return ReductionVerdict(Verdict.UNKNOWN, budget_exhausted=budget_hit), None
