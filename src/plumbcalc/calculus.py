"""Plumbing-calculus rewriting: blow-downs, zero-pair cancellation, and a
breadth-first reducer that certifies diagrams as S^3.

Moves never mutate; each returns a freshly validated graph, so forest and
simplicity invariants hold for every intermediate diagram by construction.
Both moves preserve |det| of the linking matrix (for a cancelled zero pair,
the removed component's own 2x2 determinant is -1, i.e. the summand was
S^3), so the reducer rejects |det| != 1 inputs immediately and never needs
to re-check determinants during the search.

The search is breadth-first over all applicable moves with canonical-form
memoization.  Move enumeration is ordered (blow-downs by (valence, id),
then cancellations by edge ids); together with FIFO expansion this makes
verdicts and traces deterministic for a fixed input and budget.  Blow-ups
(the inverse insertions) are excluded from the search unless a positive
blow-up depth is requested: without them the state space is finite (every
move drops the vertex count), so exhausting it without reaching the empty
graph is an honest Unknown, as is exceeding the state budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, MoveError
from .graphs import PlumbingGraph
from .lattice import _graph_walk

__all__ = [
    "Move",
    "MoveTrace",
    "Verdict",
    "ReductionVerdict",
    "DEFAULT_BUDGET",
    "blow_down",
    "blow_up",
    "blow_up_moves",
    "cancel_zero_pair",
    "applicable_moves",
    "apply_move",
    "reduce_to_s3",
    "canonical_form",
]

DEFAULT_BUDGET = 100_000  # canonical states admitted to the memo table


# -- moves -------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """One calculus move.

    kind "blowdown" carries (vertex,); kind "cancel" carries the (u, v)
    edge of a two-vertex component; kind "blowup" (only emitted when the
    reducer's blow-up depth is raised above its default 0) carries the new
    vertex id followed by 0..2 attachment vertices, with the blown weight in
    ``weight``.  ``pre`` optionally records the weights of the touched
    vertices at recording time; replay re-checks it (and all move
    preconditions) when present."""

    kind: str
    ids: tuple[str, ...]
    weight: int | None = None
    pre: tuple[tuple[str, int], ...] | None = field(default=None, compare=False)

    def __str__(self) -> str:
        if self.kind == "blowup":
            return f"blowup {self.weight} {' '.join(self.ids)}"
        return f"{self.kind} {' '.join(self.ids)}"


def blow_down(g: PlumbingGraph, v: str) -> PlumbingGraph:
    """Blow down a vertex of weight +-1 and valence <= 2: the vertex goes
    away, each former neighbor's weight drops by the blown weight, and two
    former neighbors become adjacent.  |det| is unchanged."""
    eps = g.weight(v)
    if eps not in (1, -1):
        raise MoveError(f"cannot blow down {v!r}: weight {eps} is not +-1")
    nbrs = g.neighbors(v)
    if len(nbrs) > 2:
        raise MoveError(f"cannot blow down {v!r}: valence {len(nbrs)} > 2")
    return g.replace(
        drop=(v,),
        reweight={n: g.weight(n) - eps for n in nbrs},
        add_edges=[nbrs] if len(nbrs) == 2 else (),
    )


def blow_up(
    g: PlumbingGraph, new_id: str, weight: int, attach: tuple[str, ...] = ()
) -> PlumbingGraph:
    """Inverse of blow_down: insert a vertex of weight +-1 with 0, 1 or 2
    attachments, raising each attachment's weight by the new weight.  A
    two-vertex attachment must be an existing edge, which the new vertex
    splits (undoing the edge a valence-2 blow-down would create)."""
    if weight not in (1, -1):
        raise MoveError(f"blow-up weight must be +-1, got {weight}")
    if new_id in g._weight_map:
        raise MoveError(f"vertex id {new_id!r} already in use")
    attach = tuple(attach)
    if len(attach) > 2 or len(set(attach)) != len(attach):
        raise MoveError("blow-up attaches to at most 2 distinct vertices")
    for v in attach:
        if v not in g._weight_map:
            raise MoveError(f"cannot attach to missing vertex {v!r}")
    weights = {v: w for v, w in g.vertices}
    for v in attach:
        weights[v] += weight
    weights[new_id] = weight
    edges = list(g.edges)
    if len(attach) == 2:
        u, w = attach
        key = (u, w) if u < w else (w, u)
        if key not in edges:
            raise MoveError(
                f"two-point blow-up needs an existing edge ({u!r}, {w!r}) to split"
            )
        edges.remove(key)
    edges.extend((new_id, v) for v in attach)
    return PlumbingGraph.build(weights, edges)


def cancel_zero_pair(g: PlumbingGraph, edge: tuple[str, str]) -> PlumbingGraph:
    """Delete a whole two-vertex component one of whose weights is 0.  The
    partner weight is irrelevant: the component's linking determinant is -1
    regardless, so the summand it bounds is S^3."""
    u, v = edge
    if not g.has_edge(u, v):
        raise MoveError(f"no edge ({u!r}, {v!r})")
    if g.valence(u) != 1 or g.valence(v) != 1:
        raise MoveError(
            f"cannot cancel ({u!r}, {v!r}): the edge is not a whole component"
        )
    if g.weight(u) != 0 and g.weight(v) != 0:
        raise MoveError(f"cannot cancel ({u!r}, {v!r}): neither endpoint has weight 0")
    return g.replace(drop=(u, v))


def applicable_moves(g: PlumbingGraph) -> list[Move]:
    """Every applicable move, in the fixed deterministic order the reducer
    searches them: blow-downs sorted by (valence, vertex id), so leaves come
    before interior vertices, then cancellations sorted by edge."""
    blowdowns = []
    for v, w in g.vertices:
        if w not in (1, -1):
            continue
        nbrs = g.neighbors(v)
        if len(nbrs) > 2:
            continue
        pre = tuple(sorted({v: w, **{n: g.weight(n) for n in nbrs}}.items()))
        blowdowns.append((len(nbrs), v, Move("blowdown", (v,), pre=pre)))
    moves = [m for _, _, m in sorted(blowdowns, key=lambda t: t[:2])]
    for u, v in g.edges:
        if (
            g.valence(u) == 1
            and g.valence(v) == 1
            and (g.weight(u) == 0 or g.weight(v) == 0)
        ):
            pre = ((u, g.weight(u)), (v, g.weight(v)))
            moves.append(Move("cancel", (u, v), pre=pre))
    return moves


def _fresh_id(g: PlumbingGraph) -> str:
    existing = set(g.ids)
    k = 0
    while f"z{k}" in existing:
        k += 1
    return f"z{k}"


def blow_up_moves(g: PlumbingGraph) -> list[Move]:
    """Every blow-up of the graph (isolated, one-point, edge-splitting, both
    weights), in deterministic order.  Only searched when the reducer's
    blow-up depth is positive: these moves grow the diagram."""
    new_id = _fresh_id(g)
    moves = []
    for eps in (-1, 1):
        moves.append(Move("blowup", (new_id,), weight=eps, pre=()))
    for v, w in g.vertices:
        for eps in (-1, 1):
            moves.append(Move("blowup", (new_id, v), weight=eps, pre=((v, w),)))
    for u, v in g.edges:
        pre = ((u, g.weight(u)), (v, g.weight(v)))
        for eps in (-1, 1):
            moves.append(Move("blowup", (new_id, u, v), weight=eps, pre=pre))
    return moves


def apply_move(g: PlumbingGraph, move: Move) -> PlumbingGraph:
    """Apply a move, re-checking its preconditions (and its recorded
    pre-weights, when it carries them) against this graph."""
    if move.pre is not None:
        for v, w in move.pre:
            if v not in g._weight_map or g.weight(v) != w:
                raise MoveError(
                    f"move {move} was recorded against a different graph "
                    f"(vertex {v!r} weight mismatch)"
                )
    if move.kind == "blowdown":
        (v,) = move.ids
        return blow_down(g, v)
    if move.kind == "cancel":
        u, v = move.ids
        return cancel_zero_pair(g, (u, v))
    if move.kind == "blowup":
        if move.weight is None:
            raise MoveError("blow-up move carries no weight")
        return blow_up(g, move.ids[0], move.weight, move.ids[1:])
    raise MoveError(f"unknown move kind {move.kind!r}")


@dataclass(frozen=True)
class MoveTrace:
    """A replayable move sequence: applying ``moves`` to ``start`` must
    reproduce ``end`` exactly."""

    start: PlumbingGraph
    moves: tuple[Move, ...]
    end: PlumbingGraph

    def replay(self) -> PlumbingGraph:
        g = self.start
        for move in self.moves:
            g = apply_move(g, move)
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
    is a forest; on a cycle the pass would stall.
    """
    weight, adj = g._weight_map, g._adjacency
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
    """Search for a move sequence from g to the empty diagram.

    Returns (S3, trace) when found; the trace is replay-verified before it
    is returned; (NOT-HS(|det|), None) immediately when |det| != 1; and
    (UNKNOWN, None) when the reachable state space is exhausted (or the
    memo budget is hit, distinguished by ``budget_exhausted``).

    With ``blow_up_depth`` > 0 the search may also insert up to that many
    +-1 vertices along any path.  Blow-downs and cancellations alone keep
    the state space finite; blow-ups make Unknown-by-budget the common
    negative outcome instead of Unknown-by-exhaustion.
    """
    if budget < 1:
        raise DomainError("budget must be positive")
    if blow_up_depth < 0:
        raise DomainError("blow-up depth must be >= 0")
    det_abs = abs(_graph_walk(g)[1])
    if det_abs != 1:
        return ReductionVerdict(Verdict.NOT_HOMOLOGY_SPHERE, det_abs=det_abs), None

    # BFS states are (diagram, blow-ups used); memoized per canonical form
    # and blow-up count so deeper-blow-up revisits of a diagram are pruned.
    start_key = (canonical_form(g), 0)
    parents: dict[tuple[str, int], tuple[tuple[str, int], Move] | None] = {start_key: None}
    queue: deque[tuple[PlumbingGraph, tuple[str, int]]] = deque([(g, start_key)])
    budget_hit = False
    while queue:
        current, key = queue.popleft()
        if current.is_empty:
            moves = []
            walk = key
            while parents[walk] is not None:
                pkey, move = parents[walk]
                moves.append(move)
                walk = pkey
            moves.reverse()
            trace = MoveTrace(start=g, moves=tuple(moves), end=current)
            replayed = trace.replay()
            assert replayed.is_empty
            return ReductionVerdict(Verdict.S3), trace
        ups = key[1]
        candidates = applicable_moves(current)
        if ups < blow_up_depth:
            candidates += blow_up_moves(current)
        for move in candidates:
            successor = apply_move(current, move)
            skey = (canonical_form(successor), ups + (move.kind == "blowup"))
            if skey in parents:
                continue
            if len(parents) >= budget:
                budget_hit = True
                continue
            parents[skey] = (key, move)
            queue.append((successor, skey))
    return ReductionVerdict(Verdict.UNKNOWN, budget_exhausted=budget_hit), None
