"""Shared fixtures and randomized-input helpers for the test suite.

All randomized sweeps use seeded random.Random instances so every run is
reproducible; no test depends on wall-clock or iteration order of sets.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from plumbcalc import (
    Move,
    MoveError,
    MoveTrace,
    PlumbingGraph,
    ReductionVerdict,
    Verdict,
    apply_move,
    canonical_form,
)
from plumbcalc.fixtures import FIXTURE_NAMES, fixture_graph

# Weight pool biased toward the values the calculus cares about (+-1, 0, -2).
_WEIGHT_POOL = (-7, -4, -3, -2, -2, -2, -1, -1, 0, 0, 1, 2)


def random_forest(rng: random.Random, max_vertices: int = 10) -> PlumbingGraph:
    """Random simple weighted forest: each vertex after the first attaches
    to an earlier vertex with probability 0.8, so components of several
    shapes and sizes occur."""
    n = rng.randint(1, max_vertices)
    ids = [f"n{i:02d}" for i in range(n)]
    weights = {}
    edges = []
    for i, vid in enumerate(ids):
        weights[vid] = rng.choice(_WEIGHT_POOL)
        if i and rng.random() < 0.8:
            edges.append((vid, ids[rng.randrange(i)]))
    return PlumbingGraph.build(weights, edges)


def random_s3_diagram(rng: random.Random, steps: int) -> PlumbingGraph:
    """A diagram of S^3: the empty diagram after ``steps`` random inverse
    moves, each one of

    - a +-1 blow-up: isolated, at a vertex, or splitting an edge;
    - an inverse 0-chain absorption: a vertex u becomes u - 0 - u', the two
      weights sum to u's weight, and u's edges are shared out between them;
    - an inverse split: a new vertex with a 0-leaf, joined to one vertex in
      each of some components.

    Every move keeps the manifold, so the reducer must certify each one."""
    weight, adj = {}, {}

    def add(w, *nbrs):
        v = f"s{len(weight)}"  # no vertex is ever removed
        weight[v], adj[v] = w, set(nbrs)
        for n in nbrs:
            adj[n].add(v)
        return v

    def edges():
        return sorted((u, x) for u in adj for x in adj[u] if u < x)

    for _ in range(steps):
        kind = rng.randrange(5) if weight else 0
        if kind < 3:  # a blow-up: isolated, at a vertex, or splitting an edge
            if kind == 2 and any(adj.values()):
                site = rng.choice(edges())
            else:
                site = (rng.choice(list(weight)),) if kind else ()
            if len(site) == 2:
                adj[site[0]].remove(site[1])
                adj[site[1]].remove(site[0])
            eps = rng.choice((-1, 1))
            for v in site:
                weight[v] += eps
            add(eps, *site)
        elif kind == 3:
            u = rng.choice(list(weight))
            moved = [n for n in sorted(adj[u]) if rng.random() < 0.5]
            for n in moved:
                adj[u].remove(n)
                adj[n].remove(u)
            a = rng.randint(-3, 3)
            rest, weight[u] = weight[u] - a, a
            add(rest, add(0, u), *moved)
        else:
            seen, joined = set(), []
            for root in weight:  # one vertex of some components, each drawn at random
                component, todo = [], [root]
                while todo:
                    x = todo.pop()
                    if x not in seen:
                        seen.add(x)
                        component.append(x)
                        todo.extend(adj[x])
                if component and rng.random() < 0.5:
                    joined.append(rng.choice(sorted(component)))
            add(0, add(rng.randint(-3, 3), *joined))
    return PlumbingGraph.build(weight, edges())


def path_graph(*weights) -> PlumbingGraph:
    """The path p0 - p1 - ... with the given weights."""
    ids = [f"p{i}" for i in range(len(weights))]
    return PlumbingGraph.build(
        dict(zip(ids, weights)), [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    )


def random_relabeling(rng: random.Random, g: PlumbingGraph) -> dict:
    """Random injective relabeling of g's vertex ids."""
    ids = list(g.ids)
    tokens = [f"m{k:03d}" for k in rng.sample(range(1000), len(ids))]
    return dict(zip(ids, tokens))


def relabeled(g: PlumbingGraph, mapping: dict) -> PlumbingGraph:
    """g with each vertex id v renamed to mapping[v].  The mapping must be
    injective and cover every id, or two vertices would merge or one would
    be lost."""
    assert set(mapping) >= set(g.ids), "the mapping misses a vertex id"
    assert len({mapping[v] for v in g.ids}) == len(g), "the mapping is not injective"
    return PlumbingGraph.build(
        {mapping[v]: w for v, w in g.vertices}, [(mapping[u], mapping[v]) for u, v in g.edges]
    )


def coprime_triples(lo: int, hi: int, odd_only: bool = False):
    """All pairwise coprime triples lo <= a1 < a2 < a3 <= hi."""
    from math import gcd

    step_start = lo if not odd_only else lo | 1
    values = [a for a in range(step_start, hi + 1) if not odd_only or a % 2]
    out = []
    for i, a1 in enumerate(values):
        for j in range(i + 1, len(values)):
            a2 = values[j]
            if gcd(a1, a2) != 1:
                continue
            for a3 in values[j + 1 :]:
                if gcd(a1, a3) == 1 and gcd(a2, a3) == 1:
                    out.append((a1, a2, a3))
    return out


def eval_neg_cont_frac(terms) -> Fraction:
    """c1 - 1/(c2 - 1/(... - 1/ck)), evaluated exactly: the oracle of
    ``neg_cont_frac``, which it inverts."""
    acc = Fraction(terms[-1])
    for c in reversed(terms[:-1]):
        acc = c - 1 / acc
    return acc


def brieskorn_signature(t) -> int:
    """Milnor-fiber signature of the BrieskornTriple t by direct enumeration
    of all (a1-1)(a2-1)(a3-1) lattice points, O(a1*a2*a3): the oracle of the
    per-pair count and of the Casson/Dedekind-sum formula."""
    a1, a2, a3 = t.indices
    n = t.product
    two_n = 2 * n
    bc = a2 * a3
    ac = a1 * a3
    ab = a1 * a2
    k_terms = [k * ab for k in range(1, a3)]
    pos = neg = 0
    for i in range(1, a1):
        x = i * bc
        for j in range(1, a2):
            y = x + j * ac
            for kt in k_terms:
                s = (y + kt) % two_n
                assert s != 0 and s != n  # never integral, by coprimality
                if s < n:
                    pos += 1
                else:
                    neg += 1
    return pos - neg


# -- the move oracle: each move rebuilds and revalidates the whole graph ------


def _rebuilt(g, drop=(), reweight=None, add_edges=()):
    """g without the ``drop`` vertices, with weights from ``reweight`` and
    with ``add_edges`` added, built and validated from scratch."""
    weights = {v: w for v, w in g.vertices if v not in drop}
    for v, w in (reweight or {}).items():
        assert v in weights
        weights[v] = w
    edges = [e for e in g.edges if e[0] not in drop and e[1] not in drop]
    return PlumbingGraph.build(weights, [*edges, *add_edges])


def oracle_blow_down(g, v):
    eps = g.weight(v)
    if eps not in (1, -1):
        raise MoveError(f"cannot blow down {v!r}: weight {eps} is not +-1")
    nbrs = g.neighbors(v)
    if len(nbrs) > 2:
        raise MoveError(f"cannot blow down {v!r}: valence {len(nbrs)} > 2")
    return _rebuilt(
        g,
        drop=(v,),
        reweight={n: g.weight(n) - eps for n in nbrs},
        add_edges=[nbrs] if len(nbrs) == 2 else (),
    )


def oracle_blow_up(g, new_id, weight, attach=()):
    if type(weight) is not int or weight not in (1, -1):
        raise MoveError(f"blow-up weight must be +-1, got {weight!r}")
    if new_id in g._weight_map:
        raise MoveError(f"vertex id {new_id!r} already in use")
    attach = tuple(attach)
    if len(attach) > 2 or len(set(attach)) != len(attach):
        raise MoveError("blow-up attaches to at most 2 distinct vertices")
    for v in attach:
        if v not in g._weight_map:
            raise MoveError(f"cannot attach to missing vertex {v!r}")
    weights = dict(g.vertices)
    for v in attach:
        weights[v] += weight
    weights[new_id] = weight
    edges = list(g.edges)
    if len(attach) == 2:
        u, w = attach
        key = (u, w) if u < w else (w, u)
        if key not in edges:
            raise MoveError(f"two-point blow-up needs an existing edge ({u!r}, {w!r}) to split")
        edges.remove(key)
    edges.extend((new_id, v) for v in attach)
    return PlumbingGraph.build(weights, edges)


def oracle_cancel_zero_pair(g, edge):
    u, v = edge
    if not g.has_edge(u, v):
        raise MoveError(f"no edge ({u!r}, {v!r})")
    if g.valence(u) != 1 or g.valence(v) != 1:
        raise MoveError(f"cannot cancel ({u!r}, {v!r}): the edge is not a whole component")
    if g.weight(u) != 0 and g.weight(v) != 0:
        raise MoveError(f"cannot cancel ({u!r}, {v!r}): neither endpoint has weight 0")
    return _rebuilt(g, drop=(u, v))


def oracle_absorb_zero(g, v):
    if g.weight(v) != 0:
        raise MoveError(f"cannot absorb {v!r}: weight {g.weight(v)} is not 0")
    nbrs = g.neighbors(v)
    if len(nbrs) != 2:
        raise MoveError(f"cannot absorb {v!r}: valence {len(nbrs)} is not 2")
    u, w = nbrs
    return _rebuilt(
        g,
        drop=(v, w),
        reweight={u: g.weight(u) + g.weight(w)},
        add_edges=[(u, x) for x in g.neighbors(w) if x != v],
    )


def oracle_split_zero(g, v):
    if g.weight(v) != 0:
        raise MoveError(f"cannot split at {v!r}: weight {g.weight(v)} is not 0")
    nbrs = g.neighbors(v)
    if len(nbrs) != 1:
        raise MoveError(f"cannot split at {v!r}: valence {len(nbrs)} is not 1")
    return _rebuilt(g, drop=(v, *nbrs))


def oracle_apply_move(g, move):
    """The oracle of ``apply_move``: the same checks, in the same order, in
    front of moves that each build a new graph from g's tuples."""
    arity = {"blowdown": (1, 1), "absorb": (1, 1), "split": (1, 1), "cancel": (2, 2),
             "blowup": (1, 3)}
    if move.kind not in arity:
        raise MoveError(f"unknown move kind {move.kind!r}")
    low, high = arity[move.kind]
    if not low <= len(move.ids) <= high:
        raise MoveError(f"malformed move: {move.kind} with {len(move.ids)} vertex id(s)")
    if move.kind != "blowup":
        for v in move.ids:
            if v not in g._weight_map:
                raise MoveError(f"cannot apply {move}: no vertex {v!r}")
    for v, w in move.pre or ():
        if v not in g._weight_map or g.weight(v) != w:
            raise MoveError(f"move {move} was recorded against a different graph "
                            f"(vertex {v!r} weight mismatch)")
    if move.kind == "blowup":
        if move.weight is None:
            raise MoveError("blow-up move carries no weight")
        return oracle_blow_up(g, move.ids[0], move.weight, move.ids[1:])
    if move.kind == "cancel":
        return oracle_cancel_zero_pair(g, move.ids)
    move_of_kind = {"blowdown": oracle_blow_down, "absorb": oracle_absorb_zero,
                    "split": oracle_split_zero}
    return move_of_kind[move.kind](g, *move.ids)


# -- the search oracle: every state is a validated graph --------------------------


def oracle_applicable_moves(g):
    """The oracle of ``applicable_moves``: blow-downs by (valence, id), then
    cancellations by edge, read off the graph's accessors."""
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


def _fresh_id(g):
    existing = set(g.ids)
    k = 0
    while f"z{k}" in existing:
        k += 1
    return f"z{k}"


def oracle_blow_up_moves(g):
    """The oracle of ``blow_up_moves``: isolated, one-point and
    edge-splitting blow-ups with the smallest free z<k> id, -1 before +1."""
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


def oracle_search(g, budget, blow_up_depth):
    """The oracle of ``calculus._search``: the same breadth-first search,
    with every successor a graph built by ``apply_move`` and keyed by
    ``canonical_form``."""
    start_key = (canonical_form(g), 0)
    parents = {start_key: None}
    queue = deque([(g, start_key)])
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
            assert trace.replay().is_empty
            return ReductionVerdict(Verdict.S3), trace
        ups = key[1]
        candidates = oracle_applicable_moves(current)
        if ups < blow_up_depth:
            candidates += oracle_blow_up_moves(current)
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


@pytest.fixture(scope="session")
def fixtures():
    return {name: fixture_graph(name) for name in FIXTURE_NAMES}
