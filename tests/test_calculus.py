import dataclasses
import random
from collections import Counter
from itertools import permutations

import pytest

from conftest import (
    oracle_applicable_moves,
    oracle_apply_move,
    oracle_blow_up_moves,
    oracle_search,
    path_graph,
    random_forest,
    random_relabeling,
    random_s3_diagram,
    relabeled,
)
from plumbcalc import (
    DEFAULT_BUDGET,
    BrieskornTriple,
    DomainError,
    Move,
    MoveError,
    PlumbingGraph,
    Verdict,
    applicable_moves,
    apply_move,
    blow_up,
    brieskorn_seifert,
    canonical_form,
    determinant,
    format_trace,
    linking_matrix,
    parse_trace,
    reduce_to_s3,
    star_plumbing,
)
from plumbcalc.calculus import _Diagram, _greedy_pass, _search, blow_up_moves


# -- individual moves ----------------------------------------------------------


def test_blow_down_chain_middle():
    g = path_graph(-2, -1, -2)
    h = apply_move(g, Move("blowdown", ("p1",)))
    assert dict(h.vertices) == {"p0": -1, "p2": -1}
    assert h.edges == (("p0", "p2"),)


def test_blow_down_leaf_and_isolated():
    g = path_graph(-1, -5)
    h = apply_move(g, Move("blowdown", ("p0",)))
    assert dict(h.vertices) == {"p1": -4}
    lone = PlumbingGraph.build({"x": -1})
    assert apply_move(lone, Move("blowdown", ("x",))).is_empty


def test_blow_down_positive_weight():
    g = path_graph(3, 1, 4)
    h = apply_move(g, Move("blowdown", ("p1",)))
    assert dict(h.vertices) == {"p0": 2, "p2": 3}
    assert h.edges == (("p0", "p2"),)


def test_blow_down_first_step_on_d3(fixtures):
    h = apply_move(fixtures["d3"], Move("blowdown", ("c",)))
    assert h.weight("b") == -5
    assert h.weight("d") == -1
    assert h.has_edge("b", "d")
    assert abs(determinant(linking_matrix(h))) == 1


def test_blow_down_errors(fixtures):
    with pytest.raises(MoveError):
        apply_move(path_graph(-2, -2), Move("blowdown", ("p0",)))  # wrong weight
    with pytest.raises(MoveError):
        apply_move(fixtures["d2"], Move("blowdown", ("c",)))  # valence 3


def test_cancel_zero_pair():
    g = PlumbingGraph.build({"a": -2, "b": 0}, [("a", "b")])
    assert apply_move(g, Move("cancel", ("a", "b"))).is_empty
    g = PlumbingGraph.build({"a": 7, "b": 0}, [("a", "b")])
    assert apply_move(g, Move("cancel", ("b", "a"))).is_empty  # weight-agnostic partner


def test_cancel_zero_pair_errors():
    g = PlumbingGraph.build({"a": -2, "b": -1}, [("a", "b")])
    with pytest.raises(MoveError):
        apply_move(g, Move("cancel", ("a", "b")))  # no 0-weight endpoint
    g = path_graph(-2, 0, -3)
    with pytest.raises(MoveError):
        apply_move(g, Move("cancel", ("p0", "p1")))  # not a whole component


def test_cancel_only_on_whole_component_not_sub_edge():
    # a 0-weight leaf inside a bigger component must not be cancellable
    g = path_graph(0, -2, 0)
    moves = applicable_moves(g)
    assert all(m.kind != "cancel" for m in moves)


def test_absorb_zero():
    g = PlumbingGraph.build(
        {"a": -2, "u": 3, "x": 0, "w": -5, "b": -3, "c": -4},
        [("a", "u"), ("u", "x"), ("x", "w"), ("w", "b"), ("w", "c")],
    )
    h = apply_move(g, Move("absorb", ("x",)))
    assert dict(h.vertices) == {"a": -2, "u": -2, "b": -3, "c": -4}
    assert h.edges == (("a", "u"), ("b", "u"), ("c", "u"))
    with pytest.raises(MoveError):
        apply_move(g, Move("absorb", ("u",)))  # weight 3
    with pytest.raises(MoveError):
        apply_move(path_graph(0, -2), Move("absorb", ("p0",)))  # a leaf: split it instead


def test_split_zero():
    g = PlumbingGraph.build(
        {"x": 0, "v": 7, "a": -2, "b": -3, "c": -4},
        [("x", "v"), ("v", "a"), ("v", "b"), ("b", "c")],
    )
    h = apply_move(g, Move("split", ("x",)))
    assert dict(h.vertices) == {"a": -2, "b": -3, "c": -4}
    assert h.edges == (("b", "c"),)
    pair = path_graph(0, 5)
    assert apply_move(pair, Move("split", ("p0",))).is_empty  # a whole pair, as cancel
    with pytest.raises(MoveError):
        apply_move(g, Move("split", ("a",)))  # weight -2
    with pytest.raises(MoveError):
        apply_move(path_graph(-2, 0, -2), Move("split", ("p1",)))  # valence 2: absorb it


def test_applicable_moves_order():
    # leaf blow-downs come before interior ones, cancels come last
    g = PlumbingGraph.build(
        {"a": -2, "b": -1, "c": -1, "x": 0, "y": 4},
        [("a", "b"), ("b", "c"), ("x", "y")],
    )
    moves = applicable_moves(g)
    assert [(m.kind, m.ids) for m in moves] == [
        ("blowdown", ("c",)),  # valence 1
        ("blowdown", ("b",)),  # valence 2
        ("cancel", ("x", "y")),
    ]


def test_apply_move_checks_recorded_weights():
    g = path_graph(-2, -1, -2)
    move = applicable_moves(g)[0]
    h = apply_move(g, Move("blowdown", ("p1",)))
    with pytest.raises(MoveError):
        apply_move(h, move)  # recorded against g, not h


@pytest.mark.parametrize(
    "move, fragment",
    [
        (Move("blowdown", ("a", "b")), "malformed move: blowdown with 2"),
        (Move("blowdown", ()), "malformed move: blowdown with 0"),
        (Move("absorb", ("a", "b")), "malformed move: absorb with 2"),
        (Move("split", ()), "malformed move: split with 0"),
        (Move("cancel", ("a",)), "malformed move: cancel with 1"),
        (Move("cancel", ("a", "b", "c")), "malformed move: cancel with 3"),
        (Move("blowup", (), weight=-1), "malformed move: blowup with 0"),
        (Move("blowup", ("z", "a", "b", "c"), weight=-1), "malformed move: blowup with 4"),
        (Move("blowup", ("z", "a")), "carries no weight"),
        (Move("blowup", ("z", "a"), weight=-1.0), "weight must be"),
        (Move("blowup", ("z", "a"), weight=True), "weight must be"),
        (Move("twist", ("a",)), "unknown move kind 'twist'"),
        (Move("blowup", ("a$", "p0"), weight=-1), "bad vertex id 'a\\$'"),
    ],
)
def test_malformed_moves_raise_move_error(move, fragment):
    g = path_graph(-2, -1, -2)
    with pytest.raises(MoveError, match=fragment):
        apply_move(g, move)


def test_public_moves_report_a_missing_vertex_as_a_move_error():
    g = PlumbingGraph.build({"a": 0, "b": -1}, [("a", "b")])
    for move in [
        Move("blowdown", ("zz",)),
        Move("absorb", ("zz",)),
        Move("split", ("zz",)),
        Move("cancel", ("a", "zz")),
    ]:
        with pytest.raises(MoveError, match=f"^cannot apply {move}: no vertex 'zz'$"):
            apply_move(g, move)
    with pytest.raises(MoveError, match="^malformed move: blowup with 4 vertex id"):
        blow_up(g, "z", -1, ("a", "b", "c"))


# -- traces --------------------------------------------------------------------


def test_trace_replay_and_serialization(fixtures):
    verdict, trace = reduce_to_s3(fixtures["d3"])
    assert verdict.status is Verdict.S3
    assert trace.replay().is_empty
    text = format_trace(trace, comments=["reduction trace"])
    start, moves = parse_trace(text)
    assert start == trace.start
    g = start
    for m in moves:
        g = apply_move(g, m)
    assert g == trace.end
    # a trace whose moves do not lead to its recorded end fails its replay
    with pytest.raises(MoveError, match="recorded end graph"):
        dataclasses.replace(trace, end=trace.start).replay()


def test_tampered_trace_fails():
    g = path_graph(-2, -1, -2)
    bogus = Move("blowdown", ("p0",))  # p0 has weight -2
    with pytest.raises(MoveError):
        apply_move(g, bogus)


# -- canonical form --------------------------------------------------------------


def test_canonical_form_relabel_invariance(fixtures):
    rng = random.Random(17)
    for g in (fixtures["d2"], fixtures["d3"], fixtures["e8"]):
        for _ in range(5):
            h = relabeled(g, random_relabeling(rng, g))
            assert canonical_form(h) == canonical_form(g)


def test_canonical_form_examples(fixtures):
    a = PlumbingGraph.build({"a": -2, "b": 0}, [("a", "b")])
    b = PlumbingGraph.build({"zz": 0, "q": -2}, [("zz", "q")])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(fixtures["d3"]) != canonical_form(fixtures["e8"])
    assert canonical_form(PlumbingGraph.build({}, [])) == ""


def test_canonical_form_distinguishes_weights_and_shape():
    assert canonical_form(path_graph(-2, -2)) != canonical_form(path_graph(-2, -3))
    # same multiset of weights, different tree shape
    star = PlumbingGraph.build(
        {"c": -2, "a": -3, "b": -3, "d": -3},
        [("c", "a"), ("c", "b"), ("c", "d")],
    )
    path = path_graph(-3, -3, -2, -3)
    assert canonical_form(star) != canonical_form(path)
    # forests with swapped component membership
    f1 = PlumbingGraph.build({"a": -2, "b": -3, "c": -4}, [("a", "b")])
    f2 = PlumbingGraph.build({"a": -2, "b": -3, "c": -4}, [("b", "c")])
    assert canonical_form(f1) != canonical_form(f2)


def test_canonical_form_deep_path():
    # deeper than the interpreter's recursion limit
    g = path_graph(*[-2] * 3000)
    h = relabeled(g, {v: f"q{i:04d}" for i, v in enumerate(reversed(g.ids))})
    form = canonical_form(g)
    assert form == canonical_form(h)
    assert form.count("(-2") == 3000


def test_canonical_form_random_relabeling():
    rng = random.Random(23)
    for _ in range(50):
        g = random_forest(rng, max_vertices=9)
        h = relabeled(g, random_relabeling(rng, g))
        assert canonical_form(h) == canonical_form(g)


def encode_rooted(g, root):
    """Code of root's tree rooted at root: a BFS order, then codes built
    children first."""
    adj, weight = g._adjacency, g._weight_map
    parent = {root: None}
    order = [root]
    for v in order:  # grows while iterated: a BFS
        for c in adj[v]:
            if c != parent[v]:
                parent[c] = v
                order.append(c)
    codes = {}
    for v in reversed(order):
        children = sorted([codes.pop(c) for c in adj[v] if c != parent[v]])
        codes[v] = f"({weight[v]}{''.join(children)})"
    return codes[root]


def tree_centers(g, comp):
    """The 1 or 2 central vertices of a tree, by repeated leaf stripping."""
    remaining = set(comp)
    degree = {v: sum(1 for n in g.neighbors(v) if n in comp) for v in comp}
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for n in g.neighbors(v):
                if n in remaining:
                    degree[n] -= 1
                    if degree[n] == 1:
                        nxt.append(n)
        layer = nxt
    return sorted(remaining)


def three_pass_form(g):
    """The oracle for canonical_form: split into components, find each
    tree's centers, encode the tree once per center and keep the smaller."""
    return "|".join(sorted(
        min(encode_rooted(g, c) for c in tree_centers(g, comp)) for comp in g.components()
    ))


def test_canonical_form_matches_three_pass_oracle(fixtures):
    rng = random.Random(4242)
    graphs = list(fixtures.values())
    graphs += [path_graph(*(rng.choice((-2, -1, 0, 3)) for _ in range(n))) for n in range(1, 41)]
    graphs += [random_forest(rng, max_vertices=m) for m in (3, 9, 25, 60) for _ in range(750)]
    shapes = {"isolated": 0, "pair": 0, "bicentral": 0, "forest": 0}
    for g in graphs:
        assert canonical_form(g) == three_pass_form(g)
        comps = g.components()
        shapes["isolated"] += any(len(c) == 1 for c in comps)
        shapes["pair"] += any(len(c) == 2 for c in comps)
        shapes["bicentral"] += any(len(c) > 2 and len(tree_centers(g, c)) == 2 for c in comps)
        shapes["forest"] += len(comps) > 1
    assert min(shapes.values()) >= 300, shapes


def brute_force_label(g):
    """The least image of g under every bijection of its ids onto 0..n-1:
    equal for two graphs iff an id permutation maps one onto the other."""
    best = None
    for perm in permutations(range(len(g))):
        pos = dict(zip(g.ids, perm))
        label = (
            tuple(w for _, w in sorted((pos[v], w) for v, w in g.vertices)),
            tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)),
        )
        if best is None or label < best:
            best = label
    return best


def test_canonical_form_separates_exactly_the_isomorphism_classes():
    # few weights and at most 6 vertices, so many graphs are isomorphic
    rng = random.Random(606)
    graphs = []
    for _ in range(400):
        ids = [f"v{i}" for i in range(rng.randint(1, 6))]
        rng.shuffle(ids)
        edges = [(v, ids[rng.randrange(i)]) for i, v in enumerate(ids) if i and rng.random() < 0.7]
        graphs.append(PlumbingGraph.build({v: rng.choice((-2, -1)) for v in ids}, edges))
    pairs = {(canonical_form(g), brute_force_label(g)) for g in graphs}
    forms = {form for form, _ in pairs}
    labels = {label for _, label in pairs}
    assert len(forms) == len(labels) == len(pairs)  # form <-> class, one to one
    assert len(pairs) < len(graphs) // 2


def test_canonical_form_makes_no_components_call(fixtures, monkeypatch):
    calls = []
    original = PlumbingGraph.components

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PlumbingGraph, "components", counted)
    rng = random.Random(31)
    for g in [*fixtures.values(), *(random_forest(rng, max_vertices=12) for _ in range(20))]:
        canonical_form(g)
    assert calls == []
    fixtures["d2"].components()
    assert calls == [fixtures["d2"]]  # the counter is live


# -- reducer ---------------------------------------------------------------------


def test_reduce_d4_one_move(fixtures):
    verdict, trace = reduce_to_s3(fixtures["d4"])
    assert verdict.status is Verdict.S3
    assert len(trace.moves) == 1
    assert trace.moves[0].kind == "cancel"


def test_reduce_d3_trace_passes_through_d4(fixtures):
    verdict, trace = reduce_to_s3(fixtures["d3"])
    assert verdict.status is Verdict.S3
    assert len(trace.moves) == 7
    g = trace.start
    seen = {canonical_form(g)}
    for m in trace.moves:
        g = apply_move(g, m)
        seen.add(canonical_form(g))
    assert canonical_form(fixtures["d4"]) in seen
    assert g.is_empty


def test_reduce_e8_unknown(fixtures):
    assert determinant(linking_matrix(fixtures["e8"])) == 1  # necessary...
    verdict, trace = reduce_to_s3(fixtures["e8"])
    assert verdict.status is Verdict.UNKNOWN  # ...but not sufficient
    assert verdict.budget_exhausted is False  # move space exhausted, not budget
    assert trace is None


def test_reduce_not_homology_sphere():
    verdict, trace = reduce_to_s3(PlumbingGraph.build({"a": -3}))
    assert verdict.status is Verdict.NOT_HOMOLOGY_SPHERE
    assert verdict.det_abs == 3
    assert str(verdict) == "NOT-HS(3)"
    assert trace is None


def test_reduce_trivial_cases():
    verdict, trace = reduce_to_s3(PlumbingGraph.build({}))
    assert verdict.status is Verdict.S3 and trace.moves == ()
    verdict, trace = reduce_to_s3(PlumbingGraph.build({"a": 1}))
    assert verdict.status is Verdict.S3 and len(trace.moves) == 1


def test_reduce_budget_exhaustion(fixtures):
    verdict, trace = reduce_to_s3(fixtures["d3"], budget=2)
    assert verdict.status is Verdict.UNKNOWN
    assert verdict.budget_exhausted is True
    # the pass visits at most budget diagrams, the start included
    assert len(_greedy_pass(fixtures["d3"], 2).moves) == 1
    assert len(_greedy_pass(fixtures["d3"], 8).moves) == 7
    assert len(_greedy_pass(fixtures["d3"], 7).moves) == 6
    with pytest.raises(DomainError):
        reduce_to_s3(fixtures["d3"], budget=0)
    with pytest.raises(DomainError, match="blow-up depth"):
        reduce_to_s3(fixtures["d3"], blow_up_depth=-1)
    # int only, as ScanParams and BrieskornTriple: a float or bool ran silently
    for kwargs in ({"budget": 2.5}, {"budget": True}, {"blow_up_depth": 0.5},
                   {"blow_up_depth": False}):
        with pytest.raises(DomainError, match="is not an integer"):
            reduce_to_s3(fixtures["d3"], **kwargs)


def test_reduce_is_deterministic(fixtures):
    a = reduce_to_s3(fixtures["d3"])
    b = reduce_to_s3(fixtures["d3"])
    assert a == b


# -- randomized move invariants ---------------------------------------------------


def chain_rewrite(g, v):
    """The chain rewrite at v: e - 1 blow-ups of -1 next to v bring its
    weight e to +1, and it is blown down."""
    moves, u = [], g.neighbors(v)[0]
    for i in range(g.weight(v) - 1):
        moves.append(Move("blowup", (f"r{i}", v, u), weight=-1))
        u = f"r{i}"
    return moves + [Move("blowdown", (v,))]


def zero_and_chain_moves(g):
    """Every absorption, split and chain rewrite of g, each as a move list."""
    out = []
    for v, w in g.vertices:
        k = g.valence(v)
        if w == 0 and k in (1, 2):
            out.append([Move("split" if k == 1 else "absorb", (v,))])
        elif w >= 2 and k in (1, 2):
            out.append(chain_rewrite(g, v))
    return out


def probe_moves(g):
    """Moves of every kind at every vertex, valid or not: cancels on every
    edge and on pairs with a missing or repeated vertex, and blow-ups with
    fresh, taken and malformed new ids, onto vertices, edges, non-edges and
    missing vertices."""
    ids = list(g.ids)
    moves = [Move(kind, (v,)) for v in [*ids, "zz"] for kind in ("blowdown", "absorb", "split")]
    moves += [Move("cancel", e) for e in g.edges]
    moves += [Move("cancel", (ids[0], v)) for v in (ids[0], ids[-1], "zz")]
    attachments = [(), *((v,) for v in ids), *g.edges, (ids[0], ids[-1]), (ids[0], "zz")]
    for new_id in ("new", ids[0], "a$"):
        moves += [Move("blowup", (new_id, *a), weight=w) for a in attachments for w in (-1, 1)]
    moves += [Move("blowup", ("new", ids[0]), weight=2), Move("blowup", ("new",))]
    moves += [Move("blowdown", (ids[0],), pre=((ids[0], 99),)), Move("split", (ids[0],), pre=())]
    return moves


def move_outcome(apply, g, move):
    """The graph the move gives, or the type and message of its error."""
    try:
        return apply(g, move)
    except (MoveError, DomainError) as e:
        return type(e), str(e)


def oracle_outcome(g, move):
    """The oracle's outcome, with the one change ``apply_move`` makes on
    purpose: a blow-up's malformed new id is a MoveError, raised before the
    graph is built, not the DomainError of ``PlumbingGraph.build``."""
    outcome = move_outcome(oracle_apply_move, g, move)
    if outcome == (DomainError, f"bad vertex id {move.ids[0]!r}"):
        return MoveError, f"bad vertex id {move.ids[0]!r} for a blow-up"
    return outcome


def test_moves_preserve_det_and_forest():
    rng = random.Random(20260101)
    kinds, probes = Counter(), Counter()
    while sum(kinds.values()) < 600 or min(kinds.values()) < 60:
        g = random_forest(rng, max_vertices=9)
        det_before = abs(determinant(linking_matrix(g)))
        for move in probe_moves(g):
            outcome = move_outcome(apply_move, g, move)
            assert outcome == oracle_outcome(g, move), move
            probes[outcome[0] if type(outcome) is tuple else "graph"] += 1
        for seq in [[m] for m in applicable_moves(g)] + zero_and_chain_moves(g):
            h = g
            for move in seq:
                h, expected = apply_move(h, move), oracle_apply_move(h, move)
                assert h == expected and h._adjacency == expected._adjacency
                # PlumbingGraph.build validated simplicity/forest; double-check
                # the forest relation explicitly
                assert len(h.edges) == len(h) - len(h.components())
                assert abs(determinant(linking_matrix(h))) == det_before
            kind = "chain" if len(seq) > 1 else seq[0].kind
            if kind == "cancel":
                u, v = seq[0].ids
                sub = [[g.weight(u), 1], [1, g.weight(v)]]
                assert abs(determinant(sub)) == 1
            if kind == "chain":
                # v becomes e - 1 vertices of weight -2; its neighbors drop by 1
                v = seq[-1].ids[0]
                assert len(h) == len(g) + g.weight(v) - 2
                assert all(h.weight(n) == g.weight(n) - 1 for n in g.neighbors(v))
            kinds[kind] += 1
    assert set(kinds) == {"blowdown", "cancel", "absorb", "split", "chain"}
    assert set(probes) == {"graph", MoveError} and min(probes.values()) > 1000, probes


# -- the greedy pass ------------------------------------------------------------------


def test_pass_reduces_whatever_the_search_reduces():
    rng = random.Random(8128)
    spheres = found = 0
    while spheres < 3000:
        g = random_forest(rng, max_vertices=8)
        if abs(determinant(linking_matrix(g))) != 1:
            continue
        spheres += 1
        trace = _greedy_pass(g, DEFAULT_BUDGET)
        assert trace.replay() == trace.end  # every pass trace replays
        ours = theirs = g  # move by move, as the oracle rebuilds each diagram
        for move in trace.moves:
            ours, theirs = apply_move(ours, move), oracle_apply_move(theirs, move)
            assert ours == theirs and ours._adjacency == theirs._adjacency
        assert ours == trace.end
        end = trace.end  # no move applies: chain weights are all <= -2
        assert all(w <= -2 for v, w in end.vertices if end.valence(v) <= 2)
        verdict, _ = _search(g, 5000, 0)
        if verdict.status is Verdict.S3:
            found += 1
            assert trace.end.is_empty, g
    assert found > 2500


def test_reducer_certifies_every_generated_s3_diagram():
    # the soundness corpus: diagrams built from the empty one by inverse moves
    kinds = Counter()
    for seed in (5, 11):
        rng = random.Random(seed)
        for _ in range(400):
            g = random_s3_diagram(rng, rng.randint(1, 40))
            verdict, trace = reduce_to_s3(g)
            assert verdict.status is Verdict.S3 and trace.end.is_empty, g
            kinds.update(move.kind for move in trace.moves)
    assert {"blowdown", "absorb", "split", "cancel"} <= set(kinds)


def test_pass_chain_rewrites_reversed_poincare_star_to_e8(fixtures):
    # -Sigma(2,3,5): center 1, leaves 2, 3, 5.  Each leaf of weight e
    # becomes e - 1 vertices of weight -2 and lowers the center by 1.
    g = PlumbingGraph.build(
        {"a": 2, "b": 3, "c": 5, "o": 1}, [("a", "o"), ("b", "o"), ("c", "o")]
    )
    trace = _greedy_pass(g, DEFAULT_BUDGET)
    assert [m.kind for m in trace.moves] == (
        ["blowup", "blowdown"] + ["blowup"] * 2 + ["blowdown"] + ["blowup"] * 4 + ["blowdown"]
    )
    assert canonical_form(trace.replay()) == canonical_form(fixtures["e8"])
    assert len(_greedy_pass(g, 4).moves) == 2  # the 3-leaf's rewrite would pass 4


def test_pass_never_empties_a_non_sphere():
    rng = random.Random(1729)
    checked = 0
    while checked < 1000:
        g = random_forest(rng, max_vertices=9)
        if abs(determinant(linking_matrix(g))) == 1:
            continue
        trace = _greedy_pass(g, DEFAULT_BUDGET)
        assert trace.replay() == trace.end
        assert not trace.end.is_empty
        assert reduce_to_s3(g)[0].status is Verdict.NOT_HOMOLOGY_SPHERE
        checked += 1


def random_blow_ups(rng, g, count):
    for j in range(count):
        eps = rng.choice((-1, 1))
        if g.is_empty or rng.random() < 0.2:
            g = blow_up(g, f"y{j}", eps)
        elif rng.random() < 0.5 or not g.edges:
            g = blow_up(g, f"y{j}", eps, (rng.choice(g.ids),))
        else:
            g = blow_up(g, f"y{j}", eps, rng.choice(g.edges))
    return g


def test_pass_on_blown_up_spheres_and_brieskorn_stars(fixtures):
    rng = random.Random(3141)
    for _ in range(300):  # blow-ups of the empty diagram: S^3
        g = random_blow_ups(rng, PlumbingGraph.build({}), rng.randint(5, 40))
        verdict, trace = reduce_to_s3(g)
        assert verdict.status is Verdict.S3 and trace.end.is_empty
    stars = [fixtures["e8"], fixtures["sigma-3-13-23"]]
    stars += [star_plumbing(brieskorn_seifert(BrieskornTriple(*t)))
              for t in ((2, 3, 7), (2, 5, 7), (3, 4, 5), (5, 9, 13))]
    for star in stars:
        for _ in range(40):  # never S^3, however blown up
            g = random_blow_ups(rng, star, rng.randint(0, 12))
            trace = _greedy_pass(g, DEFAULT_BUDGET)
            assert trace.replay() == trace.end
            assert not trace.end.is_empty
        assert reduce_to_s3(star, budget=200)[0].status is Verdict.UNKNOWN


# -- blow-ups (optional search depth) -----------------------------------------------


def lens_chain_2020():
    # |det| = 1 linear chain (a lens-space presentation of S^3) on which no
    # blow-down or cancellation applies
    return PlumbingGraph.build(
        {"a": 2, "b": 0, "c": 2, "d": 0},
        [("a", "b"), ("b", "c"), ("c", "d")],
    )


def test_blow_up_inverts_blow_down():
    from plumbcalc import blow_up

    rng = random.Random(555)
    rounds = 0
    for _ in range(400):
        g = random_forest(rng, max_vertices=8)
        eps = rng.choice((1, -1))
        kind = rng.randrange(3)
        if kind == 0:
            h = blow_up(g, "new", eps)
        elif kind == 1:
            v = rng.choice(g.ids)
            h = blow_up(g, "new", eps, (v,))
        else:
            if not g.edges:
                continue
            u, w = g.edges[rng.randrange(len(g.edges))]
            h = blow_up(g, "new", eps, (u, w))
        assert apply_move(h, Move("blowdown", ("new",))) == g
        assert abs(determinant(linking_matrix(h))) == abs(
            determinant(linking_matrix(g))
        )
        rounds += 1
    assert rounds > 300


def test_blow_up_errors():
    from plumbcalc import blow_up

    g = lens_chain_2020()
    with pytest.raises(MoveError):
        blow_up(g, "x", 2)  # weight not +-1
    with pytest.raises(MoveError):
        blow_up(g, "a", 1)  # id collision
    with pytest.raises(MoveError):
        blow_up(g, "x", 1, ("a", "c"))  # not an existing edge
    with pytest.raises(MoveError):
        blow_up(g, "x", 1, ("nope",))


def test_reducer_default_depth_reduces_lens_chain():
    g = lens_chain_2020()
    assert determinant(linking_matrix(g)) == 1
    verdict, trace = reduce_to_s3(g)
    assert verdict.status is Verdict.S3
    assert [str(m) for m in trace.moves] == ["split d", "cancel a b"]
    assert trace.replay().is_empty


def test_reducer_with_blow_up_depth_reduces_lens_chain():
    g = lens_chain_2020()
    # the breadth-first search needs a blow-up: depth 0 exhausts its space
    verdict, trace = _search(g, DEFAULT_BUDGET, 0)
    assert verdict.status is Verdict.UNKNOWN
    assert verdict.budget_exhausted is False
    verdict, trace = _search(g, DEFAULT_BUDGET, 1)
    assert verdict.status is Verdict.S3
    assert sum(1 for m in trace.moves if m.kind == "blowup") == 1
    assert trace.replay().is_empty
    # trace file round-trip including the blowup verb
    text = format_trace(trace)
    start, moves = parse_trace(text)
    h = start
    for m in moves:
        h = apply_move(h, m)
    assert h.is_empty


def test_blow_up_search_on_e8(fixtures):
    # bounded depth keeps the space finite: a generous budget exhausts it
    # honestly (the Poincare sphere never reduces), while a tiny budget is
    # reported as a budget stop
    verdict, _ = reduce_to_s3(fixtures["e8"], budget=5000, blow_up_depth=1)
    assert verdict.status is Verdict.UNKNOWN
    assert verdict.budget_exhausted is False
    verdict, _ = reduce_to_s3(fixtures["e8"], budget=10, blow_up_depth=1)
    assert verdict.status is Verdict.UNKNOWN
    assert verdict.budget_exhausted is True


def test_search_stops_expanding_once_its_budget_is_full(fixtures, monkeypatch):
    # once a state is turned away, nothing more can be admitted
    expanded = []
    moves = _Diagram.moves
    monkeypatch.setattr(_Diagram, "moves", lambda self: expanded.append(1) or moves(self))
    verdict, trace = reduce_to_s3(fixtures["e8"], budget=300, blow_up_depth=2)
    assert verdict.status is Verdict.UNKNOWN and verdict.budget_exhausted is True
    assert trace is None and len(expanded) < 300


def recorded(moves):
    return [(str(m), m.pre) for m in moves]


def search_outcome(result):
    verdict, trace = result
    return str(verdict), verdict.budget_exhausted, trace and recorded(trace.moves)


def test_search_matches_the_graph_state_oracle(fixtures):
    stars = [star_plumbing(brieskorn_seifert(BrieskornTriple(*t)))
             for t in ((2, 3, 7), (2, 5, 7), (3, 4, 5))]
    for g in [*fixtures.values(), lens_chain_2020(), *stars]:
        for depth in (0, 1, 2):
            for budget in (10, 300):
                ours = search_outcome(_search(g, budget, depth))
                assert ours == search_outcome(oracle_search(g, budget, depth)), (g, depth, budget)
    rng = random.Random(4096)
    for _ in range(30):
        g = random_forest(rng, max_vertices=8)
        assert recorded(applicable_moves(g)) == recorded(oracle_applicable_moves(g))
        assert recorded(blow_up_moves(g)) == recorded(oracle_blow_up_moves(g))
        for depth in (0, 1):
            ours = search_outcome(_search(g, 300, depth))
            assert ours == search_outcome(oracle_search(g, 300, depth)), (g, depth)
