import pytest

from conftest import relabeled
from plumbcalc import DomainError, PlumbingGraph, format_graph


@pytest.mark.parametrize(
    "weights,edges,fragment",
    [
        ({"a$": -2}, [], "bad vertex id"),
        ({7: -2}, [], "bad vertex id"),
        ({"a": -2}, [("a", 7)], "bad vertex id 7"),
        ({"a": -2}, [("a", "z")], "unknown vertex 'z'"),
        ({"a": -2}, [("a", "a")], "loop edge"),
        ({"a": -2, "b": 1}, [("a", "b"), ("b", "a")], "parallel edge"),
        ({"a": -2, "b": -2, "c": -2}, [("a", "b"), ("b", "c"), ("a", "c")], "closes a cycle"),
        # weights are ints, never truncated or coerced to one
        ({"a": -1.5}, [], "weight -1.5 is not an integer"),
        ({"a": True}, [], "weight True is not an integer"),
        ({"a": "-2"}, [], "weight '-2' is not an integer"),
        # an edge is a pair, never a str read letter by letter
        ({"a": 1, "b": 2}, [("a",)], r"edges must be pairs, got \('a',\)"),
        ({"a": -2, "b": -2}, ["ab"], "edges must be pairs, got 'ab'"),
        ({"a": -2}, [(["a"], "a")], r"bad vertex id \['a'\]"),
    ],
)
def test_build_rejections(weights, edges, fragment):
    # the raw constructor checks what build checks
    for make in (PlumbingGraph.build, lambda ws, es: PlumbingGraph(tuple(ws.items()), tuple(es))):
        with pytest.raises(DomainError, match=fragment):
            make(weights, edges)


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda: PlumbingGraph((("a", 1, 2),), ()), r"vertices must be pairs, got \('a', 1, 2\)"),
        (lambda: PlumbingGraph(None, ()), "vertices must be pairs, got None"),
        (lambda: PlumbingGraph((("a", 1),), None), "edges must be pairs, got None"),
        (lambda: PlumbingGraph.build([("a", 1)]), "weights must be a mapping"),
        (lambda: PlumbingGraph.build({"a": 1}, 5), "edges must be pairs, got 5"),
    ],
)
def test_malformed_containers_raise_domain_error(make, fragment):
    with pytest.raises(DomainError, match=fragment):
        make()


def test_constructor_sorts_what_it_is_given():
    g = PlumbingGraph((("b", -1), ("a", -2)), (("b", "a"),))
    built = PlumbingGraph.build({"a": -2, "b": -1}, [("a", "b")])
    assert g == built and hash(g) == hash(built)
    assert g.vertices == (("a", -2), ("b", -1)) and g.edges == (("a", "b"),)
    assert format_graph(g) == "vertex a -2\nvertex b -1\nedge a b\n"


def test_has_edge():
    g = PlumbingGraph.build({"a": -2, "b": -2, "c": -2}, [("b", "a"), ("b", "c")])
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert not g.has_edge("a", "z") and not g.has_edge("z", "a")
    for accessor in (g.weight, g.neighbors):
        with pytest.raises(DomainError, match="no vertex 'z'"):
            accessor("z")


def test_relabeled_helper_rejects_maps_that_merge_or_drop_vertices():
    # a relabeling must be a bijection onto new ids: the invariance tests
    # compare g with relabeled(g, ...), so a merged or lost vertex would make
    # them compare two different graphs
    g = PlumbingGraph.build({"a": -1, "b": -2}, [("a", "b")])
    assert relabeled(g, {"a": "y", "b": "x"}) == PlumbingGraph.build(
        {"y": -1, "x": -2}, [("x", "y")]
    )
    with pytest.raises(AssertionError, match="not injective"):
        relabeled(PlumbingGraph.build({"a": -1, "b": -2}), {"a": "x", "b": "x"})
    with pytest.raises(AssertionError, match="misses a vertex id"):
        relabeled(g, {"a": "x"})
