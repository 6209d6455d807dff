"""Weighted plumbing graphs.

A plumbing graph here is a finite simple weighted forest: vertices carry
integer surgery weights, edges are unordered pairs, and every connected
component is a tree.  Vertex ids are opaque string tokens; everything that
matters mathematically is invariant under relabeling, but deterministic
output (matrices, file formats, search order) always sorts by id.

Instances are immutable; the calculus edits a private mutable copy of a
graph's weights and adjacency, and builds a new graph from it when done.
Every invariant is checked in one place, the incremental ``_ForestBuilder``
below: the PlumbingGraph constructor feeds it a whole graph and the graphio
parser feeds it one line at a time, so any PlumbingGraph in hand is a
genuine simple forest.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError

__all__ = ["PlumbingGraph", "VERTEX_ID_RE"]

# Ids must survive the line-oriented file format and DOT export unquoted.
VERTEX_ID_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")


@dataclass(frozen=True)
class PlumbingGraph:
    """Immutable simple weighted forest.

    ``vertices`` is a tuple of (id, weight) pairs sorted by id; ``edges`` is
    a tuple of (u, v) pairs with u < v, sorted.  The constructor takes the
    pairs in any order, raises DomainError unless they make a simple forest
    with well-formed ids, and stores them sorted.
    """

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        forest = _ForestBuilder()
        for v, w in _pairs(self.vertices, "vertices"):
            forest.add_vertex(v, w)
        for u, v in _pairs(self.edges, "edges"):
            forest.add_edge(u, v)
        object.__setattr__(self, "vertices", tuple(sorted(forest.weights.items())))
        object.__setattr__(self, "edges", tuple(sorted(forest.edges)))

    @classmethod
    def build(cls, weights, edges=()) -> "PlumbingGraph":
        """Create a graph from a {id: weight} mapping and an iterable of
        edge pairs; the constructor checks and sorts them."""
        if not isinstance(weights, Mapping):
            raise DomainError(f"weights must be a mapping of id to weight, got {weights!r}")
        return cls(tuple(weights.items()), edges)

    # -- accessors ---------------------------------------------------------

    @cached_property
    def _weight_map(self) -> dict[str, int]:
        return dict(self.vertices)

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v, _ in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def weight(self, v: str) -> int:
        try:
            return self._weight_map[v]
        except KeyError:
            raise DomainError(f"no vertex {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self._weight_map:
            raise DomainError(f"no vertex {v!r}")
        return self._adjacency[v]

    def valence(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adjacency.get(u, ())

    def components(self) -> tuple[frozenset[str], ...]:
        """Connected components as vertex-id sets, sorted by smallest id."""
        seen: set[str] = set()
        comps = []
        for v, _ in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(self._adjacency[x])
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(sorted(comps, key=min))


def _pairs(entries, what: str):
    """The entries, each checked to be a pair; DomainError names the first
    entry that is not, or entries itself when it is not iterable."""
    for entry in entries if hasattr(entries, "__iter__") else [entries]:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise DomainError(f"{what} must be pairs, got {entry!r}")
        yield entry


def _check_id(v) -> None:
    if not isinstance(v, str) or not VERTEX_ID_RE.match(v):
        raise DomainError(f"bad vertex id {v!r}")


class _ForestBuilder:
    """Incremental validator of the PlumbingGraph invariants.  Each add
    checks what it could break and raises DomainError naming the offending
    id(s), so a caller adding one item at a time knows which item failed."""

    def __init__(self):
        self.weights: dict[str, int] = {}
        self.edges: list[tuple[str, str]] = []
        self._parent: dict[str, str] = {}  # union-find for the forest check

    def _find(self, x: str) -> str:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def add_vertex(self, v: str, w) -> None:
        _check_id(v)
        if v in self.weights:
            raise DomainError(f"duplicate vertex id {v!r}")
        if type(w) is not int:  # int() would truncate a float and take a bool
            raise DomainError(f"weight {w!r} is not an integer")
        self.weights[v] = w
        self._parent[v] = v

    def add_edge(self, u: str, v: str) -> None:
        for x in (u, v):
            if not isinstance(x, str) or x not in self.weights:  # a list id is unhashable
                _check_id(x)
                raise DomainError(f"unknown vertex {x!r}")
        if u == v:
            raise DomainError(f"loop edge at {u!r}")
        e = (u, v) if u < v else (v, u)
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            # A parallel edge closes a cycle too; search the list only to name it.
            if e in self.edges:
                raise DomainError(f"parallel edge ({u!r}, {v!r})")
            raise DomainError(f"edge ({u!r}, {v!r}) closes a cycle (graph must be a forest)")
        self._parent[ru] = rv
        self.edges.append(e)
