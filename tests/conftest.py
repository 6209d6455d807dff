"""Shared fixtures and randomized-input helpers for the test suite.

All randomized sweeps use seeded random.Random instances so every run is
reproducible; no test depends on wall-clock or iteration order of sets.
"""

import random

import pytest

from plumbcalc import PlumbingGraph
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


@pytest.fixture(scope="session")
def fixtures():
    return {name: fixture_graph(name) for name in FIXTURE_NAMES}
