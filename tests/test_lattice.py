import random
from itertools import combinations

import pytest

from conftest import random_forest, random_relabeling
from plumbcalc import (
    DomainError,
    PlumbingGraph,
    SingularError,
    determinant,
    linking_matrix,
    mu_bar,
    rohlin_mu_bar,
    signature,
    wu_class,
)
from plumbcalc.lattice import _diagonalize


def brute_force_wu(g):
    """All subsets S with sum_{u in S} A[v,u] = A[v,v] (mod 2) for every v,
    found by exhaustive search over the 2^n subsets."""
    m = linking_matrix(g)
    n = len(m)
    solutions = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            if all(
                sum(m.entries[v][u] for u in chosen) % 2 == m.entries[v][v] % 2
                for v in range(n)
            ):
                solutions.append(frozenset(m.index[i] for i in combo))
    return solutions


def two_vertex_graph():
    return PlumbingGraph.build({"a": -2, "b": 0}, [("a", "b")])


def test_linking_matrix_examples(fixtures):
    m = linking_matrix(two_vertex_graph())
    assert m.entries == ((-2, 1), (1, 0))
    single = linking_matrix(PlumbingGraph.build({"x": 7}))
    assert single.entries == ((7,),)
    d2 = linking_matrix(fixtures["d2"])
    assert tuple(d2.entries[i][i] for i in range(9)) == (-1, -3, -2, -7, -2, -3, -2, -2, -2)
    for i in range(9):
        for j in range(9):
            assert d2.entries[i][j] == d2.entries[j][i]


def test_determinant_examples(fixtures):
    assert determinant([[-2, 1], [1, 0]]) == -1
    assert determinant(linking_matrix(fixtures["e8"])) == 1
    assert abs(determinant(linking_matrix(fixtures["d2"]))) == 1
    assert determinant([]) == 1
    assert determinant([[0]]) == 0


def test_signature_examples(fixtures):
    assert signature(linking_matrix(fixtures["e8"])) == -8
    assert signature([]) == 0
    assert signature([[-2, 1], [1, 0]]) == 0
    assert signature([[0, 1], [1, 0]]) == 0  # hyperbolic pivot path
    assert signature([[3]]) == 1
    assert signature([[0]]) == 0


def test_bareiss_and_diagonalization_agree():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(0, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-5, 5)
        sig, det = _diagonalize(a)
        assert det == determinant(a)
        # signature and determinant sign must be consistent
        if det != 0:
            negatives = (n - sig) // 2
            assert (-1) ** negatives == (1 if det > 0 else -1)


def test_signature_is_congruence_invariant():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
        # random integer unimodular congruence: shears and sign flips
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    p[k][i] += c * p[k][j]
        b = [
            [
                sum(p[k][i] * a[k][l] * p[l][j] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert signature(b) == signature(a)
        assert abs(determinant(b)) == abs(determinant(a))


def test_wu_class_examples(fixtures):
    assert wu_class(fixtures["e8"]) == frozenset()  # all weights even
    g = two_vertex_graph()
    solutions = brute_force_wu(g)
    assert len(solutions) == 1
    assert wu_class(g) == solutions[0] == frozenset()
    d2 = fixtures["d2"]
    solutions = brute_force_wu(d2)  # 2^9 subsets
    assert len(solutions) == 1
    assert wu_class(d2) == solutions[0]


def test_wu_class_matches_brute_force_random():
    rng = random.Random(314)
    checked = 0
    for _ in range(2000):
        g = random_forest(rng, max_vertices=8)
        det = determinant(linking_matrix(g))
        if det % 2 == 0:
            with pytest.raises(SingularError):
                wu_class(g)
            continue
        solutions = brute_force_wu(g)
        assert len(solutions) == 1
        assert wu_class(g) == solutions[0]
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def test_wu_class_even_determinant():
    with pytest.raises(SingularError):
        wu_class(PlumbingGraph.build({"a": 0}))


def test_mu_bar_examples(fixtures):
    assert mu_bar(fixtures["e8"]) == -8  # Wu class empty, signature -8
    assert mu_bar(fixtures["d2"]) == -8  # signature -9, Wu class {c} of weight -1
    assert mu_bar(fixtures["d2"]) // 8 % 2 == 1
    assert (mu_bar(fixtures["sigma-3-13-23"]) // 8) % 2 == 1


def test_van_der_blij_divisibility_random():
    # sigma = w.Aw (mod 8) is van der Blij's theorem for unimodular forms,
    # so the divisibility suite runs over |det| = 1 forests
    rng = random.Random(2718)
    checked = 0
    for _ in range(30000):
        g = random_forest(rng, max_vertices=9)
        if abs(determinant(linking_matrix(g))) != 1:
            continue
        assert mu_bar(g) % 8 == 0  # mu_bar itself would raise otherwise
        checked += 1
        if checked == 60:
            break
    assert checked == 60


def test_mu_bar_needs_unimodularity_not_just_odd_det():
    # odd but non-unit determinant: the characteristic subset exists, but
    # sigma - w.Aw need not be divisible by 8; the clean counterexample is
    # the path (-2)-(-2) with det 3, sigma -2, empty Wu class
    g = PlumbingGraph.build({"a": -2, "b": -2}, [("a", "b")])
    assert determinant(linking_matrix(g)) == 3
    assert wu_class(g) == frozenset()
    from plumbcalc import ParityError

    with pytest.raises(ParityError):
        mu_bar(g)


def test_rohlin_mu_bar(fixtures):
    assert rohlin_mu_bar(fixtures["e8"]) == 1  # Poincare sphere
    assert rohlin_mu_bar(fixtures["d2"]) == 1
    assert rohlin_mu_bar(fixtures["sigma-3-13-23"]) == 1
    assert rohlin_mu_bar(two_vertex_graph()) == 0  # S^3 itself
    with pytest.raises(DomainError):
        rohlin_mu_bar(PlumbingGraph.build({"a": -3}))
    with pytest.raises(DomainError):
        rohlin_mu_bar(PlumbingGraph.build({"a": 0}))


def test_mu_bar_eliminates_once(fixtures, monkeypatch):
    from plumbcalc import lattice

    calls = []
    for name in ("linking_matrix", "_diagonalize", "_gf2_solve"):
        original = getattr(lattice, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(lattice, name, counted)
    for fn in (mu_bar, rohlin_mu_bar):
        calls.clear()
        fn(fixtures["d2"])
        assert sorted(calls) == ["_diagonalize", "_gf2_solve", "linking_matrix"]


def test_invariants_are_relabeling_invariant(fixtures):
    rng = random.Random(1234)
    graphs = [fixtures["d2"], fixtures["e8"]]
    for _ in range(10):
        graphs.append(random_forest(rng, max_vertices=9))
    for g in graphs:
        mapping = random_relabeling(rng, g)
        h = g.relabeled(mapping)
        det = determinant(linking_matrix(g))
        assert determinant(linking_matrix(h)) == det
        assert signature(linking_matrix(h)) == signature(linking_matrix(g))
        if det % 2:
            assert wu_class(h) == frozenset(mapping[v] for v in wu_class(g))
        if abs(det) == 1:
            assert mu_bar(h) == mu_bar(g)


def test_fixture_documented_properties(fixtures):
    # every shipped fixture parses and has the det / Rohlin values its
    # header documents; d3 and d4 present S^3 (mu 0), the rest are the
    # mu = 1 spheres (e8 = Poincare)
    expected = {
        # name: (vertices, det, rohlin)
        "d2": (9, -1, 1),
        "d3": (8, -1, 0),
        "d4": (2, -1, 0),
        "e8": (8, 1, 1),
        "sigma-3-13-23": (9, -1, 1),
    }
    for name, (n, det, rohlin) in expected.items():
        g = fixtures[name]
        assert len(g) == n
        assert determinant(linking_matrix(g)) == det
        assert rohlin_mu_bar(g) == rohlin
