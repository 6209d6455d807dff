import dataclasses
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import path_graph, random_forest, random_relabeling, relabeled
from plumbcalc import (
    BrieskornTriple,
    DomainError,
    LinkingMatrix,
    PlumbingGraph,
    SingularError,
    brieskorn_seifert,
    determinant,
    linking_matrix,
    mu_bar,
    reduce_to_s3,
    rohlin_from_signature,
    rohlin_mu_bar,
    signature,
    star_plumbing,
    wu_class,
)
from plumbcalc import lattice
from plumbcalc.lattice import _diagonalize, _forest_walk, _graph_walk


def sparse(a):
    """(diagonal, nonzero entries (i, j, x) above it) of a dense matrix, as
    tuples: the input form of _forest_walk, _diagonalize and LinkingMatrix."""
    n = len(a)
    return tuple(a[i][i] for i in range(n)), tuple(
        (i, j, a[i][j]) for i in range(n) for j in range(i + 1, n) if a[i][j]
    )


def walk_matrix(a):
    return _forest_walk(*sparse(a))


def fraction_walk(weights, edges):
    """(signature, det) of a symmetric matrix with forest support by the
    leaf-to-root walk over Fractions: a nonzero effective weight e is a
    pivot (parent weight -= b^2 / e), a zero one pairs with its parent as
    a hyperbolic block with det -b^2.  The oracle of the integer walk."""
    n = len(weights)
    adj = [[] for _ in range(n)]
    for i, j, b in edges:
        adj[i].append((j, b))
        adj[j].append((i, b))
    parent, link, seen, order = [-1] * n, [0] * n, [False] * n, []
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            k = len(order)
            order.append(root)
            while k < len(order):
                v = order[k]
                k += 1
                for u, b in adj[v]:
                    if not seen[u]:
                        seen[u], parent[u], link[u] = True, v, b
                        order.append(u)
    sig, det = 0, Fraction(1)
    eff = [Fraction(w) for w in weights]
    zero = [-1] * n
    for v in reversed(order):
        p, b = parent[v], link[v]
        if zero[v] >= 0:
            det *= -link[zero[v]] ** 2
        elif eff[v]:
            sig += 1 if eff[v] > 0 else -1
            det *= eff[v]
            if p >= 0:
                eff[p] -= b * b / eff[v]
        elif p >= 0 and zero[p] < 0:
            zero[p] = v
        else:
            det = Fraction(0)
    assert det.denominator == 1
    return sig, det.numerator


def bareiss(a):
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination with row pivoting, O(n^3), on a copy of ``a``: the oracle
    of the walk and of the diagonalization."""
    a = [list(row) for row in a]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def descartes_signature(a):
    """Signature of a symmetric integer matrix from its characteristic
    polynomial p(x) = det(xI - a), with no elimination: Faddeev-LeVerrier
    gives p's coefficients in integers (each trace divides exactly by k),
    and since every eigenvalue is real, Descartes' rule of signs counts
    them exactly: positive ones are the sign variations of p(x), negative
    ones those of p(-x), zero coefficients skipped."""
    n = len(a)
    coeffs = [1]  # c_n, c_(n-1), ..., c_0 of p
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = a M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(a M_k) / k
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum(a[i][l] * m[l][i] for i in range(n) for l in range(n))
        assert trace % k == 0
        coeffs.append(-trace // k)

    def variations(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    flipped = [c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return variations(coeffs) - variations(flipped)


def brute_force_wu_indices(a):
    """All index subsets S with sum_{u in S} a[v][u] = a[v][v] (mod 2) for
    every v, found by exhaustive search over the 2^n subsets."""
    n = len(a)
    rows = [sum((x & 1) << j for j, x in enumerate(row)) for row in a]
    return [
        frozenset(combo)
        for size in range(n + 1)
        for combo in combinations(range(n), size)
        if all(
            (rows[v] & sum(1 << u for u in combo)).bit_count() % 2 == a[v][v] % 2
            for v in range(n)
        )
    ]


def brute_force_wu(g):
    """brute_force_wu_indices on g's linking matrix, as vertex-id sets."""
    m = linking_matrix(g)
    return [
        frozenset(m.index[i] for i in s) for s in brute_force_wu_indices(m.entries)
    ]


def dense_wu(a):
    """Dense Gauss-Jordan solve of a x = diag(a) over GF(2): the index set
    of the unique solution, or None when a is singular mod 2."""
    n = len(a)
    # Row i as a bitmask over columns, with the RHS parity in bit n.
    work = []
    for i in range(n):
        bits = 0
        for j in range(n):
            if a[i][j] % 2:
                bits |= 1 << j
        bits |= (a[i][i] % 2) << n
        work.append(bits)
    pivot_row_of_col = {}
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, n):
            if work[i] >> col & 1:
                sel = i
                break
        if sel is None:
            return None
        work[r], work[sel] = work[sel], work[r]
        for i in range(n):
            if i != r and work[i] >> col & 1:
                work[i] ^= work[r]
        pivot_row_of_col[col] = r
        r += 1
    return frozenset(col for col in range(n) if work[pivot_row_of_col[col]] >> n & 1)


def random_forest_matrix(rng, max_vertices):
    """Symmetric integer matrix whose off-diagonal support is a random
    forest: zero and odd/even weights, isolated vertices, and links other
    than 1."""
    n = rng.randint(0, max_vertices)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.choice((-4, -3, -2, -2, -1, 0, 0, 0, 1, 2, 3))
        if i and rng.random() < 0.8:
            j = rng.randrange(i)
            a[i][j] = a[j][i] = rng.choice((1, 1, 1, -1, 2, -2, 3))
    order = list(range(n))
    rng.shuffle(order)  # so parents are not always the lower index
    return [[a[i][j] for j in order] for i in order]


def two_vertex_graph():
    return PlumbingGraph.build({"a": -2, "b": 0}, [("a", "b")])


def test_linking_matrix_examples(fixtures):
    m = linking_matrix(two_vertex_graph())
    assert (m.weights, m.edges) == ((-2, 0), ((0, 1, 1),))
    assert m.entries == ((-2, 1), (1, 0))
    twin = LinkingMatrix(("a", "b"), (-2, 0), ((0, 1, 1),))
    assert m == twin and hash(m) == hash(twin)
    with pytest.raises(DomainError) as info:
        dataclasses.replace(m, weights=(-2, 0.5))
    assert str(info.value) == "matrix weights are not a tuple of ints"
    single = linking_matrix(PlumbingGraph.build({"x": 7}))
    assert single.entries == ((7,),)
    d2 = linking_matrix(fixtures["d2"])
    assert len(d2) == len(fixtures["d2"]) == 9
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


def gamma_style_matrix(rng):
    """A random star with arms of weight -1..-4 and links +-1, plus one
    -1-framed vertex linking two of its vertices with signs +-1: one cycle,
    the shape of the augmented gamma-handle diagrams."""
    arms = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    n = 1 + sum(arms) + 1
    a = [[0] * n for _ in range(n)]
    a[0][0] = rng.randint(-3, 1)
    k = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            a[k][k] = rng.randint(-4, -1)
            a[k][prev] = a[prev][k] = rng.choice((1, -1))
            prev, k = k, k + 1
    i, j = rng.sample(range(n - 1), 2)
    a[-1][-1] = -1
    a[-1][i] = a[i][-1] = 1
    a[-1][j] = a[j][-1] = rng.choice((1, -1))
    return a


def zero_cycle(rng):
    """A cycle of 3-7 vertices with zero diagonal and links +-1, +-2."""
    n = rng.randint(3, 7)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i - 1] = a[i - 1][i] = rng.choice((1, -1, 2, -2))
    return a


def test_bareiss_and_diagonalization_agree():
    # det against Bareiss, signature against the characteristic polynomial
    rng = random.Random(99)
    cases = []
    for _ in range(150):
        n = rng.randint(0, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-5, 5)
        cases.append(a)
    cases += [gamma_style_matrix(rng) for _ in range(150)]
    cases += [zero_cycle(rng) for _ in range(50)]
    dets = set()
    for a in cases:
        sig, det = _diagonalize(*sparse(a))
        assert det == bareiss(a)
        assert sig == signature(a) == descartes_signature(a)
        dets.add(det)
        # signature and determinant sign must be consistent
        if det != 0:
            negatives = (len(a) - sig) // 2
            assert (-1) ** negatives == (1 if det > 0 else -1)
    assert {0, 1, -1} < dets and len(dets) > 20


def record_calls(monkeypatch, *names):
    """Wrap the named lattice functions; return the list their calls append
    their names to."""
    calls = []
    for name in names:
        original = getattr(lattice, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(lattice, name, counted)
    return calls


def test_diagonalize_long_cycles():
    # the heap's pivots through 60-vertex cycles, against Bareiss; a -3
    # cycle is negative definite (eigenvalues -3 + 2 cos t)
    rng = random.Random(60)
    for weights in ([-3] * 60, [rng.choice((-2, 0, 0, 1, 2)) for _ in range(60)]):
        a = [[0] * 60 for _ in range(60)]
        for i, w in enumerate(weights):
            a[i][i] = w
            a[i][i - 1] = a[i - 1][i] = rng.choice((1, -1))
        sig, det = _diagonalize(*sparse(a))
        assert det == bareiss(a) != 0
        assert (-1) ** ((60 - sig) // 2) == (1 if det > 0 else -1)
        if weights == [-3] * 60:
            assert sig == -60


def test_matrix_routing(fixtures, monkeypatch):
    # forests walk and every other symmetric matrix diagonalizes; a
    # LinkingMatrix, graph-built or hand-built, is never read, and nested
    # rows are read once per call
    calls = record_calls(monkeypatch, "_read", "_forest_walk", "_diagonalize")
    rng = random.Random(17)
    for a in [gamma_style_matrix(rng) for _ in range(20)] + [zero_cycle(rng)]:
        calls.clear()
        assert determinant(a) == _diagonalize(*sparse(a))[1]
        signature(a)
        assert calls == ["_read", "_forest_walk", "_diagonalize"] * 2
        hand_built = LinkingMatrix(tuple(f"v{i}" for i in range(len(a))), *sparse(a))
        calls.clear()
        assert (signature(hand_built), determinant(hand_built)) == _diagonalize(*sparse(a))
        assert calls == ["_forest_walk", "_diagonalize"] * 2
    m = linking_matrix(fixtures["d2"])
    twin = LinkingMatrix(m.index, m.weights, m.edges)
    for a, read in ((m, []), (twin, []), ([list(r) for r in m.entries], ["_read"])):
        calls.clear()
        determinant(a), signature(a)
        assert calls == (read + ["_forest_walk"]) * 2


def test_graph_built_matrices_answer_as_read_ones(fixtures):
    rng = random.Random(25)
    graphs = list(fixtures.values()) + [random_forest(rng) for _ in range(200)]
    graphs += [star_plumbing(brieskorn_seifert(BrieskornTriple(*t)))
               for t in ((2, 3, 5), (3, 5, 1741), (2, 3, 2351))]
    assert len(graphs[-1]) == 399
    for g in graphs:
        m = linking_matrix(g)
        expected = _graph_walk(g)[:2]
        for a in (m, [list(r) for r in m.entries]):
            assert (signature(a), determinant(a)) == expected


BAD_EDGE = "matrix edges are not (i, j, x) ints, 0 <= i < j < 3, x != 0"


@pytest.mark.parametrize(
    "index, entries, message",  # entries: (weights, edges)
    [
        (("a",), ((1, 1), ()), "matrix index is not 2 distinct ids, one per row"),
        (("a", "a"), ((1, 1), ()), "matrix index is not 2 distinct ids, one per row"),
        (("a", "b"), ((1,), ()), "matrix index is not 1 distinct ids, one per row"),
        (["a"], ((1,), ()), "matrix index is not a tuple of str ids"),
        (("a", 2), ((1, 1), ()), "matrix index is not a tuple of str ids"),
        (("a",), ([1], ()), "matrix weights are not a tuple of ints"),
        (("a",), ((True,), ()), "matrix weights are not a tuple of ints"),
        (("a", "b"), ((1, 2.0), ()), "matrix weights are not a tuple of ints"),
        (("a", "b", "c"), ((1, 1, 1), [(0, 1, 1)]), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((1, 0, 1),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((1, 1, 1),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((0, 3, 1),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((-1, 1, 1),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((0, 1, 0),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((0, 1, True),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((0, 1),)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ([0, 1, 1],)), BAD_EDGE),
        (("a", "b", "c"), ((1, 1, 1), ((0, 2, 1), (0, 1, 1))),
         "matrix edges are not sorted, each pair once"),
        (("a", "b", "c"), ((1, 1, 1), ((0, 1, 1), (0, 1, 1))),
         "matrix edges are not sorted, each pair once"),
        (("a", "b", "c"), ((1, 1, 1), ((0, 1, 2), (0, 1, 1))),
         "matrix edges are not sorted, each pair once"),
    ],
)
def test_linking_matrix_index_names_each_row_once(index, entries, message):
    # the constructor checks the index, the weights and the edges
    with pytest.raises(DomainError) as info:
        LinkingMatrix(index, *entries)
    assert str(info.value) == message


def test_forest_walk_agrees_with_dense_routes():
    rng = random.Random(2024)
    odd = 0
    for _ in range(3000):
        a = random_forest_matrix(rng, max_vertices=10)
        sig, det, wu = walk_matrix(a)
        assert (sig, det) == fraction_walk(*sparse(a))
        assert det == determinant(a) == bareiss(a)
        assert sig == signature(a) == _diagonalize(*sparse(a))[0]
        assert wu == dense_wu(a)
        if len(a) <= 8:
            solutions = brute_force_wu_indices(a)
            if det % 2:
                assert solutions == [wu]
            else:
                assert len(solutions) != 1
        odd += det % 2
    assert 500 < odd < 2500  # both the Wu and the singular branches ran


@pytest.mark.parametrize(
    "weights, det, sig",
    [
        ((0, 0), -1, 0),
        ((0, 2, 0), 0, 0),
        ((0, 0, 0), 0, 0),
        ((0, 0, 0, 0), 1, 0),
        ((2, 0, 2, 0), 1, 0),
        ((0, -1, 0, 3, 0), 0, 0),
        ((1, 0, 1, 0, 1), 3, 1),
    ],
)
def test_zero_weight_chains(weights, det, sig):
    # zero effective weights pair with their parent as hyperbolic blocks
    g = path_graph(*weights)
    a = [list(row) for row in linking_matrix(g).entries]
    assert (det, sig) == (bareiss(a), _diagonalize(*sparse(a))[0])
    assert (determinant(a), signature(a)) == (det, sig)
    walked_sig, walked_det, wu = _graph_walk(g)
    assert (walked_det, walked_sig) == (det, sig)
    expected = dense_wu(a)
    assert wu == (None if expected is None else frozenset(g.ids[i] for i in expected))


def test_zero_centred_stars():
    leaves = {"x": -2, "y": -2, "z": -2}
    g = PlumbingGraph.build({"c": 0, **leaves}, [("c", v) for v in leaves])
    assert _graph_walk(g)[:2] == (-2, -12)
    g = PlumbingGraph.build({"c": 0, "x": 0, "y": 0, "z": -2}, [("c", v) for v in "xyz"])
    assert _graph_walk(g) == (-1, 0, None)  # {c, x} hyperbolic, y isolated
    assert determinant(linking_matrix(g)) == 0


@pytest.mark.parametrize(
    "weights, edges, sig, det",
    [
        # z = 1 over two 2-leaves has effective weight 0 and den 4; its
        # partner, the root 3, has a 3-leaf (den 3): det = -1 * 4 * 3
        ([3, 1, 3, 2, 2], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1)], 3, -12),
        # the same block below a root -5, with link 2 to the zero child:
        # det = -4 * 4 * 3 * -5
        ([-5, 3, 1, 3, 2, 2], [(0, 1, 1), (1, 2, 2), (1, 3, 1), (2, 4, 1), (2, 5, 1)],
         2, 240),
        # the partner is the root 0 with two -3-leaves (den 9): det = -1 * 4 * 9
        ([0, 1, 2, 2, -3, -3], [(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 4, 1), (0, 5, 1)],
         0, -36),
        # z = -2 over leaves -2, -2, -1 has den -4, link 3 to the root 4
        # with a 5-leaf (den 5): det = -9 * -4 * 5
        ([4, -2, -2, -2, -1, 5],
         [(0, 1, 3), (1, 2, 1), (1, 3, 1), (1, 4, 1), (0, 5, 1)], -2, 180),
        # two zero children of one vertex: one pairs, the other is singular
        ([1, 1, 2, 2, 0], [(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 4, 1)], 2, 0),
    ],
)
def test_zero_pairs_with_non_unit_children(weights, edges, sig, det):
    a = [[0] * len(weights) for _ in weights]
    for i, w in enumerate(weights):
        a[i][i] = w
    for i, j, b in edges:
        a[i][j] = a[j][i] = b
    assert fraction_walk(weights, edges) == (sig, det)
    assert bareiss(a) == det
    assert _diagonalize(weights, edges) == (sig, det)
    walked = _forest_walk(weights, edges)
    assert walked[:2] == (sig, det)
    assert walked[2] == (None if det % 2 == 0 else dense_wu(a))


def test_non_forest_matrices_fall_back():
    triangle_and_point = [
        [-2, 1, 1, 0],
        [1, -2, 1, 0],
        [1, 1, -2, 0],
        [0, 0, 0, 5],
    ]
    assert _forest_walk([-2, -2, -2, 5], [(0, 1, 1), (0, 2, 1), (1, 2, 1)]) is None
    assert walk_matrix(triangle_and_point) is None  # 3 edges on 4 vertices, a cycle
    assert determinant(triangle_and_point) == 0
    assert signature(triangle_and_point) == -1  # eigenvalues 0, -3, -3, 5
    dense = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert walk_matrix(dense) is None
    assert determinant(dense) == 4 and signature(dense) == 3


def test_non_symmetric_matrices():
    # determinant and signature share one contract: square, symmetric, ints
    for m in ([[1, 2], [0, 1]], [[2, 1], [3, 4]], [[0, 1], [0, 0]]):
        for fn in (determinant, signature):
            with pytest.raises(DomainError) as info:
                fn(m)
            assert str(info.value) == "matrix is not symmetric"


@pytest.mark.parametrize(
    "fn, m", [(determinant, [[1.5]]), (signature, [[0.4]]), (determinant, [["3"]]),
              (signature, [[1, 2.0], [2, 1]])],
)
def test_entries_must_be_ints(fn, m):
    with pytest.raises(DomainError, match="is not an int"):
        fn(m)


@pytest.mark.parametrize("fn", [determinant, signature])
@pytest.mark.parametrize(
    "m, message",
    [
        ([[1, 2], [2]], "matrix is not square"),
        ([[1, 0, 2], [0, 1, 0], [2]], "matrix is not square"),
        ([[1, 2], [3]], "matrix is not square"),  # short and not symmetric
        ([[1, 2], [1, 2, 3]], "matrix is not square"),
        ([[1, 0], [0, 1], [0, 0]], "matrix is not square"),
        ([[1, 2], [2, 1.0]], "matrix entry 1.0 is not an int"),
        ([[1, 2], [3, "x"]], "matrix entry 'x' is not an int"),  # and not symmetric
        ([[0, 1, 0], [1, 0, True], [0, 1, 0]], "matrix entry True is not an int"),
        ([[1, 2.5], [2]], "matrix entry 2.5 is not an int"),  # row by row
        ([[1, 2], [2, 1], [3]], "matrix is not square"),
        (5, "matrix is not a sequence of rows"),
        (None, "matrix is not a sequence of rows"),
        ([1, 2], "matrix is not a sequence of rows"),
    ],
)
def test_bad_matrices_raise_domain_error(fn, m, message):
    # rows are checked in order, each for its length and then its entries;
    # a mirror is looked up only in a row already checked
    with pytest.raises(DomainError) as info:
        fn(m)
    assert str(info.value) == message


def test_long_path_and_big_star_in_linear_time():
    # minutes on a dense cubic route; milliseconds on the forest walk
    path = path_graph(*[-2] * 3000)
    assert _graph_walk(path) == (-3000, 3001, frozenset())
    path_edges = [(i, i + 1, 1) for i in range(2999)]
    assert fraction_walk([-2] * 3000, path_edges) == (-3000, 3001)
    assert wu_class(path) == frozenset()
    assert reduce_to_s3(path)[0].det_abs == 3001
    t = BrieskornTriple(3, 5, 10007)
    star = star_plumbing(brieskorn_seifert(t))
    assert len(star) == 675
    m = linking_matrix(star)
    assert abs(determinant(m)) == 1
    assert signature(m) == -675
    sig_det = (-675, determinant(m))
    assert _graph_walk(star)[:2] == fraction_walk(m.weights, m.edges) == sig_det
    assert rohlin_mu_bar(star) == rohlin_from_signature(t) == 1


def test_linking_matrix_of_a_long_path_allocates_linear_memory():
    # the sparse form of a 3000-vertex path is some 0.5 MB; dense rows
    # would be 3000 tuples of 3000 entries, some 73 MB
    path = path_graph(*[-2] * 3000)
    tracemalloc.start()
    try:
        m = linking_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert (signature(m), determinant(m)) == (-3000, 3001)


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
    # one forest walk per call, and no dense matrix or dense elimination
    calls = record_calls(monkeypatch, "_forest_walk", "linking_matrix", "_diagonalize")
    for fn in (mu_bar, rohlin_mu_bar):
        calls.clear()
        fn(fixtures["d2"])
        assert calls == ["_forest_walk"]


def test_invariants_are_relabeling_invariant(fixtures):
    rng = random.Random(1234)
    graphs = [fixtures["d2"], fixtures["e8"]]
    for _ in range(10):
        graphs.append(random_forest(rng, max_vertices=9))
    for g in graphs:
        mapping = random_relabeling(rng, g)
        h = relabeled(g, mapping)
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
