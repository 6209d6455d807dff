"""Linking matrices of plumbing graphs and their exact invariants.

The linking (intersection) matrix of a plumbing graph has the vertex weights
on the diagonal and a 1 in position (i, j) exactly when vertices i and j are
joined by an edge.  All invariants here are computed in exact arithmetic; no
floating point anywhere:

* ``determinant``: |det| is the order of the boundary's first homology
  (|det| = 1 characterizes homology spheres).
* ``signature``: positive minus negative eigenvalue count.
* ``wu_class``: the characteristic vertex subset S with
  sum_{u in S} A[v,u] = A[v,v] (mod 2) for every v, solved over GF(2);
  unique exactly when det is odd.
* ``mu_bar``: signature(A) - w^T A w for the Wu indicator w; an integer
  lift of the Rohlin invariant for plumbed homology spheres.  When
  |det| = 1 divisibility by 8 is van der Blij's theorem; for odd |det| > 1
  it can fail (path (-2)-(-2): det 3, value -2), and mu_bar raises
  ParityError rather than return a value outside its contract.

Every plumbing graph is a forest, so all of these come from one O(n)
leaf-to-root walk (``_forest_walk``, W. Neumann, Trans. AMS 268, 1981): a
nonzero effective weight is a 1x1 pivot whose Schur complement lowers its
parent's weight, and a zero one pairs with its parent as a hyperbolic 2x2
block.  The walk keeps each effective weight as an integer pair
(num, den), so it needs no fractions.  The graph functions run it on the
graph itself and never build a matrix.

A ``LinkingMatrix`` holds a symmetric matrix of ints in sparse form, its
diagonal and its nonzero entries above it, so ``linking_matrix(g)`` and
``determinant`` and ``signature`` of it each cost O(n); nested rows are
first read and checked once, in O(n^2).  A matrix whose off-diagonal
support is a forest goes through the integer walk, any other through
sparse congruence diagonalization (``_diagonalize``), whose only step is
the 1x1 pivot: an all-zero diagonal first gets a unimodular congruence
that makes one diagonal entry nonzero.

The test suite holds the walk equal to a walk over Fractions, to Bareiss
elimination and to the diagonalization, the diagonalization's det equal to
Bareiss and its signature to Descartes' rule on the characteristic
polynomial, and the walk's Wu class to a dense GF(2) solve and brute-force
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import DomainError, ParityError, SingularError
from .graphs import PlumbingGraph

__all__ = [
    "LinkingMatrix",
    "linking_matrix",
    "determinant",
    "signature",
    "wu_class",
    "mu_bar",
    "rohlin_mu_bar",
]


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric integer matrix in sparse form, plus the vertex-id order of
    its rows: the diagonal ``weights`` and the nonzero entries ``edges``
    (i, j, x) above it, i < j, sorted, each pair once."""

    index: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        index, weights, edges = self.index, self.weights, self.edges
        if type(index) is not tuple or not all(type(v) is str for v in index):
            raise DomainError("matrix index is not a tuple of str ids")
        if type(weights) is not tuple or not {int}.issuperset(map(type, weights)):
            raise DomainError("matrix weights are not a tuple of ints")
        n = len(weights)
        if len(index) != n or len(set(index)) != n:
            raise DomainError(f"matrix index is not {n} distinct ids, one per row")
        if type(edges) is not tuple or not all(
            type(e) is tuple and len(e) == 3 and type(e[0]) is type(e[1]) is type(e[2]) is int
            and 0 <= e[0] < e[1] < n and e[2] for e in edges
        ):
            raise DomainError(f"matrix edges are not (i, j, x) ints, 0 <= i < j < {n}, x != 0")
        if any(e[:2] >= f[:2] for e, f in zip(edges, edges[1:])):
            raise DomainError("matrix edges are not sorted, each pair once")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built on each read in O(n^2) time and memory.
        Nothing in the library reads them; they serve callers that want the
        matrix as rows, such as the benchmark's augmented matrices."""
        rows = [[0] * len(self.weights) for _ in self.weights]
        for i, w in enumerate(self.weights):
            rows[i][i] = w
        for i, j, x in self.edges:
            rows[i][j] = rows[j][i] = x
        return tuple(map(tuple, rows))


def linking_matrix(g: PlumbingGraph) -> LinkingMatrix:
    """Linking matrix with rows/columns ordered by sorted vertex id, in
    O(n): g's sparse form, checked once more by the constructor."""
    return LinkingMatrix(g.ids, *_graph_form(g))


def _graph_form(g: PlumbingGraph):
    """g's linking matrix in sparse form, as tuples: the weights in id order
    and the edges (i, j, 1), i < j, sorted."""
    pos = {v: i for i, (v, _) in enumerate(g.vertices)}
    edges = tuple([(pos[u], pos[v], 1) for u, v in g.edges])
    return tuple([w for _, w in g.vertices]), edges


def _read(m):
    """Read a square, symmetric nested sequence of ints once, into
    (weights, edges): the diagonal and the nonzero entries (i, j, x) above
    it, in O(n^2).  A matrix or row that is not iterable is a DomainError.

    Each row is checked to be square, then to hold only ints, before the
    next one is read; each nonzero below the diagonal is compared with its
    mirror in an earlier, already checked row.  Equal mirrors plus as many
    nonzeros below the diagonal as above make the matrix symmetric; any
    other matrix raises DomainError once every row is read.
    """
    try:
        rows = [row if type(row) in (list, tuple) else list(row) for row in m]
    except TypeError:
        raise DomainError("matrix is not a sequence of rows") from None
    n = len(rows)
    cols = list(range(n))  # compress over a list allocates no index ints
    weights, edges, below, symmetric = [], [], 0, True
    for i, row in enumerate(rows):
        if len(row) != n:
            raise DomainError("matrix is not square")
        if not {int}.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) is not int)
            raise DomainError(f"matrix entry {bad!r} is not an int")
        weights.append(row[i])
        for j in compress(cols, row):
            if j > i:
                edges.append((i, j, row[j]))
            elif j < i:
                below += 1
                symmetric = symmetric and rows[j][i] == row[j]
    if not symmetric or below != len(edges):
        raise DomainError("matrix is not symmetric")
    return weights, edges


def _forest_walk(weights, edges):
    """Signature, determinant and Wu set of the symmetric matrix with
    diagonal ``weights`` and off-diagonal entries ``edges`` ((i, j, b) with
    i != j, b != 0, each pair once), in one leaf-to-root pass.

    Returns None when the edges do not form a forest.  Otherwise returns
    (signature, det, wu), where wu is the set of indices of the unique
    solution of A x = diag(A) over GF(2), or None when det is even.

    Over Q a vertex whose children are all eliminated touches only its
    parent.  A nonzero effective weight e is a pivot (signature +-1, det * e,
    parent weight -= b^2 / e).  A zero one with parent link b leaves the
    2x2 block [[0, b], [b, *]] with det -b^2 and signature 0, whose Schur
    complement is zero: the parent's other edges simply drop.  A zero
    weight with no partner is an isolated zero eigenvalue (det 0).

    The walk stays in the integers: v's effective weight is num[v] / den[v],
    and a pivot v updates its parent p to
    num[p] * num[v] - b^2 * den[v] * den[p] over den[p] * num[v].  So den[v]
    is the product of the nums of v's pivot children, and in the product of
    the pivots' num / den every num but a root's cancels against its
    parent's den.  det is therefore the product of the pivot roots' nums
    and, per hyperbolic block, of -b^2 and the dens of both its vertices.

    The GF(2) pass makes the same moves on A mod 2.  Each move keeps the
    right-hand side diag(A) equal to the effective diagonal, so a pivot
    reads x_v = 1 + x_parent and a pair {z, v} reads x_v = 0,
    x_z = e_v + x_parent; these are solved from the roots down.  The pass
    meets a singular state only when det(A mod 2) = det(A) mod 2 is 0.
    """
    n = len(weights)
    adj = [[] for _ in range(n)]
    for i, j, b in edges:
        adj[i].append((j, b))
        adj[j].append((i, b))
    # Breadth-first from each root; reversed, every vertex follows its subtree.
    parent, link, seen, order = [-1] * n, [0] * n, [False] * n, []
    roots = 0
    for root in range(n):
        if seen[root]:
            continue
        roots += 1
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
    if len(edges) != n - roots:
        return None

    sig, det = 0, 1
    num, den = list(weights), [1] * n  # effective weights num / den over Q
    zero = [-1] * n  # the child left with effective weight 0, over Q
    eff2 = [w & 1 for w in weights]  # the same over GF(2)
    zero2 = [-1] * n
    back = []  # (v, c, u): x_v = c + x_u over GF(2), u = -1 for none
    for v in reversed(order):
        p, b = parent[v], link[v]
        z = zero[v]
        if z >= 0:
            det *= -link[z] ** 2 * den[z] * den[v]
        elif num[v]:
            e, d = num[v], den[v]
            sig += 1 if (e > 0) == (d > 0) else -1
            if p >= 0:
                num[p] = num[p] * e - b * b * d * den[p]
                den[p] *= e
            else:
                det *= e
        elif p >= 0 and zero[p] < 0:
            zero[p] = v
        else:
            det = 0

        up = p if b & 1 else -1  # the parent, when the link is odd
        z = zero2[v]
        if z >= 0:
            back.append((z, eff2[v], up))  # and x_v = 0
        elif eff2[v]:
            back.append((v, 1, up))
            if up >= 0:
                eff2[up] ^= 1
        elif up >= 0:
            zero2[up] = v

    if det % 2 == 0:
        return sig, det, None
    x = [0] * n
    for v, c, u in reversed(back):
        x[v] = c ^ x[u] if u >= 0 else c
    return sig, det, frozenset(compress(range(n), x))


def _graph_walk(g: PlumbingGraph) -> tuple[int, int, frozenset[str] | None]:
    """(signature, det, Wu class or None) of g's linking matrix, from one
    walk over the graph itself."""
    sig, det, wu = _forest_walk(*_graph_form(g))
    return sig, det, None if wu is None else frozenset(map(g.ids.__getitem__, wu))


def determinant(m) -> int:
    """Exact integer determinant of a square, symmetric integer matrix.
    Accepts a LinkingMatrix or a plain nested sequence, so it also serves
    ad-hoc matrices that never came from a graph.  A matrix whose
    off-diagonal support is a forest goes through the integer walk, any
    other through congruence diagonalization."""
    return _sig_det(m)[1]


def _sig_det(m) -> tuple[int, int]:
    """(signature, det) of a symmetric matrix: a LinkingMatrix as it is,
    nested rows from _read(m); then the walk when the support is a forest,
    else diagonalization."""
    weights, edges = (m.weights, m.edges) if isinstance(m, LinkingMatrix) else _read(m)
    walked = _forest_walk(weights, edges)
    return _diagonalize(weights, edges) if walked is None else walked[:2]


def _diagonalize(weights, edges) -> tuple[int, int]:
    """Exact congruence diagonalization of the symmetric matrix with
    diagonal ``weights`` and entries ``edges`` above it, as for _forest_walk.

    Returns (signature, determinant).  Works on a dict-of-dicts copy that
    holds only the rows and columns not yet eliminated.  Every step is a
    1x1 pivot on the nonzero diagonal entry of minimum fill, then lowest
    index; its Schur complement leaves det unchanged, so det is the product
    of the pivots.  When every remaining diagonal entry is zero, the lowest
    index i with a neighbour takes its lowest neighbour j: adding row j to
    row i and column j to column i is the congruence E A E^T with
    E = I + e_i e_j^T.  det E = 1, so det and (by Sylvester's law) the
    signature stay, and the new A[i][i] = 2 A[i][j] is the next pivot.

    Pivots pop from a heap of (fill, index) entries pushed for each row a
    step edits, skipping any whose row is gone, has a zero diagonal or has
    another fill by now: the order a scan over all rows would give.
    """
    import heapq  # here, so that importing the package does not load it

    rows: dict[int, dict[int, Fraction | int]] = {
        i: {i: w} if w else {} for i, w in enumerate(weights)
    }
    for i, j, b in edges:
        rows[i][j] = rows[j][i] = b
    heap = [(len(row), i) for i, row in rows.items() if i in row]
    heapq.heapify(heap)
    sig = 0
    det: Fraction | int = 1

    def add(k: int, l: int, x) -> None:
        new = rows[k].get(l, 0) + x
        if new:
            rows[k][l] = new
        else:
            rows[k].pop(l, None)

    while rows:
        while heap:
            fill, pivot = heapq.heappop(heap)
            row = rows.get(pivot)
            if row is not None and pivot in row and len(row) == fill:
                break
        else:
            linked = [i for i, row in rows.items() if row]
            if not linked:
                det = 0  # remaining block is identically zero
                break
            i = min(linked)
            j = min(rows[i])
            for k, x in rows[j].items():
                add(i, k, x)
                add(k, i, x)  # twice into A[i][i] when k == i
            heapq.heappush(heap, (len(rows[i]), i))  # the one nonzero diagonal
            continue
        coeff = rows.pop(pivot)
        d = coeff.pop(pivot)
        sig += 1 if d > 0 else -1
        det *= d
        for k in coeff:
            rows[k].pop(pivot)
        for k, xk in coeff.items():
            for l, xl in coeff.items():
                add(k, l, Fraction(-xk * xl) / d)
        for k in coeff:
            heapq.heappush(heap, (len(rows[k]), k))

    det_frac = Fraction(det)
    if det_frac.denominator != 1:
        raise AssertionError("diagonalization produced a non-integer determinant")
    return sig, int(det_frac)


def signature(m) -> int:
    """Signature (positive minus negative eigenvalue count) of a square,
    symmetric integer matrix, exact over the rationals; zero eigenvalues
    contribute 0."""
    return _sig_det(m)[0]


def _characteristic(wu: frozenset[str] | None) -> frozenset[str]:
    """The Wu class the walk found; None means it is not unique."""
    if wu is None:
        raise SingularError(
            "linking matrix is singular mod 2 (even determinant); "
            "no unique characteristic subset"
        )
    return wu


def _mu_bar(g: PlumbingGraph, sig: int, wu: frozenset[str] | None) -> int:
    """signature - w^T A w for the Wu-class indicator w of g, given g's
    signature and Wu class, with the divisibility by 8 checked."""
    wu = _characteristic(wu)
    wAw = sum(map(g.weight, wu)) + 2 * sum(u in wu and v in wu for u, v in g.edges)
    value = sig - wAw
    if value % 8:
        raise ParityError(f"mu-bar {value} is not divisible by 8")
    return value


def wu_class(g: PlumbingGraph) -> frozenset[str]:
    """The unique vertex subset S with, for every v,
    sum_{u in S} A[v,u] = A[v,v] (mod 2).  Raises SingularError when det is
    even (solution not unique)."""
    return _characteristic(_graph_walk(g)[2])


def mu_bar(g: PlumbingGraph) -> int:
    """signature(A) - w^T A w for the Wu-class indicator w.  Requires odd
    determinant; divisibility by 8 (guaranteed for |det| = 1) is checked,
    not assumed."""
    sig, _, wu = _graph_walk(g)
    return _mu_bar(g, sig, wu)


def rohlin_mu_bar(g: PlumbingGraph) -> int:
    """Rohlin invariant (mu-bar / 8 mod 2) of the plumbed homology sphere;
    requires |det| = 1, checked before the Wu class is used."""
    sig, det, wu = _graph_walk(g)
    if abs(det) != 1:
        raise DomainError(
            f"boundary is not a homology sphere: |det| = {abs(det)}"
        )
    return (_mu_bar(g, sig, wu) // 8) % 2
