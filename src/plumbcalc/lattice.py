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
block.  The graph functions run the walk on the graph itself and never
build a matrix.  ``determinant`` and ``signature`` take any matrix: they run
the walk when its off-diagonal support is a forest, and otherwise fall back
on fraction-free Bareiss elimination and sparse congruence diagonalization.
The fallbacks are independent algorithms, and the test suite holds the walk
equal to them and to a dense GF(2) solve and brute-force Wu search.
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
    """Symmetric integer matrix plus the vertex-id order of its rows."""

    index: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.index)


def linking_matrix(g: PlumbingGraph) -> LinkingMatrix:
    """Linking matrix with rows/columns ordered by sorted vertex id."""
    ids = g.ids
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    rows = [[0] * n for _ in range(n)]
    for v, w in g.vertices:
        rows[pos[v]][pos[v]] = w
    for u, v in g.edges:
        rows[pos[u]][pos[v]] = 1
        rows[pos[v]][pos[u]] = 1
    return LinkingMatrix(index=ids, entries=tuple(tuple(r) for r in rows))


def _rows(m) -> list[list[int]]:
    """Accept a LinkingMatrix or any square nested sequence of ints."""
    entries = m.entries if isinstance(m, LinkingMatrix) else m
    rows = [list(row) for row in entries]
    for row in rows:
        if len(row) != len(rows):
            raise DomainError("matrix is not square")
        if not {int}.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) is not int)
            raise DomainError(f"matrix entry {bad!r} is not an int")
    return rows


def _is_symmetric(a: list[list[int]]) -> bool:
    return list(map(list, zip(*a))) == a


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
    eff = list(weights)  # effective weights over Q
    zero = [-1] * n  # the child left with effective weight 0, over Q
    eff2 = [w & 1 for w in weights]  # the same over GF(2)
    zero2 = [-1] * n
    back = []  # (v, c, u): x_v = c + x_u over GF(2), u = -1 for none
    for v in reversed(order):
        p, b = parent[v], link[v]
        z = zero[v]
        if z >= 0:
            det *= -link[z] ** 2
        elif eff[v]:
            sig += 1 if eff[v] > 0 else -1
            det *= eff[v]
            if p >= 0:
                eff[p] -= Fraction(b * b) / eff[v]
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

    det = Fraction(det)
    if det.denominator != 1:
        raise AssertionError("forest walk produced a non-integer determinant")
    if det.numerator % 2 == 0:
        return sig, det.numerator, None
    x = [0] * n
    for v, c, u in reversed(back):
        x[v] = c ^ x[u] if u >= 0 else c
    return sig, det.numerator, frozenset(compress(range(n), x))


def _graph_walk(g: PlumbingGraph) -> tuple[int, int, frozenset[str] | None]:
    """(signature, det, Wu class or None) of g's linking matrix, from one
    walk over the graph itself."""
    ids = g.ids
    pos = {v: i for i, v in enumerate(ids)}
    sig, det, wu = _forest_walk(
        [w for _, w in g.vertices], [(pos[u], pos[v], 1) for u, v in g.edges]
    )
    return sig, det, None if wu is None else frozenset(ids[i] for i in wu)


def _walk_matrix(a: list[list[int]]):
    """_forest_walk on a symmetric matrix, or None when its off-diagonal
    support is not a forest."""
    n = len(a)
    edges = []
    for i, row in enumerate(a):
        edges.extend((i, j, row[j]) for j in compress(range(i + 1, n), row[i + 1 :]))
        if len(edges) >= n:  # more than a forest on n vertices has
            return None
    return _forest_walk([row[i] for i, row in enumerate(a)], edges)


def determinant(m) -> int:
    """Exact integer determinant of a square integer matrix.  Accepts a
    LinkingMatrix or a plain nested sequence, so it also serves ad-hoc
    matrices that never came from a graph; those that are not symmetric
    with forest support go through Bareiss elimination."""
    a = _rows(m)
    walked = _walk_matrix(a) if _is_symmetric(a) else None
    return _bareiss(a) if walked is None else walked[1]


def _bareiss(a: list[list[int]]) -> int:
    """Determinant by Bareiss fraction-free elimination with row pivoting;
    O(n^3) and overwrites ``a``."""
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


def _diagonalize(dense: list[list[int]]) -> tuple[int, int]:
    """Exact congruence diagonalization of a symmetric matrix.

    Returns (signature, determinant).  Works on a sparse dict-of-dicts copy;
    pivoting prefers the nonzero diagonal entry of minimum fill.  The
    determinant falls out as the product of the 1x1 pivots and the -b^2
    factors of the hyperbolic 2x2 blocks (Schur-complement elimination
    leaves det unchanged).
    """
    n = len(dense)
    rows: dict[int, dict[int, Fraction | int]] = {}
    for i in range(n):
        row = {j: x for j, x in enumerate(dense[i]) if x}
        rows[i] = row
    active = set(range(n))
    sig = 0
    det: Fraction | int = 1

    def eliminate_pair(i: int, j: int) -> None:
        """Schur-complement elimination of rows/cols i and j."""
        b = rows[i][j]
        coeff_i = {k: x for k, x in rows[i].items() if k in active}
        coeff_j = {k: x for k, x in rows[j].items() if k in active}
        touched = set(coeff_i) | set(coeff_j)
        for k in touched:
            for l in touched:
                delta = (
                    coeff_i.get(k, 0) * coeff_j.get(l, 0)
                    + coeff_j.get(k, 0) * coeff_i.get(l, 0)
                )
                if delta:
                    new = rows[k].get(l, 0) - Fraction(delta, 1) / b
                    if new:
                        rows[k][l] = new
                    else:
                        rows[k].pop(l, None)

    while active:
        pivot = None
        best = None
        for i in active:
            d = rows[i].get(i, 0)
            if d:
                fill = sum(1 for k in rows[i] if k in active and k != i)
                key = (fill, i)
                if best is None or key < best:
                    best = key
                    pivot = i
        if pivot is not None:
            d = rows[pivot].get(pivot, 0)
            sig += 1 if d > 0 else -1
            det *= d
            active.discard(pivot)
            coeff = {k: x for k, x in rows[pivot].items() if k in active}
            items = list(coeff.items())
            for ki in range(len(items)):
                k, xk = items[ki]
                for li in range(len(items)):
                    l, xl = items[li]
                    new = rows[k].get(l, 0) - Fraction(xk * xl, 1) / d
                    if new:
                        rows[k][l] = new
                    else:
                        rows[k].pop(l, None)
            continue
        # Every remaining diagonal entry is zero: hyperbolic split.
        pair = None
        for i in sorted(active):
            for j in sorted(rows[i]):
                if j in active and j != i and rows[i][j]:
                    pair = (i, j) if i < j else (j, i)
                    break
            if pair:
                break
        if pair is None:
            det = 0  # remaining block is identically zero
            break
        i, j = pair
        b = rows[i][j]
        active.discard(i)
        active.discard(j)
        eliminate_pair(i, j)
        det *= -b * b
        # one positive and one negative eigenvalue: sig += 0

    det_frac = Fraction(det)
    if det_frac.denominator != 1:
        raise AssertionError("diagonalization produced a non-integer determinant")
    return sig, int(det_frac)


def signature(m) -> int:
    """Signature (positive minus negative eigenvalue count) of a symmetric
    integer matrix, exact over the rationals; zero eigenvalues contribute 0."""
    a = _rows(m)
    if not _is_symmetric(a):
        raise DomainError("matrix is not symmetric")
    walked = _walk_matrix(a)
    return _diagonalize(a)[0] if walked is None else walked[0]


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
