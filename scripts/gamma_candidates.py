#!/usr/bin/env python3
"""Necessary-condition screen for the extra -1-framed handle on the d2 diagram.

The handle that turns the Sigma(5,9,13) diagram into an S^3 diagram is a
curve linking the plumbing in a way plumbing graphs cannot express (a
two-point attachment closes a cycle), so this screen works directly on the
linking matrix: add one vertex of weight -1 with linking number +-1
against every chosen attachment vertex, for every attachment set of size
0, 1 or 2, and report which augmented matrices keep |det| = 1.

Flipping the sign of the whole new row and column is a congruence, so for a
single attachment only +1 is tried; for a pair only the relative sign
matters, so (+1, +1) and (+1, -1) are tried.

|det| = 1 is necessary for the augmented diagram to bound a homology sphere,
so candidates listed here are merely not ruled out; nothing is asserted
about which (if any) attachment corresponds to the actual handle curve, and
a curve may also link an arm more than once, which this screen does not
model.

Run:  python scripts/gamma_candidates.py
"""

from itertools import combinations

from plumbcalc import LinkingMatrix, determinant, linking_matrix
from plumbcalc.fixtures import fixture_graph


def augmented_det(matrix, attachments):
    """attachments: iterable of (vertex position, linking number).  The new
    vertex comes last, under an id longer than every id in the index."""
    n = len(matrix)
    index = matrix.index + (max(matrix.index, key=len, default="") + "'",)
    edges = sorted(matrix.edges + tuple((pos, n, lk) for pos, lk in attachments))
    return determinant(LinkingMatrix(index, matrix.weights + (-1,), tuple(edges)))


def main():
    d2 = fixture_graph("d2")
    m = linking_matrix(d2)
    ids = m.index
    print(f"d2 vertices: {' '.join(ids)}")
    print(f"d2 det: {determinant(m)}")
    print()
    print("attachment sets of a -1-framed vertex keeping |det| = 1:")
    hits = 0
    cases = [()]
    cases += [((i, 1),) for i in range(len(ids))]
    for i, j in combinations(range(len(ids)), 2):
        cases.append(((i, 1), (j, 1)))
        cases.append(((i, 1), (j, -1)))
    for attachments in cases:
        det = augmented_det(m, attachments)
        if abs(det) == 1:
            hits += 1
            label = ",".join(f"{ids[pos]}({lk:+d})" for pos, lk in attachments)
            print(f"  attach {label or '(isolated)'}  det {det}")
    print()
    print(f"{hits} candidate attachment sets (necessary condition only)")


if __name__ == "__main__":
    main()
