"""Sparse exact linear algebra over Q: the one elimination, rref.  Its one
caller is the tree route's row test (cdse.solver._Span).

A row is a dict from integer column to nonzero rational, an int or a
Fraction; absent columns are zero, so the work follows the stored entries,
not the matrix shape.
"""

from __future__ import annotations

from fractions import Fraction

from .linear import _accumulate


def rref(rows):
    """Reduced row echelon form of the span of rows (left unmodified).

    Returns (echelon, pivots): the nonzero echelon rows, each with 1 at its
    pivot (its smallest column) and no entry at any other pivot, and the
    pivot columns, both in ascending pivot order.  Rows are added one at a
    time: a new row is reduced by the rows so far, scaled at its pivot, and
    then cleared out of the earlier rows.  Int rows stay ints until a
    pivot other than 1 divides them into Fractions.
    """
    basis = {}  # pivot -> row
    for row in rows:
        v = dict(row)
        for p in [c for c in v if c in basis]:
            f = v[p]
            _accumulate(v, ((c, -f * x) for c, x in basis[p].items()))
        if not v:
            continue
        pivot = min(v)
        scale = v[pivot]
        if scale != 1:
            v = {c: Fraction(x, scale) for c, x in v.items()}
        for other in basis.values():
            f = other.get(pivot)
            if f:
                _accumulate(other, ((c, -f * x) for c, x in v.items()))
        basis[pivot] = v
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots
