"""Small exact linear algebra helpers over the rationals.

Rows are lists of Fractions (or ints); everything is done by Gaussian
elimination with exact arithmetic, so ranks and memberships carry no
numerical caveats.  ``echelon`` is the fraction-free counterpart of
``rref`` (Bareiss, Math. Comp. 1968): it keeps primitive integer rows, and
only its input rows are ever rational.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm


def rref(rows):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_columns);
    zero rows are dropped."""
    mat = [list(r) for r in rows]
    pivots = []
    for lead in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        found = next((k for k in range(r, len(mat)) if mat[k][lead]), None)
        if found is None:
            continue
        mat[r], mat[found] = mat[found], mat[r]
        inv = Fraction(1, 1) / mat[r][lead]
        mat[r] = [c * inv for c in mat[r]]
        for k in range(len(mat)):
            f = mat[k][lead]
            if k != r and f:
                mat[k] = [a - f * b if b else a
                          for a, b in zip(mat[k], mat[r])]
        pivots.append(lead)
    return mat[:len(pivots)], pivots


def reduce_vector(vec, basis_rows, pivots):
    """Reduce vec against an rref basis; the result has zeros in all pivot
    positions.  vec is in the span iff the result is the zero vector."""
    v = list(vec)
    for row, p in zip(basis_rows, pivots):
        f = v[p]
        if f:
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return v


def _primitive(ints):
    """The primitive multiple of an integer row whose first nonzero entry is
    positive, as a tuple; None for the zero row."""
    g = gcd(*ints)
    if not g:
        return None
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple(c // g for c in ints)


def _primitive_row(row):
    """_primitive of the least integer multiple of a rational row."""
    if all(type(c) is int for c in row):
        return _primitive(row)
    den = lcm(*(c.denominator for c in row))
    return _primitive([c.numerator * (den // c.denominator) for c in row])


def echelon(new, rows=(), pivots=()):
    """The reduced echelon form of the span of rows and new, fraction-free:
    (rows, pivots), the rows primitive integer tuples with positive pivots in
    pivot order, each a positive multiple of the matching row of ``rref``.
    (rows, pivots) must already be such a form; the new rational rows are
    made primitive integer rows once and inserted one at a time.  A new row
    v loses its entry f at each row r's pivot a by v <- (a v - f r) /
    gcd(a, f); then each row r loses its entry f at v's pivot b by
    r <- b r - f v.  Every combination is an integer row, made primitive by
    its gcd and sign alone."""
    rows, pivots = list(rows), list(pivots)
    for v in map(_primitive_row, new):
        for r, p in zip(rows, pivots):
            if v and v[p]:
                g = gcd(r[p], v[p])
                a, f = r[p] // g, v[p] // g
                v = _primitive([a * x - f * y for x, y in zip(v, r)])
        if not v:
            continue
        q = next(i for i, c in enumerate(v) if c)
        b = v[q]
        for k, r in enumerate(rows):
            f = r[q]
            if f:
                rows[k] = _primitive([b * x - f * y for x, y in zip(r, v)])
        k = bisect(pivots, q)
        rows.insert(k, v)
        pivots.insert(k, q)
    return rows, pivots
