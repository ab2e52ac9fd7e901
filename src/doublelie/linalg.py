"""Small exact linear algebra helpers over the rationals.

Rows are lists of Fractions (or ints); everything is done by Gaussian
elimination with exact arithmetic, so ranks, memberships and inverses carry
no numerical caveats.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_columns);
    zero rows are dropped."""
    mat = [list(r) for r in rows]
    pivots = []
    lead = 0
    ncols = len(mat[0]) if mat else 0
    for r in range(len(mat)):
        while lead < ncols:
            pivot_row = None
            for rr in range(r, len(mat)):
                if mat[rr][lead]:
                    pivot_row = rr
                    break
            if pivot_row is None:
                lead += 1
                continue
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            inv = Fraction(1, 1) / mat[r][lead]
            mat[r] = [c * inv for c in mat[r]]
            for rr in range(len(mat)):
                if rr != r and mat[rr][lead]:
                    f = mat[rr][lead]
                    mat[rr] = [a - f * b if b else a
                               for a, b in zip(mat[rr], mat[r])]
            pivots.append(lead)
            lead += 1
            break
        else:
            break
    keep = [row for row in mat if any(row)]
    return keep, pivots


def reduce_vector(vec, basis_rows, pivots):
    """Reduce vec against an rref basis; the result has zeros in all pivot
    positions.  vec is in the span iff the result is the zero vector."""
    v = list(vec)
    for row, p in zip(basis_rows, pivots):
        f = v[p]
        if f:
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return v


def invert_matrix(rows):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(red) < n:
        return None
    return [row[n:] for row in red[:n]]
