"""Exact Gaussian elimination helpers."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from doublelie.linalg import echelon, reduce_vector, rref


def random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-4, 4)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_is_idempotent_and_pivots_are_unit_columns():
    rng = random.Random(2)
    for _ in range(20):
        m = random_matrix(rng, 4, 6)
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert again == red and pivots2 == pivots
        for r, p in enumerate(pivots):
            assert red[r][p] == 1
            assert all(red[rr][p] == 0 for rr in range(len(red)) if rr != r)


def test_rank_oracles():
    # the rank is the number of pivots
    assert len(rref([])[1]) == 0
    assert len(rref([[Fraction(0)] * 3])[1]) == 0
    ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert len(rref(ident)[1]) == 4
    # a rank-one outer product
    m = [[Fraction(a * b) for b in (1, 2, 3)] for a in (2, 4, 6)]
    assert len(rref(m)[1]) == 1


def test_reduce_vector_detects_membership():
    rng = random.Random(5)
    basis = random_matrix(rng, 3, 6)
    red, pivots = rref(basis)
    # combination of basis rows reduces to zero
    combo = [sum(Fraction(k + 1) * red[k][j] for k in range(len(red)))
             for j in range(6)]
    assert not any(reduce_vector(combo, red, pivots))
    # reduction zeroes every pivot coordinate
    v = random_matrix(rng, 1, 6)[0]
    out = reduce_vector(v, red, pivots)
    assert all(out[p] == 0 for p in pivots)


# mostly zeros, so that eliminations meet zero entries in the pivot row
_ENTRY = st.sampled_from((0, 0, 0, 0, 1, -1, 3, Fraction(0), Fraction(1, 2),
                          Fraction(-2, 3)))


@st.composite
def _sparse_systems(draw):
    """A sparse matrix and a vector with as many entries as it has columns;
    half of the vectors are combinations of the rows."""
    cols = draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=cols, max_size=cols)
    mat = draw(st.lists(row, min_size=1, max_size=5))
    if draw(st.booleans()):
        vec = draw(row)
    else:
        coeffs = draw(st.lists(_ENTRY, min_size=len(mat), max_size=len(mat)))
        vec = [sum(c * r[j] for c, r in zip(coeffs, mat)) for j in range(cols)]
    return mat, vec


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in r] for r in rows])


def _fractions(m):
    return [[Fraction(int(c.p), int(c.q)) for c in m.row(i)]
            for i in range(m.rows)]


@given(_sparse_systems())
def test_rref_and_reduce_vector_match_sympy(system):
    mat, vec = system
    red, pivots = rref(mat)
    expect, expect_pivots = _sympy(mat).rref()
    assert pivots == list(expect_pivots)
    assert red == _fractions(expect)[:len(pivots)]
    out = reduce_vector(vec, red, pivots)
    assert len(out) == len(vec) and all(out[p] == 0 for p in pivots)
    # vec - out lies in the row space, and out is zero exactly for members
    rank = len(pivots)
    diff = [a - b for a, b in zip(vec, out)]
    assert _sympy(mat + [diff]).rank() == rank
    assert (not any(out)) == (_sympy(mat + [vec]).rank() == rank)


@settings(deadline=None)
@given(_sparse_systems(), _sparse_systems())
def test_echelon_rows_are_primitive_multiples_of_the_rref_rows(system, more):
    mat, vec = system
    rows, pivots = echelon(mat)
    red, expect_pivots = rref(mat)
    assert pivots == expect_pivots
    for row, ref, p in zip(rows, red, pivots):
        assert all(type(c) is int for c in row)
        assert math.gcd(*row) == 1 and row[p] > 0
        assert [Fraction(c, row[p]) for c in row] == ref
    # inserting rows into an echelon form gives the from-scratch form
    extra = [r[:len(vec)] + [0] * (len(vec) - len(r)) for r in more[0]]
    assert echelon(extra + [vec], rows, pivots) == echelon(mat + extra + [vec])

