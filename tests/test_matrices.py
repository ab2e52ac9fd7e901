"""Finitary matrices and locally finite operators: products, rays, strided
diagonals and the segment normal form, transposes and block cuts.

Oracles: small dense multiplication over explicit windows, and the unit
product rule e_ij e_kl = delta_jk e_il."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from doublelie.exact import Vec, tsym
from doublelie.matrices import (INTEGERS, NATURALS, Domain, FinitaryMatrix,
                                LocallyFiniteOperator, StridedRayOperator,
                                _norm_segments, commutator, mul_mixed)


def dense_window(op, n):
    return {(i, j): op.entry(i, j) for i in range(n) for j in range(n)
            if op.entry(i, j)}


def dense_mul(a, b, n):
    out = {}
    for (i, j), c in a.items():
        for k in range(n):
            d = b.get((j, k), 0)
            if d:
                out[(i, k)] = out.get((i, k), 0) + c * d
    return {k: v for k, v in out.items() if v}


def random_finitary(rng, n=6):
    return FinitaryMatrix({(rng.randrange(n), rng.randrange(n)):
                           Fraction(rng.randint(-4, 4)) for _ in range(7)})


def strided(coeff, row0, col0, k, rows=40):
    """coeff * e_{row0+mk, col0+mk} over m >= 0 with row0 + mk < rows: a
    diagonal that skips k - 1 entries after each one, cut below row rows."""
    return FinitaryMatrix({(r, r + col0 - row0): coeff
                           for r in range(row0, rows, k)})


def block_cut(x, n):
    """P_n x P_n with P_n = e_00 + ... + e_{n-1,n-1}: the entries of x with
    both indices below n."""
    p = FinitaryMatrix({(k, k): 1 for k in range(n)})
    return mul_mixed(mul_mixed(p, x), p)


@pytest.mark.parametrize("cls", [FinitaryMatrix, StridedRayOperator])
def test_inherited_constructors_match_the_base_class(cls):
    base = LocallyFiniteOperator
    assert cls.zero() == base.zero() and not cls.zero()
    assert cls.zero(INTEGERS) == base.zero(INTEGERS)
    for args in ((1, 0, 0), (2, 1, 3), (-1, 2, 0)):
        assert cls.ray(*args) == base.ray(*args)
    assert cls.unit(1, 2) == base.unit(1, 2)
    assert cls.unit(-1, 2, INTEGERS) == base.unit(-1, 2, INTEGERS)


def test_unit_product_rule():
    for j in range(4):
        for k in range(4):
            p = mul_mixed(FinitaryMatrix.unit(0, j), FinitaryMatrix.unit(k, 2))
            if j == k:
                assert p == FinitaryMatrix.unit(0, 2)
            else:
                assert not p


def test_finitary_matrix_is_a_point_segment_operator():
    a = FinitaryMatrix.unit(0, 2)
    assert isinstance(a, LocallyFiniteOperator)
    assert a == LocallyFiniteOperator.unit(0, 2)
    assert hash(a) == hash(LocallyFiniteOperator.unit(0, 2))
    assert a.entries == {(0, 2): 1}
    with pytest.raises(ValueError):
        FinitaryMatrix({(0, -1): 1})
    with pytest.raises(ValueError):
        LocallyFiniteOperator.ray(Fraction(1), 0, 0).entries


def test_strided_products_match_dense_oracle():
    # a strided diagonal on either side of a finitary factor
    rng = random.Random(11)
    diagonals = (strided(Fraction(2), 1, 3, 2), strided(-1, 0, 0, 3),
                 strided(1, 1, 2, 2))
    for s in diagonals:
        ds = dense_window(s, 30)
        for _ in range(10):
            m = random_finitary(rng)
            dm = dict(m.entries)
            assert mul_mixed(s, m).entries == dense_mul(ds, dm, 30)
            assert mul_mixed(m, s).entries == dense_mul(dm, ds, 30)
    # strided times strided, and strided times an infinite ray: no factor
    # moves an index by more than 2, so entries with both indices below 20
    # are exact on the 40 x 40 window
    rays = diagonals + (strided(1, 2, 0, 4),
                        LocallyFiniteOperator.ray(Fraction(-1), 0, 0),
                        LocallyFiniteOperator.ray(3, 2, 1),
                        strided(1, 2, 4, 3))
    for a in rays:
        for b in rays:
            got = dense_window(mul_mixed(a, b), 20)
            want = dense_mul(dense_window(a, 40), dense_window(b, 40), 40)
            assert got == {k: v for k, v in want.items() if max(k) < 20}


def test_finitary_products_match_dense_oracle():
    rng = random.Random(3)
    for _ in range(30):
        a, b = random_finitary(rng), random_finitary(rng)
        got = mul_mixed(a, b)
        assert dict(got.entries) == dense_mul(dict(a.entries),
                                              dict(b.entries), 12)


def test_ray_entries_and_apply():
    # finite ray starting at (2, 0), three steps down the diagonal
    r = LocallyFiniteOperator({-2: [(2, 4, Fraction(1))]})
    assert dense_window(r, 6) == {(2, 0): 1, (3, 1): 1, (4, 2): 1}
    assert r.apply_index(1) == {3: 1}
    assert r.apply_index(5) == {}
    # infinite ray: every column below col0 hits exactly once
    rinf = LocallyFiniteOperator.ray(Fraction(-2), 1, 4)
    assert rinf.entry(1, 4) == -2 and rinf.entry(100, 103) == -2
    assert rinf.apply_index(7) == {4: -2}


def test_backward_ray_clips_to_domain():
    # over the naturals only the endpoint with nonnegative column survives
    r = LocallyFiniteOperator({-3: [(None, 3, Fraction(1))]})
    assert dense_window(r, 6) == {(3, 0): 1}
    r = LocallyFiniteOperator({-3: [(None, 3, Fraction(1))]}, INTEGERS)
    assert r.entry(3, 0) == 1 and r.entry(-5, -8) == 1 and r.entry(4, 1) == 0


def test_operator_product_matches_dense_oracle_on_window():
    # both operators only move column indices downward, so the window product
    # is exact for the upper-left block
    a = LocallyFiniteOperator.ray(Fraction(1), 0, 0) \
        + LocallyFiniteOperator({-2: [(3, 6, Fraction(2))]})
    b = LocallyFiniteOperator.ray(Fraction(-1), 2, 0)
    got = mul_mixed(a, b)
    da, db = dense_window(a, 20), dense_window(b, 20)
    expect = dense_mul(da, db, 20)
    window = {k: v for k, v in dense_window(got, 20).items()
              if k[0] < 14 and k[1] < 14}
    expect = {k: v for k, v in expect.items() if k[0] < 14 and k[1] < 14}
    assert window == expect


def test_transpose_is_entrywise():
    rng = random.Random(9)
    a = LocallyFiniteOperator.ray(Fraction(3), 1, 2) \
        + LocallyFiniteOperator.unit(0, 5)
    for i in range(8):
        for j in range(8):
            assert a.transpose().entry(i, j) == a.entry(j, i)
    m = random_finitary(rng)
    assert m.transpose().transpose() == m


def test_product_transpose_identity():
    a = LocallyFiniteOperator.ray(Fraction(1), 2, 0)
    b = FinitaryMatrix.unit(4, 1) + FinitaryMatrix.unit(2, 0).scale(3)
    left = mul_mixed(a, b).transpose()
    right = mul_mixed(b.transpose(), a.transpose())
    for i in range(10):
        for j in range(10):
            assert left.entry(i, j) == right.entry(i, j)


def test_commutator_antisymmetry():
    rng = random.Random(21)
    x, y = random_finitary(rng), random_finitary(rng)
    assert commutator(x, y) == commutator(y, x).scale(-1)


def test_projection_truncates_exactly():
    a = LocallyFiniteOperator.ray(Fraction(1), 0, 1)
    p = block_cut(a, 4)
    assert p.entries == {(0, 1): 1, (1, 2): 1, (2, 3): 1}


def test_apply_to_vector_with_tag():
    a = LocallyFiniteOperator({-1: [(1, 2, Fraction(2))]})
    v = Vec({tsym(0): Fraction(1), tsym(1): Fraction(3)})
    out = a.apply(v)
    assert out == Vec({tsym(1): Fraction(2), tsym(2): Fraction(6)})


def test_strided_ray_skips_intermediate_diagonentries():
    s = strided(Fraction(1), 0, 2, 3)
    # one point segment per entry: the skipped rows split the diagonal
    assert s.segs == {2: tuple((r, r, 1) for r in range(0, 40, 3))}
    assert s.entry(0, 2) == 1 and s.entry(3, 5) == 1 and s.entry(1, 3) == 0
    assert s.apply_index(5) == {3: 1}
    assert s.transpose().entry(2, 0) == 1
    assert block_cut(s, 6).entries == {(0, 2): 1, (3, 5): 1}


def test_domain_membership():
    assert NATURALS.contains(0) and not NATURALS.contains(-1)
    assert INTEGERS.contains(-5)
    fin = Domain.finite(3)
    assert fin.contains(2) and not fin.contains(3)


_END = st.none() | st.integers(min_value=-8, max_value=8)
_COEFF = st.integers(min_value=-2, max_value=2) | st.fractions(
    min_value=-2, max_value=2, max_denominator=3)


def _covers(lo, hi, r):
    return (lo is None or lo <= r) and (hi is None or r <= hi)


@given(st.lists(st.tuples(_END, _END, _COEFF), max_size=10))
def test_norm_segments_matches_dense_oracle(raw):
    out = _norm_segments(raw)
    # rows -40..40 reach past every finite endpoint, so they also see each
    # infinite end
    for r in range(-40, 41):
        want = sum(c for lo, hi, c in raw if _covers(lo, hi, r))
        got = [c for lo, hi, c in out if _covers(lo, hi, r)]
        assert got == ([want] if want else []), r
    for k, (lo, hi, c) in enumerate(out):
        assert c and not isinstance(c, float)
        assert type(c) is int or c.denominator != 1
        assert lo is None or hi is None or lo <= hi
        assert lo is not None or k == 0
        assert hi is not None or k == len(out) - 1
        if k:
            _, prev_hi, prev_c = out[k - 1]
            # sorted and disjoint; adjacent segments are maximal
            assert lo > prev_hi
            assert lo > prev_hi + 1 or c != prev_c


@st.composite
def _operators(draw, domain):
    """An operator; a raw segment without lo is anchored at its hi, one
    without either covers its whole diagonal."""
    segs = draw(st.dictionaries(st.integers(min_value=-3, max_value=3),
                                st.lists(st.tuples(_END, _END, _COEFF),
                                         max_size=3),
                                max_size=3))
    return LocallyFiniteOperator(segs, domain)


@settings(deadline=None)
@given(st.sampled_from((NATURALS, INTEGERS)).flatmap(
    lambda d: st.tuples(_operators(d), _operators(d))))
def test_operator_sums_are_canonical_across_steps(ops):
    a, b = ops
    back = a + b - b
    assert back == a and hash(back) == hash(a)
    for i in range(-30, 30):
        for o in range(-3, 4):
            assert (a + b).entry(i, i + o) == a.entry(i, i + o) \
                + b.entry(i, i + o)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_residue_shifted_strided_rays_sum_to_the_ray(k):
    # the k residue classes of the rows below 40, and the ray from row 40 on
    tail = LocallyFiniteOperator.ray(3, 40, 41)
    total = tail
    for r in range(k):
        total = total + strided(3, r, r + 1, k)
    ray = LocallyFiniteOperator.ray(3, 0, 1)
    assert total == ray and hash(total) == hash(ray)
    assert total.segs == {1: ((0, None, 3),)}
    # k - 1 classes stay; at k = 1 the one class is the whole diagonal
    part = total - strided(3, 0, 1, k) - tail
    assert bool(part) == (k > 1)
    assert part.entries == {(r, r + 1): 3 for r in range(40) if r % k}
    assert StridedRayOperator(3, 0, 1) == ray


def test_large_diagonal_builds():
    n = 4000
    m = FinitaryMatrix({(i, i): (i % 3) + 1 for i in range(n)})
    assert len(m.segs[0]) == n
    assert m.entries == {(i, i): (i % 3) + 1 for i in range(n)}
