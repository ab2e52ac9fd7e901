"""Finitary matrices and locally finite operators: products, rays, strided
rays and the step normal form, transposes, block cuts, and the trace
pairing.

Oracles: small dense multiplication over explicit windows, and the unit
product rule e_ij e_kl = delta_jk e_il."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from doublelie.exact import Vec, tsym
from doublelie.matrices import (INTEGERS, NATURALS, Domain, FinitaryMatrix,
                                LocallyFiniteOperator, StridedRayOperator,
                                _norm_segments, commutator, mul_mixed,
                                trace_pair)
from doublelie.rb import build_pk


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


def block_cut(x, n):
    """P_n x P_n with P_n = e_00 + ... + e_{n-1,n-1}: the entries of x with
    both indices below n."""
    p = LocallyFiniteOperator.ray(1, 0, 0, length=n)
    return mul_mixed(mul_mixed(p, x), p)


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
    # a strided ray on either side of a finitary factor gives a finitary
    # product
    rng = random.Random(11)
    strided = (StridedRayOperator(Fraction(2), 1, 3, 2),
               StridedRayOperator(-1, 0, 0, 3), build_pk(2).image(1, 0))
    for s in strided:
        ds = dense_window(s, 30)
        for _ in range(10):
            m = random_finitary(rng)
            dm = dict(m.entries)
            assert mul_mixed(s, m).entries == dense_mul(ds, dm, 30)
            assert mul_mixed(m, s).entries == dense_mul(dm, ds, 30)
    # strided times strided, and strided times an infinite ray: every
    # factor only moves column indices down or keeps them, so entries with
    # both indices below 20 are exact on the 40 x 40 window
    rays = strided + (StridedRayOperator(1, 2, 0, 4),
                      LocallyFiniteOperator.ray(Fraction(-1), 0, 0),
                      LocallyFiniteOperator.ray(3, 2, 1),
                      build_pk(3).image(2, 1))
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
    r = LocallyFiniteOperator.ray(Fraction(1), 2, 0, length=3)
    assert dense_window(r, 6) == {(2, 0): 1, (3, 1): 1, (4, 2): 1}
    assert r.apply_index(1) == {3: 1}
    assert r.apply_index(5) == {}
    # infinite ray: every column below col0 hits exactly once
    rinf = LocallyFiniteOperator.ray(Fraction(-2), 1, 4)
    assert rinf.entry(1, 4) == -2 and rinf.entry(100, 103) == -2
    assert rinf.apply_index(7) == {4: -2}


def test_backward_ray_clips_to_domain():
    # over the naturals only the endpoint with nonnegative column survives
    r = LocallyFiniteOperator.ray(Fraction(1), 3, 0, back=True)
    assert dense_window(r, 6) == {(3, 0): 1}
    r = LocallyFiniteOperator.ray(Fraction(1), 3, 0, back=True,
                                  domain=INTEGERS)
    assert r.entry(3, 0) == 1 and r.entry(-5, -8) == 1 and r.entry(4, 1) == 0


def test_operator_product_matches_dense_oracle_on_window():
    # both operators only move column indices downward, so the window product
    # is exact for the upper-left block
    a = LocallyFiniteOperator.ray(Fraction(1), 0, 0) \
        + LocallyFiniteOperator.ray(Fraction(2), 3, 1, length=4)
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


def test_trace_pairing_symmetry_and_units():
    # <e_ij, e_kl> = delta_jk delta_il
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    v = trace_pair(FinitaryMatrix.unit(i, j),
                                   FinitaryMatrix.unit(k, l))
                    assert v == (1 if j == k and i == l else 0)
    rng = random.Random(17)
    for _ in range(10):
        x, y = random_finitary(rng), random_finitary(rng)
        assert trace_pair(x, y) == trace_pair(y, x)


def test_commutator_antisymmetry():
    rng = random.Random(21)
    x, y = random_finitary(rng), random_finitary(rng)
    assert commutator(x, y) == commutator(y, x).scale(-1)


def test_projection_truncates_exactly():
    a = LocallyFiniteOperator.ray(Fraction(1), 0, 1)
    p = block_cut(a, 4)
    assert p.entries == {(0, 1): 1, (1, 2): 1, (2, 3): 1}


def test_apply_to_vector_with_tag():
    a = LocallyFiniteOperator.ray(Fraction(2), 1, 0, length=2)
    v = Vec({tsym(0): Fraction(1), tsym(1): Fraction(3)})
    out = a.apply(v, tag="t")
    assert out == Vec({tsym(1): Fraction(2), tsym(2): Fraction(6)})


def test_strided_ray_skips_intermediate_diagonentries():
    s = StridedRayOperator(Fraction(1), 0, 2, 3)
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
_STEP = st.integers(min_value=1, max_value=4)


@st.composite
def _raw_at_step(draw):
    """A step and raw segments at it, each with a finite lo above step 1."""
    step = draw(_STEP)
    lo = _END if step == 1 else st.integers(min_value=-8, max_value=8)
    return step, draw(st.lists(st.tuples(lo, _END, _COEFF), max_size=10))


def _covers(lo, hi, r, step=1):
    return ((lo is None or lo <= r) and (hi is None or r <= hi)
            and (step == 1 or (r - (hi if lo is None else lo)) % step == 0))


@given(_raw_at_step())
def test_norm_segments_matches_dense_oracle(drawn):
    step, raw = drawn
    out = _norm_segments(raw, step)
    # rows -40..40 reach past every finite endpoint, so they also see each
    # infinite end
    for r in range(-40, 41):
        want = sum(c for lo, hi, c in raw if _covers(lo, hi, r, step))
        got = [c for lo, hi, c in out if _covers(lo, hi, r, step)]
        assert got == ([want] if want else []), r
    # residue classes come in increasing order
    classes = [(hi if lo is None else lo) % step if step > 1 else 0
               for lo, hi, _ in out]
    assert classes == sorted(classes)
    for k, (lo, hi, c) in enumerate(out):
        assert c and not isinstance(c, float)
        assert type(c) is int or c.denominator != 1
        assert lo is None or hi is None or (lo <= hi and (hi - lo) % step == 0)
        first = k == 0 or classes[k - 1] != classes[k]
        assert lo is not None or first
        assert (hi is not None or k == len(out) - 1
                or classes[k + 1] != classes[k])
        if not first:
            _, prev_hi, prev_c = out[k - 1]
            # sorted and disjoint within the class; adjacent segments are
            # maximal
            assert lo > prev_hi
            assert lo > prev_hi + step or c != prev_c


@st.composite
def _operators(draw, domain):
    """An operator at a drawn step; a raw segment without lo is anchored at
    its hi, one without either covers its whole diagonal."""
    step = draw(_STEP)
    segs = draw(st.dictionaries(st.integers(min_value=-3, max_value=3),
                                st.lists(st.tuples(_END, _END, _COEFF),
                                         max_size=3),
                                max_size=3))
    return LocallyFiniteOperator(segs, domain, step)


@given(st.sampled_from((NATURALS, INTEGERS)).flatmap(
    lambda d: st.tuples(_operators(d), _operators(d))))
def test_operator_sums_are_canonical_across_steps(ops):
    a, b = ops
    back = a + b - b
    assert back == a and hash(back) == hash(a)
    assert back.step == a.step
    for i in range(-30, 30):
        for o in range(-3, 4):
            assert (a + b).entry(i, i + o) == a.entry(i, i + o) \
                + b.entry(i, i + o)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_residue_shifted_strided_rays_sum_to_the_ray(k):
    total = LocallyFiniteOperator.zero()
    for r in range(k):
        total = total + StridedRayOperator(3, r, r + 1, k)
    ray = LocallyFiniteOperator.ray(3, 0, 1)
    assert total == ray and hash(total) == hash(ray) and total.step == 1
    # k - 1 of them stay at step k; a step-1 strided ray is the ray
    part = total - StridedRayOperator(3, 0, 1, k)
    assert part.step == k and bool(part) == (k > 1)
    assert StridedRayOperator(3, 0, 1, 1) == ray


def test_large_diagonal_builds():
    n = 4000
    m = FinitaryMatrix({(i, i): (i % 3) + 1 for i in range(n)})
    assert len(m.segs[0]) == n
    assert m.entries == {(i, i): (i % 3) + 1 for i in range(n)}
