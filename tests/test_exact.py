"""Sparse exact vectors and tensors: algebra laws, the factor swap, and the
sparse_sum accumulation primitive."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from doublelie.brackets import catalog_bracket
from doublelie.exact import S, Tensor2, Vec, sparse_sum, tsym, ysym
from doublelie.grammar import parse_poly
from doublelie.ideals import Subspace, random_polynomials
from doublelie.matrices import FinitaryMatrix, LocallyFiniteOperator
from doublelie.rb import catalog_rb, unit_range


def _swap(u):
    """The factor swap a (x) b -> b (x) a."""
    return Tensor2({(b, a): c for (a, b), c in u.items()})


def random_tensor2(rng, size=6):
    return Tensor2({(tsym(rng.randrange(6)), tsym(rng.randrange(6))):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(size)})


def test_scalar_coercion():
    assert S("3/2") == Fraction(3, 2)
    assert S(7) == 7
    assert S(Fraction(1, 3)) == Fraction(1, 3)


def test_zero_pruning_makes_equality_structural():
    a = Vec({tsym(0): Fraction(1), tsym(1): Fraction(2)})
    b = Vec({tsym(1): Fraction(2), tsym(0): Fraction(1), tsym(3): Fraction(0)})
    assert a == b
    assert not (a - b)


def test_addition_group_laws_random_sweep():
    rng = random.Random(11)
    for _ in range(50):
        u, v, w = (random_tensor2(rng) for _ in range(3))
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert u + Tensor2() == u
        assert not (u - u)
        assert u.scale(3).scale(Fraction(1, 3)) == u


def test_swap_is_an_involution():
    rng = random.Random(7)
    for _ in range(20):
        u = random_tensor2(rng)
        assert _swap(_swap(u)) == u
        assert all(u.coeff((b, a)) == c for (a, b), c in _swap(u).items())


def test_composite_symbol_ordering_is_stable():
    syms = [ysym(1, 2, 1), ysym(0, 1, 1), ysym(1, 1, 2)]
    v = Vec({s: Fraction(1) for s in syms})
    assert [s for s, _ in v.sorted_items()] == sorted(syms,
                                                     key=lambda s: s[1])


_PAIRS = st.lists(st.tuples(
    st.sampled_from([tsym(n) for n in range(4)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4)
    | st.integers(min_value=-3, max_value=3)), max_size=12)


@given(_PAIRS)
def test_sparse_sum_matches_the_vec_fold(pairs):
    naive = Vec()
    for key, c in pairs:
        naive = naive + Vec({key: c})
    got = sparse_sum(pairs)
    assert got == naive.terms
    # independent oracle: each key's total, summed on its own
    totals = {key: sum(c for k, c in pairs if k == key) for key, _ in pairs}
    assert got == {key: c for key, c in totals.items() if c}
    assert all(got.values())


def _seg_coeffs(op):
    return [c for ss in op.segs.values() for _, _, c in ss]


def test_integer_data_stays_int():
    """Integer data never becomes Fraction, the int fast path of S."""
    coeffs = list(Vec.basis(tsym(3)).terms.values())
    coeffs += list(Vec.basis(ysym(1, 1, 2)).terms.values())
    coeffs += _seg_coeffs(LocallyFiniteOperator.unit(1, 2))
    coeffs += _seg_coeffs(FinitaryMatrix.unit(1, 2))
    for name in ("r1", "r1_laurent"):
        R = catalog_rb(name)
        idx = unit_range(R.domain, 4)
        coeffs += [c for i in idx for j in idx
                   for c in _seg_coeffs(R.image(i, j))]
    for B in (catalog_bracket("dY", N=2), catalog_bracket("L1")):
        syms = B.carrier.window_syms(3)
        coeffs += [c for a in syms for b in syms
                   for c in B.eval(a, b).terms.values()]
    # integer polynomials from the parser and from the seeded generator
    coeffs += list(parse_poly("2*t + 3 - 4/2*t^2").terms.values())
    coeffs += [c for f in random_polynomials(6, 4, seed=1)
               for c in f.scale(-3).terms.values()]
    # subspace coordinates, zeros included
    L1 = catalog_bracket("L1").carrier
    coeffs += Subspace(L1, 4).coords(parse_poly("2*t + 3 - 4/2*t^2"))
    assert coeffs and all(type(c) is int for c in coeffs)
    # a non-integer input still gives Fraction, and never a float
    c, = _seg_coeffs(catalog_rb("r1").scaled("1/2").image(2, 0))
    assert c == Fraction(-1, 2) and type(c) is Fraction
    c, = parse_poly("1/2*t").terms.values()
    assert c == Fraction(1, 2) and type(c) is Fraction
    assert Subspace(L1, 2).coords(parse_poly("1/2*t")) == [0, c, 0]
