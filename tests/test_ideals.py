"""Subspaces, quotients, ideal checks, closure search, and the scripted
simplicity replay."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from doublelie.brackets import (catalog_bracket, check_anticommutativity,
                                check_homomorphism, check_jacobi)
from doublelie.exact import Tensor2, Vec, esym, tsym
from doublelie.ideals import (Subspace, ideal_closure, is_ideal,
                              quotient_bracket, quotient_reduce,
                              random_polynomials, simplicity_probe,
                              theorem3_replay)


def span(carrier, window, *vecs):
    return Subspace.from_vectors(carrier, window, list(vecs))


def test_echelon_membership_and_canonical_reduction():
    carrier = catalog_bracket("L1").carrier
    I = span(carrier, 6, Vec.basis(tsym(2)) + Vec.basis(tsym(1)).scale(2),
             Vec.basis(tsym(4)))
    assert I.dim == 2
    assert I.contains(Vec.basis(tsym(4)).scale(-3))
    assert not I.contains(Vec.basis(tsym(1)))
    combo = (Vec.basis(tsym(2)) + Vec.basis(tsym(1)).scale(2)).scale(5)
    assert I.contains(combo)
    # reduction is idempotent
    v = Vec.basis(tsym(2)) + Vec.basis(tsym(0))
    assert I.reduce(I.reduce(v)) == I.reduce(v)


def test_quotient_map_kills_exactly_the_mixed_kernel():
    carrier = catalog_bracket("L1").carrier
    I = Subspace.degree_span(carrier, 8, 2)
    # left factor in the subspace: dies
    assert not quotient_reduce(Tensor2({(tsym(2), tsym(0)): 1}), I)
    assert not quotient_reduce(Tensor2({(tsym(0), tsym(5)): 1}), I)
    # diagonal pure tensor with factor outside: survives
    assert quotient_reduce(Tensor2({(tsym(1), tsym(1)): 1}), I)
    assert not quotient_reduce(Tensor2(), I)


def test_quotient_map_kernel_on_random_combinations():
    rng = random.Random(13)
    carrier = catalog_bracket("L1").carrier
    I = span(carrier, 8, Vec.basis(tsym(3)) + Vec.basis(tsym(1)),
             Vec.basis(tsym(6)))
    inside = [Vec.basis(tsym(3)) + Vec.basis(tsym(1)), Vec.basis(tsym(6))]
    outside = [Vec.basis(tsym(0)), Vec.basis(tsym(2)), Vec.basis(tsym(4))]
    for _ in range(20):
        v = inside[rng.randrange(2)].scale(rng.randint(1, 5))
        w = outside[rng.randrange(3)].scale(rng.randint(1, 5))
        assert not quotient_reduce(_pure_product(v, w), I)
        assert not quotient_reduce(_pure_product(w, v), I)
        assert quotient_reduce(_pure_product(w, w), I)


def _pure_product(v, w):
    """The tensor v (x) w of two vectors."""
    return Tensor2({(a, b): ca * cb for a, ca in v.items()
                    for b, cb in w.items()})


def test_quotient_reduce_rejects_out_of_window_support():
    carrier = catalog_bracket("L1").carrier
    I = Subspace.degree_span(carrier, 4, 2)
    with pytest.raises(ValueError):
        quotient_reduce(Tensor2({(tsym(9), tsym(0)): 1}), I)


def test_ideal_examples():
    L1, L2 = catalog_bracket("L1"), catalog_bracket("L2")
    assert is_ideal(L1, Subspace.degree_span(L1.carrier, 10, 2), 10).passed
    ex1 = catalog_bracket("ex1")
    assert is_ideal(ex1, span(ex1.carrier, None, Vec.basis(esym(2))),
                    2).passed
    rep = is_ideal(L2, span(L2.carrier, 10, Vec.basis(tsym(0))), 10)
    assert not rep.passed and rep.counterexample is not None


def test_quotient_bracket_matches_two_dimensional_catalog_entry():
    L1 = catalog_bracket("L1")
    I = Subspace.degree_span(L1.carrier, 10, 2)
    Q = quotient_bracket(L1, I, 10)
    assert Q.eval(tsym(1), tsym(1)) == \
        Tensor2({(tsym(1), tsym(0)): 1}) - Tensor2({(tsym(0), tsym(1)): 1})
    assert check_anticommutativity(Q).passed and check_jacobi(Q).passed
    phi = {tsym(1): Vec.basis(esym(1)), tsym(0): Vec.basis(esym(2))}
    assert check_homomorphism(Q, catalog_bracket("ex1"), phi).passed


def test_quotient_by_zero_and_by_everything():
    L1 = catalog_bracket("L1")
    Z = Subspace(L1.carrier, 5)
    Q = quotient_bracket(L1, Z, 5)
    for n in range(3):
        for m in range(3):
            assert Q.eval(tsym(n), tsym(m)) == L1.eval(tsym(n), tsym(m))
    full = Subspace.degree_span(L1.carrier, 5, 0)
    Qf = quotient_bracket(L1, full, 5)
    assert Qf.carrier.window_syms() == []


def test_non_ideal_quotient_is_rejected():
    L2 = catalog_bracket("L2")
    with pytest.raises(ValueError):
        quotient_bracket(L2, span(L2.carrier, 8, Vec.basis(tsym(0))), 8)


def test_closure_of_empty_seed_is_zero():
    L2 = catalog_bracket("L2")
    closures, exhausted = ideal_closure(L2, [], 8)
    assert not exhausted and len(closures) == 1 and closures[0].dim == 0


def test_closure_of_stable_seed_stays_put():
    ex1 = catalog_bracket("ex1")
    closures, exhausted = ideal_closure(ex1, [Vec.basis(esym(2))], 2)
    assert not exhausted and len(closures) == 1
    assert closures[0].dim == 1
    assert closures[0].contains(Vec.basis(esym(2)))
    assert is_ideal(ex1, closures[0], 2).passed


def test_closure_saturates_for_the_simple_bracket():
    L2 = catalog_bracket("L2")
    closures, exhausted = ideal_closure(L2, [Vec.basis(tsym(0))], 16)
    assert not exhausted
    for I in closures:
        for s in range((16 - 1) // 2 + 1):
            assert I.contains(Vec.basis(tsym(s))), s
        assert is_ideal(L2, I, 16).passed


def test_closure_minimality_audit_small_instance():
    # removing a forced generator and re-closing grows back to the closure
    L2 = catalog_bracket("L2")
    closures, _ = ideal_closure(L2, [Vec.basis(tsym(0))], 10)
    I = closures[0]
    reclosed, exhausted = ideal_closure(L2, [Vec.basis(tsym(0))], 10)
    assert not exhausted
    assert {J.key() for J in reclosed} == {I.key()}


def test_budget_exhaustion_is_flagged():
    L2 = catalog_bracket("L2")
    closures, exhausted = ideal_closure(L2, [Vec.basis(tsym(0))], 12,
                                        budget=1)
    assert exhausted


def test_simplicity_probe_verdicts():
    L2 = catalog_bracket("L2")
    assert simplicity_probe(L2, 12, seed_count=8).passed
    # a bracket with an exhibited proper ideal is not simple
    ex1 = catalog_bracket("ex1")
    seeds = [Vec.basis(esym(2))]
    rep = simplicity_probe(ex1, 2, seeds=seeds)
    assert not rep.passed
    zero = catalog_bracket("zero")
    assert not simplicity_probe(zero, 4, seeds=[Vec.basis(tsym(0))]).passed


def test_random_polynomial_family_is_replayable():
    a = random_polynomials(5, 4, 99)
    b = random_polynomials(5, 4, 99)
    assert a == b
    assert all(max(s[1] for s in v.terms) <= 4 for v in a)


def test_replay_of_the_simplicity_argument():
    rep = theorem3_replay(12)
    assert rep.passed
    assert rep.details["forced_memberships"] == (12 - 1) // 2 + 1


def test_minimal_degree_expansion_base_case():
    # the bracket of 1 with t is 1 (x) 1
    L2 = catalog_bracket("L2")
    assert L2.eval(tsym(0), tsym(1)) == Tensor2({(tsym(0), tsym(0)): 1})
