"""Module structures, the trivial-extension equivalence, induced modules
from ideals, and the block bimodule correspondence."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from doublelie import dmodules
from doublelie.brackets import DoubleBracket, PolyCarrier, catalog_bracket
from doublelie.exact import Tensor2, Vec, esym, tsym
from doublelie.ideals import Subspace, is_ideal, quotient_bracket
from doublelie.dmodules import (DoubleAction, check_module_axioms,
                                check_submodule, extension_double_lie_check,
                                induced_module_from_ideal, mutate_action,
                                proposition_equivalence,
                                rb_bimodule_split_check,
                                trivial_extension_bracket)
from doublelie.report import VerificationReport


def tail_module(name, cut, window):
    B = catalog_bracket(name)
    I = Subspace.degree_span(B.carrier, window, cut)
    return induced_module_from_ideal(B, I, window)


def chain_instance():
    """Three-dimensional quotient of the first polynomial bracket, with its
    top slice as a one-dimensional module over the two-dimensional bottom."""
    L1 = catalog_bracket("L1")
    I3 = Subspace.degree_span(L1.carrier, 10, 3)
    B3 = quotient_bracket(L1, I3, 10)
    Iq = Subspace.from_vectors(B3.carrier, 4, [Vec.basis(tsym(2))])
    return induced_module_from_ideal(B3, Iq, 4)


def test_degree_one_tail_is_a_module_for_the_third_bracket():
    act, B_L = tail_module("L3", 1, 10)
    assert check_module_axioms(act, B_L).passed
    # the mixed components all vanish here, so the action is zero
    assert not any(act.eval(l, m)
               for l in act.l_syms for m in act.m_syms)


def test_degree_two_tail_is_a_module_for_the_first_bracket():
    act, B_L = tail_module("L1", 2, 10)
    assert check_module_axioms(act, B_L).passed
    assert extension_double_lie_check(B_L, act).passed
    # and the action is nonzero
    assert any(act.eval(l, m) for l in act.l_syms for m in act.m_syms)


def test_zero_action_passes_axioms():
    B_L = catalog_bracket("ex1")
    act = DoubleAction("zero", B_L.carrier.window_syms(), [tsym(9)],
                       lambda a, b: Tensor2(), lambda s: s[0] == "e")
    assert check_module_axioms(act, B_L).passed


def test_corrupted_action_fails_with_counterexample():
    act, B_L = tail_module("L1", 2, 10)
    bad = mutate_action(act, 0, preserve_skew=False)
    rep = check_module_axioms(bad, B_L)
    assert not rep.passed and rep.counterexample is not None
    skewed = mutate_action(act, 0, preserve_skew=True)
    rep2 = check_module_axioms(skewed, B_L)
    assert not rep2.passed
    assert rep2.counterexample["axiom"] != "action skew symmetry"


def _is_e(sym):
    return sym[0] == "e"


def _tensor_action(s1, s2):
    """l (x) m on (l, m) and -(m (x) l) on (m, l): mixed and skew, but not
    compatible with M x M mapping to zero."""
    return Tensor2({(s1, s2): 1 if _is_e(s1) else -1})


def _escaping_action(s1, s2):
    """<<e2, t>> = e1 (x) e2, both factors in L; zero elsewhere."""
    if (s1, s2) == (esym(2), tsym(1)):
        return Tensor2({(esym(1), esym(2)): 1})
    return Tensor2()


@pytest.mark.parametrize("eval_fn, ce", [
    (_escaping_action, '{"pair": "e2, t^1", "term": "e1 (x) e2", '
                       '"axiom": "mixed-output constraint"}'),
    (_tensor_action, '{"m1": "t^1", "m2": "t^1", "l": "e1", '
                     '"axiom": "module compatibility"}'),
])
def test_module_axiom_failure_records(eval_fn, ce):
    B_L = catalog_bracket("ex1")
    act = DoubleAction("a", B_L.carrier.window_syms(), [tsym(1)], eval_fn,
                       _is_e)
    rep = check_module_axioms(act, B_L)
    assert rep.to_json() == ('{"check": "module_axioms", "target": "a", '
                             '"l_dim": 2, "m_dim": 1, "status": "fail", '
                             '"counterexample": %s}' % ce)


def test_mixed_jacobi_failure_record():
    act, B_L = tail_module("L1", 2, 10)
    rep = check_module_axioms(mutate_action(act, 0, preserve_skew=True), B_L)
    assert json.dumps(rep.counterexample) == (
        '{"l1": "t^1", "l2": "t^1", "m": "t^2", "axiom": "mixed Jacobi"}')


def test_extension_equivalence_on_original_and_mutations():
    act, B_L = tail_module("L1", 2, 8)
    rep = proposition_equivalence(B_L, act, mutations=20)
    assert rep.passed
    assert rep.details["axiom_failures"] == 20


def test_head_span_reading_audit():
    """The low-degree span of a polynomial carrier is an ideal of the first
    and fourth brackets, but the induced projection action fails the module
    axioms; the tail span works for the first bracket only.  Recorded here
    as the two-readings audit."""
    verdicts = {}
    for name in ("L1", "L4"):
        B = catalog_bracket(name)
        low = Subspace.from_vectors(B.carrier, 10,
                                    [Vec.basis(tsym(k)) for k in range(3)])
        assert is_ideal(B, low, 10).passed
        act, B_L = induced_module_from_ideal(B, low, 10)
        verdicts[(name, "head")] = check_module_axioms(act, B_L).passed
        tail = Subspace.degree_span(B.carrier, 10, 2)
        assert is_ideal(B, tail, 10).passed
        act2, B_L2 = induced_module_from_ideal(B, tail, 10)
        verdicts[(name, "tail")] = check_module_axioms(act2, B_L2).passed
    assert verdicts == {("L1", "head"): False, ("L1", "tail"): True,
                        ("L4", "head"): False, ("L4", "tail"): False}


def test_induced_module_requires_an_ideal():
    L2 = catalog_bracket("L2")
    I = Subspace.from_vectors(L2.carrier, 8, [Vec.basis(tsym(0))])
    with pytest.raises(ValueError):
        induced_module_from_ideal(L2, I, 8)


def zero_bracket():
    """The zero bracket on the polynomials."""
    return DoubleBracket("zero", PolyCarrier(), lambda a, b: Tensor2())


@pytest.mark.parametrize("name, make", [
    # every subspace is an ideal of the zero bracket; this one has no basis
    # of symbols
    ("zero", lambda B: Subspace.from_vectors(
        B.carrier, 3, [Vec.basis(tsym(0)) + Vec.basis(tsym(1))])),
    # the tail t F[t] of tpoly-under-third has no element at window 0
    ("L3", lambda B: Subspace.degree_span(B.carrier, 0, 1)),
], ids=["non-monomial", "empty"])
def test_induced_module_needs_a_nonzero_monomial_span(name, make):
    B = zero_bracket() if name == "zero" else catalog_bracket(name)
    I = make(B)
    with pytest.raises(ValueError, match="nonzero ideal spanned by basis"):
        induced_module_from_ideal(B, I, I.window)


def test_induced_module_needs_a_head_or_tail_span():
    # span{t^0, t^2} is an ideal of the zero bracket, but the degree split
    # of the symbols past the window cannot tell its members
    B = zero_bracket()
    I = Subspace.from_vectors(B.carrier, 3, [Vec.basis(tsym(0)),
                                             Vec.basis(tsym(2))])
    with pytest.raises(ValueError, match="head or tail span"):
        induced_module_from_ideal(B, I, 3)


def test_mutating_a_zero_action_is_an_error():
    act, _B_L = tail_module("L3", 1, 10)
    with pytest.raises(ValueError, match="no nonzero pairs"):
        mutate_action(act, 0)


def test_extension_equivalence_failure_record(monkeypatch):
    # an extension check that disagrees with the module axioms on the
    # original action is reported at that instance
    act, B_L = tail_module("L1", 2, 8)
    monkeypatch.setattr(
        dmodules, "extension_double_lie_check",
        lambda B, inst: VerificationReport.failure("jacobi", B.name, {}))
    rep = proposition_equivalence(B_L, act, mutations=3)
    assert rep.to_dict() == {
        "check": "extension_equivalence", "target": act.name, "mutations": 3,
        "rng_seed": 2024, "status": "fail",
        "counterexample": {"instance": "original", "axioms": True,
                           "extension": False}}


def test_trivial_extension_layout():
    act, B_L = chain_instance()
    E = trivial_extension_bracket(B_L, act)
    # L x L falls back to the base bracket; M x M is identically zero
    assert E.eval(tsym(1), tsym(1)) == B_L.eval(tsym(1), tsym(1))
    assert not E.eval(tsym(2), tsym(2))
    assert E.eval(tsym(1), tsym(2)) == act.eval(tsym(1), tsym(2))


def test_submodule_containment():
    act, _B_L = tail_module("L1", 3, 8)
    # the whole module is a submodule of itself
    assert check_submodule(act, act.m_syms).passed
    # a slice that the action maps outside is not
    rep = check_submodule(act, [tsym(3)])
    assert not rep.passed and rep.counterexample is not None


def test_block_bimodule_catalog_instance_passes_all_four():
    act, B_L = chain_instance()
    rep = rb_bimodule_split_check(B_L, act)
    assert rep.passed
    assert rep.details == {"a_rb_on_A": True, "b_B_invariant": True,
                           "c_bimodule_equalities": True,
                           "d_rb_on_semidirect": True, "equivalent": True}


def test_block_bimodule_mutations_fail_coherently():
    act, B_L = chain_instance()
    for unit in ((1, 2), (2, 0)):
        rep = rb_bimodule_split_check(B_L, act, mutate_unit=unit)
        assert not rep.passed
        flags = rep.details
        assert flags["equivalent"]
        assert not flags["c_bimodule_equalities"]
        assert not flags["d_rb_on_semidirect"]


def test_block_bimodule_zero_action_is_degenerate_pass():
    B_L = catalog_bracket("ex1")
    act = DoubleAction("zero", B_L.carrier.window_syms(), [tsym(0)],
                       lambda a, b: Tensor2(), is_l=lambda s: s[0] == "e")
    rep = rb_bimodule_split_check(B_L, act)
    assert rep.passed


def test_simple_bracket_has_no_proper_regular_submodules():
    # viewing the bracket as acting on itself, a proper subspace that were a
    # submodule would be an ideal; random proper subspaces all fail
    import random
    from doublelie.ideals import is_ideal as regular_check
    rng = random.Random(77)
    L2 = catalog_bracket("L2")
    for _ in range(10):
        vecs = [Vec({tsym(rng.randrange(9)): Fraction(rng.randint(-3, 3))
                     for _ in range(3)}) for _ in range(rng.randint(1, 3))]
        N = Subspace.from_vectors(L2.carrier, 10, vecs)
        if N.dim == 0 or N.dim == 11:
            continue
        assert not regular_check(L2, N, 10).passed
