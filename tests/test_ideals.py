"""Subspaces, quotients, ideal checks, closure search, and the scripted
simplicity replay."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from doublelie import brackets, ideals
from doublelie.brackets import (DoubleBracket, PolyCarrier,
                                _certified_anticommutative, bracket_from_rb,
                                catalog_bracket, check_anticommutativity,
                                check_homomorphism, check_jacobi)
from doublelie.exact import Tensor2, Vec, esym, sparse_sum, tsym
from doublelie.grammar import parse_poly, render_vec
from doublelie.ideals import (Subspace, _inclusion_minimal, _survivor,
                              ideal_closure, is_ideal, quotient_bracket,
                              quotient_reduce, random_polynomials,
                              simplicity_probe, theorem3_replay)
from doublelie.linalg import reduce_vector, rref
from doublelie.rb import catalog_rb
from doublelie.report import VerificationReport


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


def test_subspace_repr_names_its_window():
    L1, ex1 = catalog_bracket("L1"), catalog_bracket("ex1")
    assert repr(span(L1.carrier, 6, Vec.basis(tsym(2)))) == \
        "Subspace(dim 1 in poly window 6)"
    # finite carriers have no window
    assert repr(span(ex1.carrier, None, Vec.basis(esym(2)))) == \
        "Subspace(dim 1 in finite(2) window None)"


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


@pytest.mark.parametrize("op, name", [
    ("r1", "L1"), ("r2", "L2"), ("r3", "L3"), ("r4", "L4"),
    ("r2_laurent", "L2_laurent")])
def test_ideal_checks_on_correspondence_brackets_match_the_closed_forms(
        op, name):
    # bracket_from_rb declares its chamber table's degree shift, so the
    # sweep reads only pairs whose values stay in the window, as it does on
    # the closed form
    B, L = bracket_from_rb(catalog_rb(op)), catalog_bracket(name)
    for window in (4, 8):
        for degree in range(-2, 4):
            I = Subspace.degree_span(B.carrier, window, degree)
            got, want = (is_ideal(C, I, window).to_dict() for C in (B, L))
            assert got.pop("target") == "<<%s>>" % op
            assert want.pop("target") == name
            assert got == want, (window, degree)


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


def test_quotient_keeps_every_symbol_from_its_window_up():
    L1 = catalog_bracket("L1")
    for w in (2, 5):
        for I in (Subspace(L1.carrier, w),
                  Subspace.degree_span(L1.carrier, w, 2)):
            carrier = quotient_bracket(L1, I, w).carrier
            syms = carrier.window_syms()
            assert syms == I.complement_syms()
            for window in range(w, w + 4):
                assert carrier.window_syms(window) == syms


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


def reference_minimal(closures):
    """The pairwise containment filter, as a reference: drop a closure that
    contains another one with a different key, then any repeated key."""
    def contains(I, J):
        return all(I.contains(v) for v in J.basis_vecs())

    minimal = []
    for I in closures:
        if any(contains(I, J) and I.key() != J.key() for J in closures):
            continue
        if any(J.key() == I.key() for J in minimal):
            continue
        minimal.append(I)
    return minimal


_DIM = 5
_ROW = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2))),
                min_size=_DIM, max_size=_DIM)


def _row_span(carrier, rows):
    """The span of coordinate rows over the first _DIM window symbols."""
    syms = carrier.window_syms(_DIM - 1)
    return span(carrier, _DIM - 1, *(Vec(dict(zip(syms, row)))
                                     for row in rows))


@st.composite
def _subspace_families(draw):
    """Distinct subspaces of a 5-dimensional window: spans of subsets of a
    few generators (so many pairs are nested), plus copies of some of them
    with one echelon entry changed (same dimension and pivot set, another
    space)."""
    carrier = catalog_bracket("L1").carrier
    gens = draw(st.lists(_ROW, min_size=1, max_size=6))
    masks = draw(st.lists(st.integers(0, 2 ** len(gens) - 1), min_size=1,
                          max_size=12))
    family = [_row_span(carrier,
                        [g for k, g in enumerate(gens) if mask >> k & 1])
              for mask in masks]
    for I in draw(st.lists(st.sampled_from(family), max_size=4)):
        # entries right of a row's pivot, outside the pivot columns
        free = [(r, c) for r, p in enumerate(I.pivots)
                for c in range(p + 1, _DIM) if c not in I.pivots]
        if not free:
            continue
        r, c = draw(st.sampled_from(free))
        rows = [list(row) for row in I.rows]
        rows[r][c] += draw(st.sampled_from((1, -2, Fraction(1, 3))))
        family.append(_row_span(carrier, rows))
    distinct = {}
    for I in draw(st.permutations(family)):
        distinct.setdefault(I.key(), I)
    return list(distinct.values())


@settings(max_examples=300, deadline=None)
@given(_subspace_families())
def test_inclusion_minimal_matches_pairwise_containment(family):
    got = _inclusion_minimal(family)
    assert [I.key() for I in got] == \
        [I.key() for I in reference_minimal(family)]


def _tensors(dim):
    return st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                              st.sampled_from((1, -3, Fraction(2, 5)))),
                    max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROW, max_size=6), st.lists(_ROW, max_size=3), _ROW,
       _tensors(_DIM))
def test_integer_subspace_matches_the_fraction_rref(gens, more, probe, terms):
    carrier = catalog_bracket("L1").carrier
    I = _row_span(carrier, gens)
    red, pivots = rref(gens)
    assert I.pivots == pivots
    for row, ref, p in zip(I.rows, red, pivots):
        assert all(type(c) is int for c in row)
        assert math.gcd(*row) == 1 and row[p] > 0
        assert [Fraction(c, row[p]) for c in row] == ref
    assert I.basis_vecs() == [I.vec_of(ref) for ref in red]
    # extended inserts into the echelon form: the same as a fresh build
    J = I.extended([I.vec_of(row) for row in more])
    assert J.key() == _row_span(carrier, gens + more).key()
    # contains and quotient_reduce agree with the monic Fraction echelon
    # rows
    ref = reduce_vector(probe, red, pivots)
    assert I.contains(I.vec_of(probe)) == (not any(ref))
    proj = {}
    for k, s in enumerate(I.syms):
        unit = reduce_vector([int(i == k) for i in range(_DIM)], red, pivots)
        proj[s] = tuple((I.syms[i], c) for i, c in enumerate(unit) if c)
    u = Tensor2()
    for a, b, c in terms:
        u += Tensor2({(I.syms[a], I.syms[b]): c})
    expect = Tensor2()
    for (a, b), c in u.items():
        for sa, ca in proj[a]:
            for sb, cb in proj[b]:
                expect += Tensor2({(sa, sb): c * ca * cb})
    assert quotient_reduce(u, I) == expect


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROW, min_size=1, max_size=3), st.sampled_from(("L1", "L2")))
def test_survivors_are_positive_multiples_of_the_quotient(gens, name):
    B = catalog_bracket(name)
    I = _row_span(B.carrier, gens)
    found = _first_survivor(B, I, _DIM - 1)
    assert (found is None) == is_ideal(B, I, _DIM - 1).passed
    assert (found is None) == (not _two_sided_survivors(B, I, _DIM - 1))
    if found is None:
        return
    v, k, side, surv = found
    g, vv = I.basis_vecs()[k], Vec.basis(v)
    value = B.eval_linear(*((vv, g) if side == "ambient,ideal" else (g, vv)))
    exact = quotient_reduce(value, I).terms
    assert surv.keys() == exact.keys()
    ratios = {surv[key] / Fraction(c) for key, c in exact.items()}
    assert len(ratios) == 1 and ratios.pop() > 0


def _first_survivor(B, I, window):
    """_survivor with the certificate the package passes it."""
    return _survivor(B, I, window, _certified_anticommutative(B))


def _two_sided_survivors(B, I, window):
    """Every survivor of the sweep of _survivor with no certificate:
    both sides of every pair, each value summed (eval_linear) and then
    projected, as a list in sweep order."""
    carrier, shift = B.carrier, B.degree_shift
    laurent = getattr(carrier, "laurent", False)
    out = []
    for v in carrier.window_syms(window):
        vv = Vec.basis(v)
        for k, row in enumerate(I.rows):
            g = I.vec_of(row)
            room = math.inf if shift is None else window - max(shift, 0) - \
                max(carrier.degree(s) for s in g.terms)
            if carrier.degree(v) > room:
                continue
            for left, right, side in ((vv, g, "ambient,ideal"),
                                      (g, vv, "ideal,ambient")):
                value = B.eval_linear(left, right)
                if laurent and not all(a in I.pos and b in I.pos
                                       for a, b in value.terms):
                    continue
                surv = ideals._quotient_numerators(value.items(), I)
                if surv:
                    out.append((v, k, side, surv))
    return out


def _five_sym_span(carrier, rows):
    """The span of coordinate rows over a window of five symbols: t^0..t^4,
    or t^-2..t^2 on a Laurent carrier.  Returns (window, span)."""
    window = 2 if carrier.laurent else 4
    syms = carrier.window_syms(window)
    return window, span(carrier, window,
                        *(Vec(dict(zip(syms, row))) for row in rows))


@settings(max_examples=150, deadline=None)
@given(st.lists(_ROW, min_size=1, max_size=3),
       st.sampled_from(("L1", "L2", "L3", "L4", "L1_laurent", "L2_laurent",
                        "L3_laurent", "L4_laurent")))
def test_survivors_match_the_two_sided_sweep_on_catalog_brackets(gens,
                                                                 name):
    B = catalog_bracket(name)
    window, I = _five_sym_span(B.carrier, gens)
    assert _certified_anticommutative(B)
    assert _first_survivor(B, I, window) == \
        next(iter(_two_sided_survivors(B, I, window)), None)


def _random_bracket(carrier, shift, seed, antisymmetrise):
    """A sparse bracket on a PolyCarrier: each value has up to three terms of
    total degree at most deg a + deg b + shift, drawn from a generator
    seeded by the pair; Laurent terms may fall below the window.
    Antisymmetrised, the value is T(a, b) - swap(T(b, a))."""
    def raw(s1, s2):
        rng = random.Random("%d:%d:%d" % (seed, s1[1], s2[1]))
        terms = {}
        for _ in range(rng.randint(0, 3)):
            total = s1[1] + s2[1] + shift - rng.randint(0, 2)
            if carrier.laurent:
                r = rng.randint(-5, 5)
            elif total >= 0:
                r = rng.randint(0, total)
            else:
                continue
            terms[(tsym(r), tsym(total - r))] = rng.choice(
                (1, -1, 2, Fraction(1, 2)))
        return Tensor2(terms)

    def eval_fn(s1, s2):
        if not antisymmetrise:
            return raw(s1, s2)
        return raw(s1, s2) - Tensor2({(b, a): c
                                      for (a, b), c in raw(s2, s1).items()})

    return DoubleBracket("random", carrier, eval_fn, degree_shift=shift)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ROW, min_size=1, max_size=3), st.booleans(),
       st.sampled_from((-1, 0, 1)), st.integers(0, 2 ** 16),
       st.booleans())
def test_survivors_match_the_two_sided_sweep_on_random_brackets(
        gens, laurent, shift, seed, antisymmetrise):
    B = _random_bracket(PolyCarrier(laurent), shift, seed, antisymmetrise)
    window, I = _five_sym_span(B.carrier, gens)
    assert check_anticommutativity(B, window).passed or not antisymmetrise
    assert not _certified_anticommutative(B)
    assert _first_survivor(B, I, window) == \
        next(iter(_two_sided_survivors(B, I, window)), None)


def _flipped(B, pair):
    """B with the sign of its value at one pair flipped."""
    def eval_fn(s1, s2):
        value = B.eval(s1, s2)
        return -value if (s1, s2) == pair else value

    return DoubleBracket(B.name, B.carrier, eval_fn, B.degree_shift)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ROW, min_size=1, max_size=3),
       st.sampled_from(("L1", "L2", "L3", "L4", "L1_laurent", "L2_laurent",
                        "L3_laurent", "L4_laurent")))
def test_survivors_match_the_two_sided_sweep_on_single_flips(gens, name):
    # a flipped copy carries no table, so the sweep computes both sides
    B = catalog_bracket(name)
    window, I = _five_sym_span(B.carrier, gens)
    for pair in product(B.carrier.window_syms(window), repeat=2):
        F = _flipped(B, pair)
        assert not _certified_anticommutative(F)
        assert _first_survivor(F, I, window) == \
            next(iter(_two_sided_survivors(F, I, window)), None), pair


def test_a_one_sided_survivor_is_found_without_the_certificate():
    # flipping <<t^2, t^1>> breaks anticommutativity; modulo span{t + t^2}
    # the value <<t, t + t^2>> then dies and <<t + t^2, t>> survives
    B = _flipped(catalog_bracket("L1"), (tsym(2), tsym(1)))
    I = span(B.carrier, 3, parse_poly("t + t^2"))
    assert not check_anticommutativity(B, 3).passed
    got = _first_survivor(B, I, 3)
    assert got == _two_sided_survivors(B, I, 3)[0]
    assert got[:3] == (tsym(1), 0, "ideal,ambient")
    assert is_ideal(B, I, 3).counterexample == {
        "ambient": "t^1", "generator": "t^1 + t^2", "order": "ideal,ambient"}
    closures, exhausted = ideal_closure(B, [parse_poly("t + t^2")], 3)
    assert not exhausted and I.key() not in {J.key() for J in closures}
    assert all(is_ideal(B, J, 3).passed for J in closures)


def test_closure_search_on_a_bracket_defined_on_part_of_the_window():
    # the quotient's values at the top of its window leave L1's window, so
    # a whole-window sweep raises there; the quotient has no certificate,
    # so the ideal sweep computes both sides, of only the pairs whose values
    # stay inside, and the search completes
    L1 = catalog_bracket("L1")
    Q = quotient_bracket(L1, span(L1.carrier, 8, Vec.basis(tsym(0))), 8)
    assert not _certified_anticommutative(Q)
    with pytest.raises(ValueError):
        check_anticommutativity(Q, 8)
    closures, exhausted = ideal_closure(Q, [Vec.basis(tsym(1))], 8)
    assert not exhausted and closures
    assert all(is_ideal(Q, I, 8).passed for I in closures)


def test_closure_search_on_a_certified_bracket_reads_one_side(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    evals = []
    ev = DoubleBracket.eval
    survivor = ideals._survivor

    def one_sided(B, I, window, anticommutative):
        # every value the node's sweep reads is <<v, s>>, s in the support
        # of a row of I: no "ideal,ambient" value <<s, v>> of a symbol v
        # outside that support
        assert anticommutative
        del evals[:]
        found = survivor(B, I, window, anticommutative)
        support = {s for row in I.rows for s in I.vec_of(row).terms}
        assert evals and all(b in support for _a, b in evals)
        calls["node"] += 1
        return found

    monkeypatch.setattr(brackets, "check_anticommutativity", counted(
        "check_anticommutativity", brackets.check_anticommutativity))
    monkeypatch.setattr(VerificationReport, "__init__", counted(
        "VerificationReport", VerificationReport.__init__))
    monkeypatch.setattr(DoubleBracket, "eval_linear", counted(
        "eval_linear", DoubleBracket.eval_linear))
    monkeypatch.setattr(DoubleBracket, "eval", lambda B, a, b: evals.append(
        (a, b)) or ev(B, a, b))
    monkeypatch.setattr(ideals, "_survivor", one_sided)
    closures, exhausted = ideal_closure(catalog_bracket("L1"),
                                        [parse_poly("t^2 + 4*t - 1")], 7)
    assert not exhausted and len(closures) > 1
    assert not hasattr(ideals, "check_anticommutativity")
    for name in ("check_anticommutativity", "VerificationReport",
                 "eval_linear"):
        assert calls.pop(name, 0) == 0, name
    assert calls["node"] > 1


def test_is_ideal_renders_the_monic_generator():
    L2 = catalog_bracket("L2")
    rep = is_ideal(L2, span(L2.carrier, 6, parse_poly("2 + t")), 6)
    assert rep.to_json() == (
        '{"check": "is_ideal", "target": "L2", "subspace_dim": 1, '
        '"window": 6, "status": "fail", "counterexample": {"ambient": "t^0", '
        '"generator": "t^0 + 1/2*t^1", "order": "ambient,ideal"}}')


def _digest(spaces):
    text = "\n".join("|".join(render_vec(v) for v in I.basis_vecs())
                     for I in spaces)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, seed, window, nodes, tree, closures", [
    ("L1", "2*t^2 + 3*t - 1", 7, 76, "14dafd016f677c16", "8b25159bd5297077"),
    ("L1", "t^2 + 4*t - 1", 9, 356, "dd683c1819f89eb9", "d51b0d70449ae0f5"),
    ("L1", "1/2*t^3 - t + 3", 7, 32, "3eee7391b0f1f604", "144423b78f18a2bb"),
    ("L2", "2*t^2 + 3*t - 1", 7, 6, "aa93759cc1a8b298", "621d02e0d6b65722"),
    ("L2", "t + 2", 8, 6, "dd1140d2f839d838", "621d02e0d6b65722"),
    ("L3", "t^3 + 2*t - 1", 8, 12, "b51aacb2981b46f3", "80a7650def3b994a"),
    ("L4", "1/2*t^3 - t + 3", 7, 68, "b4326e6a341672ee", "b8ec1f1123654bfc"),
    ("L1", "t^4 - t^3 + t^2 + 3*t + 3", 9, 80, "7daffb81b3af0857",
     "f6f874be104ca1e9"),
    ("L1_laurent", "t + 1", 3, 16, "c6027dc4926a3e1d", "3f26aff3c2baeab8"),
    ("L2_laurent", "2*t^-1 + 3*t", 3, 2, "f4017488904ff574",
     "a2730efa988b6f70"),
])
def test_closure_search_tree_is_pinned(name, seed, window, nodes, tree,
                                       closures):
    # every node the search builds under the full branching rule (with the
    # right-factor child of every survivor), in order, and the closures it
    # returns; the digests are of their monic echelon bases
    got, exhausted, built, _decided = _searched(
        catalog_bracket(name), parse_poly(seed), window,
        every_right_branch=True)
    assert not exhausted and len(built) == nodes
    assert _digest(built).startswith(tree)
    assert _digest(got).startswith(closures)


@pytest.mark.parametrize("name, seed, window, nodes, tree, expanded", [
    ("L1", "2*t^2 + 3*t - 1", 7, 57, "3f83c025371266fb", "d04c32ead80c7971"),
    ("L1", "t^2 + 4*t - 1", 9, 267, "80403c79eb721364", "8045dcd8b9bd23d1"),
    ("L1", "1/2*t^3 - t + 3", 7, 24, "978d2f06eaf4ca61", "fc4c7ff099bc2f71"),
    ("L2", "2*t^2 + 3*t - 1", 7, 4, "9355193c5904cc3a", "0874f0ce097404af"),
    ("L2", "t + 2", 8, 3, "24d26e79f98a82c6", "0d6f3294821bbb6a"),
    ("L3", "t^3 + 2*t - 1", 8, 9, "5f3e7dbfa20ec4f8", "ec9ddcbebb8f2206"),
    ("L4", "1/2*t^3 - t + 3", 7, 51, "7cba2e662a79a0b6", "bd260bce4ba025ab"),
    ("L1", "t^4 - t^3 + t^2 + 3*t + 3", 9, 60, "59481941ebd0fec2",
     "0dad70dbdadfc301"),
    ("L1_laurent", "t + 1", 3, 12, "9fcaee36703f2782", "dfe42f0873b2b484"),
    ("L2_laurent", "2*t^-1 + 3*t", 3, 1, "a2730efa988b6f70",
     "ee61a6c45799b650"),
])
def test_closure_search_builds_each_symmetric_child_once(name, seed, window,
                                                         nodes, tree,
                                                         expanded):
    # the nodes the search builds and the nodes _survivor decides, in order;
    # the full rule's extra children repeat spans built anyway, so it
    # decides the same nodes and returns the same closures
    B, f = catalog_bracket(name), parse_poly(seed)
    got, exhausted, built, decided = _searched(B, f, window)
    assert not exhausted and len(built) == nodes
    assert _digest(built).startswith(tree)
    assert _digest(decided).startswith(expanded)
    full, _exhausted, full_built, full_decided = _searched(
        B, f, window, every_right_branch=True)
    assert _keys(got) == _keys(full) and _keys(decided) == _keys(full_decided)
    assert set(_keys(built)) == set(_keys(full_built))


def _keys(spaces):
    return [I.key() for I in spaces]


def _right_branch(T):
    """The right-factor branch of a surviving tensor: for each left factor
    a, the vector sum_b T[a, b] b."""
    lefts = sorted({a for a, _b in T}, key=repr)
    rights = sorted({b for _a, b in T}, key=repr)
    return [Vec({b: T.get((a, b), 0) for b in rights}) for a in lefts]


def _searched(B, seed, window, budget=5000, every_right_branch=False):
    """ideal_closure on one seed: (closures, exhausted, the nodes built, the
    nodes _survivor decides).  every_right_branch puts the right-factor
    branch back into _branches_for where it is left out, for a tensor that
    is plus or minus its own swap."""
    built, decided = [], []
    extended, survivor = Subspace.extended, ideals._survivor
    rule = ideals._branches_for

    def record(self, vectors):
        built.append(extended(self, vectors))
        return built[-1]

    def decide(B, I, window, anticommutative):
        decided.append(I)
        return survivor(B, I, window, anticommutative)

    def every_branch(T):
        branches = rule(T)
        swapped = {(b, a): c for (a, b), c in T.items()}
        if T in (swapped, {key: -c for key, c in swapped.items()}):
            branches.insert(1, _right_branch(T))
        return branches

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "extended", record)
        mp.setattr(ideals, "_survivor", decide)
        if every_right_branch:
            mp.setattr(ideals, "_branches_for", every_branch)
        closures, exhausted = ideal_closure(B, [seed], window, budget)
    return closures, exhausted, built, decided


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("L1", "L2", "L3", "L4")), st.booleans(),
       st.lists(st.integers(-3, 3), min_size=2, max_size=5),
       st.sampled_from((1, 2, 5, 5000)))
def test_the_full_branching_rule_decides_the_same_nodes(name, laurent,
                                                        coeffs, budget):
    # L1-L4 and their Laurent variants on a seed of small degree, also when
    # the budget runs out
    B = catalog_bracket(name + "_laurent" if laurent else name)
    window, low = (3, -1) if laurent else (6, 0)
    f = Vec({tsym(low + k): c for k, c in enumerate(coeffs) if c})
    assume(f)
    got, exhausted, _built, decided = _searched(B, f, window, budget)
    full, full_exhausted, _built, full_decided = _searched(
        B, f, window, budget, every_right_branch=True)
    assert (_keys(got), exhausted) == (_keys(full), full_exhausted)
    assert _keys(decided) == _keys(full_decided)


@st.composite
def _tensors_up_to_swap(draw):
    """(T, sign): an integer tensor on t^0..t^3 with T = sign tau T, tau the
    swap of the factors, or sign None for a tensor that is neither."""
    sign = draw(st.sampled_from((1, -1, None)))
    entries = st.tuples(st.integers(0, 3), st.integers(0, 3),
                        st.sampled_from((1, -1, 2, -3)))
    T = {}
    for i, j, c in draw(st.lists(entries, min_size=1, max_size=6)):
        if sign == -1 and i == j:
            continue
        T[tsym(i), tsym(j)] = c
        if sign is not None:
            T[tsym(j), tsym(i)] = sign * c
    swapped = {(b, a): c for (a, b), c in T.items()}
    assume(T)
    if sign is None:
        assume(T not in (swapped, {key: -c for key, c in swapped.items()}))
    return T, sign


@settings(max_examples=200, deadline=None)
@given(_tensors_up_to_swap())
def test_the_right_branch_is_left_out_only_where_it_repeats(tensor):
    T, sign = tensor
    carrier = catalog_bracket("L1").carrier
    branches = ideals._branches_for(T)
    rank = len(rref([[T.get((tsym(a), tsym(b)), 0) for b in range(4)]
                     for a in range(4)])[1])
    mixed = 2 ** rank - 2 if 2 <= rank <= 3 else 0
    left, right = branches[0], _right_branch(T)
    if sign is None:
        assert len(branches) == 2 + mixed and branches[1] == right
    else:
        assert len(branches) == 1 + mixed
        assert Subspace.from_vectors(carrier, 3, right).key() == \
            Subspace.from_vectors(carrier, 3, left).key()


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


def test_simplicity_probe_names_its_rng_seed_only_when_it_draws():
    L2 = catalog_bracket("L2")
    drawn = simplicity_probe(L2, 6, seed_count=2)
    given = simplicity_probe(L2, 6, seeds=random_polynomials(2, 6, 2024))
    assert drawn.params == {"window": 6, "guaranteed_degree": 2,
                            "rng_seed": 2024}
    assert given.params == {"window": 6, "guaranteed_degree": 2,
                            "seeds": "given"}
    assert drawn.passed and given.passed and drawn.details == given.details
    zero = simplicity_probe(catalog_bracket("zero"), 4,
                            seeds=[Vec.basis(tsym(0))])
    assert zero.params["seeds"] == "given" and "rng_seed" not in zero.params


def test_simplicity_probe_default_degree_fits_the_window(monkeypatch):
    # the drawn seeds' degree bound is 8 cut to the window; an uncut 8
    # would put terms outside window 3
    drawn = []

    def spy(count, max_degree, seed):
        drawn.append((count, max_degree, seed))
        return random_polynomials(count, max_degree, seed)

    monkeypatch.setattr(ideals, "random_polynomials", spy)
    L2 = catalog_bracket("L2")
    record = (
        '{"check": "simplicity_probe", "target": "L2", "guaranteed_degree": '
        '1, "rng_seed": 2024, "window": 3, "status": "pass", "details": '
        '{"seeds": 5, "closures_checked": 5}}')
    assert simplicity_probe(L2, 3, seed_count=5).to_json() == record
    assert simplicity_probe(L2, 12, seed_count=1).passed
    assert drawn == [(5, 3, 2024), (1, 8, 2024)]


def test_random_polynomial_family_is_replayable():
    a = random_polynomials(5, 4, 99)
    b = random_polynomials(5, 4, 99)
    assert a == b
    assert all(max(s[1] for s in v.terms) <= 4 for v in a)


def test_replay_of_the_simplicity_argument():
    rep = theorem3_replay(12)
    assert rep.passed
    assert rep.details["forced_memberships"] == (12 - 1) // 2 + 1


def test_replay_samples_nothing():
    rep = theorem3_replay(6)
    assert rep.params == {"window": 6}
    assert rep.details == {"degrees_checked": 3, "forced_memberships": 3}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_minimal_degree_step_on_sampled_polynomials(lower):
    # step (a) of the replay on f = t^n + lower terms, as it was once
    # sampled: <<1, f>> is the sum of <<1, t^d>> over the terms of f, and it
    # survives the quotient by span{f}
    n = len(lower)
    f = Vec({tsym(j): c for j, c in enumerate(lower + [1]) if c})
    L2 = catalog_bracket("L2")
    got = L2.eval_linear(Vec.basis(tsym(0)), f)
    assert got == Tensor2(sparse_sum(((tsym(i), tsym(d - 1 - i)), c)
                                     for (_t, d), c in f.terms.items()
                                     for i in range(d)))
    assert quotient_reduce(got, span(L2.carrier, n, f))


def _replay_with_flip(monkeypatch, n):
    """theorem3_replay on L2 with the sign of <<1, t^n>> flipped."""
    L2 = catalog_bracket("L2")

    def eval_fn(s1, s2):
        value = L2.eval(s1, s2)
        return value.scale(-1) if (s1, s2) == (tsym(0), tsym(n)) else value

    flipped = DoubleBracket("L2", L2.carrier, eval_fn, L2.degree_shift)
    monkeypatch.setattr(ideals, "catalog_bracket", lambda name: flipped)
    return theorem3_replay(6)


@pytest.mark.parametrize("n, ce", [
    (1, {"step": "a", "n": 1, "f": "t^1",
         "reason": "expansion formula mismatch"}),
    (3, {"step": "a", "n": 3, "f": "t^3",
         "reason": "expansion formula mismatch"}),
    # step (a) reads degrees up to 3 at window 6, step (b) t^1, t^3 and t^5
    (5, {"step": "b", "s": 2,
         "reason": "survivor is not the single diagonal term"}),
])
def test_replay_catches_a_flipped_value(monkeypatch, n, ce):
    rep = _replay_with_flip(monkeypatch, n)
    assert not rep.passed and rep.counterexample == ce


def test_minimal_degree_expansion_base_case():
    # the bracket of 1 with t is 1 (x) 1
    L2 = catalog_bracket("L2")
    assert L2.eval(tsym(0), tsym(1)) == Tensor2({(tsym(0), tsym(0)): 1})
