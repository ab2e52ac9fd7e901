"""Bracket layer: closed forms against telescoping oracles, the axiom
checkers, and the two-way correspondence with operators."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from doublelie import brackets
from doublelie.brackets import (CATALOG_BRACKET_NAMES, BasisCarrier,
                                DoubleBracket, PolyCarrier, bracket_from_rb,
                                catalog_bracket,
                                check_anticommutativity,
                                check_basis_independence,
                                check_bracket_relations, check_homomorphism,
                                check_jacobi, check_leibniz,
                                divided_difference, rb_from_bracket)
from doublelie.dmodules import (induced_module_from_ideal,
                                trivial_extension_bracket)
from doublelie.exact import Tensor2, Vec, esym, sparse_sum, tsym, ysym
from doublelie.grammar import render_sym
from doublelie.ideals import Subspace, quotient_bracket
from doublelie.matrices import NATURALS, Domain, FinitaryMatrix
from doublelie.rb import (RBOperator, build_pk, catalog_rb,
                          check_rb_identity, check_skew_symmetry,
                          conjugate_by, mutate_sign)
from doublelie.report import VerificationReport


def oracle_first(n, m):
    """Telescoping expansion of (x^n - y^n)(x^m - y^m)/(x - y): expand the
    second factor as a geometric sum and distribute.  Independent of the
    column-recursion division used by the implementation."""
    terms = {}
    for i in range(m):
        for (a, b), c in (((n + i, m - 1 - i), 1), ((i, n + m - 1 - i), -1)):
            key = (tsym(a), tsym(b))
            v = terms.get(key, 0) + c
            if v:
                terms[key] = v
            else:
                terms.pop(key, None)
    return Tensor2(terms)


def oracle_second(n, m):
    """-(x^n y^m - x^m y^n)/(x - y) by factoring out the common monomial."""
    if n == m:
        return Tensor2()
    lo, hi, sign = (m, n, -1) if n > m else (n, m, 1)
    return Tensor2({(tsym(lo + i), tsym(hi - 1 - i)): sign
                    for i in range(hi - lo)})


def test_first_bracket_matches_telescoping_oracle():
    for n in range(9):
        for m in range(9):
            assert divided_difference("L1", n, m) == oracle_first(n, m), (n, m)


def test_second_bracket_matches_factoring_oracle():
    for n in range(-4, 7):
        for m in range(-4, 7):
            assert divided_difference("L2", n, m) == oracle_second(n, m)


def test_catalog_cross_relations():
    assert check_bracket_relations(8).passed


def _relations_with_flipped(monkeypatch, variant):
    """check_bracket_relations with the closed form of variant negated."""
    monkeypatch.setitem(brackets._DD_TABLES, variant, tuple(
        (-c, *rest) for c, *rest in brackets._DD_TABLES[variant]))
    rep = check_bracket_relations(3)
    assert not rep.passed
    return rep.counterexample


def test_bracket_relations_catch_a_wrong_fourth_bracket(monkeypatch):
    ce = _relations_with_flipped(monkeypatch, "L4")
    assert ce["relation"] == "fourth vs first"


def test_bracket_relations_catch_a_wrong_third_bracket(monkeypatch):
    ce = _relations_with_flipped(monkeypatch, "L3")
    assert ce == {"relation": "third vs second", "n": 0, "m": 1}


def test_basis_carrier_indexes_and_windows_its_symbols():
    syms = [tsym(2), tsym(0), tsym(5)]
    C = BasisCarrier("c", syms, lambda s: s[1])
    for q in range(3):
        assert C.index(C.sym(q)) == q
    for q in (-1, 3):
        with pytest.raises(ValueError):
            C.sym(q)
    assert C.window_syms() == syms and C.window_syms(None) == syms
    assert C.window_syms(4) == [tsym(2), tsym(0)]
    assert C.window_syms(-1) == []
    assert C.product(tsym(0), tsym(0)) is None
    F = BasisCarrier.finite(3)
    assert F.name == "finite(3)" and F.syms == [esym(1), esym(2), esym(3)]
    assert F.window_syms(0) == F.syms and F.degree(esym(2)) == 0


def test_degree_shape_of_second_bracket():
    for n in range(7):
        for m in range(7):
            for (a, b), _c in divided_difference("L2", n, m).items():
                assert a[1] + b[1] == n + m - 1


def test_anticommutativity_and_jacobi_across_catalog():
    for name in ("L1", "L2", "L3", "L4", "L1_laurent", "L2_laurent", "ex1",
                 "ex2", "quiver"):
        B = catalog_bracket(name)
        assert check_anticommutativity(B, 5).passed, name
        assert check_jacobi(B, 5).passed, name
    dY = catalog_bracket("dY", N=2)
    assert check_anticommutativity(dY, 3).passed
    assert check_jacobi(dY, 3).passed


def test_leibniz_verdicts_match_theory():
    assert check_leibniz(catalog_bracket("L1"), 6).passed
    assert check_leibniz(catalog_bracket("L4"), 6).passed
    for name in ("L2", "L3"):
        rep = check_leibniz(catalog_bracket(name), 6)
        assert not rep.passed and rep.counterexample is not None


def test_fourth_bracket_leibniz_is_for_the_shifted_product():
    # the carrier of the fourth bracket multiplies as t^a * t^b = t^{a+b+1}
    B = catalog_bracket("L4")
    assert B.carrier.product(tsym(2), tsym(3)) == Vec.basis(tsym(6))
    # with the ordinary product the rule genuinely fails
    plain = catalog_bracket("L1").carrier

    class Plain:
        name = "plain"
        window_syms = plain.window_syms
        product = plain.product
        degree = plain.degree
        sym = plain.sym
        index = plain.index

    B_plain = DoubleBracket("fourth-plain", Plain(), B._eval_fn,
                            degree_shift=1)
    assert not check_leibniz(B_plain, 4).passed


def test_bracket_from_operator_matches_closed_forms():
    for op_name, br_name in (("r1", "L1"), ("r2", "L2"), ("r3", "L3"),
                             ("r4", "L4")):
        B = bracket_from_rb(catalog_rb(op_name))
        for n in range(8):
            for m in range(8):
                assert B.eval(tsym(n), tsym(m)) == \
                    divided_difference(br_name, n, m), (op_name, n, m)


def test_laurent_operators_have_no_correspondence_sum():
    # R(e_0s) u_0 = +-u_{-s-1} for every s: the sum is infinite
    with pytest.raises(ValueError, match=r"r1_laurent.*\(p, q\) = \(0, 0\)"):
        bracket_from_rb(catalog_rb("r1_laurent"))


def test_transposes_keep_their_chamber_tables():
    # the transpose moves no entry off its chamber, so p_k^T has a support
    # and a bracket, as p_k has
    for k in (2, 3):
        pT = conjugate_by(build_pk(k), "transpose")
        assert check_rb_identity(pT, 4).passed, k
        assert check_skew_symmetry(pT, 4).passed, k
        B = bracket_from_rb(pT)
        assert check_anticommutativity(B, 4).passed, k
        assert check_jacobi(B, 4).passed, k


def _operator(name):
    """A catalog operator, p_k and p_k^T named as p_2, p_2^T, kac(2) as
    kac(2)."""
    if name.startswith("p_"):
        R = build_pk(int(name[2]))
        return conjugate_by(R, "transpose") if name.endswith("^T") else R
    if name == "kac(2)":
        return catalog_rb("kac", N=2)
    return catalog_rb(name)


@pytest.mark.parametrize("name, shift", [
    ("r1", -1), ("r2", -1), ("r3", 1), ("r4", 1), ("p_2", -1), ("p_3", -1),
    ("p_2^T", 1), ("p_3^T", 1), ("r2_laurent", -1), ("kac(2)", -1),
    ("ex1", None), ("quiver", None)])
def test_correspondence_brackets_declare_the_chamber_degree_shift(name,
                                                                  shift):
    # every term u_s (x) u_r of <<u_p, u_q>> has s + r = p + q + shift; p_k
    # and kac carry a matrix factor, so their degrees are block indices
    R = _operator(name)
    B = bracket_from_rb(R)
    assert R.degree_shift() == B.degree_shift == shift
    if shift is None:
        return
    deg = B.carrier.degree
    syms = B.carrier.window_syms(4)
    terms = [(a, b, x, y) for a in syms for b in syms
             for x, y in B.eval(a, b).terms]
    assert terms
    assert all(deg(x) + deg(y) == deg(a) + deg(b) + shift
               for a, b, x, y in terms)


def zero_bracket(carrier=None):
    """The zero bracket, with the empty numerator table."""
    return brackets._with_table(DoubleBracket(
        "zero", carrier or PolyCarrier(), lambda a, b: Tensor2()), ())


@pytest.mark.parametrize("name, shift", [
    ("L1", -1), ("L2", -1), ("L3", 1), ("L4", 1), ("L1_laurent", -1),
    ("L2_laurent", -1), ("L3_laurent", 1), ("L4_laurent", 1), ("dY", -1),
    ("zero", -1)])
def test_table_brackets_declare_the_numerator_degree_shift(name, shift):
    # the shift read off the numerator table, max(a + b) - 1 (-1 for zero's
    # empty table, which gives no terms), is the one every term of a window
    # value has
    B = zero_bracket() if name == "zero" else catalog_bracket(name)
    assert B.degree_shift == shift
    deg = B.carrier.degree
    syms = B.carrier.window_syms(4)
    terms = [(a, b, x, y) for a in syms for b in syms
             for x, y in B.eval(a, b).terms]
    assert terms or B.table == ()
    assert all(deg(x) + deg(y) == deg(a) + deg(b) + shift
               for a, b, x, y in terms)


def _perturbed_r3():
    """r3 with R(e_03) += -e_20 and R(e_02) -= -e_30, which keeps it skew,
    from bare images."""
    r3 = catalog_rb("r3")
    extra = {(0, 3): FinitaryMatrix({(2, 0): -1}),
             (0, 2): FinitaryMatrix({(3, 0): 1})}

    def image_fn(i, j):
        op = r3.image(i, j)
        return op + extra[i, j] if (i, j) in extra else op

    return RBOperator("r3+", NATURALS, image_fn)


def test_operators_from_bare_images_have_no_bracket():
    # its bracket summed over a hand-written bound equalled L3 and passed
    # the bracket axioms, though R(e_03) u_0 = -u_2 lies beyond the bound
    R = _perturbed_r3()
    assert not check_rb_identity(R, 4).passed
    assert check_skew_symmetry(R, 5).passed
    with pytest.raises(ValueError, match="r3\\+ has no derived support"):
        bracket_from_rb(R)


def _nonzero_units(R, lo, hi):
    return [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)
            if R.image(a, b)]


def test_every_flipped_image_breaks_the_bracket():
    # mutate_sign keeps the chamber table, so each flipped operator has a
    # bracket, and each such bracket fails an axiom
    ops = [catalog_rb(name) for name in ("r1", "r2", "r3", "r4")]
    ops += [build_pk(k) for k in (2, 3)]
    ops += [conjugate_by(build_pk(k), "transpose") for k in (2, 3)]
    flips = [(R, unit) for R in ops for unit in _nonzero_units(R, 0, 3)]
    r2 = catalog_rb("r2_laurent")
    flips += [(r2, unit) for unit in _nonzero_units(r2, -3, 3)]
    assert len(flips) == 169
    for R, unit in flips:
        B = bracket_from_rb(mutate_sign(R, *unit))
        assert not (check_anticommutativity(B, 6).passed
                    and check_jacobi(B, 4).passed), (R.name, unit)


def test_every_small_skew_operator_on_m2_is_rb_iff_its_bracket_is_lie():
    # all skew operators on M_2 whose trace form <R(e_ij), e_kl> =
    # R(e_ij)_{lk} has entries in {-1, 0, 1}: 3^6 antisymmetric forms
    dom = Domain.finite(2)
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    upper = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    rb_count = 0
    for values in product((-1, 0, 1), repeat=len(upper)):
        form = {}
        for (a, b), v in zip(upper, values):
            form[a, b], form[b, a] = v, -v

        def image_fn(i, j, form=form):
            x = units.index((i, j))
            return FinitaryMatrix({(l, k): form.get((x, y), 0)
                                   for y, (k, l) in enumerate(units)}, dom)

        R = RBOperator("form%s" % (values,), dom, image_fn)
        assert check_skew_symmetry(R).passed
        B = bracket_from_rb(R)
        is_rb = check_rb_identity(R).passed
        assert is_rb == (check_anticommutativity(B, 1).passed
                         and check_jacobi(B, 1).passed), values
        rb_count += is_rb
    assert rb_count == 17


def test_operator_recovery_inverts_correspondence_on_finite_catalog():
    for name in ("ex1", "ex2", "quiver"):
        R = catalog_rb(name)
        B = bracket_from_rb(R)
        back = rb_from_bracket(B, R.domain.size)
        for i in range(R.domain.size):
            for j in range(R.domain.size):
                a, b = back.image(i, j), R.image(i, j)
                for p in range(R.domain.size):
                    for q in range(R.domain.size):
                        assert a.entry(p, q) == b.entry(p, q)


# The finite catalog brackets written out by hand, as name -> (n, table):
# <<e_(p+1), e_(q+1)>> = sum of c e_(a+1) (x) e_(b+1) over table[(p, q)],
# each entry ((a, b), c).
FINITE_TABLES = {
    "ex1": (2, {(0, 0): {((0, 1), 1), ((1, 0), -1)}}),
    "ex2": (2, {(0, 1): {((0, 0), 1)}, (1, 0): {((0, 0), -1)}}),
    "quiver": (4, {(2, 3): {((1, 0), 1)}, (3, 2): {((0, 1), -1)}}),
}


def test_finite_catalog_brackets_match_their_operators():
    for name, (n, table) in FINITE_TABLES.items():
        B = catalog_bracket(name)
        assert B.name == name
        assert B.carrier.syms == [esym(k + 1) for k in range(n)]
        for p in range(n):
            for q in range(n):
                want = Tensor2({(esym(a + 1), esym(b + 1)): c for (a, b), c
                                in table.get((p, q), ())})
                assert B.eval(esym(p + 1), esym(q + 1)) == want, (name, p, q)


def test_transposed_finite_operators_keep_their_brackets():
    # a finite domain is its own support, the transpose's too; the
    # coefficient of u_s (x) u_r in <<u_p, u_q>> of R^T is
    # R(e_sp)_{qr}, the coefficient of u_p (x) u_q in <<u_s, u_r>> of R
    for name, (n, table) in FINITE_TABLES.items():
        B = bracket_from_rb(conjugate_by(catalog_rb(name), "transpose"))
        assert check_anticommutativity(B, n).passed, name
        assert check_jacobi(B, n).passed, name
        transposed = {}
        for (s, r), entries in table.items():
            for (p, q), c in entries:
                transposed.setdefault((p, q), set()).add(((s, r), c))
        for p in range(n):
            for q in range(n):
                want = Tensor2({(esym(a + 1), esym(b + 1)): c for (a, b), c
                                in transposed.get((p, q), ())})
                assert B.eval(esym(p + 1), esym(q + 1)) == want, (name, p, q)


def test_matrix_polynomial_bracket_matches_extended_operator():
    for N in (2, 3):
        table = catalog_bracket("dY", N=N)
        from_op = bracket_from_rb(catalog_rb("kac", N=N))
        for n in range(5):
            for m in range(5):
                for i in range(1, N + 1):
                    for j in range(1, N + 1):
                        s1, s2 = ysym(n, i, j), ysym(m, j, i)
                        assert table.eval(s1, s2) == from_op.eval(s1, s2)


def random_unimodular(rng, u):
    """Random integer matrix with determinant +-1: unit triangular factors."""
    low = [[Fraction(int(i == j)) for j in range(u)] for i in range(u)]
    up = [[Fraction(int(i == j)) for j in range(u)] for i in range(u)]
    for i in range(u):
        for j in range(i):
            low[i][j] = Fraction(rng.randint(-2, 2))
            up[j][i] = Fraction(rng.randint(-2, 2))
    return [[sum(low[i][k] * up[k][j] for k in range(u)) for j in range(u)]
            for i in range(u)]


def test_bracket_is_independent_of_dual_basis_choice():
    rng = random.Random(41)
    for name in ("r1", "r2"):
        R = catalog_rb(name)
        u = len(list(range(4))) ** 2
        for _ in range(3):
            change = random_unimodular(rng, u)
            assert check_basis_independence(R, 3, change).passed, name


def _identity_change(u):
    return [[Fraction(int(i == j)) for j in range(u)] for i in range(u)]


@pytest.mark.parametrize("name, ce", [("r1", {"p": 1, "q": 1}),
                                      ("r2", {"p": 0, "q": 1})])
def test_basis_independence_catches_a_short_hint(short_correspondence, name,
                                                 ce):
    # the direct bracket misses the first index of every correspondence
    # sum; the change-of-basis side reads every window unit
    rep = check_basis_independence(catalog_rb(name), 3, _identity_change(16))
    assert not rep.passed and rep.counterexample == ce


@pytest.mark.parametrize("name, decided", [("r1", 16), ("r2", 16),
                                           ("r3", 16), ("r4", 16)])
def test_basis_independence_counts_the_decided_pairs(name, decided):
    # pairs whose support leaves the window are decided on the window's
    # part of the correspondence sum
    rep = check_basis_independence(catalog_rb(name), 3, _identity_change(16))
    assert rep.passed
    assert rep.details == "decided %d of 16 (p, q) pairs" % decided


def test_basis_independence_rejects_a_bad_change_matrix():
    R = catalog_rb("r1")
    singular = _identity_change(16)
    singular[3] = singular[2]
    with pytest.raises(ValueError, match="singular change matrix"):
        check_basis_independence(R, 3, singular)
    with pytest.raises(ValueError, match="size 9 does not match 16 window"):
        check_basis_independence(R, 3, _identity_change(9))
    ragged = _identity_change(16)
    ragged[5] = ragged[5][:15]
    with pytest.raises(ValueError, match="size 15 does not match 16 window"):
        check_basis_independence(R, 3, ragged)
    # ex1 has 4 units at window 1; a fifth column (or a missing fourth)
    # is a size error, not a failing record or a singular matrix
    ex1 = catalog_rb("ex1")
    for cols in (5, 3):
        wide = [row[:cols] + [Fraction(0)] * (cols - 4)
                for row in _identity_change(4)]
        with pytest.raises(ValueError,
                           match="size %d does not match 4 window" % cols):
            check_basis_independence(ex1, 1, wide)


def test_homomorphism_checker_detects_mismatch():
    ex1 = catalog_bracket("ex1")
    zero = zero_bracket(ex1.carrier)
    phi = {esym(1): Vec.basis(esym(1)), esym(2): Vec.basis(esym(2))}
    ident = check_homomorphism(ex1, ex1, phi)
    assert ident.passed
    assert not check_homomorphism(ex1, zero, phi).passed


def test_catalog_names_are_buildable():
    for name in CATALOG_BRACKET_NAMES:
        catalog_bracket(name)
    with pytest.raises(ValueError):
        catalog_bracket("nosuch")


# ---------------------------------------------------------------------------
# the axiom checkers against full sweeps

def _swap(u):
    """The factor swap a (x) b -> b (x) a."""
    return Tensor2({(b, a): c for (a, b), c in u.items()})


def _failure(check, B, ce, window):
    return VerificationReport.failure(check, B.name, ce, {"window": window})


def oracle_anticommutativity(B, window):
    """Every ordered window pair, every label."""
    syms = B.carrier.window_syms(window)
    for a in syms:
        for b in syms:
            if B.eval(a, b) + _swap(B.eval(b, a)) != Tensor2():
                return _failure("anticommutativity", B,
                                {"a": render_sym(a), "b": render_sym(b)},
                                window)
    return VerificationReport.success("anticommutativity", B.name,
                                      {"window": window})


def oracle_jacobi(B, window):
    """Every ordered window triple, every label."""
    syms = B.carrier.window_syms(window)
    for a in syms:
        for b in syms:
            for c in syms:
                defect = brackets.jacobi_defect(B, a, b, c)
                if defect:
                    key = min(defect)
                    ce = {"a": render_sym(a), "b": render_sym(b),
                          "c": render_sym(c),
                          "defect_term": "%s (x) %s (x) %s -> %s" % (
                              render_sym(key[0]), render_sym(key[1]),
                              render_sym(key[2]), defect[key])}
                    return _failure("jacobi", B, ce, window)
    return VerificationReport.success("jacobi", B.name, {"window": window})


def oracle_leibniz(B, window):
    """<<a, bc>> against <<a,b>>c + b<<a,c>> on every window triple."""
    carrier = B.carrier
    syms = carrier.window_syms(window)
    for a in syms:
        for b in syms:
            for c in syms:
                lhs = B.eval_linear(Vec.basis(a), carrier.product(b, c))
                rhs = Tensor2()
                for (x, y), k in B.eval(a, b).items():
                    rhs += Tensor2({(x, z): k * d for z, d in
                                    carrier.product(y, c).items()})
                for (x, y), k in B.eval(a, c).items():
                    rhs += Tensor2({(z, y): k * d for z, d in
                                    carrier.product(b, x).items()})
                if lhs != rhs:
                    return _failure("leibniz", B, {"a": render_sym(a),
                                                   "b": render_sym(b),
                                                   "c": render_sym(c)},
                                    window)
    return VerificationReport.success("leibniz", B.name, {"window": window})


ORACLES = ((check_anticommutativity, oracle_anticommutativity),
           (check_jacobi, oracle_jacobi), (check_leibniz, oracle_leibniz))


def assert_records_agree(B, window):
    """Each checker's record equals its full sweep's; Leibniz only where the
    carrier has a product."""
    sym = B.carrier.window_syms(window)[0]
    for check, oracle in ORACLES[:2 + (B.carrier.product(sym, sym)
                                       is not None)]:
        assert check(B, window).to_json() == oracle(B, window).to_json(), \
            check.__name__


def table_bracket(carrier, table, antisymmetrise, base=None):
    """The bracket <<u_i, u_j>> = sum c u_r (x) u_s over table[(i, j)], plus
    base's value, indices read through carrier.index; antisymmetrised, it
    also subtracts the swap of table[(j, i)]."""
    def part(i, j, swap):
        return (((carrier.sym(s), carrier.sym(r)) if swap else
                 (carrier.sym(r), carrier.sym(s)), -c if swap else c)
                for (r, s), c in table.get((i, j), {}).items())

    def eval_fn(s1, s2):
        i, j = carrier.index(s1), carrier.index(s2)
        terms = list(part(i, j, False))
        if antisymmetrise:
            terms.extend(part(j, i, True))
        if base is not None:
            terms.extend(base.eval(s1, s2).items())
        return Tensor2(sparse_sum(terms))

    return DoubleBracket("T", carrier, eval_fn)


def _tables(lo, hi, max_size):
    index = st.integers(lo, hi)
    return st.dictionaries(
        st.tuples(index, index),
        st.dictionaries(st.tuples(index, index),
                        st.integers(-2, 2).filter(bool), min_size=1,
                        max_size=2),
        max_size=max_size)


_CARRIERS = st.sampled_from([
    (PolyCarrier(), 0, 5), (PolyCarrier(product_shift=1), 0, 5),
    (PolyCarrier(laurent=True), -4, 4),
    (PolyCarrier(laurent=True, product_shift=1), -4, 4),
    (BasisCarrier.finite(3), 0, 2)])


@settings(max_examples=150, deadline=None)
@given(_CARRIERS, st.data(), st.booleans(), st.integers(0, 2))
def test_random_brackets_match_the_full_sweeps(carrier, data, antisym,
                                               window):
    carrier, lo, hi = carrier
    B = table_bracket(carrier, data.draw(_tables(lo, hi, 5)), antisym)
    assert_records_agree(B, window)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["L1", "L4", "L1_laurent", "L4_laurent", "L2",
                        "L2_laurent"]),
       st.data(), st.booleans(), st.integers(0, 2))
def test_perturbed_catalog_brackets_match_the_full_sweeps(name, data,
                                                          antisym, window):
    """A sparse perturbation of a catalog bracket, often outside the window,
    where only a certificate reads it."""
    base = catalog_bracket(name)
    lo = -2 * window - 3 if base.carrier.laurent else 0
    table = data.draw(_tables(lo, 2 * window + 3, 2))
    assert_records_agree(table_bracket(base.carrier, table, antisym, base),
                         window)


@pytest.mark.parametrize("base, table, window", [
    # values at pairs outside the window, which the certificates read
    ("L1", {(0, 4): {(0, 0): 1}, (3, 0): {(0, 0): 1}}, 2),
    ("L1_laurent", {(0, -1): {(0, 0): 1}}, 1),
] + [
    # a failing certificate, and the Leibniz base column and top relation
    (PolyCarrier(product_shift=shift), table, window)
    for shift in (0, 1) for table, window in (
        ({(1, 0): {(0, 1): 1}}, 1), ({(0, 0): {(0, 0): 1}}, 0),
        ({(0, 1): {(0, 0): 1}}, 1))])
def test_pinned_brackets_match_the_full_sweeps(base, table, window):
    base = catalog_bracket(base) if isinstance(base, str) else \
        zero_bracket(base)
    assert_records_agree(table_bracket(base.carrier, table, False, base),
                         window)


def flipped(B, pair):
    def eval_fn(s1, s2):
        value = B.eval(s1, s2)
        return value.scale(-1) if (s1, s2) == pair else value
    return DoubleBracket("%s!flip" % B.name, B.carrier, eval_fn,
                         B.degree_shift)


def _flip_pairs(B, window):
    """The pairs with a nonzero value among symbols up to 2 window + 1, so
    that flips reach pairs only a certificate reads."""
    syms = B.carrier.window_syms(2 * window + 1)
    return [(a, b) for a in syms for b in syms if B.eval(a, b)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CATALOG_BRACKET_NAMES), st.integers(0, 3),
       st.integers(0, 10 ** 6))
def test_flipped_catalog_brackets_match_the_full_sweeps(name, window, pick):
    B = catalog_bracket(name)
    if name == "dY":
        window = min(window, 1)
    pairs = _flip_pairs(B, window)
    mutant = flipped(B, pairs[pick % len(pairs)])
    assert mutant.table is None
    assert not brackets._certified_anticommutative(mutant)
    assert_records_agree(mutant, window)


def test_catalog_records_match_the_full_sweeps():
    assert brackets._certified_anticommutative(zero_bracket())
    for name in CATALOG_BRACKET_NAMES:
        B = catalog_bracket(name)
        assert brackets._certified_anticommutative(B) == \
            (B.table is not None)
        assert not brackets._certified_anticommutative(full_sweep(B))
        for window in range(4 if name != "dY" else 2):
            assert_records_agree(catalog_bracket(name), window)


def full_sweep(B):
    """The same bracket without its kernel or numerator table, so every
    checker sweeps all window symbols; the tests above hold that path to
    the full sweeps."""
    return DoubleBracket(B.name, B.carrier, B.eval, B.degree_shift)


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(brackets, name)
    monkeypatch.setattr(brackets, name,
                        lambda *args: calls.append(args) or fn(*args))
    return calls


def count_defects(monkeypatch):
    return count_calls(monkeypatch, "jacobi_defect")


def _reads_below_the_window():
    """<<t^-1, t^0>> and its successor <<t^0, t^1>> differ only by the
    exponent shift; the triple (t^-1, t^0, t^-1) reads <<t^-2, t^-1>>,
    below the window and 0, where its shift (t^0, t^1, t^0) reads
    <<t^-1, t^0>>: that shift is the one failing triple."""
    return table_bracket(PolyCarrier(laurent=True),
                         {(-1, 0): {(-2, 2): -1}, (0, 1): {(-1, 3): -1}},
                         False), 1


def _flipped_at_the_corner():
    """L2_laurent flipped at (t^2, t^-2), which has neither a predecessor
    nor a successor in window 2."""
    return flipped(catalog_bracket("L2_laurent"), (tsym(2), tsym(-2))), 2


@pytest.mark.parametrize("build", [_reads_below_the_window,
                                   _flipped_at_the_corner])
def test_jacobi_records_match_the_oracle_on_shift_breaking_brackets(build):
    B, window = build()
    rep = check_jacobi(B, window)
    assert not rep.passed
    assert rep.to_json() == oracle_jacobi(B, window).to_json()


# ---------------------------------------------------------------------------
# numerator tables: the certificates against the sweeps of table-less copies

X, Y = brackets.X, brackets.Y
CATALOG_TABLES = [brackets._DD_TABLES[name] for name in
                  ("L1", "L2", "L3", "L4")]


def dd_bracket(table, carrier):
    """The divided-difference bracket of a numerator table, with the table
    attached as catalog_bracket attaches it."""
    B = DoubleBracket("T", carrier, lambda s1, s2: divided_difference(
        table, s1[1], s2[1]))
    B.table = table
    return B


def certificates(table, carrier):
    return ((check_anticommutativity,
             brackets._anticommutativity_numerator(table)),
            (check_jacobi, brackets._jacobi_numerator(table)),
            (check_leibniz,
             brackets._leibniz_numerator(table, carrier.product_shift)))


_COMBINATIONS = st.tuples(*[st.integers(-2, 2)] * 4).map(
    lambda ks: tuple((k * c, *rest) for k, table in zip(ks, CATALOG_TABLES)
                     for c, *rest in table if k))


@st.composite
def _divisible_tables(draw):
    """Small tables with N_{f,g}(x, x) = 0, so that x - y divides every
    N_{f,g}(x, y): sums of pairs of entries of one total degree a + b with
    opposite coefficients, which are all such tables.  Half of them are
    closed under the mirror N_{f,g}(x, y) -> N_{g,f}(y, x), so that they
    are anticommutative; few random tables are."""
    at, exp = st.sampled_from((X, Y)), st.integers(0, 2)
    table = []
    for _ in range(draw(st.integers(1, 3))):
        c, a, b = draw(st.integers(-2, 2).filter(bool)), draw(exp), draw(exp)
        a2 = draw(st.integers(max(0, a + b - 2), min(2, a + b)))
        table += [(c, a, b, draw(at), draw(at)),
                  (-c, a2, a + b - a2, draw(at), draw(at))]
    if draw(st.booleans()):
        table += [(c, b, a, 1 - g_at, 1 - f_at)
                  for c, a, b, f_at, g_at in table]
    return tuple(table)


_TABLE_CARRIERS = st.sampled_from([
    PolyCarrier(laurent=laurent, product_shift=shift)
    for laurent in (False, True) for shift in (0, 1)])


def assert_certificates_sound(table, carrier):
    """Wherever a certificate is zero, the table-less copy's sweep passes at
    windows 0 to 3; and the checker's record is that sweep's."""
    f, g = brackets._placeholders("fg")
    assert not sparse_sum(brackets._numerator(table, f, g, 0, 0))
    B = dd_bracket(table, carrier)
    oracle = full_sweep(B)
    for check, certificate in certificates(table, carrier):
        for window in range(4):
            rep = check(oracle, window)
            assert check(B, window).to_json() == rep.to_json()
            assert rep.passed or certificate, (check.__name__, window)


@settings(max_examples=40, deadline=None)
@given(_COMBINATIONS, _TABLE_CARRIERS)
def test_zero_certificates_hold_on_catalog_combinations(table, carrier):
    assert_certificates_sound(table, carrier)


@settings(max_examples=80, deadline=None)
@given(_divisible_tables(), _TABLE_CARRIERS)
def test_zero_certificates_hold_on_small_tables(table, carrier):
    assert_certificates_sound(table, carrier)


def divide_by_x_minus_y(num):
    """Exact quotient of a bivariate (Laurent) polynomial {(a, b): coeff} by
    x - y, by division; raises if the division leaves a remainder.

    With s the least x-exponent, x^a y^b = x^s y^b (x^(a-s) - y^(a-s))
    + x^s y^(a-s+b), and (x^k - y^k)/(x - y) = sum_{i<k} x^i y^(k-1-i); the
    second parts sum to x^s times a polynomial in y alone, which must
    vanish.  Applied to all total degrees at once."""
    if not num:
        return {}
    s = min(a for a, _ in num)
    if sparse_sum((a + b, c) for (a, b), c in num.items()):
        raise ValueError("numerator not divisible by x - y")
    return sparse_sum(((s + i, a - s - 1 - i + b), c)
                      for (a, b), c in num.items() for i in range(a - s))


def oracle_divided_difference(table, n, m):
    """N_{t^n,t^m}(x, y)/(x - y) of a numerator table, by division."""
    num = sparse_sum(((a + n * (1 - f_at) + m * (1 - g_at),
                       b + n * f_at + m * g_at), c)
                     for c, a, b, f_at, g_at in table)
    return Tensor2({(tsym(a), tsym(b)): c
                    for (a, b), c in divide_by_x_minus_y(num).items()})


_NUMERATOR_ENTRIES = st.lists(st.tuples(
    st.integers(-2, 2).filter(bool), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from((X, Y)), st.sampled_from((X, Y))), max_size=2)


@settings(max_examples=150, deadline=None)
@given(_COMBINATIONS, _NUMERATOR_ENTRIES, st.integers(-4, 4),
       st.integers(-4, 4))
@example(((1, 0, 0, X, X),), [], 2, 1)
@example(CATALOG_TABLES[0] + CATALOG_TABLES[2], [(1, 1, 0, X, Y)], -2, 3)
def test_divided_difference_matches_the_division(combination, extra, n, m):
    # inhomogeneous Laurent numerators: catalog combinations of mixed total
    # degree, with entries added that mostly leave a remainder
    table = combination + tuple(extra)
    try:
        expect = oracle_divided_difference(table, n, m)
    except ValueError:
        with pytest.raises(ValueError, match="not divisible"):
            divided_difference(table, n, m)
    else:
        assert divided_difference(table, n, m) == expect


@pytest.mark.parametrize("check, table, shift", [
    (check_anticommutativity, ((1, 0, 0, X, X), (-1, 0, 0, Y, Y)), 0),
    (check_jacobi, CATALOG_TABLES[0] + CATALOG_TABLES[1], 0),
    (check_leibniz, CATALOG_TABLES[1], 0),
    (check_leibniz, CATALOG_TABLES[1], 1)])
def test_certificates_are_nonzero_where_the_sweeps_fail(check, table, shift):
    carrier = PolyCarrier(laurent=True, product_shift=shift)
    assert dict(certificates(table, carrier))[check]
    B = dd_bracket(table, carrier)
    rep = check(B, 2)
    assert not rep.passed
    assert rep.to_json() == check(full_sweep(B), 2).to_json()


def test_catalog_certificates_evaluate_nothing(monkeypatch):
    defects = count_defects(monkeypatch)
    values = count_calls(monkeypatch, "divided_difference")
    for base in ("L1", "L2", "L3", "L4"):
        for name in (base, base + "_laurent"):
            B = catalog_bracket(name)
            assert check_anticommutativity(B, 6).passed, name
            assert check_jacobi(B, 6).passed, name
            if base in ("L1", "L4"):
                assert check_leibniz(B, 6).passed, name
    assert defects == [] and values == []


def test_only_catalog_brackets_carry_a_table():
    assert catalog_bracket("L1").table == CATALOG_TABLES[0]
    L1 = catalog_bracket("L1")
    I = Subspace.degree_span(L1.carrier, 8, 2)
    act, B_L = induced_module_from_ideal(L1, I, 8)
    for B in (bracket_from_rb(catalog_rb("r1")),
              bracket_from_rb(catalog_rb("kac", N=2)),
              DoubleBracket.from_kernel("K", 2, lambda m, n: {}),
              quotient_bracket(L1, I, 8),
              trivial_extension_bracket(B_L, act)):
        assert B.table is None, B.name


# ---------------------------------------------------------------------------
# kernel brackets: the checkers sweep the label-(1,1) symbols

def assert_sweeps_agree(B, window):
    oracle = full_sweep(B)
    assert B.kernel is not None and oracle.kernel is None
    for check in (check_anticommutativity, check_jacobi, check_leibniz):
        assert check(B, window).to_json() == \
            check(oracle, window).to_json(), check.__name__


_DEGREE = st.integers(0, 3)
_KERNEL_TABLES = st.dictionaries(
    st.tuples(_DEGREE, _DEGREE),
    st.dictionaries(st.tuples(_DEGREE, _DEGREE),
                    st.integers(-2, 2).filter(bool), min_size=1, max_size=2),
    max_size=4)


@settings(max_examples=60, deadline=None)
@given(_KERNEL_TABLES, st.integers(1, 3), st.integers(1, 3))
def test_random_kernels_match_the_full_sweep(table, N, window):
    B = DoubleBracket.from_kernel("K", N, lambda m, n: table.get((m, n), {}))
    assert_sweeps_agree(B, window)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), _DEGREE, _DEGREE,
       st.integers(0, 5))
def test_flipped_dy_kernels_match_the_full_sweep(N, window, m0, n0, pick):
    dY = catalog_bracket("dY", N=N).kernel

    def kernel(m, n):
        value = dict(dY(m, n))
        if (m, n) == (m0, n0) and value:
            key = sorted(value)[pick % len(value)]
            value[key] = -value[key]
        return value

    mutant = DoubleBracket.from_kernel("dY!flip", N, kernel, degree_shift=-1)
    assert mutant.table is None
    assert_sweeps_agree(mutant, window)


def test_kac_bracket_takes_the_kernel_path(monkeypatch):
    calls = count_defects(monkeypatch)
    window = 3
    for N in (2, 3):
        B = bracket_from_rb(catalog_rb("kac", N=N))
        assert B.kernel is not None
        del calls[:]
        assert check_jacobi(B, window).passed
        assert check_leibniz(B, window).passed
        # every degree triple, all on label (1,1): (window + 1)^3
        assert len(calls) == 64
        assert {s[1][1:] for abc in calls for s in abc[1:]} == {(1, 1)}


# ---------------------------------------------------------------------------
# dY: its kernel from the negated first numerator table

def hand_written_dy_kernel(m, n):
    """sum_{r < min(m, n)} t^r (x) t^{m+n-r-1} - t^{m+n-r-1} (x) t^r."""
    return sparse_sum(term for r in range(min(m, n)) for term in (
        ((r, m + n - r - 1), 1), ((m + n - r - 1, r), -1)))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_dy_kernel_is_the_hand_written_one(N):
    dY = catalog_bracket("dY", N=N)
    assert dY.table == tuple((-c, *rest) for c, *rest in CATALOG_TABLES[0])
    oracle = DoubleBracket.from_kernel("dY", N, hand_written_dy_kernel)
    labels = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    for m in range(13):
        for n in range(13):
            assert dY.kernel(m, n) == hand_written_dy_kernel(m, n), (m, n)
            for (i, j), (k, l) in product(labels, labels):
                s1, s2 = ysym(m, i, j), ysym(n, k, l)
                assert dY.eval(s1, s2) == oracle.eval(s1, s2)


@pytest.mark.parametrize("N, windows", [(1, range(4)), (2, range(4)),
                                        (3, range(2))])
def test_dy_certificates_match_the_full_sweep(monkeypatch, N, windows):
    dY = catalog_bracket("dY", N=N)
    for window in windows:
        for check in (check_anticommutativity, check_jacobi, check_leibniz):
            rep = check(dY, window)
            assert rep.passed
            assert rep.to_json() == check(full_sweep(dY), window).to_json()
    # the certificates decide every window without evaluating dY
    defects = count_defects(monkeypatch)
    dY = catalog_bracket("dY", N=N)
    for check in (check_anticommutativity, check_jacobi, check_leibniz):
        assert check(dY, 40).passed
    assert defects == [] and dY._memo == {}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_flipped_dy_is_rejected(N):
    dY = catalog_bracket("dY", N=N)
    mutant = flipped(dY, (ysym(2, 1, 1), ysym(1, 1, 1)))
    assert mutant.table is None and mutant.kernel is None
    for check, oracle in ORACLES[:2]:
        rep = check(mutant, 2)
        assert not rep.passed, check.__name__
        assert rep.to_json() == oracle(mutant, 2).to_json()


@pytest.mark.parametrize("B", [catalog_bracket("L1"),
                               catalog_bracket("L1_laurent"),
                               catalog_bracket("dY")], ids=lambda B: B.name)
def test_leibniz_on_an_empty_window(B):
    # a negative window holds no triple: the record is a pass, as for the
    # other two axioms
    for check in (check_anticommutativity, check_jacobi, check_leibniz):
        rep = check(B, -1)
        assert rep.to_json() == VerificationReport.success(
            rep.check, B.name, {"window": -1}).to_json()
    assert check_leibniz(full_sweep(B), -1).passed


def test_leibniz_without_a_product_raises_at_every_window():
    B = catalog_bracket("ex1")
    for window in (-1, 0, 2):
        with pytest.raises(ValueError, match="no associative product"):
            check_leibniz(B, window)
