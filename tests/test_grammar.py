"""Text grammar: rendering and parsing round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from doublelie.exact import Tensor2, Vec, esym, tsym, ysym
from doublelie.grammar import (parse_poly, parse_sym, parse_tensor2,
                               render_poly, render_sym, render_tensor2,
                               render_vec)


def test_symbol_rendering():
    assert render_sym(tsym(3)) == "t^3"
    assert render_sym(tsym(-2)) == "t^-2"
    assert render_sym(esym(1)) == "e1"
    assert render_sym(ysym(2, 1, 3)) == "Y[2,1,3]"


def test_symbol_parsing_roundtrip():
    for sym in (tsym(0), tsym(-7), esym(4), ysym(5, 2, 2)):
        assert parse_sym(render_sym(sym)) == sym
    with pytest.raises(ValueError):
        parse_sym("t^^2")


def test_tensor_rendering_examples():
    u = Tensor2({(tsym(2), tsym(0)): Fraction(3, 2),
                 (tsym(1), tsym(1)): Fraction(-1)})
    assert render_tensor2(u) == "-t^1(x)t^1 + 3/2*t^2(x)t^0"
    assert render_tensor2(Tensor2()) == "0"


def test_tensor_roundtrip_random_sweep():
    rng = random.Random(23)
    for _ in range(60):
        u = Tensor2({(tsym(rng.randrange(-4, 6)), tsym(rng.randrange(-4, 6))):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(rng.randrange(1, 7))})
        assert parse_tensor2(render_tensor2(u)) == u
    assert parse_tensor2("0") == Tensor2()


def test_tensor_parse_rejects_missing_separator():
    with pytest.raises(ValueError):
        parse_tensor2("t^1 t^2")


def test_poly_rendering_examples():
    v = Vec({tsym(2): Fraction(1), tsym(1): Fraction(-3, 2),
             tsym(0): Fraction(1)})
    assert render_poly(v) == "t^2 - 3/2*t + 1"
    assert render_poly(Vec()) == "0"


def test_poly_roundtrip_random_sweep():
    rng = random.Random(31)
    for _ in range(60):
        v = Vec({tsym(rng.randrange(9)):
                 Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(rng.randrange(1, 6))})
        assert parse_poly(render_poly(v)) == v


def test_poly_parse_explicit_forms():
    assert parse_poly("t") == Vec.basis(tsym(1))
    assert parse_poly("-2*t^3 + 1/2") == Vec({tsym(3): Fraction(-2),
                                              tsym(0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        parse_poly("t + cow")


@pytest.mark.parametrize("text, terms", [
    # a sign without a space after it starts the next term and keeps all of
    # its digits
    ("t^2 -3", {2: 1, 0: -3}),
    ("t^2 -13*t", {2: 1, 1: -13}),
    ("t^2-3", {2: 1, 0: -3}),
    ("t^2 +3/2*t", {2: 1, 1: Fraction(3, 2)}),
    # the sign of an exponent is not a term sign
    ("2*t^-1 -t^-2", {-1: 2, -2: -1}),
    ("- t^-1 + 1", {-1: -1, 0: 1}),
])
def test_poly_parse_signs_without_spaces(text, terms):
    assert parse_poly(text) == Vec({tsym(n): c for n, c in terms.items()})


@pytest.mark.parametrize("text", ["t^2 -", "t +", "+", "- -3", "t - -3",
                                  "t^2 - 3 t", "t^ -1", "t^+1", "t -- 1",
                                  # a zero denominator is unreadable, not a
                                  # division
                                  "1/0", "1/00*t", "t^2 + 3/0*t"])
def test_poly_parse_rejects_what_it_cannot_read(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_tensor_parse_splits_terms_like_poly_parse():
    assert parse_tensor2("t^1(x)t^0 -2*t^-1(x)t^2") == Tensor2(
        {(tsym(1), tsym(0)): 1, (tsym(-1), tsym(2)): -2})
    # an index sign inside brackets stays with its symbol
    assert parse_tensor2("A[-1,2](x)e1 - e2(x)e1") == Tensor2(
        {(("A", (-1, 2)), esym(1)): 1, (esym(2), esym(1)): -1})
    for text in ("t^1(x)t^0 -", "t^1(x)t^0 + t^1"):
        with pytest.raises(ValueError):
            parse_tensor2(text)


@pytest.mark.parametrize("text", [
    # the coefficient takes no sign of its own, as in parse_poly("t - -3")
    "t^1(x)t^1 - -3*t^2(x)t^0", "- -3*t^2(x)t^0", "t^1(x)t^1 + +3*t^2(x)t^0",
    "t^1(x)t^1 - - 3*t^2(x)t^0",
    # nor a zero denominator
    "1/0*t^1(x)t^1", "t^1(x)t^1 + 2/00*t^2(x)t^0"])
def test_tensor_parse_rejects_signed_or_undefined_coefficients(text):
    with pytest.raises(ValueError):
        parse_tensor2(text)


def test_tensor_parse_reads_unsigned_coefficients():
    assert parse_tensor2("3/2*t^1(x)t^1 - 3*t^2(x)t^0 + 3 * e1(x)e2") == \
        Tensor2({(tsym(1), tsym(1)): Fraction(3, 2),
                 (tsym(2), tsym(0)): -3, (esym(1), esym(2)): 3})
    # a leading sign is the first term's
    assert parse_tensor2("-3/04*t^0(x)t^0") == Tensor2(
        {(tsym(0), tsym(0)): Fraction(-3, 4)})


def test_vec_rendering_uses_symbol_grammar():
    v = Vec({esym(2): Fraction(-1), esym(1): Fraction(2)})
    assert render_vec(v) == "2*e1 - e2"
