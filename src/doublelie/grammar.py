"""Textual grammar for scalars, basis symbols, polynomials and tensors.

Rendering rules (used by the CLI and by reports):

* scalars print as integers or "p/q";
* monomials print as "t^n" (n may be negative), finite basis vectors as
  "e1", "e2", ..., and t^n (x) e_ij symbols as "Y[n,i,j]";
* tensors print as sums of terms "coeff*sym(x)sym", the coefficient being
  omitted when it is +-1, e.g. "3/2*t^2(x)t^0 - t^1(x)t^1";
* polynomials in t print in the familiar form "t^2 - 3/2*t + 1".

Parsing accepts exactly what rendering produces (plus optional whitespace).
"""

from __future__ import annotations

import re

from .exact import ONE, S, Tensor2, Vec, esym, sparse_sum, tsym, ysym


def render_sym(sym) -> str:
    tag, idx = sym
    if isinstance(idx, tuple):
        return "%s[%s]" % (tag, ",".join(str(i) for i in idx))
    if tag == "t":
        return "t^%d" % idx
    return "%s%d" % (tag, idx)


_SYM_RE = re.compile(r"""
    (?:t\^(?P<texp>-?\d+))
  | (?:(?P<ytag>[A-Za-z]+)\[(?P<yidx>-?\d+(?:,-?\d+)*)\])
  | (?:(?P<etag>[A-Za-z]+)(?P<eidx>\d+))
""", re.VERBOSE)


def parse_sym(text: str):
    m = _SYM_RE.fullmatch(text.strip())
    if not m:
        raise ValueError("cannot parse basis symbol %r" % text)
    if m.group("texp") is not None:
        return tsym(int(m.group("texp")))
    if m.group("ytag") is not None:
        idx = tuple(int(p) for p in m.group("yidx").split(","))
        if m.group("ytag") == "Y" and len(idx) == 3:
            return ysym(*idx)
        return (m.group("ytag"), idx)
    return esym(int(m.group("eidx")), tag=m.group("etag"))


def _split_terms(text: str):
    """Split "a - b + c" into signed chunks, respecting leading sign."""
    text = text.strip()
    if not text or text == "0":
        return []
    out = []
    sign = 1
    buf = []
    i = 0
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        i = 1
    while i < len(text):
        ch = text[i]
        if ch in "+-" and buf and buf[-1] == " ":
            out.append((sign, "".join(buf).strip()))
            sign = -1 if ch == "-" else 1
            buf = []
            i += 2  # skip the space after the sign
            continue
        buf.append(ch)
        i += 1
    if "".join(buf).strip():
        out.append((sign, "".join(buf).strip()))
    return out


def _split_coeff(chunk: str):
    if "*" in chunk:
        head, rest = chunk.split("*", 1)
        return S(head), rest
    return ONE, chunk


def _signed_sum(terms):
    """Join (coeff, body) pairs as "body - 3/2*body + body": the sign goes
    in front, and a coefficient of magnitude 1 is left out."""
    parts = []
    for c, body in terms:
        head = "" if abs(c) == 1 else "%s*" % abs(c)
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + head + body)
    return " ".join(parts) or "0"


def render_tensor2(u: Tensor2) -> str:
    return _signed_sum((c, "%s(x)%s" % (render_sym(a), render_sym(b)))
                       for (a, b), c in u.sorted_items())


def parse_tensor2(text: str) -> Tensor2:
    terms = []
    for sign, chunk in _split_terms(text):
        coeff, body = _split_coeff(chunk)
        try:
            left, right = body.split("(x)")
        except ValueError:
            raise ValueError("tensor term %r lacks the (x) separator" % chunk)
        terms.append(((parse_sym(left), parse_sym(right)), sign * coeff))
    return Tensor2(sparse_sum(terms))


def render_vec(v: Vec) -> str:
    """Generic rendering of a vector as a signed sum of symbols."""
    return _signed_sum((c, render_sym(sym)) for sym, c in v.sorted_items())


def render_poly(v: Vec) -> str:
    """Render a Vec over the t-basis as a polynomial, highest degree first."""
    items = sorted(v.terms.items(), key=lambda kv: -kv[0][1])
    terms = []
    for (tag, n), c in items:
        if tag != "t":
            raise ValueError("render_poly expects the t-basis, got tag %r" % tag)
        if n == 0:
            body = str(abs(c))
        else:
            mono = "t" if n == 1 else "t^%d" % n
            body = mono if abs(c) == 1 else "%s*%s" % (abs(c), mono)
        # body carries the magnitude already, so pass the sign alone
        terms.append((-1 if c < 0 else 1, body))
    return _signed_sum(terms)


_MONO_RE = re.compile(r"""
    (?P<coeff>-?\d+(?:/\d+)?)?
    (?:\*?(?P<t>t(?:\^(?P<exp>-?\d+))?))?
""", re.VERBOSE)


def parse_poly(text: str) -> Vec:
    """Parse polynomials in t such as "t^2 - 3/2*t + 1"."""
    terms = []
    chunks = _split_terms(text.replace("- ", "- ").replace("+ ", "+ "))
    if not chunks and text.strip() not in ("", "0"):
        raise ValueError("cannot parse polynomial %r" % text)
    for sign, chunk in chunks:
        m = _MONO_RE.fullmatch(chunk.strip())
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError("cannot parse monomial %r" % chunk)
        coeff = S(m.group("coeff")) if m.group("coeff") else ONE
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        terms.append((tsym(exp), sign * coeff))
    return Vec(sparse_sum(terms))
