"""Exact scalars, sparse vectors and tensor squares over countable bases.

Scalars are exact rationals.  Integers stay ``int``, which is exact and
faster; ``fractions.Fraction`` appears only where a non-integer enters (a
parsed or scaled coefficient such as "1/2", or a division).  So every
equality test in the package is exact.  Basis symbols are small tuples
``(tag, index)`` where the tag names the carrier space ("t" for F[t] and its
Laurent extension, "e" for abstract finite bases, "Y" for the t^n (x) e_ij
basis of F[t] (x) M_N).  The tag keeps different carriers from being mixed
silently.

Vectors and tensors are finite maps from (tuples of) basis symbols to nonzero
scalars; zero coefficients are pruned eagerly so structural equality equals
mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

ZERO = 0
ONE = 1


def S(x):
    """Coerce strings like "3/2" to an exact scalar, an int when integral;
    ints and Fractions pass through unchanged since their arithmetic is
    already exact (and int arithmetic faster)."""
    if isinstance(x, (int, Fraction)):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# basis symbols

def tsym(n):
    """Monomial t^n (n may be negative for the Laurent extension)."""
    return ("t", n)


def esym(i, tag="e"):
    """Abstract finite basis vector e_i (1-based, matching the usual e_1..e_n)."""
    return (tag, i)


def ysym(n, i, j):
    """Basis element t^n (x) e_ij of F[t] (x) M_N(F)."""
    if n < 0 or i < 1 or j < 1:
        raise ValueError("ysym indices out of range: %r" % ((n, i, j),))
    return ("Y", (n, i, j))


def sym_sort_key(sym):
    tag, idx = sym
    if isinstance(idx, tuple):
        return (tag, 1) + idx
    return (tag, 0, idx)


def key_sort_key(key):
    # key is a tuple of symbols (tensor slot order preserved)
    return tuple(sym_sort_key(s) for s in key)


# ---------------------------------------------------------------------------
# sparse linear combinations

def _pruned(terms):
    return {k: c for k, c in terms.items() if c}


def sparse_sum(pairs):
    """Sum an iterable of (key, coeff) pairs into a dict of the nonzero
    totals: the one accumulation step behind every sparse sum."""
    out = {}
    get = out.get
    for key, c in pairs:
        out[key] = get(key, 0) + c
    return _pruned(out)


class _SparseMap:
    """Shared machinery for Vec / Tensor2."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _pruned(terms) if terms else {}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return type(self)(sparse_sum(chain(self.terms.items(),
                                           other.terms.items())))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        a = S(a)
        return type(self)({k: a * c for k, c in self.terms.items()})

    def items(self):
        return self.terms.items()

    def coeff(self, key):
        return self.terms.get(key, ZERO)

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: self._key_order(kv[0]))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, dict(self.sorted_items()))


class Vec(_SparseMap):
    _key_order = staticmethod(sym_sort_key)

    @classmethod
    def basis(cls, sym):
        return cls({sym: ONE})


class Tensor2(_SparseMap):
    _key_order = staticmethod(key_sort_key)
