"""Double brackets and their correspondence with Rota-Baxter operators.

A double bracket is a bilinear map V (x) V -> V (x) V given on basis pairs.
The correspondence with operators reads, on basis vectors u_p of V,

    <<u_p, u_q>> = sum_s u_s (x) R(e_{ps}) u_q,

with the trace-dual unit e_{ij}* = e_{ji}.  Checkers for anticommutativity,
the double Jacobi identity and the Leibniz rule evaluate everything exactly
over a window of basis elements, after first trying to decide the axiom for
all degrees from a divided-difference bracket's numerator table.

The polynomial catalog comes from divided-difference closed forms: rational
expressions in x = t (x) 1 and y = 1 (x) t whose numerators are divisible by
x - y; the quotient, expanded, is the bracket value as a finite tensor.  The
finite catalog brackets are the brackets of the finite catalog operators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add

from .exact import Tensor2, Vec, esym, sparse_sum, tsym, ysym
from .grammar import render_sym
from .linalg import echelon
from .matrices import Domain, FinitaryMatrix
from .rb import _FINITE_IMAGES, RBOperator, catalog_rb, unit_range
from .report import VerificationReport


# ---------------------------------------------------------------------------
# carriers

class PolyCarrier:
    """Monomials t^n; n >= 0 for polynomials, any integer when laurent.

    product_shift selects the associative product t^a * t^b = t^{a+b+shift}.
    Shift 0 is the ordinary polynomial product; shift 1 is the non-unital
    product pulled back from t*F[t] along t^n -> t^{n+1}, which is the
    product for which the fourth catalog bracket obeys the Leibniz rule.
    """

    def __init__(self, laurent=False, product_shift=0):
        base = "laurent" if laurent else "poly"
        self.name = base if not product_shift else \
            "%s[shift %+d]" % (base, product_shift)
        self.laurent = laurent
        self.product_shift = product_shift

    def sym(self, q):
        if q < 0 and not self.laurent:
            raise ValueError("negative exponent in polynomial carrier")
        return tsym(q)

    def index(self, sym):
        return sym[1]

    def window_syms(self, window):
        lo = -window if self.laurent else 0
        return [tsym(n) for n in range(lo, window + 1)]

    def product(self, s1, s2):
        return Vec.basis(tsym(s1[1] + s2[1] + self.product_shift))

    def degree(self, sym):
        return sym[1]


class BasisCarrier:
    """An explicit finite basis: the symbols syms in order, each with a
    degree (0 unless a degree function is given), and no associative
    product.  It carries the brackets of finite operators, quotients and
    trivial extensions."""

    def __init__(self, name, syms, degree=None):
        self.name = name
        self.syms = list(syms)
        self._index = {s: q for q, s in enumerate(self.syms)}
        self._degree = degree

    @classmethod
    def finite(cls, n):
        """The abstract basis e_1..e_n."""
        return cls("finite(%d)" % n, [esym(q + 1) for q in range(n)])

    def sym(self, q):
        if not 0 <= q < len(self.syms):
            raise ValueError("basis index %d out of range" % q)
        return self.syms[q]

    def index(self, sym):
        return self._index[sym]

    def window_syms(self, window=None):
        """The symbols of degree at most window, all of them for None."""
        if window is None:
            return list(self.syms)
        return [s for s in self.syms if self.degree(s) <= window]

    def product(self, s1, s2):
        return None

    def degree(self, sym):
        return 0 if self._degree is None else self._degree(sym)


class MatrixPolyCarrier:
    """Basis t^n (x) e_{ij} of polynomials with a matrix factor of size N;
    the product is (t^a (x) e_{ij})(t^b (x) e_{kl}) =
    delta_{jk} t^{a+b} (x) e_{il}, the ordinary polynomial product on the
    degrees (product_shift 0)."""

    product_shift = 0

    def __init__(self, N):
        self.N = N
        self.name = "poly(x)M_%d" % N

    def sym(self, n):
        """t^n (x) e_11, the symbol a bare degree names."""
        return ysym(n, 1, 1)

    def window_syms(self, window):
        return [ysym(n, i, j) for n in range(window + 1)
                for i in range(1, self.N + 1) for j in range(1, self.N + 1)]

    def product(self, s1, s2):
        (a, i, j), (b, k, l) = s1[1], s2[1]
        if j != k:
            return Vec()
        return Vec.basis(ysym(a + b, i, l))

    def degree(self, sym):
        return sym[1][0]


class DoubleBracket:
    """Bilinear bracket given on basis pairs, with memoized evaluation.

    degree_shift bounds output degrees: every term of <<a, b>> has total
    degree at most deg(a) + deg(b) + degree_shift (None when the carrier is
    finite or no bound is declared).  kernel is the degree kernel of a
    bracket built by from_kernel, else None.  table is the numerator table
    of a catalog divided-difference bracket (see _DD_TABLES), whose values
    it gives, or, for dY, whose values give the degree kernel, and whose
    terms give degree_shift; else None."""

    __slots__ = ("name", "carrier", "_eval_fn", "degree_shift", "kernel",
                 "table", "_memo")

    def __init__(self, name, carrier, eval_fn, degree_shift=None):
        self.name = name
        self.carrier = carrier
        self._eval_fn = eval_fn
        self.degree_shift = degree_shift
        self.kernel = None
        self.table = None
        self._memo = {}

    @classmethod
    def from_kernel(cls, name, N, kernel, degree_shift=None):
        """The bracket on MatrixPolyCarrier(N) of a degree kernel
        K(m, n) -> {(r, s): c}:

            <<t^m e_ij, t^n e_kl>> = sum c t^r e_kj (x) t^s e_il.

        The value moves the matrix labels between slots and never compares
        them.  For a = t^m e_ij, b = t^n e_kl, c = t^p e_uv, every term of
        <<a, b>> and of swap(<<b, a>>) carries the labels e_kj, e_il, every
        term of the Jacobi defect carries the labels e_uj, e_il, e_kv in its
        three slots, and every term of either side of the Leibniz rule
        carries delta_lu and the labels e_kj, e_iv.  So each defect is the
        kernel's coefficient map on degrees times one fixed label tuple:
        whether it vanishes depends on the degrees alone (for Leibniz when
        l = u; when l != u both sides are zero).  The three axiom checkers
        use this through _sweep_syms, and through a numerator table that
        gives the kernel (dY's): its certificates decide the degrees.  The
        N^4 label pairs of two degrees share one kernel value, computed
        once."""
        values = {}

        def eval_fn(s1, s2):
            (m, i, j), (n, k, l) = s1[1], s2[1]
            value = values.get((m, n))
            if value is None:
                value = values[m, n] = kernel(m, n)
            return Tensor2({(ysym(r, k, j), ysym(s, i, l)): c
                            for (r, s), c in value.items()})

        B = cls(name, MatrixPolyCarrier(N), eval_fn, degree_shift)
        B.kernel = kernel
        return B

    def eval(self, s1, s2):
        key = (s1, s2)
        got = self._memo.get(key)
        if got is None:
            got = self._eval_fn(s1, s2)
            self._memo[key] = got
        return got

    def eval_linear(self, va, vb):
        return Tensor2(sparse_sum((key, c * c1 * c2)
                                  for s1, c1 in va.terms.items()
                                  for s2, c2 in vb.terms.items()
                                  for key, c in self.eval(s1, s2).items()))

    def __repr__(self):
        return "DoubleBracket(%r on %s)" % (self.name, self.carrier.name)


# ---------------------------------------------------------------------------
# divided-difference closed forms

# The numerators N_{f,g}(x, y) of the catalog brackets
# <<f, g>> = N_{f,g}(x, y)/(x - y).  An entry (c, a, b, f_at, g_at) is the
# term c x^a y^b f(v) g(w), where f_at and g_at name v and w: X for x, Y for y.
X, Y = 0, 1
_DD_TABLES = {
    "L1": ((1, 0, 0, X, X), (1, 0, 0, Y, Y), (-1, 0, 0, X, Y),
           (-1, 0, 0, Y, X)),
    "L2": ((-1, 0, 0, X, Y), (1, 0, 0, Y, X)),
    "L3": ((1, 1, 1, X, Y), (-1, 1, 1, Y, X)),
    "L4": ((1, 1, 1, X, Y), (1, 1, 1, Y, X), (-1, 2, 0, X, X),
           (-1, 0, 2, Y, Y)),
}
# dY's degree kernel is the negated first divided difference
_DY_TABLE = tuple((-c, *term) for c, *term in _DD_TABLES["L1"])


def divided_difference(variant, n, m):
    """The bracket <<t^n, t^m>> of a numerator table, or of the polynomial
    catalog bracket (L1..L4) that variant names: N_{t^n,t^m}(x, y)/(x - y)
    (x = t (x) 1, y = 1 (x) t), raising ValueError when x - y leaves a
    remainder.  Negative exponents give the Laurent extension.

    In total degree d, N = (x - y) Q makes the coefficient of
    x^j y^(d-1-j) in Q minus the sum of N's coefficients at x-exponents at
    most j, so one walk over N's sorted exponents reads Q off; x - y divides
    N exactly when each degree's coefficients sum to zero."""
    table = _DD_TABLES.get(variant) if isinstance(variant, str) else variant
    if table is None:
        raise ValueError("unknown divided-difference variant %r" % variant)
    # (total degree, x-exponent) -> coefficient, with X = 0 and Y = 1
    num = sparse_sum(((a + b + n + m, a + n * (1 - f_at) + m * (1 - g_at)), c)
                     for c, a, b, f_at, g_at in table)
    quot, acc, last = {}, 0, None
    for d, x in sorted(num):
        if acc:
            if d != last[0]:
                raise ValueError("numerator not divisible by x - y")
            quot.update(((tsym(j), tsym(d - 1 - j)), -acc)
                        for j in range(last[1], x))
        acc += num[d, x]
        last = d, x
    if acc:
        raise ValueError("numerator not divisible by x - y")
    return Tensor2(quot)


# ---------------------------------------------------------------------------
# catalog

def catalog_bracket(name, **params):
    """Named brackets: L1..L4 (polynomial), their _laurent variants, ex1,
    ex2, quiver (the brackets of the finite catalog operators), dY
    (N=...)."""
    laurent = name.endswith("_laurent")
    base = name[:-len("_laurent")] if laurent else name
    if base in _DD_TABLES:
        product_shift = 1 if base == "L4" else 0
        carrier = PolyCarrier(laurent=laurent, product_shift=product_shift)
        table = _DD_TABLES[base]

        def eval_fn(s1, s2):
            return divided_difference(table, s1[1], s2[1])

        return _with_table(DoubleBracket(name, carrier, eval_fn), table)
    if name in _FINITE_IMAGES:
        return bracket_from_rb(catalog_rb(name), name)
    if name == "dY":
        N = params.get("N", 2)

        def kernel(m, n):
            return {(a[1], b[1]): c for (a, b), c
                    in divided_difference(_DY_TABLE, m, n).items()}

        return _with_table(DoubleBracket.from_kernel("dY(%d)" % N, N, kernel),
                           _DY_TABLE)
    raise ValueError("unknown bracket %r" % name)


def _with_table(B, table):
    """B with its numerator table, and the degree shift read off it: a term
    c x^a y^b f g of degree a + b + deg f + deg g leaves a quotient of one
    degree less, so the shift is max(a + b) - 1, and -1 for no terms."""
    B.table = table
    B.degree_shift = max((a + b for _, a, b, *_ in table), default=0) - 1
    return B


CATALOG_BRACKET_NAMES = ("L1", "L2", "L3", "L4", "L1_laurent", "L2_laurent",
                         "L3_laurent", "L4_laurent", "ex1", "ex2", "quiver",
                         "dY")


# ---------------------------------------------------------------------------
# operator <-> bracket correspondence

def bracket_from_rb(R, name=None):
    """The double bracket of an operator:
    <<u_p, u_q>> = sum_s u_s (x) R(e_{ps}) u_q.

    s runs over R.support(p, q), derived from data: finite operators, r1-r4,
    p_k, p_k^T, kac and r2_laurent have one; any other operator is refused,
    and r1_laurent, whose sums are infinite, raises at (p, q) = (0, 0).
    The degree shift comes from the same table (R.degree_shift)."""
    if R.support(0, 0) is None:
        raise ValueError("operator %s has no derived support for its "
                         "correspondence sum" % R.name)
    name = name or "<<%s>>" % R.name

    def kernel(p, q):
        return sparse_sum(((s, r), c) for s in R.support(p, q)
                          for r, c in R.apply_image(p, s, q).items())

    if R.N > 1:
        return DoubleBracket.from_kernel(name, R.N, kernel, R.degree_shift())
    if R.domain.kind == "finite":
        carrier = BasisCarrier.finite(R.domain.size)
    else:
        carrier = PolyCarrier(laurent=(R.domain.kind == "integers"))

    def eval_fn(s1, s2):
        return Tensor2({(carrier.sym(s), carrier.sym(r)): c for (s, r), c
                        in kernel(carrier.index(s1),
                                  carrier.index(s2)).items()})

    return DoubleBracket(name, carrier, eval_fn, R.degree_shift())


def rb_from_bracket(B, dim):
    """Read the operator back off a finite-dimensional bracket: the
    coefficient of u_s (x) u_r in <<u_p, u_q>> is the (r, q) entry of
    R(e_{ps}).  Inverse of bracket_from_rb on finite carriers."""
    carrier = B.carrier
    domain = Domain.finite(dim)

    def image_fn(p, s):
        ssym = carrier.sym(s)
        ents = sparse_sum(
            ((carrier.index(b), q), c) for q in range(dim)
            for (a, b), c in B.eval(carrier.sym(p), carrier.sym(q)).items()
            if a == ssym)
        return FinitaryMatrix(ents, domain)

    return RBOperator("R[%s]" % B.name, domain, image_fn)


# ---------------------------------------------------------------------------
# numerator certificates
#
# For <<f, g>> = N_{f,g}(x, y)/(x - y) given by a numerator table, each
# axiom is an identity of rational functions in f, g and h at x1, x2, x3
# (indices 0, 1, 2).  Its certificate is the defect's numerator, the
# denominators cleared, summed from terms ((exponents, placeholders), c),
# where the placeholders, a sorted tuple of pairs (name, i), stand for
# name(x_i).  They are independent, so a zero certificate proves the axiom
# for all Laurent f, g, h, hence at every window pair or triple.  A nonzero
# one proves nothing, and the checker sweeps.  On a kernel bracket whose
# kernel the table gives (dY), each defect is the table bracket's defect at
# the degrees times one label tuple (DoubleBracket.from_kernel), so the
# same certificate decides it.

def _term(powers=(), holders=(), c=1):
    """The one term c times the product of x_i^k over the pairs (i, k) in
    powers and of the placeholders in holders, as a list."""
    exps = [0, 0, 0]
    for i, k in powers:
        exps[i] += k
    return [((tuple(exps), tuple(sorted(holders))), c)]


def _times(P, *factors):
    for Q in factors:
        P = [((tuple(map(add, e, e2)), tuple(sorted(p + p2))), c * c2)
             for (e, p), c in P for (e2, p2), c2 in Q]
    return P


def _placeholders(names):
    """The arguments v -> name(x_v)."""
    return [lambda v, name=name: _term(holders=[(name, v)]) for name in names]


def _numerator(table, f, g, x, y):
    """N_{f,g}(x_x, x_y), where the arguments f and g map a variable index v
    to the terms of their value at x_v."""
    at = (x, y)
    return [term for c, a, b, f_at, g_at in table for term in _times(
        _term([(x, a), (y, b)], c=c), f(at[f_at]), g(at[g_at]))]


def _certificate(*parts):
    """The sum of s P over the pairs (s, P)."""
    return sparse_sum((key, s * c) for s, P in parts for key, c in P)


def _anticommutativity_numerator(table):
    """(x - y)(<<f, g>> + swap(<<g, f>>)) = N_{f,g}(x, y) - N_{g,f}(y, x)."""
    f, g = _placeholders("fg")
    return _certificate((1, _numerator(table, f, g, 0, 1)),
                        (-1, _numerator(table, g, f, 1, 0)))


def _jacobi_numerator(table):
    """Delta = (x1 - x2)(x1 - x3)(x2 - x3) times jacobi_defect(f, g, h), its
    slots at x1, x2, x3.  The three sums are <<f, u>> on slots (1, 2) with
    u = <<g, h>> at (s, x3), <<g, u>> on slots (2, 3) with u = <<f, h>> at
    (x1, s), and <<u, h>> on slots (1, 3) with u = <<f, g>> at (s, x2): the
    outer numerator takes the inner one at s = x_v wherever it evaluates u
    at x_v, times the factor of Delta that neither denominator has."""
    f, g, h = _placeholders("fgh")

    def inner(p, q, fixed, free_first, outer):
        # outer, the outer bracket's slots, is an ascending pair
        def value(v):
            xy = (v, fixed) if free_first else (fixed, v)
            (i, j), = {(0, 1), (0, 2), (1, 2)} - {outer, tuple(sorted(xy))}
            sign = -1 if xy[0] > xy[1] else 1
            return _times(_numerator(table, p, q, *xy),
                          _term([(i, 1)], c=sign) + _term([(j, 1)], c=-sign))
        return value

    return _certificate(
        (1, _numerator(table, f, inner(g, h, 2, True, (0, 1)), 0, 1)),
        (-1, _numerator(table, g, inner(f, h, 0, False, (1, 2)), 1, 2)),
        (-1, _numerator(table, inner(f, g, 1, True, (0, 2)), h, 0, 2)))


def _leibniz_numerator(table, shift):
    """(x - y)(<<f, gh>> - <<f, g>> h - g <<f, h>>) for the product
    (gh)(t) = t^shift g(t) h(t), that is N_{f,gh}(x, y)
    - y^shift h(y) N_{f,g}(x, y) - x^shift g(x) N_{f,h}(x, y)."""
    f, g, h = _placeholders("fgh")
    return _certificate(
        (1, _numerator(table, f, lambda v: _times(_term([(v, shift)]), g(v),
                                                  h(v)), 0, 1)),
        (-1, _times(_term([(1, shift)]), h(1), _numerator(table, f, g, 0, 1))),
        (-1, _times(_term([(0, shift)]), g(0), _numerator(table, f, h, 0, 1))))


# ---------------------------------------------------------------------------
# axiom checkers

def _sweep_syms(B, window):
    """The window symbols that decide B's axiom sweeps.  For a bracket with
    a degree kernel these are the label-(1,1) symbols t^n e_11: by
    DoubleBracket.from_kernel a pair or triple fails exactly when its degrees
    fail (and l = u for Leibniz), and window_syms lists each degree with
    label (1,1) first, so the full sweep's first counterexample has every
    label 1.  The verdict and the record are those of the full sweep, for
    every N."""
    syms = B.carrier.window_syms(window)
    if B.kernel is not None:
        syms = [s for s in syms if s[1][1:] == (1, 1)]
    return syms


def _antisymmetric(B, a, b):
    """<<a, b>> = -swap(<<b, a>>); both values are pruned term maps, so equal
    sizes and a matching swapped term for each term of <<a, b>> suffice."""
    ab, ba = B.eval(a, b).terms, B.eval(b, a).terms
    return len(ab) == len(ba) and \
        all(ba.get((y, x)) == -c for (x, y), c in ab.items())


def _certified_anticommutative(B):
    """Whether B carries a numerator table whose anticommutativity
    certificate is zero, which proves <<a, b>> = -swap(<<b, a>>) for every
    pair of any degrees."""
    return B.table is not None and not _anticommutativity_numerator(B.table)


def check_anticommutativity(B, window=8):
    """<<a, b>> = -swap(<<b, a>>) on all window basis pairs.

    A bracket passes at once when _certified_anticommutative holds.
    Otherwise the defect at (b, a) is the swap of the defect at (a, b), so
    only the pairs with a at or before b in sweep order are checked: the
    full sweep's first failing pair has that form.  A bracket with a degree
    kernel is swept on its label-(1,1) symbols (see _sweep_syms), since both
    sides of (t^m e_ij, t^n e_kl) carry the labels e_kj (x) e_il."""
    params = {"window": window}
    if _certified_anticommutative(B):
        return VerificationReport.success("anticommutativity", B.name, params)
    syms = _sweep_syms(B, window)
    for i, a in enumerate(syms):
        for b in syms[i:]:
            if not _antisymmetric(B, a, b):
                ce = {"a": render_sym(a), "b": render_sym(b)}
                return VerificationReport.failure("anticommutativity", B.name,
                                                  ce, params)
    return VerificationReport.success("anticommutativity", B.name, params)


def jacobi_defect(B, a, b, c):
    """<<a,<<b,c>>>>_L - swap12(<<b,<<a,c>>>>_R) - <<<<a,b>>,c>>_L as a raw
    term map over symbol triples, using the extension conventions
    <<a, b(x)c>>_L = <<a,b>>(x)c,  <<a, b(x)c>>_R = swap12(b(x)<<a,c>>),
    <<a(x)b, c>>_L = move23(<<a,c>>(x)b)."""
    ev = B.eval
    # one-line sums and a final prune: sparse_sum's generators cost +17% here
    J = {}
    for (b1, b2), cb in ev(b, c).terms.items():
        for (x, y), cx in ev(a, b1).terms.items():
            key = (x, y, b2)
            J[key] = J.get(key, 0) + cb * cx
    for (x, y), cx in ev(a, c).terms.items():
        for (p, q), cp in ev(b, y).terms.items():
            key = (x, p, q)
            J[key] = J.get(key, 0) - cx * cp
    for (x, y), cx in ev(a, b).terms.items():
        for (z1, z2), cz in ev(x, c).terms.items():
            key = (z1, y, z2)
            J[key] = J.get(key, 0) - cx * cz
    return {key: v for key, v in J.items() if v}


def check_jacobi(B, window=8):
    """Exact double Jacobi identity on all window basis triples.

    A bracket with a numerator table passes at once when its certificate
    (_jacobi_numerator) is zero; otherwise every triple is swept.  A bracket
    with a degree kernel is swept on its label-(1,1) symbols only (see
    _sweep_syms)."""
    params = {"window": window}
    if B.table is not None and not _jacobi_numerator(B.table):
        return VerificationReport.success("jacobi", B.name, params)
    syms = _sweep_syms(B, window)
    for a in syms:
        for b in syms:
            for c in syms:
                defect = jacobi_defect(B, a, b, c)
                if defect:
                    key = min(defect)
                    ce = {"a": render_sym(a), "b": render_sym(b),
                          "c": render_sym(c),
                          "defect_term": "%s (x) %s (x) %s -> %s" % (
                              render_sym(key[0]), render_sym(key[1]),
                              render_sym(key[2]), defect[key])}
                    return VerificationReport.failure("jacobi", B.name, ce,
                                                      params)
    return VerificationReport.success("jacobi", B.name, params)


def _leibniz_holds(B, a, b, c):
    """<<a, bc>> = <<a,b>>c + b<<a,c>>, with b (x (x) y) c = bx (x) yc."""
    product = B.carrier.product
    lhs = B.eval_linear(Vec.basis(a), product(b, c))
    rhs = chain((((x, s), k * d) for (x, y), k in B.eval(a, b).items()
                 for s, d in product(y, c).items()),
                (((s, y), k * d) for (x, y), k in B.eval(a, c).items()
                 for s, d in product(b, x).items()))
    return lhs == Tensor2(sparse_sum(rhs))


def check_leibniz(B, window=8):
    """<<a, bc>> = <<a,b>>c + b<<a,c>> with the outer action
    b (x (x) y) c = bx (x) yc, on window basis triples.

    A carrier without a product raises ValueError, at every window.  A
    bracket with a numerator table passes at once when its certificate
    (_leibniz_numerator at the carrier's product_shift) is zero; otherwise
    every triple is swept.  A bracket with a degree kernel is swept on its
    label-(1,1) symbols only (see _sweep_syms), where b and c can always be
    multiplied."""
    params = {"window": window}
    carrier = B.carrier
    unit = carrier.sym(0)
    if carrier.product(unit, unit) is None:
        raise ValueError("carrier %s has no associative product"
                         % carrier.name)
    if B.table is not None and \
            not _leibniz_numerator(B.table, carrier.product_shift):
        return VerificationReport.success("leibniz", B.name, params)
    syms = _sweep_syms(B, window)
    for a in syms:
        for b in syms:
            for c in syms:
                if not _leibniz_holds(B, a, b, c):
                    ce = {"a": render_sym(a), "b": render_sym(b),
                          "c": render_sym(c)}
                    return VerificationReport.failure("leibniz", B.name, ce,
                                                      params)
    return VerificationReport.success("leibniz", B.name, params)


def check_bracket_relations(window=10):
    """The catalog cross-relations: the third bracket is -(t (x) t) times the
    second (slotwise left/right multiplication), and the fourth at (n, m) is
    minus the first at (n+1, m+1)."""
    params = {"window": window}
    for n in range(window + 1):
        for m in range(window + 1):
            l2 = divided_difference("L2", n, m)
            scaled = Tensor2({(tsym(a[1] + 1), tsym(b[1] + 1)): -c
                              for (a, b), c in l2.items()})
            if divided_difference("L3", n, m) != scaled:
                ce = {"relation": "third vs second", "n": n, "m": m}
                return VerificationReport.failure("bracket_relations",
                                                  "catalog", ce, params)
            if divided_difference("L4", n, m) != \
                    divided_difference("L1", n + 1, m + 1).scale(-1):
                ce = {"relation": "fourth vs first", "n": n, "m": m}
                return VerificationReport.failure("bracket_relations",
                                                  "catalog", ce, params)
    return VerificationReport.success("bracket_relations", "catalog", params)


def check_basis_independence(R, window, change):
    """The bracket does not depend on the choice of dual bases of the ideal:
    recompute it through a transformed basis f_j = sum_i change[j][i] e_i of
    the window's unit basis, with dual basis determined by the trace pairing,
    and compare with the direct formula at every (p, q) of the window.

    Sum_j f_j (x) f_j* is the window's canonical element, so the transformed
    sum is sum_{s in window} u_s (x) R(e_{ps}) u_q.  That partial direct sum
    is B.eval itself when the support of (p, q) lies in the window, and is
    summed from the images otherwise; the record's details count the pairs
    decided."""
    params = {"window": window}
    units = [(a, b) for a in unit_range(R.domain, window)
             for b in unit_range(R.domain, window)]
    u = len(units)
    bad = ({len(change)} | {len(row) for row in change}) - {u}
    if bad:
        raise ValueError("change matrix size %d does not match %d window "
                         "units" % (min(bad), u))
    # f_j* = sum_m gamma[j][m] e_{units[m]}* with gamma = (change^{-1})^T;
    # row m of the echelon form of (change | 1) is a multiple of
    # (e_m | row m of change^{-1}) when change is invertible
    rows, pivots = echelon([list(r) + [int(i == j) for j in range(u)]
                            for i, r in enumerate(change)])
    if pivots != list(range(u)):
        raise ValueError("singular change matrix")
    gamma = [[Fraction(rows[m][u + j], rows[m][m]) for m in range(u)]
             for j in range(u)]
    B = bracket_from_rb(R)
    carrier = B.carrier
    idx = unit_range(R.domain, window)
    pairs = [(p, q) for p in idx for q in idx]
    for p, q in pairs:
        if all(s in idx for s in R.support(p, q)):
            direct = B.eval(carrier.sym(p), carrier.sym(q))
        else:
            direct = Tensor2(sparse_sum(
                ((carrier.sym(s), carrier.sym(r)), c) for s in idx
                for r, c in R.apply_image(p, s, q).items()))
        terms = []
        for jj in range(u):
            # f_j(u_p): rows a of units (a, b) with b = p
            left = sparse_sum((a, change[jj][i])
                              for i, (a, b) in enumerate(units) if b == p)
            if not left:
                continue
            right = sparse_sum((r, gamma[jj][m] * c)
                               for m, (a, b) in enumerate(units)
                               if gamma[jj][m]
                               for r, c in R.apply_image(b, a, q).items())
            terms.extend(((carrier.sym(s), carrier.sym(r)), cl * cr)
                         for s, cl in left.items()
                         for r, cr in right.items())
        if Tensor2(sparse_sum(terms)) != direct:
            ce = {"p": p, "q": q}
            return VerificationReport.failure("basis_independence",
                                              R.name, ce, params)
    return VerificationReport.success(
        "basis_independence", R.name, params,
        "decided %d of %d (p, q) pairs" % (len(pairs), len(idx) ** 2))


def check_homomorphism(B, B2, phi, window=8):
    """(phi (x) phi) <<a, b>> = <<phi(a), phi(b)>> on window basis pairs;
    phi maps basis symbols of B's carrier to vectors over B2's carrier."""
    params = {"window": window}
    syms = B.carrier.window_syms(window)
    for a in syms:
        for b in syms:
            lhs = Tensor2(sparse_sum(((p1, p2), c * c1 * c2)
                                     for (s1, s2), c in B.eval(a, b).items()
                                     for p1, c1 in phi[s1].terms.items()
                                     for p2, c2 in phi[s2].terms.items()))
            rhs = B2.eval_linear(phi[a], phi[b])
            if lhs != rhs:
                ce = {"a": render_sym(a), "b": render_sym(b)}
                return VerificationReport.failure("homomorphism",
                                                  "%s->%s" % (B.name, B2.name),
                                                  ce, params)
    return VerificationReport.success("homomorphism",
                                      "%s->%s" % (B.name, B2.name), params)
