"""Locally finite operators on infinite matrices, finitary matrices included.

A locally finite operator has finitely many nonzero entries in every row and
in every column; all catalog operators are supported on finitely many
slope-one diagonals, so the canonical representation used here is

    {offset: sorted disjoint segments (lo, hi, coeff)}

where offset = column - row, and a segment contributes coeff * e_{r, r+offset}
for every row r from lo to hi.  lo = None means the segment extends to
-infinity (integers domain only) and hi = None means +infinity.  Point
entries and the diagonal "rays" are both segments, so a single normal form
covers the finitary part and the rays, and structural equality equals
mathematical equality.

A finitary matrix (finitely many nonzero entries; these form the two-sided
ideal inside the locally finite operators) is the case in which every segment
is finite.  FinitaryMatrix only builds one from {(row, col): coeff}, and
`entries` reads that dict back off any finite-support operator.
"""

from __future__ import annotations

from .exact import ONE, S, Vec, sparse_sum


class Domain:
    """Index domain for matrix rows/columns: naturals, integers or finite(n)."""

    __slots__ = ("kind", "size")

    def __init__(self, kind, size=None):
        if kind not in ("naturals", "integers", "finite"):
            raise ValueError("unknown index domain %r" % kind)
        if kind == "finite" and (size is None or size < 1):
            raise ValueError("finite domain needs a positive size")
        self.kind = kind
        self.size = size if kind == "finite" else None

    @classmethod
    def finite(cls, n):
        return cls("finite", n)

    def __eq__(self, other):
        return (isinstance(other, Domain) and self.kind == other.kind
                and self.size == other.size)

    def __hash__(self):
        return hash((self.kind, self.size))

    def __repr__(self):
        return "finite(%d)" % self.size if self.kind == "finite" else self.kind

    def contains(self, i):
        if self.kind == "integers":
            return True
        if self.kind == "naturals":
            return i >= 0
        return 0 <= i < self.size

    def row_bounds(self, offset):
        """Allowed row range (lo, hi) for a diagonal at the given offset;
        None stands for the corresponding infinity.  Returns None when the
        diagonal misses the domain entirely."""
        if self.kind == "integers":
            return (None, None)
        lo = max(0, -offset)
        if self.kind == "naturals":
            return (lo, None)
        hi = min(self.size - 1, self.size - 1 - offset)
        return (lo, hi) if lo <= hi else None


NATURALS = Domain("naturals")
INTEGERS = Domain("integers")


def _norm_segments(raw):
    """Normalize possibly-overlapping segments into a canonical tuple of
    disjoint, sorted, maximal segments with nonzero coefficients, integral
    ones as int.

    One sweep over the sorted breakpoints: a segment adds its coefficient
    at lo and takes it back at hi + 1, a backward-infinite one starts in the
    running total.  A breakpoint whose changes cancel is dropped, so each
    emitted segment differs in coefficient from the next adjacent one."""
    start = 0
    delta = {}
    get = delta.get
    for lo, hi, c in raw:
        if not c or (lo is not None and hi is not None and lo > hi):
            continue
        if lo is None:
            start += c
        else:
            delta[lo] = get(lo, 0) + c
        if hi is not None:
            delta[hi + 1] = get(hi + 1, 0) - c
    out = []
    cur, prev = start, None
    for p in sorted(delta):
        d = delta[p]
        if not d:
            continue
        if cur:
            out.append((prev, p - 1, _integral(cur)))
        cur += d
        prev = p
    if cur:
        out.append((prev, None, _integral(cur)))
    return tuple(out)


def _integral(c):
    """c itself, or its int value when c is an integral Fraction."""
    return c.numerator if c.denominator == 1 else c


def _meet(lo1, hi1, lo2, hi2):
    """Ends (lo, hi) of the rows common to lo1..hi1 and lo2..hi2, or None
    when there are none.  None stands for the corresponding infinity."""
    lo = lo2 if lo1 is None else (lo1 if lo2 is None or lo2 < lo1 else lo2)
    hi = hi2 if hi1 is None else (hi1 if hi2 is None or hi1 < hi2 else hi2)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _seg_contains(seg, r):
    lo, hi, _ = seg
    return (lo is None or lo <= r) and (hi is None or r <= hi)


class LocallyFiniteOperator:
    """Operator supported on finitely many diagonals, finitely many segments
    per diagonal.  Every row and every column then has at most one entry per
    diagonal, so local finiteness is structural."""

    __slots__ = ("domain", "segs")

    def __init__(self, segs=None, domain=NATURALS):
        self.domain = domain
        norm = {}
        finite = domain.kind == "finite"
        for offset, raw in (segs or {}).items():
            if finite and any(lo is None or hi is None for lo, hi, _ in raw):
                raise ValueError("infinite ray in finite domain")
            ss = _norm_segments(raw)
            bounds = ss and domain.row_bounds(offset)
            if not bounds:
                continue
            blo, bhi = bounds
            canon = []
            for lo, hi, c in ss:
                # the segment's rows within the domain's rows
                cut = _meet(lo, hi, blo, bhi)
                if cut is not None:
                    canon.append((cut[0], cut[1], c))
            if canon:
                norm[offset] = tuple(canon)
        self.segs = norm

    # zero, ray and unit build the same operator on the subclasses as well,
    # whose constructors take other arguments
    @staticmethod
    def zero(domain=NATURALS):
        return LocallyFiniteOperator({}, domain)

    @staticmethod
    def ray(coeff, row0, col0):
        """coeff * (e_{row0,col0} + e_{row0+1,col0+1} + ...) on the
        naturals."""
        return StridedRayOperator(coeff, row0, col0)

    @staticmethod
    def unit(i, j, domain=NATURALS):
        return LocallyFiniteOperator({j - i: [(i, i, ONE)]}, domain)

    def __bool__(self):
        return bool(self.segs)

    def __eq__(self, other):
        return (isinstance(other, LocallyFiniteOperator)
                and self.domain == other.domain and self.segs == other.segs)

    def __hash__(self):
        return hash((self.domain, tuple(sorted(self.segs.items()))))

    def __repr__(self):
        return "LocallyFiniteOperator(%r, %r)" % (
            dict(sorted(self.segs.items())), self.domain)

    def entry(self, i, j):
        for seg in self.segs.get(j - i, ()):
            if _seg_contains(seg, i):
                return seg[2]
        return 0

    def row(self, i):
        """Finite dict {col: coeff} of row i."""
        out = {}
        for offset, segs in self.segs.items():
            for seg in segs:
                if _seg_contains(seg, i):
                    out[i + offset] = seg[2]
                    break
        return out

    def __add__(self, other):
        _need_same_domain(self, other)
        return operator_sum(((1, self), (1, other)), self.domain)

    def __sub__(self, other):
        _need_same_domain(self, other)
        return operator_sum(((1, self), (-1, other)), self.domain)

    def scale(self, a):
        return operator_sum(((S(a), self),), self.domain)

    def transpose(self):
        """Mirror across the main diagonal: the entry at (i, j) moves to
        (j, i), so a diagonal at offset o becomes one at -o with its row
        window shifted by +o."""
        segs = {}
        for offset, ss in self.segs.items():
            moved = []
            for lo, hi, c in ss:
                moved.append((None if lo is None else lo + offset,
                              None if hi is None else hi + offset, c))
            segs[-offset] = moved
        return LocallyFiniteOperator(segs, self.domain)

    def apply(self, v):
        """Matrix-vector product on basis symbols u_q := (tag, q); the
        output keeps the symbol tag."""
        return Vec(sparse_sum(((vtag, r), c * d)
                              for (vtag, q), c in v.terms.items()
                              for r, d in self.apply_index(q).items()))

    def apply_index(self, q):
        """Action on the single basis vector u_q, i.e. column q, as a dict
        {row: coeff}.  Segments are clipped to the domain, so every row found
        lies in it."""
        out = {}
        for offset, ss in self.segs.items():
            r = q - offset
            for seg in ss:
                if _seg_contains(seg, r):
                    out[r] = seg[2]
                    break
        return out

    def to_finitary(self):
        """The operator itself, once its support is known to be finite."""
        if any(lo is None or hi is None
               for ss in self.segs.values() for lo, hi, _ in ss):
            raise ValueError("operator has infinite rays; not finitary")
        return self

    @property
    def entries(self):
        """The finite support as {(row, col): coeff}; raises on infinite
        rays."""
        return {(r, r + offset): c
                for offset, ss in self.to_finitary().segs.items()
                for lo, hi, c in ss for r in range(lo, hi + 1)}


class FinitaryMatrix(LocallyFiniteOperator):
    """A finite-support operator given as {(row, col): coeff}.  Every
    operation on it returns a LocallyFiniteOperator, which compares and
    hashes equal to it."""

    __slots__ = ()

    def __init__(self, entries=None, domain=NATURALS):
        segs = {}
        for (i, j), c in (entries or {}).items():
            if c and not (domain.contains(i) and domain.contains(j)):
                raise ValueError("entry (%d, %d) outside domain %r" % (i, j, domain))
            segs.setdefault(j - i, []).append((i, i, S(c)))
        super().__init__(segs, domain)


class StridedRayOperator(LocallyFiniteOperator):
    """coeff * (e_{row0,col0} + e_{row0+1,col0+1} + ...): one ray segment,
    the operator that LocallyFiniteOperator.ray builds.  Every operation on
    it returns a LocallyFiniteOperator, which compares and hashes equal to
    it."""

    __slots__ = ()

    def __init__(self, coeff, row0, col0, domain=NATURALS):
        super().__init__({col0 - row0: [(row0, None, S(coeff))]}, domain)

    # bench/tracing.py counts calls by patching apply_index in this class's
    # own namespace
    apply_index = LocallyFiniteOperator.apply_index


def _need_same_domain(a, b):
    if a.domain != b.domain:
        raise ValueError("index domain mismatch: %r vs %r" % (a.domain, b.domain))


def operator_sum(terms, domain, products=()):
    """The sum of c * op over (c, op) in terms and of the matrix products
    c * ab over (c, a, b) in products, normalised once from all their raw
    segments.  A segment on offset o1 over rows lo1..hi1 times one on offset
    o2 over rows lo2..hi2 gives, on offset o1 + o2, the rows of the first
    whose shift by o1 lies in the second."""
    segs = {}
    for c, op in terms:
        for offset, ss in op.segs.items():
            out = segs.setdefault(offset, [])
            out += ss if c == 1 else [(lo, hi, c * d) for lo, hi, d in ss]
    for c, a, b in products:
        for o1, ss1 in a.segs.items():
            for o2, ss2 in b.segs.items():
                for lo1, hi1, c1 in ss1:
                    for lo2, hi2, c2 in ss2:
                        cut = _meet(lo1, hi1,
                                    None if lo2 is None else lo2 - o1,
                                    None if hi2 is None else hi2 - o1)
                        if cut is not None:
                            segs.setdefault(o1 + o2, []).append(
                                (*cut, c * c1 * c2))
    return LocallyFiniteOperator(segs, domain)


def mul_mixed(a, b):
    """Matrix product of two operators, again a LocallyFiniteOperator."""
    _need_same_domain(a, b)
    return operator_sum((), a.domain, ((1, a, b),))


def commutator(a, b):
    """ab - ba."""
    _need_same_domain(a, b)
    return operator_sum((), a.domain, ((1, a, b), (-1, b, a)))

