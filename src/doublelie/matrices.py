"""Locally finite operators on infinite matrices, finitary matrices included.

A locally finite operator has finitely many nonzero entries in every row and
in every column; all catalog operators are supported on finitely many
slope-one diagonals, so the canonical representation used here is

    {offset: sorted disjoint segments (lo, hi, coeff)}

where offset = column - row, and a segment contributes coeff * e_{r, r+offset}
for every row r with lo <= r <= hi.  lo = None means the segment extends to
-infinity (integers domain only) and hi = None means +infinity.  Point entries
are length-one segments, so a single normal form covers both the finitary part
and the diagonal "rays", and structural equality equals mathematical equality.

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
    def naturals(cls):
        return _NATURALS

    @classmethod
    def integers(cls):
        return _INTEGERS

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

    def allows_infinite(self):
        return self.kind != "finite"


_NATURALS = Domain("naturals")
_INTEGERS = Domain("integers")


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


def _clip_segment(seg, bounds):
    if bounds is None:
        return None
    lo, hi, c = seg
    blo, bhi = bounds
    nlo = lo if blo is None else (blo if lo is None else max(lo, blo))
    nhi = hi if bhi is None else (bhi if hi is None else min(hi, bhi))
    if nlo is not None and nhi is not None and nlo > nhi:
        return None
    return (nlo, nhi, c)


def _seg_contains(seg, r):
    lo, hi, _ = seg
    return (lo is None or lo <= r) and (hi is None or r <= hi)


class LocallyFiniteOperator:
    """Operator supported on finitely many diagonals, finitely many segments
    per diagonal.  Every row and every column then has at most one entry per
    diagonal, so local finiteness is structural."""

    __slots__ = ("domain", "segs")

    def __init__(self, segs=None, domain=_NATURALS):
        self.domain = domain
        norm = {}
        for offset, raw in (segs or {}).items():
            bounds = domain.row_bounds(offset)
            clipped = []
            for seg in raw:
                if (seg[0] is None or seg[1] is None) and not domain.allows_infinite():
                    raise ValueError("infinite ray in finite domain")
                cut = _clip_segment(seg, bounds)
                if cut is not None:
                    clipped.append(cut)
            canon = _norm_segments(clipped)
            if canon:
                for lo, hi, _ in canon:
                    if lo is None and domain.kind != "integers":
                        raise ValueError(
                            "backward-infinite ray requires the integers domain")
                norm[offset] = canon
        self.segs = norm

    @classmethod
    def zero(cls, domain=_NATURALS):
        return cls({}, domain)

    @classmethod
    def ray(cls, coeff, row0, col0, length=None, domain=_NATURALS, back=False):
        """coeff * (e_{row0,col0} + e_{row0+1,col0+1} + ...); length None means
        a forward-infinite ray, or with back=True a backward-infinite one
        ending at (row0, col0)."""
        offset = col0 - row0
        if length is None:
            seg = (None, row0, coeff) if back else (row0, None, coeff)
        else:
            if length < 0:
                raise ValueError("ray length must be nonnegative")
            if length == 0:
                return cls({}, domain)
            seg = (row0, row0 + length - 1, coeff)
        return cls({offset: [seg]}, domain)

    @classmethod
    def unit(cls, i, j, domain=_NATURALS, coeff=ONE):
        return cls({j - i: [(i, i, coeff)]}, domain)

    def is_zero(self):
        return not self.segs

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
        segs = {}
        for src in (self.segs, other.segs):
            for offset, ss in src.items():
                segs.setdefault(offset, []).extend(ss)
        return LocallyFiniteOperator(segs, self.domain)

    def __neg__(self):
        return LocallyFiniteOperator(
            {o: [(lo, hi, -c) for lo, hi, c in ss] for o, ss in self.segs.items()},
            self.domain)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        a = S(a)
        if not a:
            return LocallyFiniteOperator.zero(self.domain)
        return LocallyFiniteOperator(
            {o: [(lo, hi, a * c) for lo, hi, c in ss] for o, ss in self.segs.items()},
            self.domain)

    def __rmul__(self, a):
        return self.scale(a)

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

    def apply(self, v, tag=None):
        return _apply(self, v, tag)

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

    def __init__(self, entries=None, domain=_NATURALS):
        segs = {}
        for (i, j), c in (entries or {}).items():
            if c and not (domain.contains(i) and domain.contains(j)):
                raise ValueError("entry (%d, %d) outside domain %r" % (i, j, domain))
            segs.setdefault(j - i, []).append((i, i, S(c)))
        super().__init__(segs, domain)

    @classmethod
    def unit(cls, i, j, domain=_NATURALS, coeff=ONE):
        return cls({(i, j): coeff}, domain)


def _need_same_domain(a, b):
    if a.domain != b.domain:
        raise ValueError("index domain mismatch: %r vs %r" % (a.domain, b.domain))


def _apply(op, v, tag=None):
    """Matrix-vector product on basis symbols u_q := (tag, q); the symbol
    tag is preserved unless an explicit output tag is given."""
    return Vec(sparse_sum(((tag or vtag, r), c * d)
                          for (vtag, q), c in v.terms.items()
                          for r, d in op.apply_index(q).items()))


# ---------------------------------------------------------------------------
# products

def mul_mixed(a, b):
    """Matrix product of two operators, again a LocallyFiniteOperator.

    A segment on offset o1 with rows [lo1, hi1] times a segment on offset o2
    with rows [lo2, hi2] contributes, on offset o1+o2, the rows
    [lo1, hi1] intersect [lo2 - o1, hi2 - o1].  A strided ray has no
    segments; it meets the other factor, which must then be finitary, entry
    by entry."""
    _need_same_domain(a, b)
    if isinstance(a, StridedRayOperator):
        # each entry e_{kl} of b meets column k of a
        return FinitaryMatrix(sparse_sum(((r, l), c * d)
                                         for (k, l), d in b.entries.items()
                                         for r, c in a.apply_index(k).items()),
                              a.domain)
    if isinstance(b, StridedRayOperator):
        # each entry e_{ik} of a meets row k of b
        return FinitaryMatrix(sparse_sum(((i, l), c * d)
                                         for (i, k), c in a.entries.items()
                                         for l, d in b.row(k).items()),
                              a.domain)
    segs = {}
    for o1, ss1 in a.segs.items():
        for o2, ss2 in b.segs.items():
            for lo1, hi1, c1 in ss1:
                for lo2, hi2, c2 in ss2:
                    slo = None if lo2 is None else lo2 - o1
                    shi = None if hi2 is None else hi2 - o1
                    cut = _clip_segment((slo, shi, c1 * c2), (lo1, hi1))
                    if cut is not None:
                        segs.setdefault(o1 + o2, []).append(cut)
    return LocallyFiniteOperator(segs, a.domain)


def trace_pair(x, y):
    """The trace form tr(xy) for finitary x and locally finite y; symmetric
    and associative whenever all products stay finitary."""
    return sum(c * y.entry(l, k) for (k, l), c in x.entries.items())


def commutator(a, b):
    """ab - ba."""
    return mul_mixed(a, b) - mul_mixed(b, a)


class StridedRayOperator:
    """coeff * sum of e_{row0+m*step, col0+m*step} over m >= 0.

    For step 1 this is an ordinary ray; steps >= 2 arise as preimages of the
    k-step difference maps, whose support walks a diagonal in jumps of k.
    Only the read-only protocol shared with LocallyFiniteOperator is offered
    (entry / row / apply_index / apply), plus scaling and transposition;
    mul_mixed multiplies one by a finitary factor entry by entry."""

    __slots__ = ("coeff", "row0", "col0", "step", "domain")

    def __init__(self, coeff, row0, col0, step, domain=_NATURALS):
        if step < 1:
            raise ValueError("stride must be positive")
        if domain.kind == "finite":
            raise ValueError("infinite strided ray in finite domain")
        self.coeff = S(coeff)
        self.row0 = row0
        self.col0 = col0
        self.step = step
        self.domain = domain

    def __eq__(self, other):
        if isinstance(other, StridedRayOperator):
            return (self.coeff, self.row0, self.col0, self.step, self.domain) == \
                   (other.coeff, other.row0, other.col0, other.step, other.domain)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.row0, self.col0, self.step, self.domain))

    def __repr__(self):
        return "StridedRayOperator(%r, %d, %d, step=%d)" % (
            self.coeff, self.row0, self.col0, self.step)

    def entry(self, i, j):
        if j - i == self.col0 - self.row0 and i >= self.row0 \
                and (i - self.row0) % self.step == 0:
            return self.coeff
        return 0

    def row(self, i):
        if i >= self.row0 and (i - self.row0) % self.step == 0 and self.coeff:
            return {i + self.col0 - self.row0: self.coeff}
        return {}

    def apply_index(self, q):
        if q >= self.col0 and (q - self.col0) % self.step == 0 and self.coeff:
            return {q - self.col0 + self.row0: self.coeff}
        return {}

    def apply(self, v, tag=None):
        return _apply(self, v, tag)

    def scale(self, a):
        return StridedRayOperator(S(a) * self.coeff, self.row0, self.col0,
                                  self.step, self.domain)

    def transpose(self):
        return StridedRayOperator(self.coeff, self.col0, self.row0, self.step,
                                  self.domain)


NATURALS = _NATURALS
INTEGERS = _INTEGERS
