"""Locally finite operators on infinite matrices, finitary matrices included.

A locally finite operator has finitely many nonzero entries in every row and
in every column; all catalog operators are supported on finitely many
slope-one diagonals, so the canonical representation used here is

    step, {offset: sorted disjoint segments (lo, hi, coeff)}

where offset = column - row, and a segment contributes coeff * e_{r, r+offset}
for every row r = lo, lo + step, ... up to hi.  lo = None means the segment
extends to -infinity (integers domain only; its rows are then hi, hi - step,
...) and hi = None means +infinity.  Step 1 gives point entries and the
diagonal "rays"; a larger step gives the strided rays of the k-step
difference preimages, whose support walks a diagonal in jumps of k.  Each
operator takes the least step at which every diagonal is finitely many
segments, so a single normal form covers the finitary part, the rays and the
strided rays, and structural equality equals mathematical equality.

A finitary matrix (finitely many nonzero entries; these form the two-sided
ideal inside the locally finite operators) is the case in which every segment
is finite.  FinitaryMatrix only builds one from {(row, col): coeff}, and
`entries` reads that dict back off any finite-support operator.
"""

from __future__ import annotations

from math import lcm

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


def _norm_segments(raw, step=1):
    """Normalize possibly-overlapping segments at the given step into a
    canonical tuple: each residue class mod step in turn, as disjoint,
    sorted, maximal segments with nonzero coefficients, integral ones as int.

    A raw segment (lo, hi, c) covers the rows from lo to hi in the class of
    lo (of hi when lo is None); (None, None, c) covers every row.  Above
    step 1 each class r is normalised as a step-1 diagonal in the coordinate
    m of its rows r + m*step, and a class covered end to end is split at r,
    which names the class.

    At step 1, one sweep over the sorted breakpoints: a segment adds its
    coefficient at lo and takes it back at hi + 1, a backward-infinite one
    starts in the running total.  A breakpoint whose changes cancel is
    dropped, so each emitted segment differs in coefficient from the next
    adjacent one."""
    if step > 1:
        classes = [[] for _ in range(step)]
        for lo, hi, c in raw:
            if lo is None and hi is None:
                for cls in classes:
                    cls.append((lo, hi, c))
                continue
            r = (hi if lo is None else lo) % step
            classes[r].append((None if lo is None else (lo - r) // step,
                               None if hi is None else (hi - r) // step, c))
        out = []
        for r, cls in enumerate(classes):
            for lo, hi, c in _norm_segments(cls):
                if lo is None and hi is None:
                    out.append((None, r - step, c))
                    lo = 0
                out.append((None if lo is None else r + lo * step,
                            None if hi is None else r + hi * step, c))
        return tuple(out)
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


def _meet(lo1, hi1, lo2, hi2, s1, s2, step):
    """Ends (lo, hi) of the rows common to the progressions lo1, lo1 + s1,
    ... up to hi1 and lo2, lo2 + s2, ... up to hi2, aligned at step (the lcm
    of s1 and s2), or None when there are none.  None stands for the
    corresponding infinity; a progression without lo is anchored at its hi,
    and one without either has step 1."""
    lo = lo2 if lo1 is None else (lo1 if lo2 is None or lo2 < lo1 else lo2)
    hi = hi2 if hi1 is None else (hi1 if hi2 is None or hi1 < hi2 else hi2)
    if step > 1:
        a1 = hi1 if lo1 is None else lo1
        a2 = hi2 if lo2 is None else lo2
        # a row in both classes: the chinese remainder, by search
        x = a2 if s1 == 1 else next(
            (x for x in range(a1, a1 + step, s1)
             if s2 == 1 or (x - a2) % s2 == 0), None)
        if x is None:
            return None
        if lo is not None:
            lo += (x - lo) % step
        if hi is not None:
            hi -= (hi - x) % step
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _seg_contains(seg, r, step):
    lo, hi, _ = seg
    return ((lo is None or lo <= r) and (hi is None or r <= hi)
            and (step == 1 or (r - (hi if lo is None else lo)) % step == 0))


def _least_step(segs, step):
    """The least divisor of step at which every diagonal of the canonical
    step-`step` segments is finitely many segments: the least period of the
    tail coefficients over the row classes, 1 when there are no tails."""
    tails = {(o, hi is None, (hi if lo is None else lo) % step): c
             for o, ss in segs.items() for lo, hi, c in ss
             if lo is None or hi is None}
    for p in range(1, step):
        if not step % p and all(tails.get((o, fwd, (r + p) % step)) == c
                                for (o, fwd, r), c in tails.items()):
            return p
    return step


def _refine(ss, step, p):
    """The canonical step-`step` segments ss as raw segments at step p, a
    divisor of step at which their tails repeat: the tails beyond every tail
    start and end become tails at step p, every other covered row a point."""
    fwd = {lo % step: c for lo, hi, c in ss if hi is None}
    back = {hi % step: c for lo, hi, c in ss if lo is None}
    top = max((lo for lo, hi, _ in ss if hi is None), default=0)
    bot = min((hi for lo, hi, _ in ss if lo is None), default=0)
    raw = []
    for lo, hi, c in ss:
        a = hi if lo is None else lo
        first = lo if lo is not None else bot + 1 + (a - bot - 1) % step
        last = hi if hi is not None else top - 1 - (top - 1 - a) % step
        raw += [(x, x, c) for x in range(first, last + 1, step)]
    for r in range(p):
        x = top + (r - top) % p
        y = bot - (bot - r) % p
        raw += [(x, None, fwd.get(x % step, 0)),
                (None, y, back.get(y % step, 0))]
    return raw


class LocallyFiniteOperator:
    """Operator supported on finitely many diagonals, finitely many segments
    per diagonal.  Every row and every column then has at most one entry per
    diagonal, so local finiteness is structural.

    A segment (lo, hi, c) covers the rows lo, lo + step, ... up to hi, a
    backward-infinite one the rows hi, hi - step, ...; step is the same for
    every segment and is lowered at construction to the least one at which
    every diagonal is finitely many segments, so structural equality equals
    mathematical equality."""

    __slots__ = ("domain", "segs", "step")

    def __init__(self, segs=None, domain=NATURALS, step=1):
        self.domain = domain
        norm = {}
        finite = domain.kind == "finite"
        for offset, raw in (segs or {}).items():
            if finite and any(lo is None or hi is None for lo, hi, _ in raw):
                raise ValueError("infinite ray in finite domain")
            bounds = domain.row_bounds(offset)
            if bounds is None:
                continue
            blo, bhi = bounds
            canon = []
            for lo, hi, c in _norm_segments(raw, step):
                # the segment's rows within the domain's rows
                cut = _meet(lo, hi, blo, bhi, step, 1, step)
                if cut is not None:
                    canon.append((cut[0], cut[1], c))
            if canon:
                norm[offset] = tuple(canon)
        if step > 1 and (least := _least_step(norm, step)) < step:
            norm = {o: canon for o, ss in norm.items()
                    if (canon := _norm_segments(_refine(ss, step, least),
                                                least))}
            step = least
        self.segs = norm
        self.step = step

    @classmethod
    def zero(cls, domain=NATURALS):
        return cls({}, domain)

    @classmethod
    def ray(cls, coeff, row0, col0, length=None, domain=NATURALS, back=False):
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
    def unit(cls, i, j, domain=NATURALS, coeff=ONE):
        return cls({j - i: [(i, i, coeff)]}, domain)

    def __bool__(self):
        return bool(self.segs)

    def __eq__(self, other):
        return (isinstance(other, LocallyFiniteOperator)
                and self.domain == other.domain and self.step == other.step
                and self.segs == other.segs)

    def __hash__(self):
        return hash((self.domain, self.step, tuple(sorted(self.segs.items()))))

    def __repr__(self):
        return "LocallyFiniteOperator(%r, %r%s)" % (
            dict(sorted(self.segs.items())), self.domain,
            ", step=%d" % self.step if self.step > 1 else "")

    def entry(self, i, j):
        for seg in self.segs.get(j - i, ()):
            if _seg_contains(seg, i, self.step):
                return seg[2]
        return 0

    def row(self, i):
        """Finite dict {col: coeff} of row i."""
        out = {}
        for offset, segs in self.segs.items():
            for seg in segs:
                if _seg_contains(seg, i, self.step):
                    out[i + offset] = seg[2]
                    break
        return out

    def __add__(self, other):
        _need_same_domain(self, other)
        return operator_sum(((1, self), (1, other)), self.domain)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        _need_same_domain(self, other)
        return operator_sum(((1, self), (-1, other)), self.domain)

    def scale(self, a):
        return operator_sum(((S(a), self),), self.domain)

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
        return LocallyFiniteOperator(segs, self.domain, self.step)

    def apply(self, v, tag=None):
        """Matrix-vector product on basis symbols u_q := (tag, q); the
        symbol tag is preserved unless an explicit output tag is given."""
        return Vec(sparse_sum(((tag or vtag, r), c * d)
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
                if _seg_contains(seg, r, self.step):
                    out[r] = seg[2]
                    break
        return out

    def to_finitary(self):
        """The operator itself, once its support is known to be finite (and
        so its step is 1)."""
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

    @classmethod
    def unit(cls, i, j, domain=NATURALS, coeff=ONE):
        return cls({(i, j): coeff}, domain)


class StridedRayOperator(LocallyFiniteOperator):
    """coeff * sum of e_{row0+m*step, col0+m*step} over m >= 0: one ray
    segment at the given step.  Steps >= 2 arise as preimages of the k-step
    difference maps, whose support walks a diagonal in jumps of k; step 1 is
    the ordinary ray.  Every operation on it returns a LocallyFiniteOperator,
    which compares and hashes equal to it."""

    __slots__ = ()

    def __init__(self, coeff, row0, col0, step, domain=NATURALS):
        if step < 1:
            raise ValueError("stride must be positive")
        super().__init__({col0 - row0: [(row0, None, S(coeff))]}, domain, step)

    # bench/tracing.py counts calls by patching apply_index in this class's
    # own namespace
    apply_index = LocallyFiniteOperator.apply_index


def _need_same_domain(a, b):
    if a.domain != b.domain:
        raise ValueError("index domain mismatch: %r vs %r" % (a.domain, b.domain))


def operator_sum(terms, domain):
    """The sum of c * op over (c, op) in terms, all segments normalised
    together at the lcm of the operators' steps; a segment at a smaller step
    s enters as one segment per class of that lcm inside its class mod s."""
    terms = list(terms)
    step = 1
    for _, op in terms:
        if op.step != step:
            step = lcm(step, op.step)
    segs = {}
    for c, op in terms:
        s = op.step
        for offset, ss in op.segs.items():
            out = segs.setdefault(offset, [])
            if s == step:
                out.extend(ss if c == 1 else [(lo, hi, c * d)
                                              for lo, hi, d in ss])
                continue
            for lo, hi, d in ss:
                if lo is None and hi is None:
                    out.append((lo, hi, c * d))
                else:
                    out.extend((lo + m, hi, c * d) if lo is not None
                               else (None, hi - m, c * d)
                               for m in range(0, step, s))
    return LocallyFiniteOperator(segs, domain, step)


# ---------------------------------------------------------------------------
# products

def mul_mixed(a, b):
    """Matrix product of two operators, again a LocallyFiniteOperator.

    A segment on offset o1 over rows lo1, lo1 + s1, ... up to hi1 times a
    segment on offset o2 over rows lo2, lo2 + s2, ... up to hi2 contributes,
    on offset o1+o2, the rows of the first progression whose shift by o1
    lies in the second, a progression at the lcm of the two steps."""
    _need_same_domain(a, b)
    s1, s2 = a.step, b.step
    step = lcm(s1, s2)
    segs = {}
    for o1, ss1 in a.segs.items():
        for o2, ss2 in b.segs.items():
            for lo1, hi1, c1 in ss1:
                for lo2, hi2, c2 in ss2:
                    cut = _meet(lo1, hi1, None if lo2 is None else lo2 - o1,
                                None if hi2 is None else hi2 - o1, s1, s2,
                                step)
                    if cut is not None:
                        segs.setdefault(o1 + o2, []).append(
                            (cut[0], cut[1], c1 * c2))
    return LocallyFiniteOperator(segs, a.domain, step)


def trace_pair(x, y):
    """The trace form tr(xy) for finitary x and locally finite y; symmetric
    and associative whenever all products stay finitary."""
    return sum(c * y.entry(l, k) for (k, l), c in x.entries.items())


def commutator(a, b):
    """ab - ba."""
    return mul_mixed(a, b) - mul_mixed(b, a)

