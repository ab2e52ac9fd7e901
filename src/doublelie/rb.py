"""Rota-Baxter operators on finitary matrices.

An operator is stored as a map from matrix units e_{ij} to locally finite
operators, extended linearly.  Every operator here has weight 0.  Its
defining identity

    R(x)R(y) = R(R(x)y + xR(y))

is checked per pair of units x, y in a window on the segment normal form, as
one defect D = R(x)R(y) - R(R(x)y + xR(y)) normalised from the raw segments
of the product and of the scaled images: the pair holds on every basis
vector iff D is empty.  The two sides are built apart only to render a
counterexample.  Off finite domains an empty defect, and only an empty one,
settles the pairs that column runs and slides down the (j, k) diagonal
reach from it, moves read off a chamber table but at a flipped unit.  On
the integers a chamber table with no flipped unit makes R shift-equivariant,
and every unit pair of Z^4 is then settled at its region representatives.
Skew-symmetry is the condition <R(x),y> = -<x,R(y)> for the trace pairing
<x,y> = tr(xy), read off the segments of each window image once.

The catalog covers the two divided-difference operators r1, r2 and their
transpose conjugates, three finite-dimensional examples, the tensor extension
by a matrix factor, and the k-step difference preimage family p_k.  r1 and
r2 are chamber tables, one segment per chamber on diagonal j - i + offset,
split at j - i >= split, which also give the correspondence's support: r1
and r2 have (offset, split) = (1, 0), their transposes r3, r4 (-1, 1), and
the operators derived from them read their images off their tables.
r1_laurent and r2_laurent are the images on the integers, and the domain
clip cuts them to the polynomial r1 and r2 on the naturals.  p_k is the tensor extension r2 (x) id_k, which is the
N-indexed p_k read through the index bijection i <-> (i // k, i mod k), and
p_1 is r2.  The finite examples are read from one table of images.
"""

from __future__ import annotations

from math import inf

from .exact import S, sparse_sum
from .matrices import (INTEGERS, NATURALS, Domain, FinitaryMatrix,
                       LocallyFiniteOperator, _meet, commutator, mul_mixed,
                       operator_sum)
from .report import VerificationReport


class RBOperator:
    """Basis-indexed linear map from matrix units into locally finite
    operators.  A chamber table _chambers = (table, offset, split), table =
    (below, above), makes R(e_ij) c on rows i + lo .. i + hi of diagonal
    j - i + offset, (lo, hi, c) = above iff j - i >= split.  Scaling, the
    transpose, the tensor extension and mutate_sign keep a table, and it
    gives the images (negated at the units that mutate_sign flipped,
    _flipped), the RB sweep's moves but at those units, and support(p, q),
    the s of the correspondence sum, which a finite domain gives too."""

    __slots__ = ("name", "domain", "_image_fn", "N", "_chambers", "_flipped",
                 "_images", "_applied")

    def __init__(self, name, domain, image_fn, N=1):
        self.name = name
        self.domain = domain
        self._image_fn = image_fn
        self.N = N
        self._chambers = None
        self._flipped = frozenset()
        self._images = {}
        self._applied = {}

    @property
    def shift_equivariant(self):
        """Whether R(e_{i+s,j+s}) is R(e_ij) moved s rows down and s columns
        right for every unit and s, as a chamber table on the integers with
        no unit flipped makes it."""
        return self._chambers is not None and not self._flipped \
            and self.domain.kind == "integers"

    def _derived(self, name, image_fn, N=None, transpose=False, alpha=1):
        """R's table times alpha and its flipped units, for an image_fn that
        scales by alpha or transposes; with a table, image_fn is not called.
        R^T(e_ij) = R(e_ji)^T is c on rows i + lo + offset .. i + hi + offset
        of diagonal j - i - offset, from R's above iff j - i < 1 - split: the
        shape (-offset, 1 - split), chambers swapped, row ends moved."""
        R = RBOperator(name, self.domain, image_fn, N or self.N)
        if self._chambers:
            table, offset, split = self._chambers
            table = tuple((lo, hi, alpha * c) for lo, hi, c in table)
            if transpose:
                table = tuple((lo if lo is None else lo + offset,
                               hi if hi is None else hi + offset, c)
                              for lo, hi, c in reversed(table))
                offset, split = -offset, 1 - split
            R._chambers = table, offset, split
        R._flipped = frozenset((j, i) for i, j in self._flipped) \
            if transpose else self._flipped
        return R

    def support(self, p, q):
        """The s, ascending, at which R(e_{ps}) u_q may be nonzero: the
        finite domain, exactly those s for a chamber table, None for any
        other operator.  Raises ValueError if they are infinitely many.

        Per chamber they form one interval: u_q meets R(e_{ps}) at row
        r = q - s + p - offset, so with d = q - offset s runs over d - hi ..
        d - lo, below p + split in the below chamber and from it in the
        above one, with s >= 0 and r >= 0 on the naturals."""
        if self.domain.kind == "finite":
            return range(self.domain.size)
        if self._chambers is None:
            return None
        (below, above), offset, split = self._chambers
        d, cut = q - offset, p + split
        floor, ceil = ((0, d + p) if self.domain.kind == "naturals"
                       else (-inf, inf))
        out = []
        for (lo, hi, _), first, last in ((below, -inf, cut - 1),
                                         (above, cut, inf)):
            first = max(first, floor, -inf if hi is None else d - hi)
            last = min(last, ceil, inf if lo is None else d - lo)
            if first == -inf or last == inf:
                raise ValueError("operator %s: infinitely many s at (p, q) = "
                                 "(%d, %d)" % (self.name, p, q))
            out += range(first, last + 1)
        return out

    def degree_shift(self):
        """s + r - p - q at every term u_s (x) u_r of the correspondence sum,
        whose row is r = q - s + p - offset as in support: -offset for a
        chamber table (-1 for r1, r2 and p_k, +1 for their transposes), None
        for any other operator."""
        return self._chambers and -self._chambers[1]

    def image(self, i, j):
        """R(e_{ij}) as an operator-like value (memoized)."""
        key = (i, j)
        op = self._images.get(key)
        if op is None:
            if not (self.domain.contains(i) and self.domain.contains(j)):
                raise ValueError("unit (%d, %d) outside domain %r"
                                 % (i, j, self.domain))
            op = self._image_fn(i, j) if self._chambers is None \
                else self._table_image(i, j)
            self._images[key] = op
        return op

    def _table_image(self, i, j):
        """R(e_ij) read off the table: its chamber's segment, negated at a
        flipped unit."""
        segs = _chamber_segment(self._chambers, self.domain, i, j)
        if (i, j) in self._flipped:
            segs = {o: ((lo, hi, -c),) for o, ((lo, hi, c),) in segs.items()}
        return LocallyFiniteOperator(segs, self.domain)

    def apply_image(self, i, j, q):
        """R(e_{ij}) u_q as a dict {row: coeff} (memoized)."""
        key = (i, j, q)
        got = self._applied.get(key)
        if got is None:
            got = self.image(i, j).apply_index(q)
            self._applied[key] = got
        return got

    def image_of_finitary(self, x):
        """R(x) for finitary x."""
        return self._image_sum(x.entries.items())

    def _image_sum(self, terms):
        """The sum of c * R(e_{ij}) over ((i, j), c) in terms."""
        return operator_sum(((c, self.image(i, j)) for (i, j), c in terms),
                            self.domain)

    def scaled(self, alpha, name=None):
        alpha = S(alpha)
        return self._derived(name or "%s*%s" % (alpha, self.name),
                             lambda i, j: self.image(i, j).scale(alpha),
                             alpha=alpha)

    def __repr__(self):
        return "RBOperator(%r, %r, N=%d)" % (self.name, self.domain, self.N)


def unit_range(domain, window):
    """Index range swept by windowed checks: the full finite domain, 0..window
    over the naturals, -window..window over the integers."""
    if domain.kind == "finite":
        return range(domain.size)
    if domain.kind == "integers":
        return range(-window, window + 1)
    return range(window + 1)


def _render_vec_dict(d):
    return " + ".join("%s*u_%d" % (c, r) for r, c in sorted(d.items())) or "0"


class _Moves(dict):
    """(a, b, down, edge) -> 2 if R(e_{a,b+1}) is R(e_ab) moved one column
    right (down: R(e_{a+1,b}) is R(e_ab) moved one row down); with edge, on
    the naturals, 1 if it is that plus an entry in column 0 (row 0); else 0.

    A chamber table, of either shape (offset, split), gives the level
    (_table_move), and a row's cut points for the slides (_cuts), but where
    a move touches a unit that mutate_sign flipped; there, and without a
    table, the two images are compared."""

    def __init__(self, R):
        super().__init__()
        self.R, self.reaches, self.cut_points = R, {}, {}
        self.edge = R.domain.kind == "naturals"
        self.table = R._chambers
        # the moves (a, b, down) that touch a flipped unit
        self.compared = {m for i, j in R._flipped for m in (
            (i, j - 1, 0), (i, j, 0), (i - 1, j, 1), (i, j, 1))}

    def __missing__(self, key):
        if self.table and key[:3] not in self.compared:
            level = self[key] = _table_move(self.table, self.R.domain, *key)
            return level
        a, b, down, edge = key
        R = self.R
        level = self[key] = _level(R.image(a, b).segs,
                                   R.image(a + down, b + 1 - down).segs,
                                   down, edge)
        return level

    def reach(self, a, b, n):
        """min(n, how many of (a, b), (a, b + 1), ... move one right)."""
        m = self.reaches.get((a, b), 0)
        while m < n and self[a, b + m, 0, False] == 2:
            m += 1
        self.reaches[a, b] = m
        return min(m, n)

    def slides(self, holes, k, right, ls):
        """The intervals of l in ls, holes left out, at which (x, e_kl)
        slides, x at level right: e_kl at level 1 or 2 down from e_{k-1,l},
        not both at 1 (cut points once per k)."""
        if (k, right) not in self.cut_points:
            self.cut_points[k, right] = self._cuts(k - 1, right, ls)
        a = ls[0]
        for c in sorted(self.cut_points[k, right] + holes) + [ls[-1] + 1]:
            if a < c:
                yield a, c - 1
            a = c + 1

    def _cuts(self, a, right, ls):
        """The l in ls, ascending, at which right + the level of (a, l,
        down) is below 3.  A table's down moves along l are at level 2
        before the chamber wall w = a + split and all at one level past it:
        1 (with edge) if row -a - 1 lies in the rows, taken from its unit,
        of the above chamber, so that the naturals' clip keeps an edge
        entry in every R(e_{a+1,l}); else 2 (_table_move)."""
        edge = self.edge
        if not self.table or any(m[0] == a and m[2] for m in self.compared):
            return [l for l in ls if right + self[a, l, 1, edge] < 3]
        # with 0 <= offset + split <= 1, as in (1, 0) and (-1, 1), the clip
        # cuts row 0 from R(e_{a+1,l}) at every l < w and at no l > w
        (_, (lo, hi, c)), _, split = self.table
        w = a + split
        past = 1 if edge and c and (lo is None or lo <= -a - 1) and (
            hi is None or -a - 1 <= hi) else 2
        cuts = [w] if w in ls and right + self[a, w, 1, edge] < 3 else []
        return cuts + [l for l in ls if l > w] if right + past < 3 else cuts


def _level(ref, op, down, edge):
    """The level of the move from segments ref to segments op, each
    {offset: segments}: 2 if op is ref moved (down: one row down, else one
    column right), 1 with edge if it is that plus an edge entry, else 0."""
    moved = {o - 1: tuple([(lo if lo is None else lo + 1,
                            hi if hi is None else hi + 1, c)
                           for lo, hi, c in ss])
             for o, ss in ref.items()} if down else {
        o + 1: ss for o, ss in ref.items()}
    return 2 if op == moved else int(
        edge and moved.keys() <= op.keys()
        and all(ss == moved.get(o)
                or moved.get(o) == _off_edge(ss, -o * (1 - down))
                for o, ss in op.items()))


def _off_edge(ss, edge):
    """The segments ss without row edge, the first of their diagonal."""
    return tuple((lo + 1 if lo == edge else lo, hi, c)
                 for lo, hi, c in ss if not lo == hi == edge) or None


def _table_move(chambers, domain, a, b, down, edge):
    """_Moves' level at (a, b, down, edge) off the chamber table, images
    unbuilt.  With e_ij the unit that e_ab moves to and e its edge row (row
    0, or column 0's, on diagonal j - i + offset): in one chamber R(e_ij) is
    R(e_ab) moved, but for row e, which on the naturals the clip cuts from
    R(e_ab) alone; across the chamber wall the two segments are compared
    (_level)."""
    table, offset, split = chambers
    i, j = a + down, b + 1 - down
    e = 0 if down else a - b - offset - 1
    if (b - a >= split) == (j - i >= split):
        if domain.kind != "naturals" or e < max(0, i - j - offset):
            return 2
        # the clip leaves row e in R(e_ij): is it in the chamber's rows?
        lo, hi, c = table[j - i >= split]
        return int(edge) if c and (lo is None or i + lo <= e) and (
            hi is None or e <= i + hi) else 2
    return _level(_chamber_segment(chambers, domain, a, b),
                  _chamber_segment(chambers, domain, i, j), down, edge)


def _terms(i, j, l, col, Ry):
    """R(x)y + xR(y) at x = e_ij, y = e_kl as (unit, coeff): col, column k
    of R(x) as items, put in column l, and row j of Ry = R(y) in row i."""
    return [((r, l), c) for r, c in col] + [
        ((i, cc), c) for cc, c in Ry.row(j).items()]


def _defect(R, Rx, Ry, terms):
    """The defect Rx Ry - R(terms), normalised, terms as _terms gives."""
    return operator_sum([(-c, R.image(a, b)) for (a, b), c in terms],
                        R.domain, ((1, Rx, Ry),))


def _pair_defects(R, idx):
    """(i, j, k, l, terms, defect) at the unit pairs x = e_{ij}, y = e_{kl},
    i, j, k, l in idx, in sweep order, except those settled by a column run
    or a slide (_terms, _defect).

    Runs: with C the column shift, e_kl = e_{k,l-1} C, so D(x, e_kl) is
    D(x, e_{k,l-1}) C when every unit read at e_{k,l-1} (it and those of
    its terms) moves one column right.  Slides: with S the transpose of C,
    (xS)y = x(Sy), so D(e_ij, e_kl) is D(e_{i,j-1}, e_{k-1,l}) when R(e_ij)
    is R(e_{i,j-1}) moved one column right and R(e_kl) is R(e_{k-1,l})
    moved one row down; on the naturals they differ only by R(e_ij) e_00
    R(e_kl), so one of them may also have its edge entry (_Moves level 1).
    Row (i, j, k) takes over the pairs of row (i, j - 1, k - 1) but its
    nonempty defects where it slides, and runs on from every pair known
    empty; as both start only from empty defects, the first failing pair
    is the full sweep's.  A finite domain, with no right neighbour to its
    last column, takes neither."""
    settle = R.domain.kind != "finite"
    moves = _Moves(R)
    top = max(idx, default=0)
    for i in idx:
        holes_at = {}
        for j in idx:
            Rx = R.image(i, j)
            right = settle and j > idx[0] and (
                moves[i, j - 1, 0, False] or moves[i, j - 1, 0, moves.edge])
            for k in idx:
                # the pairs known empty in row (i, j - 1, k - 1) that slide
                spans = right and k > idx[0] and moves.slides(
                    holes_at[j - 1, k - 1], k, right, idx)
                span, col, holes = spans and next(spans, None), None, []
                l = idx[0]
                while l <= top:
                    while span and span[1] < l:
                        span = next(spans, None)
                    slid = span and span[0] <= l
                    end = span[1] if slid else l
                    if slid and end >= top:
                        break
                    # the terms at (i, j, k, end), a gap's defect, the run
                    if col is None:
                        col = Rx.apply_index(k).items()
                    Ry = R.image(k, end)
                    terms = _terms(i, j, end, col, Ry)
                    if not slid:
                        defect = _defect(R, Rx, Ry, terms)
                        yield i, j, k, l, terms, defect
                        if defect:
                            holes.append(l)
                            l += 1
                            continue
                    n = settle and top - end
                    for a, b in [(k, end)] + [u for u, _ in terms]:
                        n = n and moves.reach(a, b, n)
                    l = end + n + 1
                holes_at[j, k] = holes


def _holds_everywhere(R):
    """Whether every unit pair of Z^4 holds (check_rb_identity; m = M + 1)."""
    table, offset, split = R._chambers
    m = 2 * max([abs(e) for *ends, _ in table for e in ends if e is not None],
                default=0) + abs(offset) + 3
    t = abs(split) + abs(offset) + 1
    near, reps = sorted(range(-t, t + 1), key=abs), {}
    for p in near:
        for q in near:
            reps.setdefault((p >= split, q >= split,
                             p + q + offset >= split), (p, q))
    return not any(
        _defect(R, Rx, Ry, _terms(0, p, k + q, Rx.apply_index(k).items(), Ry))
        for p, q in reps.values() for Rx in [R.image(0, p)]
        for k in range(p - m, p + m + 1) for Ry in [R.image(k, k + q)])


def check_rb_identity(R, window=8, cutoff=None):
    """Exact check of R(x)R(y) = R(R(x)y + xR(y)) on all unit pairs in the
    window, on every basis vector up to the cutoff.

    Each pair is decided on its defect D = R(x)R(y) - R(R(x)y + xR(y))
    (_defect), and an empty D settles every basis vector.  For a nonempty D
    the first q up to the cutoff with a nonzero column is the
    counterexample; only then are the two sides built, by mul_mixed and
    _image_sum, to render that column.  A pair whose sides differ only
    beyond the cutoff therefore passes, as the window-relative verdict says.

    Off finite domains most defects are never built: an empty defect
    settles the pairs that a column run or a slide reaches from it
    (_pair_defects), and a defect that merely passes the cutoff settles
    none, so every record is the full sweep's.  Their moves are read off
    R's chamber table where it has one (_Moves).

    A shift_equivariant operator is first decided on its table's regions
    (_holds_everywhere).  With p = j - i, q = l - k, d = k - j and a, b, s
    the chambers of p, q and p + q + offset, D(e_ij, e_kl) moved up i rows
    lies on diagonal p + q + 2 offset: c_a c_b on [lo_a, hi_a] meet
    d - offset + [lo_b, hi_b], minus c_a c_s on d - offset + [lo_s, hi_s]
    if d - offset is in [lo_a, hi_a], minus c_b c_s on [lo_s, hi_s] if -d
    is in [lo_b, hi_b].  Whether it is empty depends on (a, b, s) and on
    how d compares with constants of size at most M = 2E + |offset| + 2, E
    the largest finite |row end|: the pairs (0, p, p + d, p + d + q), one
    (p, q) per chamber triple and d in [-(M + 1), M + 1], stand for every
    unit pair of Z^4.  If each of their defects is empty the success record
    is the full sweep's; otherwise the full sweep gives the record.

    For operators carrying a matrix tensor factor (N > 1) the identity on
    composite units e_{ij} (x) e_{ab} reduces, through the Kronecker delta of
    the matrix factor, to the identity on the base units scaled by delta_{bc};
    the sweep below over base units is therefore exhaustive."""
    cutoff = 2 * window if cutoff is None else cutoff
    params = {"window": window, "cutoff": cutoff}
    details = ("matrix factor of size %d handled by the delta factorization "
               "of composite units" % R.N if R.N > 1 else None)
    qs = list(unit_range(R.domain, cutoff))
    settled = R.shift_equivariant and _holds_everywhere(R)
    for i, j, k, l, terms, defect in () if settled else _pair_defects(
            R, unit_range(R.domain, window)):
        for q in qs if defect else ():
            if defect.apply_index(q):
                lhs = mul_mixed(R.image(i, j), R.image(k, l)).apply_index(q)
                rhs = R._image_sum(terms).apply_index(q)
                ce = {"x": "e[%d,%d]" % (i, j), "y": "e[%d,%d]" % (k, l),
                      "q": q, "lhs": _render_vec_dict(lhs),
                      "rhs": _render_vec_dict(rhs)}
                return VerificationReport.failure("rb_identity", R.name, ce,
                                                  params)
    return VerificationReport.success("rb_identity", R.name, params, details)


def check_skew_symmetry(R, window=8):
    """Exact check of <R(x),y> = -<x,R(y)> on unit pairs in the window.

    For units, <R(e_{ij}), e_{kl}> = R(e_{ij})_{lk}, which is nonzero only
    on the segments of R(e_{ij}).  So each window image is read once: its
    entries (l, k) with l and k in the window, walked along each segment
    clipped to the window's rows and columns, give pairing[i, j, k, l].
    The pair (x, y) = (e_{ij}, e_{kl}) fails iff pairing at (i, j, k, l)
    is not minus pairing at (k, l, i, j), absent entries being 0; so every
    failing pair or its swap is a key, and the least of them in (i, j, k, l)
    order is the first that the sweep over ascending window indices meets.
    The record is that full sweep's."""
    params = {"window": window}
    idx = unit_range(R.domain, window)
    details = None
    if R.N > 1:
        details = ("matrix factor trace splits off; base pairing checked")
    lo, hi = idx.start, idx.stop - 1
    pairing = {}
    for i in idx:
        for j in idx:
            Rx = R.image(i, j)
            for o, ss in Rx.segs.items():
                for a, b, c in ss:
                    # rows l of the segment with l and l + o in the window
                    first = max(lo, lo - o, lo if a is None else a)
                    last = min(hi, hi - o, hi if b is None else b)
                    for l in range(first, last + 1):
                        pairing[i, j, l + o, l] = c
    bad = [x for key, c in pairing.items()
           if c != -pairing.get(key[2:] + key[:2], 0)
           for x in (key, key[2:] + key[:2])]
    if bad:
        i, j, k, l = x = min(bad)
        ce = {"x": "e[%d,%d]" % (i, j), "y": "e[%d,%d]" % (k, l),
              "<R(x),y>": str(pairing.get(x, 0)),
              "<x,R(y)>": str(pairing.get((k, l, i, j), 0))}
        return VerificationReport.failure("skew_symmetry", R.name, ce, params)
    return VerificationReport.success("skew_symmetry", R.name, params, details)


def conjugate_by(R, psi, name=None):
    """Conjugation psi^{-1} R psi by an (anti)automorphism.

    psi is "transpose", or a sequence perm with perm[i] giving the image
    index of i under the automorphism e_{ij} -> e_{perm[i],perm[j]} (finite
    domains only).

    The transpose moves each entry across the main diagonal, so it maps
    R's chamber table of shape (offset, split) to one of shape (-offset,
    1 - split) (RBOperator._derived): r3, r4 and p_k^T have brackets."""
    if psi == "transpose":
        return R._derived(name or "%s^T" % R.name,
                          lambda i, j: R.image(j, i).transpose(),
                          transpose=True)
    perm = list(psi)
    if R.domain.kind != "finite" or sorted(perm) != list(range(R.domain.size)):
        raise ValueError("index permutation must cover a finite domain")
    inv = [0] * len(perm)
    for a, b in enumerate(perm):
        inv[b] = a

    def image_fn(i, j):
        return FinitaryMatrix({(inv[a], inv[b]): c for (a, b), c in
                               R.image(perm[i], perm[j]).entries.items()},
                              R.domain)

    return RBOperator(name or "%s^(psi)" % R.name, R.domain, image_fn, R.N)


def tensor_extend(R, N, name=None):
    """R (x) id on composite units e_{ij} (x) e_{st}; stored as the base
    operator tagged with the matrix factor size."""
    if N < 1:
        raise ValueError("matrix factor size must be positive")
    return R._derived(name or "%s(x)id_%d" % (R.name, N), R.image, N)


def mutate_sign(R, i, j):
    """Flip the sign of the single image R(e_{ij}); breaks the RB identity
    for every catalog operator and is used by the mutation tests.  The
    mutant keeps R's table and records (i, j) as flipped: its image there
    is the table's negated, and its moves there are compared from images
    (_Moves).  No shifted copy of the unit is flipped, so it is not
    shift-equivariant; flipped twice at the same unit, its images are R's."""
    def image_fn(a, b):
        op = R.image(a, b)
        return op.scale(-1) if (a, b) == (i, j) else op

    mutant = R._derived("%s!flip[%d,%d]" % (R.name, i, j), image_fn)
    mutant._flipped ^= {(i, j)}
    return mutant


# ---------------------------------------------------------------------------
# catalog

# chamber tables (below, above) of the shape (offset, split) = (1, 0): R(e_ij)
# is c on rows i + lo .. i + hi of diagonal j - i + 1, (lo, hi, c) = below iff
# j < i.  r2's below is the back-walk out through a free column head, which
# the naturals clip at row i - j - 1, and its above the forward ray
_R1_TABLE = ((0, None, -1), (None, -1, 1))
_R2_TABLE = ((None, -1, -1), (0, None, 1))


def _chamber_segment(chambers, domain, i, j):
    """R(e_ij) as segments {j - i + offset: ((lo, hi, c),)}: its chamber's
    segment of the table (table, offset, split), clipped to the domain's
    rows, or {} if that is empty."""
    table, offset, split = chambers
    lo, hi, c = table[j - i >= split]
    bounds = c and domain.row_bounds(j - i + offset)
    cut = bounds and _meet(lo if lo is None else i + lo,
                           hi if hi is None else i + hi, *bounds)
    return {j - i + offset: ((*cut, c),)} if cut else {}


def _chamber_operator(name, domain, table):
    """R(e_ij) as its chamber's segment of table = (below, above) in the
    shape (offset, split) = (1, 0): on diagonal j - i + 1, from above iff
    j >= i (RBOperator._table_image)."""
    R = RBOperator(name, domain, None)
    R._chambers = table, 1, 0
    return R


# the finite catalog: name -> (n, {(i, j): R(e_ij) as {(row, col): coeff}})
_FINITE_IMAGES = {
    "ex1": (2, {(0, 0): {(1, 0): 1}, (0, 1): {(0, 0): -1}}),
    "ex2": (2, {(0, 0): {(0, 1): 1}, (1, 0): {(0, 0): -1}}),
    "quiver": (4, {(2, 1): {(0, 3): 1}, (3, 0): {(1, 2): -1}}),
}


def build_pk(k):
    """The preimage operator of the k-step difference map d_k(x) = xA^k - A^kx
    with A = e_{10} + e_{21} + ...: P_k(e_{ij}) is the minimal-support
    solution X of the entrywise recurrence X_{a,b+k} - X_{a-k,b} =
    delta_{ai} delta_{bj}.

    Through the index bijection i <-> (i // k, i mod k), which identifies
    the N-indexed matrices with M_k-valued ones, A^k is the block shift
    A (x) 1 and the recurrence is r2's on block indices, each label pair
    carried along: entry (a, b) of P_k(e_ij) is r2(e_{i//k, j//k})'s entry
    (a // k, b // k) when (a mod k, b mod k) = (i mod k, j mod k), and 0
    otherwise.  So P_k is r2 (x) M_k, built as the tensor extension r2 (x)
    id_k on block indices, with r2's support and its transpose's; P_1 is
    r2."""
    if k < 1:
        raise ValueError("p_k needs k >= 1")
    return tensor_extend(catalog_rb("r2"), k, name="p_%d" % k)


def catalog_rb(name, **params):
    """Named operators: r1, r2, r3, r4, ex1, ex2, quiver, kac (N=...),
    r1_laurent, r2_laurent, p_k (k=...), zero."""
    if name in ("r1", "r2", "r1_laurent", "r2_laurent"):
        return _chamber_operator(
            name, INTEGERS if name.endswith("_laurent") else NATURALS,
            _R1_TABLE if name[:2] == "r1" else _R2_TABLE)
    if name == "r3":
        return conjugate_by(catalog_rb("r1"), "transpose", name="r3")
    if name == "r4":
        return conjugate_by(catalog_rb("r2"), "transpose", name="r4")
    if name in _FINITE_IMAGES:
        n, table = _FINITE_IMAGES[name]
        domain = Domain.finite(n)
        return RBOperator(name, domain,
                          lambda i, j: FinitaryMatrix(table.get((i, j)),
                                                      domain))
    if name == "kac":
        N = params.get("N", 2)
        base = catalog_rb("r1").scaled(-1, name="-r1")
        return tensor_extend(base, N, name="kac(%d)" % N)
    if name == "p_k":
        return build_pk(params.get("k", 1))
    if name == "zero":
        domain = params.get("domain", NATURALS)
        return RBOperator("zero", domain,
                          lambda i, j: LocallyFiniteOperator.zero(domain))
    raise ValueError("unknown operator %r" % name)


CATALOG_RB_NAMES = ("r1", "r2", "r3", "r4", "ex1", "ex2", "quiver", "kac",
                    "r1_laurent", "r2_laurent", "p_k")


# ---------------------------------------------------------------------------
# the derivation d(x) = xA - Ax

def shift_ray():
    """A = e_{10} + e_{21} + ... (the lower shift), as an operator."""
    return LocallyFiniteOperator.ray(1, 1, 0)


def derivation_unit(i, j):
    """d(e_{ij}) = e_{i,j-1} - e_{i+1,j} on the naturals; e_{i,-1} drops."""
    ents = {(i, j - 1): 1} if j else {}
    ents[(i + 1, j)] = -1
    return FinitaryMatrix(ents)


def derivation_of(x):
    return FinitaryMatrix(sparse_sum(
        (key, c * d) for (i, j), c in x.entries.items()
        for key, d in derivation_unit(i, j).entries.items()))


def remark3_suite(window=12):
    """Bundle of exact checks for the derivation d(e_{ij}) = e_{i,j-1} -
    e_{i+1,j}: (a) the Leibniz rule d(xy) = d(x)y + xd(y) on unit pairs,
    (b) the inner form d(x) = xA - Ax with A the lower shift, (c) that the
    second divided-difference operator inverts d in both orders, and (d) the
    resulting constructive witness that every finitary matrix is in its
    image."""
    params = {"window": window}
    A = shift_ray()
    units = [(i, j) for i in range(window + 1) for j in range(window + 1)]
    # x -> xA - Ax is a derivation and e_ij e_kl = delta_jk e_il: if d, both
    # ways, is that map on the window's units and 0, (a) and (b) hold there
    if not (all(derivation_unit(i, j) == derivation_of(x) == commutator(x, A)
                for i, j in units for x in [LocallyFiniteOperator.unit(i, j)])
            and not derivation_of(FinitaryMatrix())):
        for i, j in units:
            x = LocallyFiniteOperator.unit(i, j)
            dx = derivation_unit(i, j)
            # (b) inner form
            inner = commutator(x, A)
            if inner != dx:
                ce = {"sub": "inner_form", "x": "e[%d,%d]" % (i, j),
                      "d(x)": repr(dx), "xA-Ax": repr(inner)}
                return VerificationReport.failure("remark3", "d", ce, params)
            # (a) derivation property on unit pairs
            for k, l in units:
                y = LocallyFiniteOperator.unit(k, l)
                dy = derivation_unit(k, l)
                lhs = derivation_of(mul_mixed(x, y))
                rhs = mul_mixed(dx, y) + mul_mixed(x, dy)
                if lhs != rhs:
                    ce = {"sub": "derivation", "x": "e[%d,%d]" % (i, j),
                          "y": "e[%d,%d]" % (k, l),
                          "d(xy)": repr(lhs), "d(x)y+xd(y)": repr(rhs)}
                    return VerificationReport.failure(
                        "remark3", "d", ce, params)
    r2 = catalog_rb("r2")
    for i, j in units:
        unit_op = LocallyFiniteOperator.unit(i, j)
        # (c) R2(d(e_{ij})) = e_{ij}
        got = r2.image_of_finitary(derivation_unit(i, j))
        if got != unit_op:
            ce = {"sub": "right_inverse", "x": "e[%d,%d]" % (i, j),
                  "R2(d(x))": repr(got)}
            return VerificationReport.failure("remark3", "r2", ce, params)
        # (c) d(R2(e_{ij})) = e_{ij}, d extended to rays via x -> xA - Ax
        ext = commutator(r2.image(i, j), A)
        if ext != unit_op:
            ce = {"sub": "left_inverse", "x": "e[%d,%d]" % (i, j),
                  "d(R2(x))": repr(ext)}
            return VerificationReport.failure("remark3", "r2", ce, params)
    return VerificationReport.success(
        "remark3", "d,r2", params,
        details="every unit e_{ij} in the window is d(R2(e_{ij})), so the "
                "finitary ideal lies in the image of r2")


# ---------------------------------------------------------------------------
# trace-functional identities from the operator/bracket correspondence

def verify_trace_functional_identities(R, window=6):
    """The three functional identities from the correspondence between a
    weight-0 operator and its double bracket: pairing the first two slots of
    each Jacobi-side term with units x = e_{ij}, y = e_{kl} must produce
    R(yR(x)), R(y)R(x) and R(R*(y)x) respectively, R* the trace adjoint
    (-R when R is skew), read off R for every R; both sides are applied to
    u_0..u_window and compared exactly.  Operators with a matrix factor
    (N > 1) are rejected: their bracket lives on t^n (x) e_{ij}, which these
    unit sweeps do not index."""
    from .brackets import bracket_from_rb

    if R.N > 1:
        raise ValueError("operator %s has a matrix factor of size N = %d; "
                         "the trace identities are checked for N = 1 only"
                         % (R.name, R.N))
    params = {"window": window}
    B = bracket_from_rb(R)
    carrier = B.carrier
    idx = list(unit_range(R.domain, window))

    for i in idx:
        si = carrier.sym(i)
        for j in idx:
            sj = carrier.sym(j)
            Rx = R.image(i, j)
            for k in idx:
                sk = carrier.sym(k)
                for l in idx:
                    sl = carrier.sym(l)
                    Ry = R.image(k, l)
                    ryrx = mul_mixed(Ry, Rx)
                    # y R(x) = e_{kl} R(e_{ij}): row l of R(x), placed in row k
                    r_yrx = R._image_sum(((k, c2), v)
                                         for c2, v in Rx.row(l).items())
                    # R*(y) x through the adjoint, whose (r, i) entry is
                    # R(e_{ir})_{lk} by <x, R*(y)> = <R(x), y>
                    r_rsyx = R._image_sum(
                        ((r, j), R.image(i, r).entry(l, k))
                        for r in R.support(i, k))
                    for c in idx:
                        sc = carrier.sym(c)
                        identities = (
                            # sum over <<u_k, u_c>> of the (u_j (x) u_l)
                            # coefficient of <<u_i, .>> against R(yR(x))
                            ("first", ((carrier.index(b2),
                                        cb * B.eval(si, b1).coeff((sj, sl)))
                                       for (b1, b2), cb
                                       in B.eval(sk, sc).terms.items()),
                             r_yrx.apply_index(c)),
                            # against R(y)R(x) u_c
                            ("second", ((carrier.index(q1), cx * cp)
                                        for (x1, y1), cx
                                        in B.eval(si, sc).terms.items()
                                        if x1 == sj
                                        for (p1, q1), cp
                                        in B.eval(sk, y1).terms.items()
                                        if p1 == sl),
                             ryrx.apply_index(c)),
                            # against R(R*(y)x) u_c
                            ("third", ((carrier.index(z2), cx * cz)
                                       for (x1, y1), cx
                                       in B.eval(si, sk).terms.items()
                                       if y1 == sl
                                       for (z1, z2), cz
                                       in B.eval(x1, sc).terms.items()
                                       if z1 == sj),
                             r_rsyx.apply_index(c)))
                        for name, lhs_terms, rhs in identities:
                            lhs = sparse_sum(lhs_terms)
                            if lhs != rhs:
                                ce = {"identity": name,
                                      "x": "e[%d,%d]" % (i, j),
                                      "y": "e[%d,%d]" % (k, l), "u": c,
                                      "lhs": _render_vec_dict(lhs),
                                      "rhs": _render_vec_dict(rhs)}
                                return VerificationReport.failure(
                                    "trace_identities", R.name, ce, params)
    return VerificationReport.success("trace_identities", R.name, params)
