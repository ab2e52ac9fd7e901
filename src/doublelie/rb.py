"""Rota-Baxter operators on finitary matrices.

An operator is stored as a map from matrix units e_{ij} to locally finite
operators, extended linearly.  Every operator here has weight 0.  Its
defining identity

    R(x)R(y) = R(R(x)y + xR(y))

is checked per pair of units x, y in a window on the segment normal form:
both sides are built as locally finite operators and compared exactly, which
settles every basis vector at once.  Only a pair whose sides differ is read
column by column, for the first basis vector up to the cutoff at which they
differ.
Skew-symmetry is the condition <R(x),y> = -<x,R(y)> for the trace pairing
<x,y> = tr(xy).

The catalog covers the two divided-difference operators and their transpose
conjugates, three finite-dimensional examples, the tensor extension by a
matrix factor, the Laurent (two-sided index) variants, and the k-step
difference preimage family p_k.
"""

from __future__ import annotations

from .exact import S, sparse_sum
from .matrices import (INTEGERS, NATURALS, Domain, FinitaryMatrix,
                       LocallyFiniteOperator, StridedRayOperator, commutator,
                       mul_mixed, operator_sum)
from .report import VerificationReport


class RBOperator:
    """Basis-indexed linear map from matrix units into locally finite
    operators.  support_hint(p, q) returns a finite iterable of column
    indices s for which R(e_{ps}) applied to u_q may be nonzero; it is None
    exactly when no sound finite hint exists (the Laurent variants)."""

    __slots__ = ("name", "domain", "_image_fn", "support_hint", "N",
                 "_images", "_applied")

    def __init__(self, name, domain, image_fn, support_hint=None, N=1):
        self.name = name
        self.domain = domain
        self._image_fn = image_fn
        self.support_hint = support_hint
        self.N = N
        self._images = {}
        self._applied = {}

    def image(self, i, j):
        """R(e_{ij}) as an operator-like value (memoized)."""
        key = (i, j)
        op = self._images.get(key)
        if op is None:
            if not (self.domain.contains(i) and self.domain.contains(j)):
                raise ValueError("unit (%d, %d) outside domain %r"
                                 % (i, j, self.domain))
            op = self._image_fn(i, j)
            self._images[key] = op
        return op

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
        return RBOperator(name or "%s*%s" % (alpha, self.name), self.domain,
                          lambda i, j: self.image(i, j).scale(alpha),
                          self.support_hint, self.N)

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


def check_rb_identity(R, window=8, cutoff=None):
    """Exact check of R(x)R(y) = R(R(x)y + xR(y)) on all unit pairs in the
    window, on every basis vector up to the cutoff.

    Each pair is compared on the segment normal form: R(x)R(y) by mul_mixed
    against the normalised sum of the scaled images making up the right
    side.  Equal operators agree on every basis vector, so the pair passes.
    When they differ, the first q up to the cutoff at which their columns
    differ is the counterexample, read off the two operators.  A pair whose
    sides differ only beyond the cutoff therefore passes, as the
    window-relative verdict says.

    For operators carrying a matrix tensor factor (N > 1) the identity on
    composite units e_{ij} (x) e_{ab} reduces, through the Kronecker delta of
    the matrix factor, to the identity on the base units scaled by delta_{bc};
    the sweep below over base units is therefore exhaustive."""
    if cutoff is None:
        cutoff = 2 * window
    params = {"window": window, "cutoff": cutoff}
    idx = unit_range(R.domain, window)
    qs = list(unit_range(R.domain, cutoff))
    details = None
    if R.N > 1:
        details = ("matrix factor of size %d handled by the delta "
                   "factorization of composite units" % R.N)
    for i in idx:
        for j in idx:
            Rx = R.image(i, j)
            for k in idx:
                for l in idx:
                    Ry = R.image(k, l)
                    terms = [((r, l), c) for r, c in Rx.apply_index(k).items()]
                    terms += [((i, cc), c) for cc, c in Ry.row(j).items()]
                    operand = {key: c for key, c in sparse_sum(terms).items()
                               if R.domain.contains(key[0])
                               and R.domain.contains(key[1])}
                    lhs = mul_mixed(Rx, Ry)
                    rhs = R._image_sum(operand.items())
                    if lhs == rhs:
                        continue
                    for q in qs:
                        lhs_q, rhs_q = lhs.apply_index(q), rhs.apply_index(q)
                        if lhs_q != rhs_q:
                            ce = {"x": "e[%d,%d]" % (i, j),
                                  "y": "e[%d,%d]" % (k, l), "q": q,
                                  "lhs": _render_vec_dict(lhs_q),
                                  "rhs": _render_vec_dict(rhs_q)}
                            return VerificationReport.failure(
                                "rb_identity", R.name, ce, params)
    return VerificationReport.success("rb_identity", R.name, params, details)


def check_skew_symmetry(R, window=8):
    """Exact check of <R(x),y> = -<x,R(y)> on unit pairs in the window.
    For units, <R(e_{ij}), e_{kl}> = R(e_{ij})_{lk}."""
    params = {"window": window}
    idx = unit_range(R.domain, window)
    details = None
    if R.N > 1:
        details = ("matrix factor trace splits off; base pairing checked")
    for i in idx:
        for j in idx:
            Rx = R.image(i, j)
            for k in idx:
                for l in idx:
                    left = Rx.entry(l, k)
                    right = R.image(k, l).entry(j, i)
                    if left != -right:
                        ce = {"x": "e[%d,%d]" % (i, j),
                              "y": "e[%d,%d]" % (k, l),
                              "<R(x),y>": str(left), "<x,R(y)>": str(right)}
                        return VerificationReport.failure(
                            "skew_symmetry", R.name, ce, params)
    return VerificationReport.success("skew_symmetry", R.name, params, details)


def _generic_hint(p, q):
    return range(0, max(0, p + q + 2))


def conjugate_by(R, psi, name=None):
    """Conjugation psi^{-1} R psi by an (anti)automorphism.

    psi is "identity", "transpose", or a sequence perm with perm[i] giving the
    image index of i under the automorphism e_{ij} -> e_{perm[i],perm[j]}
    (finite domains only)."""
    if psi == "identity":
        return RBOperator(name or R.name, R.domain, R.image, R.support_hint,
                          R.N)
    if psi == "transpose":
        hint = _generic_hint if R.support_hint is not None else None
        return RBOperator(name or "%s^T" % R.name, R.domain,
                          lambda i, j: R.image(j, i).transpose(),
                          hint, R.N)
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

    return RBOperator(name or "%s^(psi)" % R.name, R.domain, image_fn,
                      R.support_hint, R.N)


def tensor_extend(R, N, name=None):
    """R (x) id on composite units e_{ij} (x) e_{st}; stored as the base
    operator tagged with the matrix factor size."""
    if N < 1:
        raise ValueError("matrix factor size must be positive")
    return RBOperator(name or "%s(x)id_%d" % (R.name, N), R.domain, R.image,
                      R.support_hint, N)


def mutate_sign(R, i, j, name=None):
    """Flip the sign of the single image R(e_{ij}); breaks the RB identity
    for every catalog operator and is used by the mutation tests."""
    def image_fn(a, b):
        op = R.image(a, b)
        return op.scale(-1) if (a, b) == (i, j) else op

    return RBOperator(name or "%s!flip[%d,%d]" % (R.name, i, j), R.domain,
                      image_fn, R.support_hint, R.N)


# ---------------------------------------------------------------------------
# catalog

def _r1_image(i, j):
    offset = j - i + 1
    if i > j:
        return LocallyFiniteOperator.ray(-1, i, i + offset, None)
    if i == 0:
        return LocallyFiniteOperator.zero()
    return LocallyFiniteOperator.ray(1, 0, offset, i)


def _r2_image(i, j):
    offset = j - i + 1
    if i > j:
        return LocallyFiniteOperator.ray(-1, i - 1 - j, 0, j + 1)
    return LocallyFiniteOperator.ray(1, i, j + 1, None)


def _r1_laurent_image(i, j):
    offset = j - i + 1
    if i > j:
        return LocallyFiniteOperator.ray(-1, i, i + offset, None,
                                         domain=INTEGERS)
    return LocallyFiniteOperator.ray(1, i - 1, i - 1 + offset, None,
                                     domain=INTEGERS, back=True)


def _r2_laurent_image(i, j):
    offset = j - i + 1
    if i > j:
        return LocallyFiniteOperator.ray(-1, i - 1, i - 1 + offset, None,
                                         domain=INTEGERS, back=True)
    return LocallyFiniteOperator.ray(1, i, j + 1, None, domain=INTEGERS)


def _finite_table_image(table, n):
    domain = Domain.finite(n)

    def image_fn(i, j):
        return FinitaryMatrix(table.get((i, j)), domain)

    return image_fn


_EX1_TABLE = {(0, 0): {(1, 0): 1}, (0, 1): {(0, 0): -1}}
_EX2_TABLE = {(0, 0): {(0, 1): 1}, (1, 0): {(0, 0): -1}}
_QUIVER_TABLE = {(2, 1): {(0, 3): 1}, (3, 0): {(1, 2): -1}}


def _pk_image(k):
    domain = NATURALS

    def image_fn(i, j):
        m_row = -(i // k)
        m_col = -(j // k)
        if m_row < m_col:
            # the difference chain has a free head: the unique finitely
            # supported preimage, with -1 on the back-walk positions
            segs = {j + k - i: [(i + m * k, i + m * k, -1)
                                for m in range(m_col - 1, 0)]}
            return LocallyFiniteOperator(segs, domain)
        return StridedRayOperator(1, i, j + k, k, domain)

    return image_fn


def build_pk(k, window=None):
    """The preimage operator of the k-step difference map d_k(x) = xA^k - A^kx
    with A = e_{10} + e_{21} + ...: P_k(e_{ij}) is the minimal-support
    solution X of the entrywise recurrence X_{a,b+k} - X_{a-k,b} =
    delta_{ai} delta_{bj} (finitely supported when the back-walk exits
    through a free column head, otherwise a single forward ray in steps of
    k).  P_1 coincides with the second divided-difference operator."""
    if k < 1:
        raise ValueError("p_k needs k >= 1")

    def hint(p, q):
        return range(0, max(p + k, q + 1))

    return RBOperator("p_%d" % k, NATURALS, _pk_image(k), hint)


def catalog_rb(name, **params):
    """Named operators: r1, r2, r3, r4, ex1, ex2, quiver, kac (N=...),
    r1_laurent, r2_laurent, p_k (k=...), zero."""
    if name == "r1":
        return RBOperator("r1", NATURALS, _r1_image, _generic_hint)
    if name == "r2":
        return RBOperator("r2", NATURALS, _r2_image, _generic_hint)
    if name == "r3":
        return conjugate_by(catalog_rb("r1"), "transpose", name="r3")
    if name == "r4":
        return conjugate_by(catalog_rb("r2"), "transpose", name="r4")
    if name == "ex1":
        return RBOperator("ex1", Domain.finite(2),
                          _finite_table_image(_EX1_TABLE, 2),
                          lambda p, q: range(2))
    if name == "ex2":
        return RBOperator("ex2", Domain.finite(2),
                          _finite_table_image(_EX2_TABLE, 2),
                          lambda p, q: range(2))
    if name == "quiver":
        return RBOperator("quiver", Domain.finite(4),
                          _finite_table_image(_QUIVER_TABLE, 4),
                          lambda p, q: range(4))
    if name == "kac":
        N = params.get("N", 2)
        base = catalog_rb("r1").scaled(-1, name="-r1")
        return tensor_extend(base, N, name="kac(%d)" % N)
    if name == "r1_laurent":
        return RBOperator("r1_laurent", INTEGERS, _r1_laurent_image, None)
    if name == "r2_laurent":
        return RBOperator("r2_laurent", INTEGERS, _r2_laurent_image, None)
    if name in ("p_k", "pk"):
        k = params.get("k", 1)
        return build_pk(k)
    if name == "zero":
        domain = params.get("domain", NATURALS)
        return RBOperator("zero", domain,
                          lambda i, j: LocallyFiniteOperator.zero(domain),
                          lambda p, q: ())
    raise ValueError("unknown operator %r" % name)


CATALOG_RB_NAMES = ("r1", "r2", "r3", "r4", "ex1", "ex2", "quiver", "kac",
                    "r1_laurent", "r2_laurent", "p_k")


# ---------------------------------------------------------------------------
# the derivation d(x) = xA - Ax and its k-step analogues

def shift_ray(domain=NATURALS):
    """A = e_{10} + e_{21} + ... (the lower shift), as an operator."""
    return LocallyFiniteOperator.ray(1, 1, 0, None, domain=domain)


def derivation_unit(i, j, domain=NATURALS):
    """d(e_{ij}) = e_{i,j-1} - e_{i+1,j}; units with a negative index drop."""
    ents = {}
    if domain.contains(j - 1):
        ents[(i, j - 1)] = 1
    if domain.contains(i + 1):
        ents[(i + 1, j)] = -1
    return FinitaryMatrix(ents, domain)


def derivation_of(x):
    return FinitaryMatrix(sparse_sum(
        (key, c * d) for (i, j), c in x.entries.items()
        for key, d in derivation_unit(i, j, x.domain).entries.items()),
        x.domain)


def remark3_suite(window=12):
    """Bundle of exact checks for the derivation d(e_{ij}) = e_{i,j-1} -
    e_{i+1,j}: (a) the Leibniz rule d(xy) = d(x)y + xd(y) on unit pairs,
    (b) the inner form d(x) = xA - Ax with A the lower shift, (c) that the
    second divided-difference operator inverts d in both orders, and (d) the
    resulting constructive witness that every finitary matrix is in its
    image."""
    params = {"window": window}
    A = shift_ray()
    for i in range(window + 1):
        for j in range(window + 1):
            x = FinitaryMatrix.unit(i, j)
            dx = derivation_unit(i, j)
            # (b) inner form
            inner = commutator(x, A)
            if inner != dx:
                ce = {"sub": "inner_form", "x": "e[%d,%d]" % (i, j),
                      "d(x)": repr(dx), "xA-Ax": repr(inner)}
                return VerificationReport.failure("remark3", "d", ce, params)
            # (a) derivation property on unit pairs
            for k in range(window + 1):
                for l in range(window + 1):
                    y = FinitaryMatrix.unit(k, l)
                    dy = derivation_unit(k, l)
                    xy = mul_mixed(x, y)
                    lhs = derivation_of(xy)
                    rhs = mul_mixed(dx, y) + mul_mixed(x, dy)
                    if lhs != rhs:
                        ce = {"sub": "derivation", "x": "e[%d,%d]" % (i, j),
                              "y": "e[%d,%d]" % (k, l),
                              "d(xy)": repr(lhs), "d(x)y+xd(y)": repr(rhs)}
                        return VerificationReport.failure(
                            "remark3", "d", ce, params)
    r2 = catalog_rb("r2")
    for i in range(window + 1):
        for j in range(window + 1):
            unit_op = LocallyFiniteOperator.unit(i, j)
            # (c) R2(d(e_{ij})) = e_{ij}
            got = r2.image_of_finitary(derivation_unit(i, j))
            if got != unit_op:
                ce = {"sub": "right_inverse", "x": "e[%d,%d]" % (i, j),
                      "R2(d(x))": repr(got)}
                return VerificationReport.failure("remark3", "r2", ce, params)
            # (c) d(R2(e_{ij})) = e_{ij}, d extended to rays via x -> xA - Ax
            img = r2.image(i, j)
            ext = commutator(img, A)
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
    skew-symmetric weight-0 operator and its double bracket: pairing the
    first two slots of each Jacobi-side term with units x = e_{ij},
    y = e_{kl} must produce R(yR(x)), R(y)R(x) and R(R*(y)x) respectively;
    both sides are applied to u_0..u_window and compared exactly.  Operators
    with a matrix factor (N > 1) are rejected: their bracket lives on
    t^n (x) e_{ij}, which these unit sweeps do not index."""
    from .brackets import bracket_from_rb

    if R.N > 1:
        raise ValueError("operator %s has a matrix factor of size N = %d; "
                         "the trace identities are checked for N = 1 only"
                         % (R.name, R.N))
    params = {"window": window}
    skew = check_skew_symmetry(R, window)
    B = bracket_from_rb(R)
    carrier = B.carrier
    idx = list(unit_range(R.domain, window))
    wide = unit_range(R.domain, 2 * window + 2)

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
                    # R*(y) x: -R(y) e_{ij} when skew, else through the
                    # adjoint, whose (r, i) entry is R(e_{ir})_{lk} by
                    # <x, R*(y)> = <R(x), y>
                    if skew.passed:
                        r_rsyx = R._image_sum(((r, j), -v) for r, v
                                              in Ry.apply_index(i).items())
                    else:
                        r_rsyx = R._image_sum(
                            ((r, j), R.image(i, r).entry(l, k)) for r in wide)
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
