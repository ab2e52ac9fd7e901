"""Ideals of double Lie algebras: exact subspace arithmetic, quotients,
ideal verification, minimal-closure search, and a scripted simplicity replay.

A subspace of a windowed carrier is stored as a reduced-echelon basis over
the window's coordinate list, so membership, equality and quotient
representatives are all canonical.  The quotient map sends a tensor to its
image in (V/I) (x) (V/I) using echelon-complement coordinates: a tensor maps
to zero exactly when it lies in I (x) V + V (x) I.

The closure search looks for the smallest ideals containing a seed: whenever
some bracket value survives the quotient map, the surviving tensor is written
as a matrix over quotient coordinates and the candidate ideal is enlarged in
every way that kills it (adjoin the left factors, the right factors, or a
mixed split from a rank decomposition).  Diagonal rank-one survivors v (x) v
force v itself into the ideal, which is the engine of the simplicity replay.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
import random

from .brackets import DoubleBracket, catalog_bracket
from .exact import Tensor2, Vec, sparse_sum, tsym
from .grammar import render_sym, render_vec
from .linalg import reduce_vector, rref
from .report import VerificationReport


# ---------------------------------------------------------------------------
# subspaces of a windowed carrier

class Subspace:
    """Reduced-echelon subspace of the span of carrier.window_syms(window)."""

    __slots__ = ("carrier", "window", "syms", "pos", "rows", "pivots",
                 "_proj_memo")

    def __init__(self, carrier, window, rows=None):
        self.carrier = carrier
        self.window = window
        self.syms = list(carrier.window_syms(window))
        self.pos = {s: i for i, s in enumerate(self.syms)}
        if rows:
            self.rows, self.pivots = rref(rows)
        else:
            self.rows, self.pivots = [], []
        self._proj_memo = {}

    @classmethod
    def from_vectors(cls, carrier, window, vectors):
        out = cls(carrier, window)
        rows = [out.coords(v) for v in vectors]
        return cls(carrier, window, rows)

    @classmethod
    def degree_span(cls, carrier, window, min_degree):
        """The window part of the span of all basis symbols of degree at
        least min_degree (e.g. t^T F[t] cut at the window)."""
        vecs = [Vec.basis(s) for s in carrier.window_syms(window)
                if carrier.degree(s) >= min_degree]
        return cls.from_vectors(carrier, window, vecs)

    @property
    def dim(self):
        return len(self.rows)

    def key(self):
        return tuple(tuple(r) for r in self.rows)

    def coords(self, vec):
        out = [Fraction(0)] * len(self.syms)
        for s, c in vec.terms.items():
            if s not in self.pos:
                raise ValueError("symbol %r outside the ambient window" % (s,))
            out[self.pos[s]] = Fraction(c)
        return out

    def vec_of(self, coords):
        return Vec({s: c for s, c in zip(self.syms, coords) if c})

    def basis_vecs(self):
        return [self.vec_of(r) for r in self.rows]

    def reduce(self, vec):
        """Canonical representative of vec modulo this subspace (zeros in
        every pivot coordinate)."""
        red = reduce_vector(self.coords(vec), self.rows, self.pivots)
        return self.vec_of(red)

    def contains(self, vec):
        return not self.reduce(vec)

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis_vecs())

    def extended(self, vectors):
        rows = [list(r) for r in self.rows]
        rows += [self.coords(v) for v in vectors]
        return Subspace(self.carrier, self.window, rows)

    def complement_syms(self):
        pivset = set(self.pivots)
        return [s for i, s in enumerate(self.syms) if i not in pivset]

    def project(self, sym):
        """Quotient coordinates of a basis symbol: its reduction, read off on
        the complement positions, as a tuple of (complement_sym, coeff)."""
        got = self._proj_memo.get(sym)
        if got is None:
            red = self.reduce(Vec.basis(sym))
            got = tuple(red.terms.items())
            self._proj_memo[sym] = got
        return got

    def __repr__(self):
        return "Subspace(dim %d in %s window %d)" % (
            self.dim, self.carrier.name, self.window)


def quotient_reduce(u, I):
    """Image of a tensor in (V/I) (x) (V/I), written on echelon-complement
    representatives; zero exactly when u is in I (x) V + V (x) I."""
    return Tensor2(sparse_sum(((sa, sb), c * ca * cb)
                              for (a, b), c in u.terms.items()
                              for sa, ca in I.project(a)
                              for sb, cb in I.project(b)))


# ---------------------------------------------------------------------------
# ideal verification and quotient brackets

def _max_degree(vec, carrier):
    return max(carrier.degree(s) for s in vec.terms)


def _window_pairs(B, I, window):
    """Basis-symbol / generator pairs whose bracket output provably stays in
    the window (no truncation artifacts)."""
    carrier = B.carrier
    shift = max(B.degree_shift, 0) if B.degree_shift is not None else 0
    gens = I.basis_vecs()
    for v in carrier.window_syms(window):
        dv = carrier.degree(v)
        for g in gens:
            if not g:
                continue
            if B.degree_shift is not None and \
                    dv + _max_degree(g, carrier) + shift > window:
                continue
            yield v, g


def is_ideal(B, I, window):
    """Both-sided window check that bracketing the subspace stays inside
    I (x) V + V (x) I."""
    params = {"window": window, "subspace_dim": I.dim}
    for v, g in _window_pairs(B, I, window):
        vv = Vec.basis(v)
        for left, right, side in ((vv, g, "ambient,ideal"),
                                  (g, vv, "ideal,ambient")):
            surv = quotient_reduce(B.eval_linear(left, right), I)
            if surv:
                ce = {"ambient": render_sym(v), "generator": render_vec(g),
                      "order": side}
                return VerificationReport.failure("is_ideal", B.name, ce,
                                                  params)
    return VerificationReport.success("is_ideal", B.name, params)


class QuotientCarrier:
    """Carrier of V/I on echelon-complement representatives."""

    def __init__(self, I, name):
        self.base = I.carrier
        self.syms = I.complement_syms()
        self._index = {s: i for i, s in enumerate(self.syms)}
        self.name = name

    def sym(self, q):
        return self.syms[q]

    def index(self, sym):
        return self._index[sym]

    def window_syms(self, window=None):
        return list(self.syms)

    def product(self, s1, s2):
        return None

    def degree(self, sym):
        return self.base.degree(sym)


def quotient_bracket(B, I, window, name=None):
    """The induced bracket on V/I (echelon-complement representatives);
    requires is_ideal to pass on the window."""
    rep = is_ideal(B, I, window)
    if not rep.passed:
        raise ValueError("subspace is not an ideal on window %d: %r"
                         % (window, rep.counterexample))
    name = name or "%s/(dim %d)" % (B.name, I.dim)
    carrier = QuotientCarrier(I, name)

    def eval_fn(s1, s2):
        return quotient_reduce(B.eval(s1, s2), I)

    return DoubleBracket(name, carrier, eval_fn, degree_shift=B.degree_shift)


# ---------------------------------------------------------------------------
# closure search

def _survivor_matrix(T, I):
    """A surviving quotient tensor as {(left_sym, right_sym): coeff} plus the
    ordered lists of symbols appearing on each side."""
    lefts = sorted({a for (a, _b) in T.terms}, key=repr)
    rights = sorted({b for (_a, b) in T.terms}, key=repr)
    mat = [[T.terms.get((a, b), Fraction(0)) for b in rights] for a in lefts]
    return lefts, rights, mat


def _branches_for(T, I):
    """Ways to enlarge the ideal so that a surviving tensor dies: adjoin all
    left factors, all right factors, or a mixed split from the echelon rank
    decomposition.  Returned as lists of Vec, deterministically ordered."""
    lefts, rights, mat = _survivor_matrix(T, I)
    # column space: left vectors l_b = sum_a M[a][b] x_a
    cols = []
    for j in range(len(rights)):
        v = Vec({lefts[i]: mat[i][j] for i in range(len(lefts))
                 if mat[i][j]})
        if v:
            cols.append(v)
    # row space: right vectors r_a = sum_b M[a][b] y_b
    rws = []
    for i in range(len(lefts)):
        v = Vec({rights[j]: mat[i][j] for j in range(len(rights))
                 if mat[i][j]})
        if v:
            rws.append(v)
    branches = [cols, rws]
    # mixed splits from M = sum_k c_k (x) e_k with e_k the echelon rows of M:
    # push some factors left and the rest right.
    red, pivots = rref(mat)
    rank = len(pivots)
    if 2 <= rank <= 3:
        comps = []
        for k in range(rank):
            lvec = Vec({lefts[i]: mat[i][pivots[k]]
                        for i in range(len(lefts)) if mat[i][pivots[k]]})
            rvec = Vec({rights[j]: red[k][j]
                        for j in range(len(rights)) if red[k][j]})
            comps.append((lvec, rvec))
        for mask in range(1, 2 ** rank - 1):
            pick = [comps[k][0] if (mask >> k) & 1 else comps[k][1]
                    for k in range(rank)]
            branches.append(pick)
    return branches


def _first_violation(B, I, window):
    """The first (in deterministic sweep order) bracket value that survives
    the quotient map, or None when the candidate is an ideal."""
    for v, g in _window_pairs(B, I, window):
        surv = quotient_reduce(B.eval_linear(Vec.basis(v), g), I)
        if surv:
            return surv
        surv = quotient_reduce(B.eval_linear(g, Vec.basis(v)), I)
        if surv:
            return surv
    return None


def ideal_closure(B, seeds, window, budget=5000):
    """Minimal ideals of the window containing the seed vectors.

    Breadth-first branch-and-bound; each node either has no surviving
    bracket (a closure) or branches over the enlargements that kill its
    first survivor.  Returns (closures, exhausted): the inclusion-minimal
    closures found, and whether the node budget ran out first."""
    start = Subspace.from_vectors(B.carrier, window, seeds)
    queue = deque([start])
    seen = set()
    closures = []
    expanded = 0
    exhausted = False
    full_dim = len(start.syms)
    while queue:
        I = queue.popleft()
        key = I.key()
        if key in seen:
            continue
        seen.add(key)
        if expanded >= budget:
            exhausted = True
            break
        expanded += 1
        if I.dim == full_dim:
            closures.append(I)
            continue
        surv = _first_violation(B, I, window)
        if surv is None:
            closures.append(I)
            continue
        for vectors in _branches_for(surv, I):
            if vectors:
                queue.append(I.extended(vectors))
    minimal = []
    for I in closures:
        if any(I.contains_subspace(J) and I.key() != J.key()
               for J in closures):
            continue
        if any(J.key() == I.key() for J in minimal):
            continue
        minimal.append(I)
    return minimal, exhausted


# ---------------------------------------------------------------------------
# simplicity

def _bracket_nonzero(B, window):
    syms = B.carrier.window_syms(window)
    return any(B.eval(a, b) for a in syms for b in syms)


def random_polynomials(count, max_degree, seed, monic=True):
    """Fixed-seed family of random polynomials as Vec's over t-monomials;
    coefficients are small integers, leading coefficient 1 when monic."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        deg = rng.randint(0, max_degree)
        terms = {tsym(deg): 1 if monic
                 else rng.choice([c for c in range(-4, 5) if c])}
        for j in range(deg):
            c = rng.randint(-4, 4)
            if c:
                terms[tsym(j)] = c
        out.append(Vec(terms))
    return out


def simplicity_probe(B, window, seeds=None, seed_count=50, max_degree=8,
                     rng_seed=2024, budget=5000):
    """Window-relative simplicity verdict: the bracket is nonzero and every
    minimal closure of every seed saturates the guaranteed sub-window
    V_{<= floor((window-1)/2)}.  Never a proof, and says so in its params."""
    params = {"window": window, "rng_seed": rng_seed,
              "guaranteed_degree": (window - 1) // 2}
    if not _bracket_nonzero(B, window):
        return VerificationReport.failure(
            "simplicity_probe", B.name,
            {"reason": "bracket vanishes on the window"}, params)
    if seeds is None:
        seeds = random_polynomials(seed_count, max_degree, rng_seed)
    carrier = B.carrier
    bound = (window - 1) // 2
    need = [s for s in carrier.window_syms(window)
            if carrier.degree(s) <= bound]
    details = {"seeds": len(seeds), "closures_checked": 0}
    for k, f in enumerate(seeds):
        if not f:
            continue
        closures, exhausted = ideal_closure(B, [f], window, budget)
        if exhausted:
            return VerificationReport.failure(
                "simplicity_probe", B.name,
                {"seed_index": k, "seed": render_vec(f),
                 "reason": "budget exhausted"}, params)
        for I in closures:
            details["closures_checked"] += 1
            missing = [s for s in need if not I.contains(Vec.basis(s))]
            if missing:
                ce = {"seed_index": k, "seed": render_vec(f),
                      "missing": render_sym(missing[0]),
                      "closure_dim": I.dim}
                return VerificationReport.failure("simplicity_probe", B.name,
                                                  ce, params)
    return VerificationReport.success("simplicity_probe", B.name, params,
                                      details)


def theorem3_replay(window=20, rng_seed=2024, trials_per_degree=3):
    """Scripted replay of the simplicity argument for the second polynomial
    catalog bracket, in two exact steps.

    (a) Minimal-degree contradiction: for random monic f of degree n the
    bracket of 1 with f expands to sum_{i<n} t^i (x) t^{n-1-i} plus lower
    blocks, and its reduction modulo span{f} is nonzero, so an ideal that
    contains a polynomial of minimal degree n >= 1 is impossible.

    (b) Induction: with span{1, ..., t^{s-1}} already inside the ideal, the
    bracket of 1 with t^{2s+1} reduces to exactly the diagonal survivor
    t^s (x) t^s, which forces t^s in as well."""
    params = {"window": window, "rng_seed": rng_seed}
    B = catalog_bracket("L2")
    carrier = B.carrier
    rng = random.Random(rng_seed)
    one = Vec.basis(tsym(0))

    # step (a)
    for n in range(1, window // 2 + 1):
        for _ in range(trials_per_degree):
            terms = {tsym(n): 1}
            coeffs = {}
            for j in range(n):
                c = rng.randint(-4, 4)
                if c:
                    terms[tsym(j)] = coeffs[j] = c
            f = Vec(terms)
            got = B.eval_linear(one, f)
            blocks = [(n, 1)] + sorted(coeffs.items())
            expect = sparse_sum(((tsym(i), tsym(d - 1 - i)), c)
                                for d, c in blocks for i in range(d))
            if got != Tensor2(expect):
                ce = {"step": "a", "n": n, "f": render_vec(f),
                      "reason": "expansion formula mismatch"}
                return VerificationReport.failure("theorem3_replay", "L2",
                                                  ce, params)
            If = Subspace.from_vectors(carrier, window, [f])
            if not quotient_reduce(got, If):
                ce = {"step": "a", "n": n, "f": render_vec(f),
                      "reason": "survivor unexpectedly vanished"}
                return VerificationReport.failure("theorem3_replay", "L2",
                                                  ce, params)

    # step (b)
    forced = 0
    for s in range((window - 1) // 2 + 1):
        Is = Subspace.from_vectors(carrier, window,
                                   [Vec.basis(tsym(j)) for j in range(s)])
        u = B.eval_linear(one, Vec.basis(tsym(2 * s + 1)))
        surv = quotient_reduce(u, Is)
        if surv.terms != {(tsym(s), tsym(s)): 1}:
            ce = {"step": "b", "s": s,
                  "reason": "survivor is not the single diagonal term"}
            return VerificationReport.failure("theorem3_replay", "L2", ce,
                                              params)
        forced += 1
    details = {"degrees_checked": window // 2,
               "forced_memberships": forced}
    return VerificationReport.success("theorem3_replay", "L2", params,
                                      details)
