"""Operator layer: catalog images, the Rota-Baxter and skew checks,
conjugation, derivations, and the diagonal-shift preimages."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from doublelie import rb
from doublelie.exact import sparse_sum
from doublelie.matrices import (INTEGERS, Domain, FinitaryMatrix,
                                LocallyFiniteOperator, NATURALS, commutator,
                                mul_mixed)
from doublelie.report import VerificationReport
from doublelie.rb import (CATALOG_RB_NAMES, RBOperator, build_pk, catalog_rb,
                          check_rb_identity, check_skew_symmetry,
                          conjugate_by, derivation_of, mutate_sign,
                          remark3_suite, shift_ray, tensor_extend,
                          unit_range, verify_trace_functional_identities)


def images_equal(a, b, window=12):
    return all(a.entry(i, j) == b.entry(i, j)
               for i in range(window) for j in range(window))


def test_catalog_operators_pass_rb_and_skew_small_window():
    for name in ("r1", "r2", "r3", "r4", "ex1", "ex2", "quiver"):
        R = catalog_rb(name)
        assert check_rb_identity(R, 6, 12).passed, name
        assert check_skew_symmetry(R, 6).passed, name


def test_laurent_variants_pass_on_integer_window():
    for name in ("r1_laurent", "r2_laurent"):
        R = catalog_rb(name)
        assert check_rb_identity(R, 4, 8).passed, name
        assert check_skew_symmetry(R, 4).passed, name


def test_sign_mutation_fails_with_counterexample():
    for R, unit in ((catalog_rb("r1"), (2, 0)), (catalog_rb("r2"), (0, 1)),
                    (catalog_rb("ex1"), (0, 0)),
                    # p_k, k >= 2: r2 on block indices, with a matrix factor
                    (build_pk(2), (0, 0)), (build_pk(3), (1, 2))):
        bad = mutate_sign(R, *unit)
        rep = check_rb_identity(bad, 4, 8)
        assert not rep.passed
        assert rep.counterexample is not None and "x" in rep.counterexample


def test_transpose_pairs_are_entrywise_transposes():
    r1, r3 = catalog_rb("r1"), catalog_rb("r3")
    r2, r4 = catalog_rb("r2"), catalog_rb("r4")
    for (base, tr) in ((r1, r3), (r2, r4)):
        for i in range(6):
            for j in range(6):
                img = tr.image(i, j)
                ref = base.image(j, i)
                for a in range(10):
                    for b in range(10):
                        assert img.entry(a, b) == ref.entry(b, a)


# R(e_ij) for R = r1, r2 on the integers, by chamber: the sign and the rows
# r of its entries e_{r, r+j-i+1}; e.g. r1(e_ij) = -sum_{r >= i} e_{r,r+j-i+1}
# for i > j.  On the naturals the entries with a negative index are dropped.
_RAYS = {("r1", True): (-1, lambda r, i: r >= i),
         ("r1", False): (1, lambda r, i: r < i),
         ("r2", True): (-1, lambda r, i: r < i),
         ("r2", False): (1, lambda r, i: r >= i)}


@pytest.mark.parametrize("name", ["r1", "r2", "r1_laurent", "r2_laurent"])
def test_ray_images_match_their_rays_entrywise(name):
    R = catalog_rb(name)
    laurent = name.endswith("_laurent")
    for i in unit_range(R.domain, 5):
        for j in unit_range(R.domain, 5):
            img = R.image(i, j)
            sign, rows = _RAYS[(name[:2], i > j)]
            for a in range(-12, 13):
                for b in range(-12, 13):
                    on = b - a == j - i + 1 and rows(a, i) and \
                        (laurent or min(a, b) >= 0)
                    assert img.entry(a, b) == (sign if on else 0), \
                        (i, j, a, b)


@pytest.mark.parametrize("name", ["r1", "r2"])
def test_polynomial_ray_images_are_the_laurent_ones_cut(name):
    R, L = catalog_rb(name), catalog_rb(name + "_laurent")
    for i in range(7):
        for j in range(7):
            img, full = R.image(i, j), L.image(i, j)
            for a in range(-3, 16):
                for b in range(-3, 16):
                    want = full.entry(a, b) if min(a, b) >= 0 else 0
                    assert img.entry(a, b) == want, (i, j, a, b)
    assert not catalog_rb("r1").image(0, 3)


def test_unit_range_shapes():
    assert list(unit_range(NATURALS, 3)) == [0, 1, 2, 3]
    assert list(unit_range(catalog_rb("ex1").domain, 9)) == [0, 1]
    assert list(unit_range(catalog_rb("r1_laurent").domain, 2)) == \
        [-2, -1, 0, 1, 2]


def test_conjugation_by_permutation():
    # conjugation by a permutation of the finite basis preserves both checks
    quiver = catalog_rb("quiver")
    perm = conjugate_by(quiver, [2, 3, 0, 1])
    assert check_rb_identity(perm, 4).passed
    assert check_skew_symmetry(perm, 4).passed


def test_reversal_permutation_layout():
    # perm[i] is the image of i: the reversal e_{ij} -> e_{3-i, 3-j} of M_4
    quiver = catalog_rb("quiver")
    rev = conjugate_by(quiver, [3, 2, 1, 0])
    for i in range(4):
        for j in range(4):
            for a in range(4):
                for b in range(4):
                    assert rev.image(i, j).entry(a, b) == \
                        quiver.image(3 - i, 3 - j).entry(3 - a, 3 - b)
    assert check_rb_identity(rev, 4).passed


def test_tensor_extension_keeps_base_images():
    base = catalog_rb("r1").scaled(-1)
    ext = catalog_rb("kac", N=2)
    for i in range(4):
        for j in range(4):
            assert ext.apply_image(i, j, 5) == base.apply_image(i, j, 5)
    assert check_rb_identity(ext, 5, 10).passed
    assert check_skew_symmetry(ext, 5).passed


def _n_indexed(R, rows=64):
    """The labelled operator R on the naturals (block indices, and a matrix
    factor of size N = R.N) read as an N-indexed one through the index
    bijection u <-> (u // N, u mod N): entry (a, b) of its image of e_uv is
    R(e_{u//N, v//N})'s entry (a // N, b // N) when (a mod N, b mod N) =
    (u mod N, v mod N), and 0 otherwise.  The rays of the N-indexed images
    walk their diagonals in jumps of N, so each image is cut below row
    rows, which the windows read here never reach."""
    N = R.N

    def image_fn(u, v):
        (i, a), (j, b) = divmod(u, N), divmod(v, N)
        stop = -(-(rows - a) // N)
        return FinitaryMatrix({(r * N + a, (r + o) * N + b): c
                               for o, ss in R.image(i, j).segs.items()
                               for lo, hi, c in ss
                               for r in range(lo, stop if hi is None
                                              else min(hi + 1, stop))})

    return RBOperator("%s, N-indexed" % R.name, NATURALS, image_fn)


@pytest.mark.parametrize("N", [2, 3])
def test_delta_factorisation_matches_the_composite_operator(N):
    # check_rb_identity sweeps kac(N) = -r1 (x) id_N on base units only; the
    # composite operator, swept on its own units, gives the same verdicts
    base = catalog_rb("r1").scaled(-1)
    K = _n_indexed(tensor_extend(base, N))
    for i, j, a, b in ((0, 0, 0, 0), (2, 1, 1, 0), (1, 3, N - 1, 1)):
        for q in range(3 * N):
            col = base.apply_image(i, j, q // N) if q % N == b else {}
            assert K.apply_image(i * N + a, j * N + b, q) == \
                {r * N + a: c for r, c in col.items()}
    for R in (base, mutate_sign(base, 1, 0)):
        verdict = check_rb_identity(tensor_extend(R, N), 7).passed
        assert check_rb_identity(_n_indexed(tensor_extend(R, N)),
                                 7).passed == verdict
        assert verdict == (R is base)


def test_finite_domain_is_its_own_support():
    ex1 = catalog_rb("ex1")
    assert list(ex1.support(1, 0)) == [0, 1]
    assert list(catalog_rb("zero", domain=ex1.domain).support(1, 0)) == [0, 1]
    # off a finite domain an operator built from bare images has none
    blank = RBOperator("blank", NATURALS,
                       lambda i, j: LocallyFiniteOperator.zero())
    assert blank.support(0, 0) is None


_SUPPORT_OPERATORS = (
    [catalog_rb(name) for name in ("r1", "r2", "r3", "r4", "r2_laurent")]
    + [build_pk(k) for k in (1, 2, 3, 4)]
    + [conjugate_by(build_pk(k), "transpose") for k in (2, 3, 4)]
    + [catalog_rb("kac", N=2), catalog_rb("r1").scaled(3),
       mutate_sign(catalog_rb("r3"), 2, 1)])


@pytest.mark.parametrize("R", _SUPPORT_OPERATORS, ids=lambda R: R.name)
def test_support_is_exactly_where_the_images_meet_the_column(R):
    cols = [s for s in range(-60, 61) if R.domain.contains(s)]
    for p in unit_range(R.domain, 8):
        for q in unit_range(R.domain, 8):
            assert list(R.support(p, q)) == \
                [s for s in cols if R.apply_image(p, s, q)], (p, q)


def test_shift_preimage_matches_second_operator_for_step_one():
    p1 = build_pk(1)
    r2 = catalog_rb("r2")
    for i in range(8):
        for j in range(8):
            assert images_equal(p1.image(i, j), r2.image(i, j), 16), (i, j)


def _pointwise_pk_image(k, rows=64):
    """P_k(e_ij) built point by point, N-indexed, as {(row, col): coeff}
    below row rows: -1 at each row of the back-walk i - k, i - 2k, ... when
    i // k > j // k, else 1 along the forward ray i, i + k, ... of diagonal
    j + k - i."""
    def image_fn(i, j):
        if i // k > j // k:
            walk = range(i - k, i - (j // k + 2) * k, -k)
            return {(r, r + j + k - i): -1 for r in walk}
        return {(r, r + j + k - i): 1 for r in range(i, rows, k)}

    return image_fn


def test_shift_preimages_match_the_pointwise_construction():
    for k in range(1, 6):
        pk, oracle = _n_indexed(build_pk(k)), _pointwise_pk_image(k)
        for i in range(30):
            for j in range(30):
                assert pk.image(i, j).entries == oracle(i, j), (k, i, j)


def test_shift_preimages_satisfy_defining_equation():
    # X = P_k(e_ij), read N-indexed, must satisfy X*A^k - A^k*X = e_ij; with
    # A the downward shift the left side is entrywise X[a, b+k] - X[a-k, b]
    for k in (1, 2, 3):
        pk = _n_indexed(build_pk(k))
        for i in range(5):
            for j in range(5):
                X = pk.image(i, j)
                for a in range(16):
                    for b in range(16):
                        got = X.entry(a, b + k)
                        if a >= k:
                            got -= X.entry(a - k, b)
                        assert got == (1 if (a, b) == (i, j) else 0), (k, i, j)


def test_shift_preimages_pass_rb_and_skew():
    for k in (2, 3):
        pk = build_pk(k)
        assert check_rb_identity(pk, 5, 10).passed, k
        assert check_skew_symmetry(pk, 5).passed, k


def test_derivation_of_unit_is_commutator_with_shift():
    A = shift_ray()
    for i in range(5):
        for j in range(5):
            x = FinitaryMatrix.unit(i, j)
            d = derivation_of(x)
            # oracle: entry pattern e_{i,j-1} - e_{i+1,j}
            expect = {}
            if j >= 1:
                expect[(i, j - 1)] = 1
            expect[(i + 1, j)] = expect.get((i + 1, j), 0) - 1
            expect = {key: v for key, v in expect.items() if v}
            got = {key: c for key, c in
                   ((p, d.entry(*p)) for p in set(expect) | {(i, j)}) if c}
            assert got == expect


def test_remark_suite_passes():
    assert remark3_suite(8).passed


def test_trace_functional_identities_on_finite_and_windowed():
    for name, unit in (("ex1", (0, 0)), ("ex2", (1, 0)), ("quiver", (2, 1))):
        assert verify_trace_functional_identities(catalog_rb(name)).passed
        # a sign flip breaks skew symmetry, but the identities hold for every
        # operator, so the adjoint path must pass too
        R = mutate_sign(catalog_rb(name), *unit)
        assert not check_skew_symmetry(R).passed, name
        assert verify_trace_functional_identities(R).passed, name
    assert verify_trace_functional_identities(catalog_rb("r1"), 4).passed
    # the bracket and the adjoint sum over the derived support, which is
    # finite for r2 on the integers
    R = catalog_rb("r2_laurent")
    for window in (1, 2, 3):
        assert verify_trace_functional_identities(R, window).passed, window


_TRACE_OPERATORS = [catalog_rb(name) for name in ("r1", "r2", "r3", "r4",
                                                   "ex1", "ex2", "quiver")] \
    + [build_pk(1), catalog_rb("kac", N=1)]


@pytest.mark.parametrize("R", _TRACE_OPERATORS, ids=lambda R: R.name)
def test_trace_adjoint_is_minus_the_operator_when_skew(R):
    # for a skew R, R*(y) x through the adjoint is -R(y) x: the third trace
    # identity needs no separate formula for skew operators
    window = 3
    assert check_skew_symmetry(R, window).passed
    idx = unit_range(R.domain, window)
    wide = unit_range(R.domain, 2 * window + 2)
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    skew = R._image_sum(((r, j), -v) for r, v
                                        in R.image(k, l).apply_index(i)
                                        .items())
                    adjoint = R._image_sum(((r, j), R.image(i, r).entry(l, k))
                                           for r in wide)
                    assert skew == adjoint, (R.name, i, j, k, l)
    assert verify_trace_functional_identities(R, 2).passed


def test_trace_functional_identities_reject_matrix_factor():
    with pytest.raises(ValueError, match=r"kac\(2\) .* N = 2"):
        verify_trace_functional_identities(catalog_rb("kac", N=2), 2)
    assert verify_trace_functional_identities(catalog_rb("kac", N=1), 2).passed


@pytest.mark.parametrize("name, identity, x, y, u, rhs", [
    ("r1", "second", "e[1,0]", "e[1,0]", 1, "1*u_1"),
    ("r2", "first", "e[0,0]", "e[0,0]", 2, "1*u_0"),
    ("ex1", "first", "e[0,0]", "e[0,1]", 0, "1*u_1"),
])
def test_trace_functional_identities_report_first_failure(
        short_correspondence, name, identity, x, y, u, rhs):
    # the bracket misses the first index of every correspondence sum; the
    # adjoint sums over every index of the operator's support
    rep = verify_trace_functional_identities(catalog_rb(name), 4)
    assert not rep.passed
    assert rep.counterexample == {"identity": identity, "x": x, "y": y,
                                  "u": u, "lhs": "0", "rhs": rhs}


def test_scaling_preserves_rb_weight_zero():
    R = catalog_rb("r1").scaled(Fraction(3, 2))
    assert check_rb_identity(R, 4, 8).passed
    assert check_skew_symmetry(R, 4).passed
    # p_2 has a matrix factor
    assert check_rb_identity(build_pk(2).scaled(-1), 4).passed


def test_unknown_catalog_name_raises():
    with pytest.raises(ValueError):
        catalog_rb("nosuch")


def _rows(d):
    return " + ".join("%s*u_%d" % (c, r) for r, c in sorted(d.items())) or "0"


def _pointwise_rb(R, window, cutoff):
    """Reference for check_rb_identity with no operator comparison: every
    unit pair is decided by applying both sides to u_q, q up to the cutoff,
    in the checker's sweep order and with its record."""
    params = {"window": window, "cutoff": cutoff}
    idx = unit_range(R.domain, window)
    dom = R.domain
    for i in idx:
        for j in idx:
            Rx = R.image(i, j)
            for k in idx:
                for l in idx:
                    Ry = R.image(k, l)
                    # R(x)y + xR(y) = column k of R(x) in column l, plus
                    # row j of R(y) in row i
                    operand = sparse_sum(
                        [((r, l), c) for r, c in Rx.apply_index(k).items()]
                        + [((i, cc), c) for cc, c in Ry.row(j).items()])
                    for q in unit_range(dom, cutoff):
                        lhs = sparse_sum(
                            (r, c * d) for s, c in Ry.apply_index(q).items()
                            for r, d in Rx.apply_index(s).items())
                        rhs = sparse_sum(
                            (r, c * d) for (a, b), c in operand.items()
                            if dom.contains(a) and dom.contains(b)
                            for r, d in R.image(a, b).apply_index(q).items())
                        if lhs != rhs:
                            return VerificationReport.failure(
                                "rb_identity", R.name,
                                {"x": "e[%d,%d]" % (i, j),
                                 "y": "e[%d,%d]" % (k, l), "q": q,
                                 "lhs": _rows(lhs), "rhs": _rows(rhs)},
                                params)
    details = None
    if R.N > 1:
        details = ("matrix factor of size %d handled by the delta "
                   "factorization of composite units" % R.N)
    return VerificationReport.success("rb_identity", R.name, params, details)


def _same_record(R, window, cutoff):
    got = check_rb_identity(R, window, cutoff).to_json()
    assert got == _pointwise_rb(R, window, cutoff).to_json(), R.name
    return got


def test_rb_identity_matches_pointwise_oracle_on_catalog():
    for name in CATALOG_RB_NAMES:
        R = catalog_rb(name)
        window = 2 if name.endswith("_laurent") else 3
        assert '"status": "pass"' in _same_record(R, window, 2 * window)
    for k in (2, 3):
        _same_record(build_pk(k), 3, 6)


@pytest.mark.parametrize("name, units", [
    ("r1_laurent", ((0, 0), (1, -1), (-1, 1))),
    ("r2", ((0, 1), (2, 0), (1, 1))),
    ("r3", ((0, 2), (1, 2))),
    # r2's images on block indices, with a matrix factor
    ("p_2", ((0, 0), (1, 2), (2, 1))),
    ("p_3", ((1, 2), (0, 3))),
])
def test_rb_identity_matches_pointwise_oracle_on_sign_mutants(name, units):
    base = build_pk(int(name[2])) if name.startswith("p_") \
        else catalog_rb(name)
    for unit in units:
        rec = _same_record(mutate_sign(base, *unit), 3, 6)
        assert '"status": "fail"' in rec, (name, unit)


def test_rb_identity_on_an_empty_window():
    # a negative window sweeps no pair, on every domain, and the
    # representatives of a shift-equivariant operator give the same record
    for name in ("r1", "r1_laurent", "ex1"):
        _same_record(catalog_rb(name), -1, 0)


def test_rb_identity_difference_beyond_cutoff():
    # R(e_00) = e_20,20 + e_21,21 + ..., every other image 0: for x = y =
    # e_00 the left side is R(e_00) and the right side is 0, so the two
    # differ only on u_q with q >= 20 and every other pair agrees
    far = RBOperator("far", NATURALS,
                     lambda i, j: LocallyFiniteOperator.ray(1, 20, 20)
                     if (i, j) == (0, 0) else LocallyFiniteOperator.zero())
    assert check_rb_identity(far, 3, 19).passed
    _same_record(far, 3, 19)
    rep = check_rb_identity(far, 3, 24)
    assert not rep.passed
    assert rep.counterexample == {"x": "e[0,0]", "y": "e[0,0]", "q": 20,
                                  "lhs": "1*u_20", "rhs": "0"}
    _same_record(far, 3, 24)


# ---------------------------------------------------------------------------
# the integers, decided at the region representatives where R is
# shift-equivariant, against the pointwise oracle

_LAURENT = st.sampled_from(("r1_laurent", "r2_laurent"))


def _scaled_laurent(name, alpha, transpose):
    R = catalog_rb(name).scaled(alpha)
    return conjugate_by(R, "transpose") if transpose else R


@settings(max_examples=15, deadline=None)
@given(st.one_of(
    st.builds(_scaled_laurent, _LAURENT,
              st.fractions(min_value=-3, max_value=3,
                           max_denominator=4).filter(bool), st.booleans()),
    st.builds(lambda: catalog_rb("zero", domain=INTEGERS))),
    st.integers(min_value=1, max_value=3))
def test_orbit_path_matches_oracle_on_passing_operators(R, window):
    assert '"status": "pass"' in _same_record(R, window, 2 * window)


@settings(max_examples=15, deadline=None)
@given(_LAURENT, st.integers(min_value=1, max_value=3), st.data())
def test_orbit_path_matches_oracle_on_laurent_sign_mutants(name, window,
                                                           data):
    unit = data.draw(st.tuples(st.integers(-window, window),
                               st.integers(-window, window)))
    rec = _same_record(mutate_sign(catalog_rb(name), *unit), window,
                       2 * window)
    assert '"status": "fail"' in rec


@pytest.mark.parametrize("name, unit", [("r1_laurent", (-7, -2)),
                                        ("r2_laurent", (-2, -4))])
def test_orbit_path_reads_units_outside_the_window(name, unit):
    # at window 2 the unit is read only in the support of R(x)y + xR(y); a
    # mutant is not shift-equivariant, so the full sweep finds that pair
    assert '"status": "fail"' in _same_record(
        mutate_sign(catalog_rb(name), *unit), 2, 4)


def test_orbit_path_checks_the_units_of_settled_pairs():
    # r1_laurent with R(e_{-4,b}) negated for b >= 0: at window 1 only
    # pairs that a column run settles read the units on diagonals 4 and 5,
    # e_{-3,1} among them, and R(e_{-4,0}) is not R(e_{-3,1}) moved back
    # along diagonal 4.  Built from bare images, R has no table and takes
    # the full sweep
    base = catalog_rb("r1_laurent")
    R = RBOperator("half_row", INTEGERS, lambda a, b: base.image(a, b)
                   .scale(-1) if a == -4 and b >= 0 else base.image(a, b))
    assert '"status": "fail"' in _same_record(R, 1, 2)


def test_orbit_path_difference_beyond_cutoff():
    # R(e_aa) = e_{a+22,a+22}, every other image 0, is shift-equivariant
    # but has no table, so it takes the full sweep; for x = y = e_aa the
    # left side is R(e_aa) and the right side is 0, so at window 2 the two
    # differ only on u_q with q >= 20
    far = RBOperator("far", INTEGERS,
                     lambda i, j: LocallyFiniteOperator.unit(
                         i + 22, i + 22, INTEGERS) if i == j
                     else LocallyFiniteOperator.zero(INTEGERS))
    assert check_rb_identity(far, 2, 19).passed
    _same_record(far, 2, 19)
    rep = check_rb_identity(far, 2, 24)
    assert rep.counterexample == {"x": "e[-2,-2]", "y": "e[-2,-2]",
                                  "q": 20, "lhs": "1*u_20", "rhs": "0"}
    _same_record(far, 2, 24)
    # R(e_ij) = e_{i+22,j+23} for j >= i, else 0, is a chamber table whose
    # representatives fail: the full sweep gives the record, and at window
    # 2 its defects have no column below 20
    far = rb._chamber_operator("far", INTEGERS, ((0, 0, 0), (22, 22, 1)))
    assert far.shift_equivariant and not rb._holds_everywhere(far)
    assert check_rb_identity(far, 2, 19).passed
    _same_record(far, 2, 19)
    rep = check_rb_identity(far, 2, 24)
    assert rep.counterexample == {"x": "e[-2,-2]", "y": "e[-1,-1]",
                                  "q": 22, "lhs": "1*u_20", "rhs": "0"}
    _same_record(far, 2, 24)


def _collapse(window):
    """R(e_{a,a+w}) = e_aa, every other image 0: the identity fails only at
    x = e_{a,a+w}, y = e_{a+w,a+2w}, whose indices spread over 2w."""
    return RBOperator("collapse", INTEGERS,
                      lambda i, j: LocallyFiniteOperator.unit(i, i, INTEGERS)
                      if j - i == window
                      else LocallyFiniteOperator.zero(INTEGERS))


@pytest.mark.parametrize("window", [1, 2, 3])
def test_orbit_path_covers_the_widest_orbits(window):
    # built from bare images, collapse has no table and takes the full
    # sweep; a chamber table failing first at the same spread is below
    rec = _same_record(_collapse(window), window, 2 * window)
    assert '"x": "e[%d,0]", "y": "e[0,%d]"' % (-window, window) in rec


def _stride2(i, j, ms):
    """e_{i+2m,j+2m} over m in ms: a diagonal walked in jumps of 2."""
    return FinitaryMatrix({(i + 2 * m, j + 2 * m): 1 for m in ms}, INTEGERS)


def _class_diagonal(i, j):
    """e_{i+2m,j+2m} for |m| <= 8: the class of row i mod 2 on the diagonal
    of (i, j), both ways from it."""
    return _stride2(i, j, range(-8, 9))


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("name, image_fn", [
    ("strided", lambda i, j: _stride2(i, j + 2, range(9))),
    ("classes", _class_diagonal),
])
def test_orbit_path_on_strided_images(name, image_fn, window):
    # operators from bare images on the integers take the full sweep
    R = RBOperator(name, INTEGERS, image_fn)
    assert not R.shift_equivariant
    _same_record(R, window, 2 * window)


# ---------------------------------------------------------------------------
# shift equivariance, read off the chamber tables

@pytest.mark.parametrize("window", [1, 2, 3])
def test_declared_orbit_path_covers_the_widest_orbits(window):
    # the table of shape (offset, split) = (-w, w) with R(e_ij) = e_{i,j-w}
    # for j - i >= w, else 0: every failing window pair reads a unit with
    # j - i >= w, and the first has y = e_{-w,w}, of the widest spread 2w.
    # The representatives must reach the chamber j - i >= w, however wide,
    # to hand the window to the full sweep
    R = RBOperator("wide", INTEGERS, None)
    R._chambers = ((0, 0, 0), (0, 0, 1)), -window, window
    assert R.shift_equivariant and not rb._holds_everywhere(R)
    rec = _same_record(R, window, 2 * window)
    assert '"x": "e[%d,%d]", "y": "e[%d,%d]"' % (
        -window, -window, -window, window) in rec


def test_declarations_follow_the_chamber_tables():
    r1 = catalog_rb("r1_laurent")
    assert r1.shift_equivariant and catalog_rb("r2_laurent").shift_equivariant
    for R in (r1.scaled(-2), conjugate_by(r1, "transpose"),
              tensor_extend(r1, 3),
              conjugate_by(catalog_rb("r2_laurent").scaled(3), "transpose")):
        assert R.shift_equivariant, R.name
    # a mutant keeps the table for support, not shift equivariance
    flip = mutate_sign(r1, 0, 0)
    assert flip._chambers == r1._chambers and not flip.shift_equivariant
    assert not mutate_sign(conjugate_by(r1, "transpose"), 1, 2) \
        .shift_equivariant
    # flipped twice at the same unit, a mutant is r1 again
    twice = mutate_sign(flip, 0, 0)
    assert twice.shift_equivariant
    idx = unit_range(INTEGERS, 3)
    assert all(twice.image(i, j) == r1.image(i, j) for i in idx for j in idx)
    # the transpose's table has the shape (offset, split) = (-1, 1), and
    # transposed twice r1_laurent has its own table back
    r3 = conjugate_by(r1, "transpose")
    assert r3._chambers[1:] == (-1, 1)
    assert conjugate_by(r3, "transpose")._chambers == r1._chambers
    # on the naturals no shift is an automorphism
    for name in ("r1", "r2", "r3", "kac"):
        assert not catalog_rb(name).shift_equivariant, name
    assert not catalog_rb("zero", domain=INTEGERS).shift_equivariant


_ENDS = st.sampled_from((None, -3, -2, -1, 0, 1, 2, 3))
_CHAMBER = st.tuples(_ENDS, _ENDS, st.integers(-2, 2))
# the catalog's two tables, scaled, pass
_PASSING = st.builds(lambda table, c: tuple((lo, hi, c * d)
                                            for lo, hi, d in table),
                     st.sampled_from((rb._R1_TABLE, rb._R2_TABLE)),
                     st.sampled_from((-2, -1, 1, 2)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(_CHAMBER, _CHAMBER), _PASSING),
       st.integers(1, 3))
@example(rb._R1_TABLE, 3)
@example(((0, None, 1), (0, None, 1)), 2)
@example(((None, None, 1), (None, None, 1)), 2)
def test_random_step_one_tables_match_the_full_sweep(table, window):
    # most random tables fail, at their first failing pair
    R = rb._chamber_operator("T", INTEGERS, table)
    assert R.shift_equivariant
    want = _two_sided_rb(R, window, 2 * window)
    assert check_rb_identity(R, window, 2 * window).to_json() == \
        want.to_json(), table


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(_CHAMBER, _CHAMBER), _PASSING), st.booleans(),
       st.one_of(st.none(), st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
@example(((-1, -1, -2), (-1, -1, -2)), False, None)
@example(((None, None, 0), (None, -1, -2)), False, None)
@example(((None, None, 0), (-1, -1, -2)), True, None)
@example(((None, 0, -2), (1, None, 2)), False, (-1, -1))
@example(((None, 0, -2), (1, None, 2)), True, (-1, -1))
@example(((None, None, 0), (2, 2, -2)), False, (2, 0))
def test_representatives_decide_every_unit_pair(table, transpose, shape):
    # the representatives' verdict, for every unit pair of Z^4, is the full
    # sweep's on the same images with no table, at a window that holds
    # every unit the representatives read.  The table has shape (1, 0), or
    # the (offset, split) drawn, and then maybe its transpose.  In order,
    # the examples fail: only at d = 0; in one chamber triple for d <= 0
    # and another for d >= 1; only at d = -1 and 0; only in the triple
    # (above, above, below); transposed, only in (below, below, above);
    # only at d = -2, 2 and 4
    R = rb._chamber_operator("T", INTEGERS, table)
    if shape:
        R._chambers = table, *shape
    R = conjugate_by(R, "transpose") if transpose else R
    holds = rb._holds_everywhere(R)
    window = max(abs(n) for unit in R._images for n in unit)
    bare = RBOperator("T", INTEGERS, R.image)
    assert check_rb_identity(bare, window).passed == holds, (table, window)


def _counting(monkeypatch):
    """Lists that grow by one per defect computed and per left side built."""
    defects, products = [], []
    defect = rb._defect

    def counted(*args):
        defects.append(None)
        return defect(*args)

    def product(a, b):
        products.append(None)
        return mul_mixed(a, b)

    monkeypatch.setattr(rb, "_defect", counted)
    monkeypatch.setattr(rb, "mul_mixed", product)
    return defects, products


def test_orbit_path_products(monkeypatch):
    defects, products = _counting(monkeypatch)
    assert check_rb_identity(catalog_rb("r1_laurent"), 6).passed
    # 13 values of d for each of the 6 chamber triples, E = 1 and M = 5
    assert len(defects) == 78
    # a passing check decides every pair on its defect and builds no side,
    # at the representatives and on the full sweep, where runs and slides
    # compute 73 of the 256 defects
    assert check_rb_identity(catalog_rb("r1"), 3).passed
    assert len(defects) == 78 + 73 and not products
    # a mutant is not shift-equivariant, so only the full sweep
    # runs, up to its first failing pair; (-3, 3) and (3, -3) are the one
    # window unit on their diagonals.  Each row's first defect is computed,
    # and those where a run meets the corrupted unit
    for unit, count in (((1, -1), 11), ((-3, 3), 2), ((3, -3), 16)):
        defects.clear()
        products.clear()
        assert not check_rb_identity(
            mutate_sign(catalog_rb("r2_laurent"), *unit), 3).passed
        assert len(defects) == count, unit
        # the left side is built once, to render the counterexample
        assert len(products) == 1, unit


@pytest.mark.parametrize("name, params, count", [
    ("r1", {}, 271), ("r4", {}, 271), ("kac", {"N": 2}, 271),
    ("r2", {}, 651), ("p_k", {"k": 1}, 651), ("r3", {}, 785),
    ("r1_laurent", {}, 78), ("r2_laurent", {}, 78)])
def test_battery_defect_counts(monkeypatch, name, params, count):
    # the eight chamber-table operators of report --all, at its window
    defects, products = _counting(monkeypatch)
    assert check_rb_identity(catalog_rb(name, **params), 6).passed
    assert len(defects) == count and not products


def test_sweep_builds_the_images_it_reads():
    # the moves of a table operator are read off its table, so the sweep
    # builds only the images that its defects read, and the representatives
    # theirs
    R = catalog_rb("r1_laurent")
    assert check_rb_identity(R, 6).passed
    assert len(R._images) == 50


@pytest.mark.parametrize("name", ["r1_laurent", "r2_laurent"])
def test_laurent_defects_do_not_grow_with_the_window(monkeypatch, name):
    defects, _ = _counting(monkeypatch)
    for window in (1, 6, 30):
        defects.clear()
        assert check_rb_identity(catalog_rb(name), window).passed
        assert len(defects) == 78, window


class _NoMoves(rb._Moves):
    """Moves that never hold, so that no pair is settled by a run or a
    slide."""

    def __missing__(self, key):
        return 0


def test_sweeps_without_runs(monkeypatch):
    defects, products = _counting(monkeypatch)
    monkeypatch.setattr(rb, "_Moves", _NoMoves)
    assert check_rb_identity(catalog_rb("r1_laurent"), 6).passed
    # the representatives read no moves
    assert len(defects) == 78
    assert check_rb_identity(catalog_rb("r1"), 3).passed
    assert len(defects) == 78 + 4 ** 4 and not products
    # the full sweep computes every pair up to its first failing one
    for unit in ((1, -1), (-3, 3), (3, -3)):
        defects.clear()
        rep = check_rb_identity(mutate_sign(catalog_rb("r2_laurent"), *unit),
                                3)
        pos = 0
        for x in (rep.counterexample["x"], rep.counterexample["y"]):
            for v in x[2:-1].split(","):
                pos = 7 * pos + int(v) + 3
        assert len(defects) == pos + 1, unit


def test_run_starts_only_from_an_empty_defect():
    # R(e_ab) = e_{a-3,b-3} moves one column right with b everywhere; at x =
    # y = e[-2,-2] the defect is e_{-5,-5}, beyond the cutoff, so that pair
    # passes, but the pair to its right fails in column -4
    R = RBOperator("down3", INTEGERS, lambda a, b:
                   LocallyFiniteOperator.unit(a - 3, b - 3, INTEGERS))
    rep = check_rb_identity(R, 2, 4)
    assert rep.counterexample == {"x": "e[-2,-2]", "y": "e[-2,-1]", "q": -4,
                                  "lhs": "1*u_-5", "rhs": "0"}
    _same_record(R, 2, 4)


def test_slide_starts_only_from_an_empty_defect():
    # R(e_ab) = e_{a-3,b} for a > b, 0 otherwise.  At cutoff 0 the defect at
    # x = e[-1,-3], y = e[0,-1] is e_{-4,-1}, beyond the cutoff, so that
    # pair passes; the same defect one step down the (j, k) diagonal must
    # not slide and start a run there, as the pair to its right fails
    R = RBOperator("drop3", INTEGERS, lambda a, b:
                   LocallyFiniteOperator.unit(a - 3, b, INTEGERS) if a > b
                   else LocallyFiniteOperator.zero(INTEGERS))
    rep = check_rb_identity(R, 3, 0)
    assert rep.counterexample == {"x": "e[-1,-2]", "y": "e[1,0]", "q": 0,
                                  "lhs": "1*u_-4", "rhs": "0"}
    _same_record(R, 3, 0)


# ---------------------------------------------------------------------------
# the slide: D(i, j, k, l) = D(i, j - 1, k - 1, l) where the moves hold

def _defect(R, i, j, k, l):
    """R(x)R(y) - R(R(x)y + xR(y)) at x = e_ij, y = e_kl, each side built
    apart."""
    Rx, Ry = R.image(i, j), R.image(k, l)
    operand = sparse_sum([((r, l), c) for r, c in Rx.apply_index(k).items()]
                         + [((i, cc), c) for cc, c in Ry.row(j).items()])
    return mul_mixed(Rx, Ry) - R._image_sum(operand.items())


def _slides(R, i, j, k, l, ls):
    """Whether the sweep slides (i, j, k, l) from (i, j - 1, k - 1, l)."""
    moves = rb._Moves(R)
    right = moves[i, j - 1, 0, moves.edge]
    holes = [m for m in ls if m != l]
    return bool(right) and [*moves.slides(holes, k, right, ls)] == [(l, l)]


# both chambers the whole diagonal: on the naturals R(e_ij) has an entry in
# column 0 iff i > j, and R(e_kl) one in row 0 iff k <= l + 1
_FULL = ((None, None, 1), (None, None, 1))


@st.composite
def _operators(draw):
    """Catalog operators, p_2, p_3 and random chamber tables on both
    domains, maybe scaled, transposed and sign-mutated."""
    if draw(st.booleans()):
        R = rb._chamber_operator("T", draw(st.sampled_from((NATURALS,
                                                            INTEGERS))),
                                 draw(st.tuples(_CHAMBER, _CHAMBER)))
    else:
        R = _catalog_or_pk(draw(st.sampled_from(
            ("r1", "r2", "r3", "r4", "kac", "p_1", "p_2", "p_3",
             "r1_laurent", "r2_laurent"))))
    if draw(st.booleans()):
        R = R.scaled(draw(st.sampled_from((-2, Fraction(1, 2), 3))))
    if draw(st.booleans()):
        R = conjugate_by(R, "transpose")
    if draw(st.booleans()):
        units = unit_range(R.domain, 3)
        R = mutate_sign(R, draw(st.sampled_from(units)),
                        draw(st.sampled_from(units)))
    return R


@settings(max_examples=80, deadline=None)
@given(_operators(), st.data())
def test_slides_keep_the_defect(R, data):
    ls = unit_range(R.domain, 3)
    # j and k from the window's second index on, so that j - 1, k - 1 are in
    quads = data.draw(st.lists(st.tuples(*[st.sampled_from(ls[o:])
                                           for o in (0, 1, 1, 0)]),
                               min_size=1, max_size=6))
    for i, j, k, l in quads:
        if _slides(R, i, j, k, l, ls):
            assert _defect(R, i, j, k, l) == _defect(R, i, j - 1, k - 1, l), \
                (R.name, i, j, k, l)


def test_slides_need_an_edge_on_one_side_only():
    # at x = e_21, y = e_11 R(x) has an entry in column 0 and R(y) one in
    # row 0, which no move gives, so the defects differ by R(x) e_00 R(y);
    # with only one of them, as at (3, 2, 2, 0) and (0, 2, 1, 3), they agree
    R = rb._chamber_operator("T", NATURALS, _FULL)
    ls = unit_range(NATURALS, 3)
    moves = rb._Moves(R)
    assert moves[2, 0, 0, True] == moves[0, 1, 1, True] == 1
    assert not _slides(R, 2, 1, 1, 1, ls)
    assert _defect(R, 2, 1, 1, 1) != _defect(R, 2, 0, 0, 1)
    for i, j, k, l in ((3, 2, 2, 0), (0, 2, 1, 3)):
        assert _slides(R, i, j, k, l, ls)
        assert _defect(R, i, j, k, l) == _defect(R, i, j - 1, k - 1, l)


# ---------------------------------------------------------------------------
# the moves read off a chamber table against the compared images

@settings(max_examples=100, deadline=None)
@given(_operators(), st.booleans())
@example(mutate_sign(catalog_rb("r2"), 2, 1), True)
@example(mutate_sign(catalog_rb("r1_laurent"), -1, 1), True)
def test_table_moves_match_the_compared_images(R, transpose):
    if transpose:
        # a mutant, transposed: its flipped unit is transposed too
        R = conjugate_by(R, "transpose")
    # the same images with no table, so that every move compares them
    bare = RBOperator(R.name, R.domain, R.image)
    asked = set()

    class Asked(rb._Moves):
        def __missing__(self, key):
            asked.add(key[:2])
            return super().__missing__(key)

    with mock.patch.object(rb, "_Moves", Asked):
        check_rb_identity(R, 3)
    idx = unit_range(R.domain, 3)
    asked.update((a, b) for a in idx for b in idx)
    table, compared = rb._Moves(R), rb._Moves(bare)
    for a, b in asked:
        for key in ((a, b, 0, False), (a, b, 0, True), (a, b, 1, False),
                    (a, b, 1, True)):
            # equal, so never stronger; at a key that touches a flipped
            # unit both compare the images
            assert table[key] == compared[key], (R.name, key)
    # the slides' cut points, read off the table along each row
    for a in {a for a, _ in asked}:
        for right in (1, 2):
            assert table._cuts(a, right, idx) == compared._cuts(
                a, right, idx), (R.name, a, right)


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("scale"), st.sampled_from((-2, 0, Fraction(1, 2),
                                                 3))),
    st.tuples(st.just("transpose"), st.none()),
    st.tuples(st.just("tensor"), st.integers(1, 3)),
    st.tuples(st.just("flip"), st.tuples(st.integers(0, 3),
                                         st.integers(0, 3)))), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((NATURALS, INTEGERS)),
       st.one_of(st.tuples(_CHAMBER, _CHAMBER),
                 st.sampled_from((rb._R1_TABLE, rb._R2_TABLE))), _STEPS)
@example(NATURALS, rb._R1_TABLE, [("flip", (2, 1)), ("transpose", None)])
@example(INTEGERS, rb._R2_TABLE, [("flip", (1, 1)), ("scale", 0),
                                  ("flip", (1, 1))])
def test_table_images_match_the_composed_images(domain, table, steps):
    # a table operator reads its images off its table; the same steps on
    # its copy from bare images compose their image functions instead
    R = rb._chamber_operator("T", domain, table)
    bare = RBOperator("T", domain, R.image)
    for step, arg in steps:
        if step == "scale":
            R, bare = R.scaled(arg), bare.scaled(arg)
        elif step == "transpose":
            R, bare = (conjugate_by(X, "transpose") for X in (R, bare))
        elif step == "tensor":
            R, bare = tensor_extend(R, arg), tensor_extend(bare, arg)
        else:
            R, bare = mutate_sign(R, *arg), mutate_sign(bare, *arg)
    idx = unit_range(domain, 4)
    for i in idx:
        for j in idx:
            assert R.image(i, j) == bare.image(i, j), (R.name, i, j)


# ---------------------------------------------------------------------------
# the defect sweep against the two-sided sweep it replaced

def _two_sided_rb(R, window, cutoff):
    """Reference for check_rb_identity's full sweep: at every unit pair both
    sides are built as operators, R(x)R(y) by mul_mixed and R(R(x)y +
    xR(y)) by _image_sum, compared, and where they differ read column by
    column up to the cutoff; no representatives, no defect."""
    params = {"window": window, "cutoff": cutoff}
    idx = unit_range(R.domain, window)
    for i in idx:
        for j in idx:
            Rx = R.image(i, j)
            for k in idx:
                for l in idx:
                    Ry = R.image(k, l)
                    operand = sparse_sum(
                        [((r, l), c) for r, c in Rx.apply_index(k).items()]
                        + [((i, cc), c) for cc, c in Ry.row(j).items()])
                    lhs = mul_mixed(Rx, Ry)
                    rhs = R._image_sum(operand.items())
                    if lhs == rhs:
                        continue
                    for q in unit_range(R.domain, cutoff):
                        lhs_q, rhs_q = lhs.apply_index(q), rhs.apply_index(q)
                        if lhs_q != rhs_q:
                            return VerificationReport.failure(
                                "rb_identity", R.name,
                                {"x": "e[%d,%d]" % (i, j),
                                 "y": "e[%d,%d]" % (k, l), "q": q,
                                 "lhs": _rows(lhs_q), "rhs": _rows(rhs_q)},
                                params)
    details = None
    if R.N > 1:
        details = ("matrix factor of size %d handled by the delta "
                   "factorization of composite units" % R.N)
    return VerificationReport.success("rb_identity", R.name, params, details)


def _catalog_or_pk(name):
    return build_pk(int(name[2])) if name.startswith("p_") \
        else catalog_rb(name)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("r1", "r2", "r3", "r4", "r1_laurent", "r2_laurent",
                        "p_1", "p_2", "p_3", "ex1", "ex2", "quiver")),
       st.integers(min_value=1, max_value=3),
       st.sampled_from(("mutate", "scale", "both")), st.data())
def test_defect_sweep_matches_the_two_sided_sweep(name, window, how, data):
    R = _catalog_or_pk(name)
    if R.domain.kind == "integers":
        window = min(window, 2)
    if how != "mutate":
        R = R.scaled(data.draw(st.fractions(min_value=-3, max_value=3,
                                            max_denominator=3).filter(bool)))
    if how != "scale":
        units = list(unit_range(R.domain, window))
        R = mutate_sign(R, data.draw(st.sampled_from(units)),
                        data.draw(st.sampled_from(units)))
    got = check_rb_identity(R, window, 2 * window)
    want = _two_sided_rb(R, window, 2 * window)
    # same verdict, first failing pair and counterexample
    assert got.to_json() == want.to_json(), R.name
    if how == "scale":
        assert got.passed, R.name


@pytest.mark.parametrize("name, window, lo, hi", [
    (name, 3, 0, 4) for name in ("r1", "r2", "r3", "r4", "p_1", "p_2",
                                 "p_3")] + [
    (name, 2, -3, 3) for name in ("r1_laurent", "r2_laurent")])
def test_every_flipped_unit_matches_the_two_sided_sweep(name, window, lo, hi):
    # every unit with both indices in [lo, hi], flipped: a unit read only at
    # a pair that a column run settles, beyond the window's edge included,
    # must break that run
    base = _catalog_or_pk(name)
    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            R = mutate_sign(base, a, b)
            got = check_rb_identity(R, window, 2 * window)
            assert got.to_json() == _two_sided_rb(R, window, 2 * window) \
                .to_json(), (name, a, b)


_UNIT = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("r1", "r2", "r3", "r4")),
       st.lists(st.tuples(_UNIT, _UNIT,
                          st.sampled_from((-2, -1, Fraction(1, 2), 1, 2))),
                min_size=1, max_size=2))
def test_skew_perturbations_match_the_two_sided_sweep(name, changes):
    # R(e_ab) += c e_rs and R(e_sr) -= c e_ba keeps <R(x), y> = -<x, R(y)>,
    # as the pinned r3 perturbation of test_brackets does; built from bare
    # images, the operator has no table, so its moves compare images
    base = catalog_rb(name)
    extra = {}
    for (a, b), (r, s), c in changes:
        for unit, entry, d in (((a, b), (r, s), c), ((s, r), (b, a), -c)):
            extra.setdefault(unit, []).append(FinitaryMatrix({entry: d}))

    def image_fn(i, j):
        return sum(extra.get((i, j), ()), base.image(i, j))

    R = RBOperator(name + "+", NATURALS, image_fn)
    assert check_skew_symmetry(R, 5).passed, changes
    for window in (2, 3):
        assert check_rb_identity(R, window).to_json() == _two_sided_rb(
            R, window, 2 * window).to_json(), (changes, window)


# ---------------------------------------------------------------------------
# the skew pairing against the quadruple sweep it replaced

def _quadruple_skew(R, window):
    """Reference for check_skew_symmetry: <R(x),y> against -<x,R(y)> by
    entry lookups at every (i, j, k, l) of the window, in ascending order."""
    params = {"window": window}
    idx = unit_range(R.domain, window)
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    left = R.image(i, j).entry(l, k)
                    right = R.image(k, l).entry(j, i)
                    if left != -right:
                        return VerificationReport.failure(
                            "skew_symmetry", R.name,
                            {"x": "e[%d,%d]" % (i, j),
                             "y": "e[%d,%d]" % (k, l),
                             "<R(x),y>": str(left), "<x,R(y)>": str(right)},
                            params)
    details = None
    if R.N > 1:
        details = "matrix factor trace splits off; base pairing checked"
    return VerificationReport.success("skew_symmetry", R.name, params,
                                      details)


def _skew_agrees(R, window):
    got = check_skew_symmetry(R, window).to_json()
    assert got == _quadruple_skew(R, window).to_json(), (R.name, window)
    return got


def _random_operator(domain, rays, skew):
    """R(e_ij) is the segments rays[(i, j)] = {offset: segments} plus, for each (i, j, k, l) -> c of skew inside the domain, c at (l, k)
    of R(e_ij) and -c at (j, i) of R(e_kl), which are skew on their own."""
    cells = {}
    for (i, j, k, l), c in skew.items():
        if all(domain.contains(n) for n in (i, j, k, l)):
            for unit, cell, v in (((i, j), (l, k), c), ((k, l), (j, i), -c)):
                m = cells.setdefault(unit, {})
                m[cell] = m.get(cell, 0) + v

    def image_fn(i, j):
        return LocallyFiniteOperator(rays.get((i, j)), domain) + \
            FinitaryMatrix(cells.get((i, j)), domain)

    return RBOperator("random", domain, image_fn)


_COEFF = st.fractions(min_value=-2, max_value=2,
                      max_denominator=3).filter(bool)
_INDEX = st.integers(-3, 3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([NATURALS, INTEGERS, Domain.finite(1),
                        Domain.finite(3)]),
       st.integers(0, 3), st.data())
def test_skew_pairing_matches_the_quadruple_sweep(domain, window, data):
    # rays infinite either way off finite domains
    end = _INDEX if domain.kind == "finite" else st.none() | _INDEX
    segments = st.lists(st.tuples(end, end, _COEFF), min_size=1, max_size=2)
    unit = st.integers(-1, 1) if domain.kind == "integers" else \
        st.integers(0, 1)
    rays = data.draw(st.dictionaries(
        st.tuples(unit, unit),
        st.dictionaries(st.integers(-3, 3), segments, max_size=2),
        max_size=3))
    skew = data.draw(st.dictionaries(st.tuples(_INDEX, _INDEX, _INDEX, _INDEX),
                                     _COEFF, max_size=6))
    _skew_agrees(_random_operator(domain, rays, skew), window)


@pytest.mark.parametrize("name", ["r1", "r2", "r3", "r4", "p_2", "p_3",
                                  "r1_laurent", "r2_laurent", "p_2_laurent",
                                  "p_3_laurent"])
def test_every_flipped_skew_pairing_matches_the_quadruple_sweep(name):
    if name.startswith("p_") and name.endswith("_laurent"):
        # p_k on the integers: r2_laurent on block indices, with a matrix
        # factor
        base = tensor_extend(catalog_rb("r2_laurent"), int(name[2]),
                             name=name)
    else:
        base = _catalog_or_pk(name)
    for window in range(4):
        assert '"status": "pass"' in _skew_agrees(base, window)
        units = unit_range(base.domain, window)
        for a in units:
            for b in units:
                _skew_agrees(mutate_sign(base, a, b), window)


def test_skew_pairing_on_empty_and_single_unit_windows():
    # a negative window sweeps no pair; finite(1) has the one unit e_00
    for name in ("r1", "r1_laurent", "ex1"):
        assert '"status": "pass"' in _skew_agrees(catalog_rb(name), -1)
    one = Domain.finite(1)
    for value in (0, 1):
        R = RBOperator("one", one,
                       lambda i, j: FinitaryMatrix({(0, 0): value}, one))
        assert ('"status": "pass"' in _skew_agrees(R, 0)) == (not value)


# ---------------------------------------------------------------------------
# remark 3 on its failure paths, against the interleaved sweep

def _remark3_interleaved(window):
    """Reference for remark3_suite: (b) at each window unit x, then (a) at
    every pair (x, y), then (c), with no unit precheck; it reads d through
    the rb module, so a patched d is seen here too."""
    params = {"window": window}
    A = shift_ray()
    idx = range(window + 1)
    for i in idx:
        for j in idx:
            x = FinitaryMatrix.unit(i, j)
            dx = rb.derivation_unit(i, j)
            inner = commutator(x, A)
            if inner != dx:
                return VerificationReport.failure(
                    "remark3", "d", {"sub": "inner_form",
                                     "x": "e[%d,%d]" % (i, j),
                                     "d(x)": repr(dx), "xA-Ax": repr(inner)},
                    params)
            for k in idx:
                for l in idx:
                    y = FinitaryMatrix.unit(k, l)
                    lhs = rb.derivation_of(mul_mixed(x, y))
                    rhs = mul_mixed(dx, y) + mul_mixed(
                        x, rb.derivation_unit(k, l))
                    if lhs != rhs:
                        return VerificationReport.failure(
                            "remark3", "d",
                            {"sub": "derivation", "x": "e[%d,%d]" % (i, j),
                             "y": "e[%d,%d]" % (k, l), "d(xy)": repr(lhs),
                             "d(x)y+xd(y)": repr(rhs)}, params)
    r2 = catalog_rb("r2")
    for i in idx:
        for j in idx:
            unit_op = LocallyFiniteOperator.unit(i, j)
            got = r2.image_of_finitary(rb.derivation_unit(i, j))
            if got != unit_op:
                return VerificationReport.failure(
                    "remark3", "r2", {"sub": "right_inverse",
                                      "x": "e[%d,%d]" % (i, j),
                                      "R2(d(x))": repr(got)}, params)
            ext = commutator(r2.image(i, j), A)
            if ext != unit_op:
                return VerificationReport.failure(
                    "remark3", "r2", {"sub": "left_inverse",
                                      "x": "e[%d,%d]" % (i, j),
                                      "d(R2(x))": repr(ext)}, params)
    return VerificationReport.success(
        "remark3", "d,r2", params,
        details="every unit e_{ij} in the window is d(R2(e_{ij})), so the "
                "finitary ideal lies in the image of r2")


def test_remark3_passing_suite_sweeps_no_pair(monkeypatch):
    products = []

    def product(a, b):
        products.append(None)
        return mul_mixed(a, b)

    monkeypatch.setattr(rb, "mul_mixed", product)
    got = remark3_suite(5).to_json()
    assert not products
    assert got == _remark3_interleaved(5).to_json()


_REMARK3_UNITS = [(0, 0), (0, 3), (2, 1), (4, 4), (4, 0)]


@pytest.mark.parametrize("unit", _REMARK3_UNITS)
def test_remark3_flipped_unit_formula(monkeypatch, unit):
    unit_formula = rb.derivation_unit

    def flipped(i, j):
        d = unit_formula(i, j)
        return d.scale(-1) if (i, j) == unit else d

    monkeypatch.setattr(rb, "derivation_unit", flipped)
    got = remark3_suite(4)
    assert not got.passed
    assert got.to_json() == _remark3_interleaved(4).to_json()


@pytest.mark.parametrize("unit", _REMARK3_UNITS)
def test_remark3_flipped_linear_extension(monkeypatch, unit):
    extension = rb.derivation_of

    def flipped(x):
        d = extension(x)
        return d.scale(-1) if x.entries == {unit: 1} else d

    monkeypatch.setattr(rb, "derivation_of", flipped)
    got = remark3_suite(4)
    assert not got.passed and got.counterexample["sub"] == "derivation"
    assert got.to_json() == _remark3_interleaved(4).to_json()


def test_remark3_extension_that_moves_zero(monkeypatch):
    # d(0) != 0 passes every unit check; only the pair sweep, at a pair
    # whose product is 0, sees it
    extension = rb.derivation_of

    def shifted(x):
        d = extension(x)
        return d if x.entries else FinitaryMatrix.unit(0, 0)

    monkeypatch.setattr(rb, "derivation_of", shifted)
    got = remark3_suite(3)
    assert not got.passed
    assert got.to_json() == _remark3_interleaved(3).to_json()


@pytest.mark.parametrize("unit, sub, x", [
    # R2(e_10) is read by R2(d(e_00)) = -R2(e_10), before d(R2(e_10))
    ((1, 0), "right_inverse", "e[0,0]"),
    ((2, 3), "right_inverse", "e[1,3]"),
    # R2(e_0j) is read by d(e_{0,j+1}) only, after d(R2(e_0j)) at e_0j
    ((0, 0), "left_inverse", "e[0,0]"),
    ((0, 2), "left_inverse", "e[0,2]"),
])
def test_remark3_flipped_second_operator(monkeypatch, unit, sub, x):
    catalog = rb.catalog_rb
    monkeypatch.setattr(rb, "catalog_rb",
                        lambda name: mutate_sign(catalog(name), *unit))
    got = remark3_suite(4)
    assert not got.passed and got.target == "r2"
    assert (got.counterexample["sub"], got.counterexample["x"]) == (sub, x)
