"""Operator layer: catalog images, the Rota-Baxter and skew checks,
conjugation, derivations, and the diagonal-shift preimages."""

from __future__ import annotations

from fractions import Fraction

import pytest

from doublelie.exact import sparse_sum
from doublelie.matrices import (FinitaryMatrix, LocallyFiniteOperator,
                                NATURALS, mul_mixed)
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
                    # strided-ray images of p_k, k >= 2
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


def test_unit_range_shapes():
    assert list(unit_range(NATURALS, 3)) == [0, 1, 2, 3]
    assert list(unit_range(catalog_rb("ex1").domain, 9)) == [0, 1]
    assert list(unit_range(catalog_rb("r1_laurent").domain, 2)) == \
        [-2, -1, 0, 1, 2]


def test_conjugation_by_identity_and_permutation():
    ex1 = catalog_rb("ex1")
    same = conjugate_by(ex1, "identity")
    assert images_equal(same.image(0, 0), ex1.image(0, 0), 2)
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


def test_shift_preimage_matches_second_operator_for_step_one():
    p1 = build_pk(1)
    r2 = catalog_rb("r2")
    for i in range(8):
        for j in range(8):
            assert images_equal(p1.image(i, j), r2.image(i, j), 16), (i, j)


def test_shift_preimages_satisfy_defining_equation():
    # X = P_k(e_ij) must satisfy X*A^k - A^k*X = e_ij; with A the downward
    # shift the left side is entrywise X[a, b+k] - X[a-k, b]
    for k in (1, 2, 3):
        pk = build_pk(k)
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


def test_trace_functional_identities_reject_matrix_factor():
    with pytest.raises(ValueError, match=r"kac\(2\) .* N = 2"):
        verify_trace_functional_identities(catalog_rb("kac", N=2), 2)
    assert verify_trace_functional_identities(catalog_rb("kac", N=1), 2).passed


def _without_first_hint(R):
    """R with a bracket that misses the first column index of every sum."""
    return RBOperator(R.name, R.domain, R.image,
                      lambda p, q: list(R.support_hint(p, q))[1:])


@pytest.mark.parametrize("name, identity, x, y, u, rhs", [
    ("r1", "second", "e[1,0]", "e[1,0]", 1, "1*u_1"),
    ("r2", "first", "e[0,0]", "e[0,0]", 2, "1*u_0"),
    ("ex1", "first", "e[0,0]", "e[0,1]", 0, "1*u_1"),
])
def test_trace_functional_identities_report_first_failure(name, identity, x,
                                                          y, u, rhs):
    rep = verify_trace_functional_identities(
        _without_first_hint(catalog_rb(name)), 4)
    assert not rep.passed
    assert rep.counterexample == {"identity": identity, "x": x, "y": y,
                                  "u": u, "lhs": "0", "rhs": rhs}


def test_scaling_preserves_rb_weight_zero():
    R = catalog_rb("r1").scaled(Fraction(3, 2))
    assert check_rb_identity(R, 4, 8).passed
    assert check_skew_symmetry(R, 4).passed
    # p_2 has strided-ray images
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
    # strided-ray images: their products and sums are step-form operators
    ("p_2", ((0, 0), (1, 2), (2, 1))),
    ("p_3", ((1, 2), (0, 3))),
])
def test_rb_identity_matches_pointwise_oracle_on_sign_mutants(name, units):
    base = build_pk(int(name[2])) if name.startswith("p_") \
        else catalog_rb(name)
    for unit in units:
        rec = _same_record(mutate_sign(base, *unit), 3, 6)
        assert '"status": "fail"' in rec, (name, unit)


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
