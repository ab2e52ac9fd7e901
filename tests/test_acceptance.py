"""End-to-end acceptance battery.

One test per criterion, at the full advertised windows, all with exact
arithmetic and zero tolerance.  Each criterion cites its independent oracle
in the relevant layer test file; here the checks run at scale.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from doublelie.brackets import (bracket_from_rb, catalog_bracket,
                                check_anticommutativity,
                                check_basis_independence, check_homomorphism,
                                check_jacobi, check_leibniz,
                                divided_difference, rb_from_bracket)
from doublelie.cli import main as cli_main
from doublelie.dmodules import (check_module_axioms, induced_module_from_ideal,
                                proposition_equivalence,
                                rb_bimodule_split_check)
from doublelie.exact import Vec, esym, tsym, ysym
from doublelie.ideals import (Subspace, is_ideal, quotient_bracket,
                              simplicity_probe, theorem3_replay)
from doublelie.matrices import Domain, FinitaryMatrix, mul_mixed
from doublelie.rb import (RBOperator, build_pk, catalog_rb, check_rb_identity,
                          check_skew_symmetry, conjugate_by, mutate_sign,
                          remark3_suite, verify_trace_functional_identities)


def test_criterion_1_rb_and_skew_suite():
    for name in ("r1", "r2", "r3", "r4", "quiver", "ex1", "ex2"):
        R = catalog_rb(name)
        assert check_rb_identity(R, 12, 24).passed, name
        assert check_skew_symmetry(R, 12).passed, name
    for N in (2, 3):
        K = catalog_rb("kac", N=N)
        assert check_rb_identity(K, 12, 24).passed, N
        assert check_skew_symmetry(K, 12).passed, N
    for name in ("r1_laurent", "r2_laurent"):
        R = catalog_rb(name)
        assert check_rb_identity(R, 8, 16).passed, name
        assert check_skew_symmetry(R, 8).passed, name
    # one sign flip breaks the identity with an explicit counterexample
    # (the quiver operator is exempt: both sides of its identity vanish on
    # every pair of units, so no single sign flip can separate them)
    for name, unit in (("r1", (2, 0)), ("r2", (0, 1)), ("r3", (0, 2)),
                       ("r4", (1, 0)), ("ex1", (0, 0)), ("ex2", (1, 0))):
        rep = check_rb_identity(mutate_sign(catalog_rb(name), *unit), 5, 10)
        assert not rep.passed and rep.counterexample is not None, name
    repk = check_rb_identity(mutate_sign(catalog_rb("kac", N=2), 2, 0), 3, 6)
    assert not repk.passed and repk.counterexample is not None


def test_criterion_2_correspondence_suite():
    for op_name, br_name in (("r1", "L1"), ("r2", "L2"), ("r3", "L3"),
                             ("r4", "L4")):
        B = bracket_from_rb(catalog_rb(op_name))
        for n in range(13):
            for m in range(13):
                assert B.eval(tsym(n), tsym(m)) == \
                    divided_difference(br_name, n, m), (op_name, n, m)
    # on the integers r2's correspondence sums are finite as well
    B = bracket_from_rb(catalog_rb("r2_laurent"))
    L2 = catalog_bracket("L2_laurent")
    for n in range(-8, 9):
        for m in range(-8, 9):
            assert B.eval(tsym(n), tsym(m)) == L2.eval(tsym(n), tsym(m)), \
                (n, m)
    for name in ("ex1", "ex2", "quiver"):
        R = catalog_rb(name)
        back = rb_from_bracket(bracket_from_rb(R), R.domain.size)
        d = R.domain.size
        for i in range(d):
            for j in range(d):
                for p in range(d):
                    for q in range(d):
                        assert back.image(i, j).entry(p, q) == \
                            R.image(i, j).entry(p, q)
    rng = random.Random(2024)
    u = 4 * 4
    for name in ("r1", "r2", "r3", "r4"):
        R = catalog_rb(name)
        for _ in range(20):
            change = _random_unimodular(rng, u)
            assert check_basis_independence(R, 3, change).passed, name


def _random_unimodular(rng, u):
    low = [[Fraction(int(i == j)) for j in range(u)] for i in range(u)]
    up = [[Fraction(int(i == j)) for j in range(u)] for i in range(u)]
    for i in range(u):
        for j in range(i):
            low[i][j] = Fraction(rng.randint(-2, 2))
            up[j][i] = Fraction(rng.randint(-2, 2))
    return [[sum(low[i][k] * up[k][j] for k in range(u)) for j in range(u)]
            for i in range(u)]


def test_criterion_3_identity_suite():
    for name in ("L1", "L2", "L3", "L4"):
        B = catalog_bracket(name)
        assert check_anticommutativity(B, 10).passed, name
        assert check_jacobi(B, 10).passed, name
    for N in (1, 2, 3):
        dY = catalog_bracket("dY", N=N)
        assert check_anticommutativity(dY, 5).passed, N
        assert check_jacobi(dY, 5).passed, N
    assert check_leibniz(catalog_bracket("L1"), 8).passed
    assert check_leibniz(catalog_bracket("L4"), 8).passed
    for name in ("L2", "L3"):
        rep = check_leibniz(catalog_bracket(name), 8)
        assert not rep.passed, name
        assert rep.counterexample is not None, name


def test_criterion_4_trace_functional_suite():
    for name in ("ex1", "ex2", "quiver"):
        assert verify_trace_functional_identities(catalog_rb(name)).passed
    for name in ("r1", "r2"):
        assert verify_trace_functional_identities(catalog_rb(name), 6).passed


def test_criterion_5_matrix_polynomial_suite():
    for N in (2, 3):
        table = catalog_bracket("dY", N=N)
        from_op = bracket_from_rb(catalog_rb("kac", N=N))
        for n in range(7):
            for m in range(7):
                for i in range(1, N + 1):
                    for j in range(1, N + 1):
                        s1, s2 = ysym(n, i, j), ysym(m, j, i)
                        assert table.eval(s1, s2) == from_op.eval(s1, s2)
    # the one-by-one table degenerates to the plain polynomial carrier
    table1 = catalog_bracket("dY", N=1)
    from_op1 = bracket_from_rb(catalog_rb("kac", N=1))
    for n in range(7):
        for m in range(7):
            got = {(tsym(a[1][0]), tsym(b[1][0])): c for (a, b), c in
                   table1.eval(ysym(n, 1, 1), ysym(m, 1, 1)).items()}
            want = dict(from_op1.eval(tsym(n), tsym(m)).items())
            assert got == want, (n, m)
    # typo audit for the upper-triangular images: the published inline
    # sequence starts e_{0,d}, then a middle term whose column reads d-1,
    # then ends at e_{i-1, d+i-2}.  Only the column-increasing reading
    # (e_{k, d+k} with d = j-i+1) matches the tensor extension; the
    # column-decreasing reading of the middle term does not.
    K = catalog_rb("kac", N=2)
    audit = {"increasing": True, "decreasing": True}
    for i in range(7):
        for j in range(i, 7):
            d = j - i + 1
            img = K.image(i, j)
            inc = {(k, d + k): -1 for k in range(i)}
            dec = {(k, d - k): -1 for k in range(i) if d - k >= 0}
            for a in range(14):
                for b in range(14):
                    if img.entry(a, b) != inc.get((a, b), 0):
                        audit["increasing"] = False
                    if img.entry(a, b) != dec.get((a, b), 0):
                        audit["decreasing"] = False
    assert audit == {"increasing": True, "decreasing": False}


def test_criterion_6_simplicity_suite():
    assert theorem3_replay(20).passed
    rep = simplicity_probe(catalog_bracket("L2"), 20, seed_count=50)
    assert rep.passed
    assert rep.params["guaranteed_degree"] == 9
    # the two-dimensional catalog brackets are not simple: each has an
    # exhibited one-dimensional ideal
    for name, k in (("ex1", 2), ("ex2", 1)):
        B = catalog_bracket(name)
        I = Subspace.from_vectors(B.carrier, None, [Vec.basis(esym(k))])
        assert is_ideal(B, I, 2).passed, name
        assert not simplicity_probe(B, 2, seeds=[Vec.basis(esym(k))]).passed


def _projected(R, n):
    """R cut to the block M_n: R(e_ij) becomes P_n R(e_ij) P_n with
    P_n = e_00 + ... + e_{n-1,n-1}, read on the finite domain."""
    dom = Domain.finite(n)
    p = FinitaryMatrix({(k, k): 1 for k in range(n)})

    def image_fn(i, j):
        cut = mul_mixed(mul_mixed(p, R.image(i, j)), p)
        return FinitaryMatrix(cut.entries, dom)

    return RBOperator("%s|block%d" % (R.name, n), dom, image_fn)


def test_criterion_7_projection_suite():
    for n in range(1, 9):
        proj1 = _projected(catalog_rb("r1"), n)
        assert check_rb_identity(proj1, n).passed, n
        assert check_skew_symmetry(proj1, n).passed, n
        # the second operator's block is the transposed conjugate of the
        # first one's block by the index-reversal permutation
        proj2 = _projected(catalog_rb("r2"), n)
        reversal = [n - 1 - i for i in range(n)]
        rel = conjugate_by(conjugate_by(proj1, reversal), "transpose")
        for i in range(n):
            for j in range(n):
                for a in range(n):
                    for b in range(n):
                        assert proj2.image(i, j).entry(a, b) == \
                            rel.image(i, j).entry(a, b), (n, i, j)


def test_criterion_8_shift_and_derivation_suite():
    assert remark3_suite(12).passed
    p1, r2 = build_pk(1), catalog_rb("r2")
    for i in range(13):
        for j in range(13):
            a_img, b_img = p1.image(i, j), r2.image(i, j)
            for a in range(26):
                for b in range(26):
                    assert a_img.entry(a, b) == b_img.entry(a, b), (i, j)
    for k in (2, 3):
        pk = build_pk(k)
        assert check_rb_identity(pk, 8, 16).passed, k
        assert check_skew_symmetry(pk, 8).passed, k


def test_criterion_9_module_suite():
    for name, cut in (("L3", 1), ("L1", 2)):
        B = catalog_bracket(name)
        I = Subspace.degree_span(B.carrier, 10, cut)
        act, B_L = induced_module_from_ideal(B, I, 10)
        assert check_module_axioms(act, B_L).passed, name
    L1 = catalog_bracket("L1")
    I = Subspace.degree_span(L1.carrier, 10, 2)
    Q = quotient_bracket(L1, I, 10)
    phi = {tsym(1): Vec.basis(esym(1)), tsym(0): Vec.basis(esym(2))}
    assert check_homomorphism(Q, catalog_bracket("ex1"), phi).passed
    act, B_L = induced_module_from_ideal(L1, Subspace.degree_span(
        L1.carrier, 8, 2), 8)
    rep = proposition_equivalence(B_L, act, mutations=20)
    assert rep.passed and rep.details["axiom_failures"] == 20
    # block bimodule correspondence on the catalog chain instance
    I3 = Subspace.degree_span(L1.carrier, 10, 3)
    B3 = quotient_bracket(L1, I3, 10)
    Iq = Subspace.from_vectors(B3.carrier, 4, [Vec.basis(tsym(2))])
    actb, B_Lb = induced_module_from_ideal(B3, Iq, 4)
    assert rb_bimodule_split_check(B_Lb, actb).passed
    for unit in ((1, 2), (2, 0)):
        bad = rb_bimodule_split_check(B_Lb, actb, mutate_unit=unit)
        assert not bad.passed
        assert bad.details["equivalent"]


REPORT_ALL_W6_SHA256 = \
    "2ce1bf3540aecfeae707240920675d97f43c1c0cf0e9bdc344008082f6775c85"


def test_criterion_10_deterministic_report(capsys):
    code1 = cli_main(["report", "--all", "--window", "6"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["report", "--all", "--window", "6"])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    # byte-identical to the recorded output; a deliberate change to the
    # report updates this digest and says why
    assert hashlib.sha256(out1.encode()).hexdigest() == REPORT_ALL_W6_SHA256
    recs = [json.loads(line) for line in out1.splitlines() if line]
    assert all(r["status"] == "pass" for r in recs)
    # a failing check embeds its counterexample in the structured record
    code3 = cli_main(["simplicity", "L1", "--window", "8", "--seeds", "3"])
    out3 = capsys.readouterr().out
    assert code3 == 1
    fail = json.loads(out3.splitlines()[0])
    assert fail["status"] == "fail" and fail["counterexample"]


# the report at the default window 8, and at window 12, where the naturals'
# clip reaches the moves and cut points that the RB sweeps read off the
# chamber tables
REPORT_ALL_SHA256 = {
    8: "03127c3532d70297f9d33021d03bcef3a33a2e890c6daf880b05b01245a0e712",
    12: "03f0f88aadd4351eb33d0ab5a20f47c5858008fa349593ffa653e11c6d16c5c1"}


@pytest.mark.parametrize("window", sorted(REPORT_ALL_SHA256))
def test_criterion_10_report_at_wider_windows(capsys, window):
    assert cli_main(["report", "--all", "--window", str(window)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        REPORT_ALL_SHA256[window]
