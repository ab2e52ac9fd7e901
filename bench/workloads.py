"""The three benchmark workloads: inputs from a seed, one timed pass, and
the known answers every verdict is checked against.

Each workload provides
  build(seed, quick)      -> inputs made from the seed (counted in setup_s);
  run(inputs, clock)      -> list of Verdict for one pass, each timed with
                             clock(); every catalog object is built afresh,
                             so no memo carries over from one pass to the
                             next;
  check(inputs, verdicts) -> (wrong, info): {verdict id: reason} for every
                             verdict that disagrees with its known answer,
                             and untimed diagnostics that are not gated.

A verdict is one exact check a user waits for, rendered the way the command
line renders it.  Known answers are recomputed outside the checkers where
the check produced a counterexample, so a checker cannot pass this
benchmark by reporting any failure at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction

from doublelie import brackets, cli, dmodules, ideals, rb
from doublelie.brackets import (DoubleBracket, catalog_bracket,
                                check_anticommutativity, check_jacobi,
                                rb_from_bracket)
from doublelie.dmodules import (extension_double_lie_check,
                                induced_module_from_ideal, mutate_action,
                                rb_bimodule_split_check,
                                trivial_extension_bracket)
from doublelie.exact import Vec, tsym
from doublelie.grammar import parse_sym, render_vec
from doublelie.ideals import (Subspace, ideal_closure, is_ideal,
                              quotient_bracket, random_polynomials,
                              simplicity_probe)
from doublelie.matrices import (Domain, FinitaryMatrix, StridedRayOperator,
                                mul_mixed)
from doublelie.rb import (catalog_rb, check_rb_identity, mutate_sign,
                          unit_range)


class Verdict:
    """One timed verdict: its rendered output, or the exception it raised.
    payload keeps what the known-answer check needs (never timed)."""

    __slots__ = ("id", "seconds", "reports", "output", "error", "payload")

    def __init__(self, vid, seconds, reports=(), output="", error=None,
                 payload=None):
        self.id = vid
        self.seconds = seconds
        self.reports = list(reports)
        self.output = output
        self.error = error
        self.payload = payload


def _timed(vid, fn, clock, payload=None):
    """Time fn() -> (output, reports, payload), rendering included; an
    exception becomes the verdict's error."""
    start = clock()
    try:
        output, reports, got = fn()
    except Exception as exc:  # a raising checker is a wrong verdict
        return Verdict(vid, clock() - start,
                       error="%s: %s" % (type(exc).__name__, exc),
                       payload=payload)
    return Verdict(vid, clock() - start, reports, output,
                   payload=payload if got is None else got)


def _rendered(reports):
    """Reports rendered as the CLI prints them, for _timed."""
    return "\n".join(rep.to_json() for rep in reports), reports, None


# ---------------------------------------------------------------------------
# battery: `doublelie report --all --window 6` through cli.main

BATTERY_WINDOW = 6
QUICK_BATTERY_WINDOW = 2

# The record-producing checkers of `report --all`, in the module whose
# attribute cli.py reads at call time.
_BATTERY_CHECKERS = (
    (rb, "check_rb_identity"), (rb, "check_skew_symmetry"),
    (rb, "remark3_suite"), (brackets, "check_anticommutativity"),
    (brackets, "check_jacobi"), (brackets, "check_leibniz"),
    (brackets, "check_bracket_relations"), (ideals, "theorem3_replay"),
    (dmodules, "check_module_axioms"), (dmodules, "rb_bimodule_split_check"),
)

# Known answer: the 62 records of `report --all`, in order, all passing.
# Targets of induced modules name the ideal's dimension, which follows the
# window, so "dim <n>" is compared without its number.
BATTERY_RECORDS = tuple(
    [(check, name) for name in ("r1", "r2", "r3", "r4", "ex1", "ex2",
                                "quiver", "kac(2)", "r1_laurent",
                                "r2_laurent", "p_1")
     for check in ("rb_identity", "skew_symmetry")]
    + [(check, name) for name in ("L1", "L2", "L3", "L4", "L1_laurent",
                                  "L2_laurent", "L3_laurent", "L4_laurent")
       for check in ("anticommutativity", "jacobi",
                     "leibniz_counterexample"
                     if name[:2] in ("L2", "L3") else "leibniz")]
    + [(check, name) for name in ("ex1", "ex2", "quiver")
       for check in ("anticommutativity", "jacobi")]
    + [("anticommutativity", "dY(2)"), ("jacobi", "dY(2)"),
       ("leibniz", "dY(2)"), ("remark3", "d,r2"),
       ("bracket_relations", "catalog"), ("theorem3_replay", "L2"),
       ("module_axioms", "L3-on-dim"), ("module_axioms", "L1-on-dim"),
       ("module_axioms", "L1/(dim)-on-dim"),
       ("rb_bimodule_split", "L1/(dim)-on-dim")])


def _normalise_target(target):
    return re.sub(r"dim ?\d+", "dim", target)


def build_battery(seed, quick):
    window = QUICK_BATTERY_WINDOW if quick else BATTERY_WINDOW
    return {"argv": ["report", "--all", "--window", str(window),
                     "--rng-seed", str(seed)]}


def run_battery(inputs, clock):
    """One `report --all` with stdout captured.  Each record's time is the
    time of the outermost checker call that produced it."""
    timings = []
    depth = [0]

    def timer(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    timings.append(clock() - start)
        return wrapper

    saved = [(mod, name, getattr(mod, name)) for mod, name in
             _BATTERY_CHECKERS]
    for mod, name, fn in saved:
        setattr(mod, name, timer(fn))
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(inputs["argv"]))
        if code not in (cli.EXIT_PASS, cli.EXIT_FAIL):
            error = "report --all exited with code %d" % code
    except Exception as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    lines = out.getvalue().splitlines()
    if error is not None or len(lines) != len(timings):
        error = error or ("%d records but %d checker calls"
                          % (len(lines), len(timings)))
        return [Verdict("record-%d" % k, 0.0, error=error)
                for k in range(len(BATTERY_RECORDS))]
    return [Verdict("record-%d" % k, seconds, output=line)
            for k, (seconds, line) in enumerate(zip(timings, lines))]


def check_battery(inputs, verdicts):
    wrong = {}
    for v, (check, target) in zip(verdicts, BATTERY_RECORDS):
        if v.error:
            continue
        rec = json.loads(v.output)
        got = (rec["check"], _normalise_target(rec["target"]))
        if got != (check, target):
            wrong[v.id] = "expected %s[%s], got %s[%s]" % (
                check, target, got[0], got[1])
        elif rec["status"] != "pass":
            wrong[v.id] = "%s[%s] failed: %s" % (
                check, target, rec.get("counterexample"))
    for v in verdicts[len(BATTERY_RECORDS):]:
        wrong[v.id] = "unexpected extra record"
    stdout = "".join(v.output + "\n" for v in verdicts)
    info = {"records": len(verdicts),
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return wrong, info


# ---------------------------------------------------------------------------
# closure_search: ideal_closure on L1, simplicity probes on L2 and L1

CLOSURE_WINDOW = 9
QUICK_CLOSURE_WINDOW = 5
# Seeds per degree, all with every lower coefficient nonzero.  A dense
# quadratic seed is the blow-up case (96 minimal closures at window 9, about
# 2.5 s on a 2-core Xeon); quartics cost about 0.45 s; degrees 7 and 8 yield
# the truncation artefacts of a closure span{f}.  Cubics are left out: by
# their coefficients they give 33 to 70 closures (0.5 to 1.8 s), which would
# make the pass time depend on the seed more than on the code.
CLOSURE_STRATA = {1: 2, 2: 1, 4: 4, 5: 3, 6: 2, 7: 2, 8: 2}
QUICK_CLOSURE_STRATA = {1: 1, 2: 1, 4: 1}
CLOSURE_BUDGET = 5000
# Closures are also re-checked at a larger window (not gated): a truncation
# artefact is an ideal at its own window but not at window + STABLE_DELTA.
STABLE_DELTA = 4


def build_closure_search(seed, quick):
    strata = QUICK_CLOSURE_STRATA if quick else CLOSURE_STRATA
    window = QUICK_CLOSURE_WINDOW if quick else CLOSURE_WINDOW
    picked = {d: [] for d in strata}
    for f in random_polynomials(40 * sum(strata.values()), max(strata), seed):
        degree = max(sym[1] for sym in f.terms)
        if degree in picked and len(f.terms) == degree + 1 \
                and len(picked[degree]) < strata[degree]:
            picked[degree].append(f)
    polys = [f for d in sorted(picked) for f in picked[d]]
    if len(polys) != sum(strata.values()):
        raise RuntimeError("seed %d drew too few dense polynomials" % seed)
    return {"window": window, "polys": polys}


def _closure_record(f, closures, exhausted, window):
    """The record `doublelie ideal closure` prints for these closures."""
    return json.dumps({"check": "ideal_closure", "target": "L1",
                       "seed": render_vec(f), "window": window,
                       "budget": CLOSURE_BUDGET,
                       "status": "budget-exhausted" if exhausted else "pass",
                       "closures": [[render_vec(v) for v in I.basis_vecs()]
                                    for I in closures]},
                      separators=(", ", ": "))


def run_closure_search(inputs, clock):
    window, polys = inputs["window"], inputs["polys"]

    def closure(f):
        closures, exhausted = ideal_closure(catalog_bracket("L1"), [f],
                                            window, CLOSURE_BUDGET)
        return (_closure_record(f, closures, exhausted, window), (),
                (f, closures, exhausted))

    out = []
    for k, f in enumerate(polys):
        out.append(_timed("closure-%d" % k, lambda: closure(f), clock))
    for name in ("L2", "L1"):
        out.append(_timed("probe-%s" % name, lambda: _rendered([
            simplicity_probe(catalog_bracket(name), window, seeds=polys,
                             budget=CLOSURE_BUDGET)]), clock))
    return out


def check_closure_search(inputs, verdicts):
    window = inputs["window"]
    wrong = {}
    L1 = catalog_bracket("L1")
    closures_total = stable = 0
    for v in verdicts:
        if v.error:
            continue
        if v.id.startswith("probe-"):
            rep = v.reports[0]
            if v.id == "probe-L2" and not rep.passed:
                wrong[v.id] = "L2 is simple but the probe failed: %s" % (
                    rep.counterexample,)
            if v.id == "probe-L1" and (rep.passed or not rep.counterexample
                                       or "missing" not in rep.counterexample):
                wrong[v.id] = "L1 is not simple but the probe gave %s" % (
                    rep.to_json(),)
            continue
        f, closures, exhausted = v.payload
        if exhausted or not closures:
            wrong[v.id] = "no closure within the budget"
            continue
        for I in closures:
            if not I.contains(f):
                wrong[v.id] = "a closure misses its seed"
            elif not is_ideal(L1, I, window).passed:
                wrong[v.id] = "a closure is not an ideal at window %d" % window
            if v.id in wrong:
                break
            big = Subspace.from_vectors(L1.carrier, window + STABLE_DELTA,
                                        I.basis_vecs())
            closures_total += 1
            stable += is_ideal(L1, big, window + STABLE_DELTA).passed
    info = {"closures": closures_total,
            "ideal_at_window_plus_%d" % STABLE_DELTA: stable}
    return wrong, info


# ---------------------------------------------------------------------------
# mutants: single-sign corruptions that every checker must reject

# (catalog name, parameters, window swept; the flipped unit lies in it)
RB_FAMILIES = (("r1", {}, 4), ("r2", {}, 4), ("r3", {}, 4), ("r4", {}, 4),
               ("kac", {"N": 2}, 4), ("r1_laurent", {}, 3),
               ("r2_laurent", {}, 3), ("p_k", {"k": 2}, 4),
               ("p_k", {"k": 3}, 4))
BRACKET_FAMILIES = ("L1", "L2", "L3", "L4", "L1_laurent", "L2_laurent",
                    "L3_laurent", "L4_laurent")
BRACKET_WINDOW = 3
ACTION_WINDOW = 8
# Known answer for the block bimodule: flipping R on these units breaks the
# block correspondence.  The other units either have a zero image or, for
# (2, 2), leave all four statements true (confirmed by _split_flags).
BIMODULE_UNITS = ((1, 0), (1, 1), (1, 2), (2, 0))
ACTION_MUTANTS = 24


def documented_raise(v):
    """The one raise the known answers allow: mutate_sign on p_k (k >= 2)
    raises AttributeError because StridedRayOperator has no scale.  Such a
    verdict agrees with its known answer, so it is not in the result's
    failed, but it counts in wrong_verdict_share; any other raise is a wrong
    verdict.  Once mutate_sign works on p_k, these mutants are checked like
    every other rb mutant."""
    return (v.error is not None and v.id.startswith("rb-")
            and v.payload[1][0] == "p_k"
            and v.error.startswith("AttributeError:")
            and "'StridedRayOperator'" in v.error and "'scale'" in v.error)


def _draw(rng, pool, quick):
    """One mutant from each consecutive pair of the pool, which lists units
    in the checker's sweep order (one in all when quick).  A verdict's cost
    is set by how far the sweep runs before the flip shows, so drawing
    evenly along the sweep keeps the cost of a pass nearly independent of
    the seed (a plain half-sample moved it by up to 15%)."""
    if quick:
        return [rng.choice(pool)]
    return [rng.choice(pool[k:k + 2]) for k in range(0, len(pool), 2)]


def build_mutants(seed, quick):
    """Seeded mutant specs.  Units and pairs are drawn among those with a
    nonzero value, so every flip changes the structure."""
    rng = random.Random(seed)
    specs = []
    for name, params, window in RB_FAMILIES:
        R = catalog_rb(name, **params)
        idx = unit_range(R.domain, window)
        units = [(i, j) for i in idx for j in idx
                 if isinstance(R.image(i, j), StridedRayOperator)
                 or R.image(i, j)]
        for unit in _draw(rng, units, quick):
            specs.append(("rb", (name, params, window, unit)))
    for name in BRACKET_FAMILIES:
        B = catalog_bracket(name)
        syms = B.carrier.window_syms(BRACKET_WINDOW)
        pairs = [(a, b) for a in syms for b in syms if B.eval(a, b)]
        for pair in _draw(rng, pairs, quick):
            specs.append(("bracket", (name, pair)))
    for k in range(2 if quick else ACTION_MUTANTS):
        specs.append(("action", (rng.randrange(1000), rng.randrange(10),
                                 bool(k % 2))))
    for unit in BIMODULE_UNITS[:1] if quick else BIMODULE_UNITS:
        specs.append(("bimodule", unit))
    return {"specs": specs}


def _flipped_bracket(B, a, b):
    def eval_fn(s1, s2):
        value = B.eval(s1, s2)
        return value.scale(-1) if (s1, s2) == (a, b) else value
    return DoubleBracket("%s!flip" % B.name, B.carrier, eval_fn,
                         B.degree_shift)


def _action_instance():
    """The module of t^2 F[t] under L1 / t^2 F[t] (acceptance criterion 9)."""
    L1 = catalog_bracket("L1")
    return induced_module_from_ideal(
        L1, Subspace.degree_span(L1.carrier, ACTION_WINDOW, 2), ACTION_WINDOW)


def _bimodule_instance():
    """The catalog block-bimodule instance, as `module check` builds it."""
    L1 = catalog_bracket("L1")
    B3 = quotient_bracket(L1, Subspace.degree_span(L1.carrier, 10, 3), 10)
    Iq = Subspace.from_vectors(B3.carrier, 4, [Vec.basis(tsym(2))])
    return induced_module_from_ideal(B3, Iq, 4)


def _mutant(kind, spec, instances):
    """A fresh mutant wrapper for a spec, and the checks its verdict runs."""
    if kind == "rb":
        name, params, window, unit = spec
        R = mutate_sign(catalog_rb(name, **params), *unit)
        return R, lambda: [check_rb_identity(R, window, 2 * window)]
    if kind == "bracket":
        name, (a, b) = spec
        B = _flipped_bracket(catalog_bracket(name), a, b)

        def checks():
            rep = check_anticommutativity(B, BRACKET_WINDOW)
            return [rep] if not rep.passed else \
                [rep, check_jacobi(B, BRACKET_WINDOW)]
        return B, checks
    if kind == "action":
        act, B_L = instances["action"]
        pair, term, keep_skew = spec
        mut = mutate_action(act, pair, term, preserve_skew=keep_skew)
        return mut, lambda: [dmodules.check_module_axioms(mut, B_L),
                             extension_double_lie_check(B_L, mut)]
    act, B_L = instances["bimodule"]
    return spec, lambda: [rb_bimodule_split_check(B_L, act,
                                                  mutate_unit=spec)]


def run_mutants(inputs, clock):
    instances = {"action": _action_instance(),
                 "bimodule": _bimodule_instance()}
    out = []
    for k, (kind, spec) in enumerate(inputs["specs"]):
        out.append(_timed("%s-%d" % (kind, k), lambda: _rendered(
            _mutant(kind, spec, instances)[1]()), clock, payload=(kind, spec)))
    return out


# ---- replay: recompute each counterexample outside the checker -----------

def _rows(vec):
    """Render a Vec over ("u", r) as rb renders {row: coeff}."""
    return " + ".join("%s*u_%d" % (c, r) for (_, r), c in
                      sorted(vec.terms.items())) or "0"


def _unit(text):
    i, j = re.fullmatch(r"e\[(-?\d+),(-?\d+)\]", text).groups()
    return int(i), int(j)


def _replay_rb(R, ce):
    """R(x)R(y) u_q against R(R(x)y + xR(y)) u_q, by operator products."""
    (i, j), (k, l), q = _unit(ce["x"]), _unit(ce["y"]), ce["q"]
    dom = R.domain
    Rx, Ry = R.image(i, j), R.image(k, l)
    u = Vec.basis(("u", q))
    lhs = Rx.apply(Ry.apply(u))
    operand = mul_mixed(Rx, FinitaryMatrix.unit(k, l, dom)) \
        + mul_mixed(FinitaryMatrix.unit(i, j, dom), Ry)
    rhs = Vec()
    for (a, b), c in operand.entries.items():
        rhs = rhs + R.image(a, b).apply(u).scale(c)
    return lhs != rhs and _rows(lhs) == ce["lhs"] and _rows(rhs) == ce["rhs"]


def _skew_defect(B, a, b):
    terms = dict(B.eval(a, b).terms)
    for (x, y), c in B.eval(b, a).terms.items():
        terms[(y, x)] = terms.get((y, x), 0) + c
    return {key: c for key, c in terms.items() if c}


def _jacobi_defect(B, a, b, c):
    """<<a,<<b,c>>>>_L - <<b,<<a,c>>>>_R - <<<<a,b>>,c>>_L term by term, in
    the slot conventions of Van den Bergh's double Jacobi identity."""
    J = {}

    def add(key, value):
        J[key] = J.get(key, 0) + value

    for (b1, b2), cb in B.eval(b, c).terms.items():
        for (x, y), cx in B.eval(a, b1).terms.items():
            add((x, y, b2), cb * cx)
    for (x, y), cx in B.eval(a, c).terms.items():
        for (p, q), cp in B.eval(b, y).terms.items():
            add((x, p, q), -cx * cp)
    for (x, y), cx in B.eval(a, b).terms.items():
        for (z1, z2), cz in B.eval(x, c).terms.items():
            add((z1, y, z2), -cx * cz)
    return {key: v for key, v in J.items() if v}


def _replay_bracket(B, rep):
    ce = rep.counterexample
    if rep.check == "anticommutativity":
        return bool(_skew_defect(B, parse_sym(ce["a"]), parse_sym(ce["b"])))
    if rep.check == "jacobi":
        defect = _jacobi_defect(B, *(parse_sym(ce[k]) for k in "abc"))
        term, coeff = ce["defect_term"].split(" -> ")
        key = tuple(parse_sym(s) for s in term.split(" (x) "))
        return defect.get(key) == Fraction(coeff)
    return False


def _replay_module(act, B_L, ce):
    axiom = ce["axiom"]
    if axiom == "action skew symmetry":
        return bool(_skew_defect(act, parse_sym(ce["l"]), parse_sym(ce["m"])))
    E = trivial_extension_bracket(B_L, act)
    if axiom == "module compatibility":
        return bool(_jacobi_defect(E, *(parse_sym(ce[k])
                                        for k in ("m1", "m2", "l"))))
    if axiom == "mixed Jacobi":
        return bool(_jacobi_defect(E, *(parse_sym(ce[k])
                                        for k in ("l1", "l2", "m"))))
    if axiom == "mixed-output constraint":
        s1, s2 = (parse_sym(s) for s in ce["pair"].split(", "))
        return act.split_violation(act.eval(s1, s2)) is not None
    return False


def _split_flags(R, n, dim):
    """The four statements of the block correspondence for an operator R on
    dim x dim matrices whose first n indices form the algebra block,
    computed with FinitaryMatrix products."""
    dom = Domain.finite(dim)

    def in_A(i, j):
        return (i < n) == (j < n)

    units = [(i, j) for i in range(dim) for j in range(dim)]
    img = {u: R.image(*u).to_finitary() for u in units}
    unit = {u: FinitaryMatrix.unit(u[0], u[1], dom) for u in units}

    def R_of(x):
        out = FinitaryMatrix.zero(dom)
        for u, c in x.entries.items():
            out = out + img[u].scale(c)
        return out

    def b_part(x):
        return FinitaryMatrix({u: c for u, c in x.entries.items()
                               if not in_A(*u)}, dom)

    def semi(x, y):
        return mul_mixed(x, y) - mul_mixed(b_part(x), b_part(y))

    def rb_holds(mul, xs, ys):
        return all(mul(img[x], img[y]) ==
                   R_of(mul(img[x], unit[y]) + mul(unit[x], img[y]))
                   for x in xs for y in ys)

    A = [u for u in units if in_A(*u)]
    Bs = [u for u in units if not in_A(*u)]
    flags = {
        "a_rb_on_A": all(in_A(*p) for u in A for p in img[u].entries)
        and rb_holds(mul_mixed, A, A),
        "b_B_invariant": all(not in_A(*p) for u in Bs
                             for p in img[u].entries),
        "c_bimodule_equalities": rb_holds(mul_mixed, A, Bs)
        and rb_holds(mul_mixed, Bs, A),
        "d_rb_on_semidirect": rb_holds(semi, units, units),
    }
    flags["equivalent"] = flags["d_rb_on_semidirect"] == (
        flags["a_rb_on_A"] and flags["b_B_invariant"]
        and flags["c_bimodule_equalities"])
    return flags


def _replay_bimodule(instance, unit, ce):
    act, B_L = instance
    n = len(act.l_syms)
    dim = n + len(act.m_syms)
    R = mutate_sign(rb_from_bracket(trivial_extension_bracket(B_L, act),
                                    dim), *unit)
    failing = {k for k, ok in _split_flags(R, n, dim).items() if not ok}
    return failing == set(ce)


def check_mutants(inputs, verdicts):
    instances = {"action": _action_instance(),
                 "bimodule": _bimodule_instance()}
    wrong = {}
    for v in verdicts:
        if v.error:
            continue
        kind, spec = v.payload
        rep = v.reports[-1]
        # a flipped bracket may pass anticommutativity and fail Jacobi; an
        # action mutant must fail both the axioms and the extension check
        rejected = [r for r in v.reports if not r.passed]
        if rep.passed or (kind == "action" and len(rejected) < 2):
            wrong[v.id] = "mutant %r accepted" % (spec,)
            continue
        if any(r.counterexample is None for r in rejected):
            wrong[v.id] = "rejected without a counterexample"
            continue
        fresh, _checks = _mutant(kind, spec, instances)
        if kind == "rb":
            ok = _replay_rb(fresh, rep.counterexample)
        elif kind == "bracket":
            ok = _replay_bracket(fresh, rep)
        elif kind == "action":
            axioms, extension = v.reports
            ok = (_replay_module(fresh, instances["action"][1],
                                 axioms.counterexample)
                  and _replay_bracket(trivial_extension_bracket(
                      instances["action"][1], fresh), extension))
        else:
            ok = _replay_bimodule(instances["bimodule"], spec,
                                  rep.counterexample)
        if not ok:
            wrong[v.id] = "counterexample does not replay: %s" % (
                rep.counterexample,)
    info = {"mutants": len(verdicts)}
    return wrong, info


WORKLOADS = {
    "battery": (build_battery, run_battery, check_battery),
    "closure_search": (build_closure_search, run_closure_search,
                       check_closure_search),
    "mutants": (build_mutants, run_mutants, check_mutants),
}
