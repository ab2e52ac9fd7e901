"""Command-line front end: catalog listing, identity verification, bracket
evaluation, ideal and simplicity runs, module checks, and batch reports.

Output is either human-readable text or line-delimited JSON records, one
record per check, in a canonical order with no wall-clock data, so identical
invocations produce byte-identical structured output.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input error,
3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brackets import CATALOG_BRACKET_NAMES, catalog_bracket
from .dmodules import induced_module_from_ideal
from .exact import Vec, tsym
from .grammar import parse_poly, render_tensor2, render_vec
from .ideals import Subspace, ideal_closure, quotient_bracket
from .rb import CATALOG_RB_NAMES, catalog_rb
from .report import VerificationReport

# The checkers are imported where they are called, so that a wrapper set on
# a checker's module attribute (a timer, a tracer) sees every call.

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class InputError(Exception):
    pass


class BudgetError(Exception):
    pass


# ---------------------------------------------------------------------------
# target registries

def _module_instances():
    """Catalog module instances by name; built lazily per call."""
    def poly_tail(name, cut, window):
        B = catalog_bracket(name)
        I = Subspace.degree_span(B.carrier, window, cut)
        return induced_module_from_ideal(B, I, window)

    def bimodule_instance():
        L1 = catalog_bracket("L1")
        I3 = Subspace.degree_span(L1.carrier, 10, 3)
        B3 = quotient_bracket(L1, I3, 10)
        Iq = Subspace.from_vectors(B3.carrier, 4, [Vec.basis(tsym(2))])
        return induced_module_from_ideal(B3, Iq, 4)

    return {
        "tpoly-under-third": lambda window: poly_tail("L3", 1, window),
        "t2poly-under-first": lambda window: poly_tail("L1", 2, window),
        "block-bimodule": lambda window: bimodule_instance(),
    }


MODULE_NAMES = ("tpoly-under-third", "t2poly-under-first", "block-bimodule")


# ---------------------------------------------------------------------------
# emission

def _emit(reports, fmt, extra=None):
    failed = False
    for rep in reports:
        if extra:
            rep.params.update(extra)
        if fmt == "structured":
            print(rep.to_json())
        else:
            print(rep.summary_line())
        failed = failed or not rep.passed
    return EXIT_FAIL if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# commands

def _cmd_catalog_list(args):
    records = [("operator", n) for n in CATALOG_RB_NAMES]
    records += [("bracket", n) for n in CATALOG_BRACKET_NAMES]
    records += [("module", n) for n in MODULE_NAMES]
    for kind, name in records:
        if args.format == "structured":
            print(json.dumps({"kind": kind, "name": name},
                             separators=(", ", ": ")))
        else:
            print("%-8s %s" % (kind, name))
    return EXIT_PASS


def _verify_operator(name, window, cutoff):
    from .rb import check_rb_identity, check_skew_symmetry
    R = catalog_rb(name)
    lw = min(window, 8) if name.endswith("_laurent") else window
    return [check_rb_identity(R, lw, cutoff),
            check_skew_symmetry(R, lw)]


# Brackets that are known not to obey the Leibniz rule: for these the
# battery verifies that a counterexample is exhibited, since failing Leibniz
# does not disqualify a double Lie algebra (the rule only enters for the
# double Poisson refinement).
_LEIBNIZ_FAILERS = ("L2", "L3", "L2_laurent", "L3_laurent")


def _verify_bracket(name, window):
    from .brackets import check_anticommutativity, check_jacobi, check_leibniz
    B = catalog_bracket(name)
    syms = B.carrier.window_syms(window)
    out = [check_anticommutativity(B, window), check_jacobi(B, window)]
    if syms and B.carrier.product(syms[0], syms[0]) is not None:
        rep = check_leibniz(B, min(window, 8))
        if name in _LEIBNIZ_FAILERS:
            exhibited = (not rep.passed) and rep.counterexample is not None
            if exhibited:
                rep = VerificationReport.success(
                    "leibniz_counterexample", name, rep.params,
                    details=rep.counterexample)
            else:
                rep = VerificationReport.failure(
                    "leibniz_counterexample", name,
                    {"reason": "expected a Leibniz counterexample but the "
                               "rule held on the window"}, rep.params)
        out.append(rep)
    return out


def _cmd_verify(args):
    window, cutoff = args.window, args.cutoff
    if cutoff is None:
        cutoff = 2 * window
    if window > cutoff:
        raise InputError("window %d exceeds cutoff %d" % (window, cutoff))
    name = args.target
    if name in CATALOG_RB_NAMES:
        reports = _verify_operator(name, window, cutoff)
    elif name in CATALOG_BRACKET_NAMES:
        reports = _verify_bracket(name, window)
    else:
        raise InputError("unknown target %r (see: catalog list)" % name)
    return _emit(reports, args.format)


def _cmd_bracket_eval(args):
    try:
        B = catalog_bracket(args.name)
    except ValueError as exc:
        raise InputError(str(exc))
    try:
        s1, s2 = B.carrier.sym(args.n), B.carrier.sym(args.m)
    except (ValueError, IndexError) as exc:
        raise InputError("basis index out of range: %s" % exc)
    value = render_tensor2(B.eval(s1, s2))
    if args.format == "structured":
        print(json.dumps({"check": "bracket_eval", "target": args.name,
                          "n": args.n, "m": args.m, "value": value},
                         separators=(", ", ": ")))
    else:
        print(value)
    return EXIT_PASS


def _parse_seed_poly(text):
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise InputError("malformed polynomial %r: %s" % (text, exc))


def _cmd_ideal_closure(args):
    if args.bracket not in CATALOG_BRACKET_NAMES:
        raise InputError("unknown bracket %r" % args.bracket)
    B = catalog_bracket(args.bracket)
    seed = _parse_seed_poly(args.seed)
    if not set(seed.terms) <= set(B.carrier.window_syms(args.window)):
        raise InputError("seed %r has terms outside window %d of %s"
                         % (args.seed, args.window, args.bracket))
    closures, exhausted = ideal_closure(B, [seed], args.window, args.budget)
    record = {"check": "ideal_closure", "target": args.bracket,
              "seed": args.seed, "window": args.window,
              "budget": args.budget,
              "status": "budget-exhausted" if exhausted else "pass",
              "closures": [[render_vec(v) for v in I.basis_vecs()]
                           for I in closures]}
    if args.format == "structured":
        print(json.dumps(record, separators=(", ", ": ")))
    else:
        print("closures: %d%s" % (len(closures),
                                  "  (budget exhausted)" if exhausted else ""))
        for basis in record["closures"]:
            print("  span{%s}" % ", ".join(basis))
    if exhausted:
        raise BudgetError("closure budget exhausted")
    return EXIT_PASS


def _cmd_simplicity(args):
    from .ideals import simplicity_probe
    if args.bracket not in CATALOG_BRACKET_NAMES:
        raise InputError("unknown bracket %r" % args.bracket)
    B = catalog_bracket(args.bracket)
    rep = simplicity_probe(B, args.window, seed_count=args.seeds,
                           max_degree=args.max_degree,
                           rng_seed=args.rng_seed, budget=args.budget)
    if not rep.passed and rep.counterexample and \
            rep.counterexample.get("reason") == "budget exhausted":
        _emit([rep], args.format)
        raise BudgetError("closure budget exhausted")
    return _emit([rep], args.format)


def _cmd_module_check(args):
    from .dmodules import (check_module_axioms, proposition_equivalence,
                           rb_bimodule_split_check)
    instances = _module_instances()
    if args.name not in instances:
        raise InputError("unknown module instance %r (have: %s)"
                         % (args.name, ", ".join(MODULE_NAMES)))
    act, B_L = instances[args.name](args.window)
    reports = [check_module_axioms(act, B_L, args.window)]
    if args.name == "block-bimodule":
        reports.append(rb_bimodule_split_check(B_L, act))
    elif any(act.eval(l, m) for l in act.l_syms for m in act.m_syms):
        reports.append(proposition_equivalence(B_L, act, mutations=5,
                                               rng_seed=args.rng_seed))
    return _emit(reports, args.format)


def _cmd_report_all(args):
    """Canonical battery over the whole catalog at the given window."""
    window = args.window
    reports = []
    for name in CATALOG_RB_NAMES:
        reports.extend(_verify_operator(name, min(window, 6),
                                        2 * min(window, 6)))
    for name in CATALOG_BRACKET_NAMES:
        reports.extend(_verify_bracket(name, min(window, 6)))
    from .rb import remark3_suite
    reports.append(remark3_suite(window))
    from .brackets import check_bracket_relations
    reports.append(check_bracket_relations(window))
    from .ideals import theorem3_replay
    reports.append(theorem3_replay(max(window, 6), rng_seed=args.rng_seed))
    instances = _module_instances()
    from .dmodules import check_module_axioms, rb_bimodule_split_check
    for name in MODULE_NAMES:
        act, B_L = instances[name](max(window, 4))
        reports.append(check_module_axioms(act, B_L))
        if name == "block-bimodule":
            reports.append(rb_bimodule_split_check(B_L, act))
    return _emit(reports, args.format, extra={"rng_seed": args.rng_seed})


# ---------------------------------------------------------------------------
# argument parsing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="doublelie",
        description="Exact verification of double Lie algebra structures "
                    "and their Rota-Baxter operators.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="structured",
                        help="output mode (default: structured JSON lines)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="catalog access")
    ps = p.add_subparsers(dest="subcommand", required=True)
    ps.add_parser("list", help="list catalog names",
                  parents=[common]).set_defaults(func=_cmd_catalog_list)

    p = sub.add_parser("verify", help="verify an operator or bracket",
                       parents=[common])
    p.add_argument("target")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bracket", help="bracket operations")
    ps = p.add_subparsers(dest="subcommand", required=True)
    pe = ps.add_parser("eval", help="evaluate a bracket on basis indices",
                       parents=[common])
    pe.add_argument("name")
    pe.add_argument("n", type=int)
    pe.add_argument("m", type=int)
    pe.set_defaults(func=_cmd_bracket_eval)

    p = sub.add_parser("ideal", help="ideal operations")
    ps = p.add_subparsers(dest="subcommand", required=True)
    pc = ps.add_parser("closure", help="minimal ideal closure of a seed",
                       parents=[common])
    pc.add_argument("bracket")
    pc.add_argument("--seed", required=True, metavar="POLY",
                    help='seed polynomial, e.g. "t^2 - 3/2*t + 1"')
    pc.add_argument("--window", type=int, default=8)
    pc.add_argument("--budget", type=int, default=5000)
    pc.set_defaults(func=_cmd_ideal_closure)

    p = sub.add_parser("simplicity", help="window-relative simplicity probe",
                       parents=[common])
    p.add_argument("bracket")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--rng-seed", type=int, default=2024)
    p.add_argument("--budget", type=int, default=5000)
    p.set_defaults(func=_cmd_simplicity)

    p = sub.add_parser("module", help="module operations")
    ps = p.add_subparsers(dest="subcommand", required=True)
    pm = ps.add_parser("check", help="check a catalog module instance",
                       parents=[common])
    pm.add_argument("name")
    pm.add_argument("--window", type=int, default=8)
    pm.add_argument("--rng-seed", type=int, default=2024)
    pm.set_defaults(func=_cmd_module_check)

    p = sub.add_parser("report", help="batch verification report",
                       parents=[common])
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--rng-seed", type=int, default=2024)
    p.set_defaults(func=_cmd_report_all)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "window", 0) < 0:
            raise InputError("window must be nonnegative, got %d"
                             % args.window)
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
