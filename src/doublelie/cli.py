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
import functools
import os
import sys

from .brackets import CATALOG_BRACKET_NAMES, catalog_bracket
from .dmodules import induced_module_from_ideal
from .exact import Vec, tsym
from .grammar import parse_poly, render_tensor2, render_vec
from .ideals import Subspace, ideal_closure, quotient_bracket
from .rb import CATALOG_RB_NAMES, catalog_rb
from .report import VerificationReport, json_line

# The checkers are imported where they are called, so that a wrapper set on
# a checker's module attribute (a timer, a tracer) sees every call.

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# module registry

def _poly_tail(name, cut, window):
    B = catalog_bracket(name)
    I = Subspace.degree_span(B.carrier, window, cut)
    return induced_module_from_ideal(B, I, window)


def _block_bimodule(window):
    """Built at the fixed windows 10 and 4, whatever the window asked."""
    L1 = catalog_bracket("L1")
    I3 = Subspace.degree_span(L1.carrier, 10, 3)
    B3 = quotient_bracket(L1, I3, 10)
    Iq = Subspace.from_vectors(B3.carrier, 4, [Vec.basis(tsym(2))])
    return induced_module_from_ideal(B3, Iq, 4)


# Catalog module instances by name, each built per call from a window
MODULES = {
    "tpoly-under-third": lambda window: _poly_tail("L3", 1, window),
    "t2poly-under-first": lambda window: _poly_tail("L1", 2, window),
    "block-bimodule": _block_bimodule,
}


# ---------------------------------------------------------------------------
# emission

def _output(args, lines, code=EXIT_PASS):
    """Print the lines and return the exit code, which is kept on args
    first: main returns it also when the reader closes stdout early.  The
    flush makes a closed reader show here, not at the interpreter's final
    flush; a budget exit then says so on stderr."""
    args.exit_code = code
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code == EXIT_BUDGET:
        print("budget exhausted: closure budget exhausted", file=sys.stderr)
    return code


def _emit(args, reports, code=None):
    """Print one line per report; the exit code is code, or else whether
    every report passed."""
    lines = [rep.to_json() if args.format == "structured"
             else rep.summary_line() for rep in reports]
    if code is None:
        code = EXIT_PASS if all(rep.passed for rep in reports) else EXIT_FAIL
    return _output(args, lines, code)


# ---------------------------------------------------------------------------
# commands

def _cmd_catalog_list(args):
    records = [("operator", n) for n in CATALOG_RB_NAMES]
    records += [("bracket", n) for n in CATALOG_BRACKET_NAMES]
    records += [("module", n) for n in MODULES]
    if args.format == "structured":
        lines = [json_line({"kind": kind, "name": name})
                 for kind, name in records]
    else:
        lines = ["%-8s %s" % (kind, name) for kind, name in records]
    return _output(args, lines)


def _verify_operator(name, window):
    from .rb import check_rb_identity, check_skew_symmetry
    R = catalog_rb(name)
    return [check_rb_identity(R, window), check_skew_symmetry(R, window)]


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
        if name not in _LEIBNIZ_FAILERS:
            rep = check_leibniz(B, window)
        else:
            # the counterexample first shows at window 1
            rep = check_leibniz(B, max(1, window))
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
    name = args.target
    if name in CATALOG_RB_NAMES:
        reports = _verify_operator(name, args.window)
    elif name in CATALOG_BRACKET_NAMES:
        reports = _verify_bracket(name, args.window)
    else:
        raise InputError("unknown target %r (see: catalog list)" % name)
    return _emit(args, reports)


def _cmd_bracket_eval(args):
    if args.name not in CATALOG_BRACKET_NAMES:
        raise InputError("unknown bracket %r" % args.name)
    B = catalog_bracket(args.name)
    try:
        s1, s2 = B.carrier.sym(args.n), B.carrier.sym(args.m)
    except (ValueError, IndexError) as exc:
        raise InputError("basis index out of range: %s" % exc)
    value = render_tensor2(B.eval(s1, s2))
    if args.format == "structured":
        value = json_line({"check": "bracket_eval", "target": args.name,
                           "n": args.n, "m": args.m, "value": value})
    return _output(args, [value])


def _t_bracket(args, seeds):
    """The catalog bracket that args names, which must have the t-basis
    that seeds (a phrase for the message) are written in."""
    if args.bracket not in CATALOG_BRACKET_NAMES:
        raise InputError("unknown bracket %r" % args.bracket)
    B = catalog_bracket(args.bracket)
    if tsym(0) not in B.carrier.window_syms(0):
        raise InputError("%s; %s has no t-basis" % (seeds, args.bracket))
    return B


def _parse_seed_poly(text):
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise InputError("malformed polynomial %r: %s" % (text, exc))


def _cmd_ideal_closure(args):
    B = _t_bracket(args, "ideal closure takes a t-polynomial seed")
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
        lines = [json_line(record)]
    else:
        lines = ["closures: %d%s" % (len(closures), "  (budget exhausted)"
                                     if exhausted else "")]
        lines += ["  span{%s}" % ", ".join(basis)
                  for basis in record["closures"]]
    return _output(args, lines, EXIT_BUDGET if exhausted else EXIT_PASS)


def _cmd_simplicity(args):
    from .ideals import simplicity_probe
    B = _t_bracket(args, "simplicity draws t-polynomial seeds")
    if args.seeds < 1:
        raise InputError("--seeds must be at least 1, got %d" % args.seeds)
    if args.window < 1:  # <<1, 1>> = 0 leaves nothing to decide at window 0
        raise InputError("simplicity needs --window of at least 1, got 0")
    rep = simplicity_probe(B, args.window, seed_count=args.seeds,
                           budget=args.budget)
    exhausted = not rep.passed and rep.counterexample and \
        rep.counterexample.get("reason") == "budget exhausted"
    return _emit(args, [rep], code=EXIT_BUDGET if exhausted else None)


def _cmd_module_check(args):
    from .dmodules import (check_module_axioms, proposition_equivalence,
                           rb_bimodule_split_check)
    if args.name not in MODULES:
        raise InputError("unknown module instance %r (have: %s)"
                         % (args.name, ", ".join(MODULES)))
    try:
        act, B_L = MODULES[args.name](args.window)
    except ValueError as exc:
        raise InputError("%s at window %d: %s" % (args.name, args.window, exc))
    if args.name == "block-bimodule":  # built without the window
        return _emit(args, [check_module_axioms(act, B_L),
                            rb_bimodule_split_check(B_L, act)])
    reports = [check_module_axioms(act, B_L, args.window)]
    if any(act.eval(l, m) for l in act.l_syms for m in act.m_syms):
        reports.append(proposition_equivalence(B_L, act, mutations=5))
    return _emit(args, reports)


def _cmd_report_all(args):
    """Canonical battery over the whole catalog at the given window."""
    window = args.window
    reports = []
    for name in CATALOG_RB_NAMES:
        reports.extend(_verify_operator(name, window))
    for name in CATALOG_BRACKET_NAMES:
        reports.extend(_verify_bracket(name, window))
    from .rb import remark3_suite
    reports.append(remark3_suite(window))
    from .brackets import check_bracket_relations
    reports.append(check_bracket_relations(window))
    from .ideals import theorem3_replay
    reports.append(theorem3_replay(max(window, 6)))
    from .dmodules import check_module_axioms, rb_bimodule_split_check
    for name, build in MODULES.items():
        act, B_L = build(max(window, 4))
        reports.append(check_module_axioms(act, B_L))
        if name == "block-bimodule":
            reports.append(rb_bimodule_split_check(B_L, act))
    for rep in reports:
        rep.params["rng_seed"] = args.rng_seed
    return _emit(args, reports)


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser():
    """Built once per process: main may run many times in one."""
    parser = argparse.ArgumentParser(
        prog="doublelie",
        description="Exact verification of double Lie algebra structures "
                    "and their Rota-Baxter operators.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="structured",
                        help="output mode (default: structured JSON lines)")
    windowed = argparse.ArgumentParser(add_help=False, parents=[common])
    windowed.add_argument("--window", type=int, default=8)
    budgeted = argparse.ArgumentParser(add_help=False, parents=[windowed])
    budgeted.add_argument("--budget", type=int, default=5000)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="catalog access")
    ps = p.add_subparsers(dest="subcommand", required=True)
    ps.add_parser("list", help="list catalog names",
                  parents=[common]).set_defaults(func=_cmd_catalog_list)

    p = sub.add_parser("verify", help="verify an operator or bracket",
                       parents=[windowed])
    p.add_argument("target")
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
    pc = ps.add_parser("closure", parents=[budgeted],
                       help="the ideal closures of a seed that the "
                       "branching rule reaches")
    pc.add_argument("bracket")
    pc.add_argument("--seed", required=True, metavar="POLY",
                    help='seed polynomial, e.g. "t^2 - 3/2*t + 1"')
    pc.set_defaults(func=_cmd_ideal_closure)

    p = sub.add_parser("simplicity", help="window-relative simplicity probe",
                       parents=[budgeted])
    p.add_argument("bracket")
    p.add_argument("--seeds", type=int, default=50)
    p.set_defaults(func=_cmd_simplicity)

    p = sub.add_parser("module", help="module operations")
    ps = p.add_subparsers(dest="subcommand", required=True)
    pm = ps.add_parser("check", help="check a catalog module instance",
                       parents=[windowed])
    pm.add_argument("name")
    pm.set_defaults(func=_cmd_module_check)

    p = sub.add_parser("report", help="batch verification report",
                       parents=[windowed])
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--rng-seed", type=int, default=2024)
    p.set_defaults(func=_cmd_report_all)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "window", 0) < 0:
            raise InputError("window must be nonnegative, got %d"
                             % args.window)
        if getattr(args, "budget", 1) < 1:
            raise InputError("budget must be at least 1, got %d"
                             % args.budget)
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so that the
        # interpreter's final flush of the buffer cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return args.exit_code


if __name__ == "__main__":
    sys.exit(main())
