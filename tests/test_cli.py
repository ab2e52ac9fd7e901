"""Command-line interface: exit codes, output formats, and determinism."""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from doublelie import cli
from doublelie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_catalog_list_mentions_all_kinds(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    kinds = {r["kind"] for r in records(out)}
    assert kinds == {"operator", "bracket", "module"}
    names = {r["name"] for r in records(out)}
    assert {"r1", "L2", "quiver", "block-bimodule"} <= names


def test_verify_operator_passes(capsys):
    code, out, _ = run(capsys, "verify", "r1", "--window", "5")
    assert code == 0
    recs = records(out)
    assert {r["check"] for r in recs} == {"rb_identity", "skew_symmetry"}
    assert all(r["status"] == "pass" for r in recs)


def test_verify_bracket_text_mode(capsys):
    code, out, _ = run(capsys, "verify", "L1", "--format", "text",
                       "--window", "5")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("jacobi" in line for line in lines)


def test_verify_expected_leibniz_counterexample_counts_as_pass(capsys):
    code, out, _ = run(capsys, "verify", "L2", "--window", "5")
    assert code == 0
    recs = {r["check"]: r for r in records(out)}
    assert recs["leibniz_counterexample"]["status"] == "pass"
    assert "a" in recs["leibniz_counterexample"]["details"]


def test_bracket_eval_value(capsys):
    code, out, _ = run(capsys, "bracket", "eval", "L2", "3", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["value"] == "-t^1(x)t^2 - t^2(x)t^1"


def test_bracket_eval_text_mode(capsys):
    code, out, _ = run(capsys, "bracket", "eval", "L1", "1", "1",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "-t^0(x)t^1 + t^1(x)t^0"


def test_bracket_eval_matrix_polynomial_basis(capsys):
    # basis index 3 of dY is t^3 e_11 and index 1 is t^0 e_12 at N = 2
    code, out, _ = run(capsys, "bracket", "eval", "dY", "3", "1")
    assert code == 0
    assert records(out)[0]["value"] == \
        "Y[0,1,1](x)Y[3,1,1] - Y[3,1,1](x)Y[0,1,1]"


@pytest.mark.parametrize("argv, message", [
    (("bracket", "eval", "nosuch", "0", "0"), "unknown bracket 'nosuch'"),
    (("bracket", "eval", "ex1", "7", "0"), "basis index out of range"),
    (("bracket", "eval", "L2", "0", "-1"), "basis index out of range"),
    (("ideal", "closure", "nosuch", "--seed", "1"),
     "unknown bracket 'nosuch'"),
    (("simplicity", "nosuch"), "unknown bracket 'nosuch'"),
    # built by catalog_bracket, but not listed by catalog list
    (("bracket", "eval", "zero", "0", "0"), "unknown bracket 'zero'"),
])
def test_unknown_bracket_or_index_is_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "input error" in err and message in err


def test_unknown_target_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "unknown target" in err


def test_malformed_seed_is_input_error(capsys):
    code, _, err = run(capsys, "ideal", "closure", "L2", "--seed", "t^^2")
    assert code == 2 and "malformed polynomial" in err


@pytest.mark.parametrize("seed", ["t^2 -", "t^2 - -13*t", "1/0", "t +"])
def test_unreadable_seed_is_input_error(capsys, seed):
    code, out, err = run(capsys, "ideal", "closure", "L1", "--seed", seed,
                         "--window", "4")
    assert code == 2 and not out and "malformed polynomial" in err


def test_seed_sign_without_space_keeps_its_digits(capsys):
    # "t^2 -13*t" is t^2 - 13t: the closures match those of the spaced seed
    got = {}
    for seed in ("t^2 -13*t", "t^2 - 13*t"):
        code, out, _ = run(capsys, "ideal", "closure", "L1", "--seed", seed,
                           "--window", "5")
        assert code == 0
        got[seed] = records(out)[0]["closures"]
    assert got["t^2 -13*t"] == got["t^2 - 13*t"]
    _, out, _ = run(capsys, "ideal", "closure", "L1", "--seed", "t^2 - 3*t",
                    "--window", "5")
    assert records(out)[0]["closures"] != got["t^2 - 13*t"]


@pytest.mark.parametrize("seed", ["t^9", "t^-1"])
def test_seed_outside_window_is_input_error(capsys, seed):
    code, out, err = run(capsys, "ideal", "closure", "L1", "--seed", seed,
                         "--window", "4")
    assert code == 2 and not out
    assert "input error" in err and repr(seed) in err


@pytest.mark.parametrize("argv", [
    ("verify", "r1", "--window", "-1"),
    ("verify", "L1", "--window", "-1"),
    ("ideal", "closure", "L1", "--seed", "1", "--window", "-1"),
    ("simplicity", "L2", "--window", "-2", "--seeds", "1"),
    ("module", "check", "block-bimodule", "--window", "-3"),
    ("report", "--all", "--window", "-1"),
])
def test_negative_window_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "window must be nonnegative" in err


@pytest.mark.parametrize("argv, message", [
    (("simplicity", "L2", "--window", "3", "--seeds", "0"), "--seeds"),
    (("simplicity", "L2", "--window", "3", "--seeds", "-2"), "--seeds"),
    (("simplicity", "L2", "--window", "3", "--budget", "-1"), "budget"),
    (("ideal", "closure", "L1", "--seed", "1", "--budget", "-1"), "budget"),
    (("ideal", "closure", "L1", "--seed", "1", "--budget", "0"), "budget"),
])
def test_out_of_range_search_options_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "input error" in err and message in err


@pytest.mark.parametrize("window", ["1", "3", "6"])
def test_simplicity_default_max_degree_fits_the_window(capsys, window):
    # the default is 8, cut to the window; it used to be 8 at every window
    code, out, err = run(capsys, "simplicity", "L2", "--window", window,
                         "--seeds", "3")
    assert code == 0 and not err and records(out)[0]["status"] == "pass"


def test_simplicity_budget_exhaustion_exit_code(capsys):
    code, out, err = run(capsys, "simplicity", "L2", "--window", "6",
                         "--seeds", "3", "--budget", "1")
    assert code == 3 and "budget exhausted" in err
    rec = records(out)[0]
    assert rec["status"] == "fail"
    assert rec["counterexample"]["reason"] == "budget exhausted"


def test_simplicity_accepts_max_degree_equal_to_window(capsys):
    # below window 8 the seeds' default degree bound is the window itself
    code, out, _ = run(capsys, "simplicity", "L2", "--window", "3",
                       "--seeds", "4")
    assert code == 0 and records(out)[0]["details"]["seeds"] == 4


@pytest.mark.parametrize("name", ["ex1", "ex2", "quiver", "dY"])
def test_simplicity_without_a_t_basis_is_input_error(capsys, name):
    # the probe's seeds are t-polynomials, which these carriers do not have
    code, out, err = run(capsys, "simplicity", name, "--window", "2",
                         "--seeds", "1")
    assert code == 2 and not out
    assert "input error" in err and "%s has no t-basis" % name in err


@pytest.mark.parametrize("name", ["ex1", "dY"])
def test_closure_without_a_t_basis_is_input_error(capsys, name):
    # the seed is a t-polynomial; the error names the carrier, not the
    # seed's terms
    code, out, err = run(capsys, "ideal", "closure", name, "--seed", "1",
                         "--window", "2")
    assert code == 2 and not out
    assert "input error" in err and "%s has no t-basis" % name in err


def test_laurent_closure_skips_values_below_the_window(capsys):
    # the node span{t^-3, 1, t} meets <<t^-3, t^-3>>, which has a t^-6 term
    code, out, _ = run(capsys, "ideal", "closure", "L1_laurent", "--seed",
                       "t + 1", "--window", "3")
    assert code == 0 and records(out)[0]["status"] == "pass"


def test_laurent_closure_record_is_pinned(capsys):
    code, out, _ = run(capsys, "ideal", "closure", "L2_laurent", "--seed",
                       "t", "--window", "3")
    assert code == 0
    assert out == (
        '{"check": "ideal_closure", "target": "L2_laurent", "seed": "t", '
        '"window": 3, "budget": 5000, "status": "pass", "closures": '
        '[["t^-3", "t^-2", "t^-1", "t^0", "t^1"]]}\n')


@pytest.mark.parametrize("argv", [
    ("verify", "r1", "--cutoff", "16"),
    ("simplicity", "L2", "--max-degree", "3"),
    ("simplicity", "L2", "--rng-seed", "7"),
    ("module", "check", "block-bimodule", "--rng-seed", "7"),
])
def test_removed_options_are_usage_errors(capsys, argv):
    # each option's value is the library's default: the RB cutoff 2 * window,
    # the seeds' degree bound min(8, window), and rng_seed 2024
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in captured.err


def test_report_keeps_its_rng_seed_option(capsys):
    # the seed is stamped on every record; it draws nothing
    code, out, _ = run(capsys, "report", "--all", "--window", "1",
                       "--rng-seed", "7")
    assert code == 0 and all(r["rng_seed"] == 7 for r in records(out))


def test_the_shared_parser_keeps_no_option_between_calls(capsys):
    # main builds its parser once per process; an option one call sets must
    # not reach the next call
    assert cli.build_parser() is cli.build_parser()
    run(capsys, "report", "--all", "--window", "1", "--rng-seed", "7")
    code, out, _ = run(capsys, "report", "--all", "--window", "1")
    assert code == 0 and all(r["rng_seed"] == 2024 for r in records(out))


@pytest.mark.parametrize("argv, digest", [
    (("verify", "r1", "--window", "8"),
     "5a3df51875fc8ca6af990fe88cb39ee3d95e78155979ba088215f9e340b874c1"),
    (("module", "check", "tpoly-under-third"),
     "fd417c07cd3d86fefe5f1e6dba8b1d4899ba589df8cddda4dd147fe2d21e288b"),
    (("module", "check", "t2poly-under-first"),
     "069ddb2191d742348a620150bd1baf6f6386d2fe4a5f9144ca8633710097fa0b"),
    (("module", "check", "block-bimodule"),
     "9620feec2a78d145317e905776b056b06ed53f00d60aef91b1e1e678dfddcdd8"),
])
def test_default_records_are_pinned(capsys, argv, digest):
    # the records of the defaults: cutoff 16 at window 8, and the module
    # checks' five mutations from rng_seed 2024 (the simplicity record at
    # the default degree bound is test_simplicity_record_is_pinned's)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simplicity_failure_embeds_counterexample(capsys):
    code, out, _ = run(capsys, "simplicity", "L1", "--window", "8",
                       "--seeds", "3")
    assert code == 1
    rec = records(out)[0]
    assert rec["status"] == "fail"
    assert "seed" in rec["counterexample"]


def test_simplicity_pass(capsys):
    code, out, _ = run(capsys, "simplicity", "L2", "--window", "10",
                       "--seeds", "5")
    assert code == 0
    assert records(out)[0]["status"] == "pass"


def test_simplicity_record_is_pinned(capsys):
    code, out, _ = run(capsys, "simplicity", "L2", "--window", "12",
                       "--seeds", "20")
    assert code == 0
    assert out == (
        '{"check": "simplicity_probe", "target": "L2", "guaranteed_degree": '
        '5, "rng_seed": 2024, "window": 12, "status": "pass", "details": '
        '{"seeds": 20, "closures_checked": 20}}\n')


def test_closure_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, "ideal", "closure", "L2", "--seed", "1",
                       "--window", "12", "--budget", "1")
    assert code == 3
    assert records(out)[0]["status"] == "budget-exhausted"


def test_closure_success_lists_bases(capsys):
    code, out, _ = run(capsys, "ideal", "closure", "L1", "--seed", "t^2",
                       "--window", "8")
    assert code == 0
    rec = records(out)[0]
    assert rec["status"] == "pass"
    # the pure tail closure is among the minimal ones found
    assert ["t^%d" % k for k in range(2, 8)] in rec["closures"]


def test_dense_quadratic_closure_record_is_pinned(capsys):
    # 96 minimal closures; the digest is that of the pairwise-containment
    # minimality filter, which the transitive filter must reproduce
    code, out, _ = run(capsys, "ideal", "closure", "L1", "--seed",
                       "t^2 + 4*t - 1", "--window", "9")
    assert code == 0 and len(records(out)[0]["closures"]) == 96
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38ddd133ef67aa3c73bbbaa286ed31898f3d49f2f7c0b882283f8ca72b9af5e1")


@pytest.mark.parametrize("target, seed, window, count, digest", [
    ("L1", "t^2", "8", 3,
     "76f58b0a269eda6c81bd1a737e7bb3d58e2b2650e8e2707666e4b99ed89b25bd"),
    # not monic at its pivot, so the closures carry fractional coefficients
    ("L1", "2*t^2 + 3*t - 1", "7", 24,
     "f2b1463c0107777a710028bccdb9f32e7dc5bbcac7e6efacccc5b3670affc4cd"),
    ("L1_laurent", "t + 1", "3", 2,
     "215c9668f5d7ef70e4db3ff8b8ef5f18f534c038ae137614d023aa64b63fdfcd"),
    ("L1_laurent", "2*t^-1 + 3*t", "3", 1,
     "aeea876ae8241d8cbfa1265bc415d8d410e8ce70f20f9bcf9ff4528e05e4abe4"),
])
def test_closure_records_are_pinned(capsys, target, seed, window, count,
                                    digest):
    code, out, _ = run(capsys, "ideal", "closure", target, "--seed", seed,
                       "--window", window)
    assert code == 0 and len(records(out)[0]["closures"]) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_module_check_instances(capsys):
    for name in ("tpoly-under-third", "t2poly-under-first",
                 "block-bimodule"):
        code, out, _ = run(capsys, "module", "check", name)
        assert code == 0, name
        assert all(r["status"] == "pass" for r in records(out)), name


def test_module_record_has_the_window_it_was_built_at(capsys):
    # the block bimodule is built at fixed windows, whatever --window says
    code, out, _ = run(capsys, "module", "check", "block-bimodule",
                       "--window", "0")
    assert code == 0 and "window" not in records(out)[0]
    code, out, _ = run(capsys, "module", "check", "t2poly-under-first",
                       "--window", "6")
    assert code == 0 and records(out)[0]["window"] == 6


@pytest.mark.parametrize("name, window, code", [
    ("tpoly-under-third", "0", 2),
    ("tpoly-under-third", "1", 0),
    ("t2poly-under-first", "1", 2),
    ("t2poly-under-first", "2", 0),
])
def test_module_check_below_the_ideal_degree_is_input_error(capsys, name,
                                                           window, code):
    # below its degree the tail ideal is empty, and M = 0 would pass every
    # axiom vacuously
    got, out, err = run(capsys, "module", "check", name, "--window", window)
    assert got == code
    if code:
        assert not out and "input error: %s at window %s" % (name, window) \
            in err
    else:
        assert not err and all(r["status"] == "pass" for r in records(out))


def test_simplicity_at_window_zero_is_input_error(capsys):
    # only t^0 is swept there, and <<1, 1>> = 0
    code, out, err = run(capsys, "simplicity", "L2", "--window", "0",
                         "--seeds", "3")
    assert code == 2 and not out and "--window of at least 1" in err


def test_simplicity_failure_text_mode(capsys):
    code, out, _ = run(capsys, "simplicity", "L1", "--window", "8",
                       "--seeds", "3", "--format", "text")
    assert code == 1
    assert out.startswith("FAIL simplicity_probe L1  counterexample: {")
    assert "'closure_dim': 1" in out


def test_catalog_list_text_mode(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "operator r1" and "bracket  L2" in lines
    assert lines[-1] == "module   block-bimodule"


def test_closure_text_mode(capsys):
    code, out, _ = run(capsys, "ideal", "closure", "L1", "--seed", "t^2",
                       "--window", "5", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["closures: 3", "  span{t^0, t^2, t^3}",
                                "  span{t^2, t^3, t^4}",
                                "  span{t^0, t^1, t^2}"]
    code, out, err = run(capsys, "ideal", "closure", "L2", "--seed", "1",
                         "--window", "12", "--budget", "1", "--format", "text")
    assert code == 3 and "budget exhausted" in err
    assert out == "closures: 0  (budget exhausted)\n"


def test_missing_leibniz_counterexample_fails(capsys, monkeypatch):
    # L1 obeys the Leibniz rule, so listing it as a failer must fail
    monkeypatch.setattr(cli, "_LEIBNIZ_FAILERS", ("L1",))
    code, out, _ = run(capsys, "verify", "L1", "--window", "3")
    assert code == 1
    rec = records(out)[-1]
    assert rec["check"] == "leibniz_counterexample"
    assert rec["status"] == "fail"
    assert "rule held on the window" in rec["counterexample"]["reason"]


def test_unknown_module_instance(capsys):
    code, _, err = run(capsys, "module", "check", "nosuch")
    assert code == 2 and "unknown module instance" in err


def test_report_all_is_deterministic_and_green(capsys):
    code1, out1, _ = run(capsys, "report", "--all", "--window", "4")
    code2, out2, _ = run(capsys, "report", "--all", "--window", "4")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    recs = records(out1)
    assert len(recs) > 30
    assert all(r["status"] == "pass" for r in recs)
    assert all(r["rng_seed"] == 2024 for r in recs)


def test_report_all_sweeps_the_catalog_at_the_window_asked(capsys):
    # no cap at window 6: operators get the default cutoff 2 * window
    code, out, _ = run(capsys, "report", "--all", "--window", "7")
    assert code == 0
    recs = records(out)
    rb = [r for r in recs if r["check"] == "rb_identity"]
    assert len(rb) == len(cli.CATALOG_RB_NAMES)
    assert all((r["window"], r["cutoff"]) == (7, 14) for r in rb)
    brackets = [r for r in recs if r["target"] in cli.CATALOG_BRACKET_NAMES]
    assert len(brackets) >= 2 * len(cli.CATALOG_BRACKET_NAMES)
    assert all(r["window"] == 7 for r in brackets)


@pytest.mark.parametrize("window", ["0", "1", "2", "3"])
def test_report_all_is_green_at_small_windows(capsys, window):
    # the expected Leibniz counterexamples of L2, L3 and their Laurent
    # variants are swept from window 1 even when the window is 0
    code, out, _ = run(capsys, "report", "--all", "--window", window)
    assert code == 0
    assert all(r["status"] == "pass" for r in records(out))


@pytest.mark.parametrize("name", ["L2", "L3", "L2_laurent", "L3_laurent"])
def test_verify_leibniz_failers_at_window_zero(capsys, name):
    code, out, _ = run(capsys, "verify", name, "--window", "0")
    assert code == 0
    assert records(out)[-1]["check"] == "leibniz_counterexample"


@pytest.mark.parametrize("name, check", [
    ("dY", "leibniz"), ("L4_laurent", "leibniz"),
    ("L2_laurent", "leibniz_counterexample")])
def test_verify_decides_leibniz_at_the_requested_window(capsys, name, check):
    # every catalog bracket with a product decides Leibniz from its table,
    # so the record is at the window asked for, not a capped one
    code, out, _ = run(capsys, "verify", name, "--window", "40")
    assert code == 0
    rec = records(out)[-1]
    assert (rec["check"], rec["window"], rec["status"]) == (check, 40, "pass")
    if check == "leibniz_counterexample":
        assert rec["details"] == {"a": "t^-40", "b": "t^-40", "c": "t^-40"}


@pytest.mark.parametrize("name", ["r1_laurent", "r2_laurent"])
def test_verify_sweeps_laurent_operators_at_the_requested_window(capsys,
                                                                 name):
    # the Laurent operators sweep the window asked for, so the records are
    # at that window, not a capped one
    code, out, _ = run(capsys, "verify", name, "--window", "12")
    assert code == 0
    recs = records(out)[-2:]
    assert [(r["check"], r["window"], r["status"]) for r in recs] == [
        ("rb_identity", 12, "pass"), ("skew_symmetry", 12, "pass")]


@pytest.mark.parametrize("argv, expect", [
    (("catalog", "list"), 0),
    # the exit code computed before the output was cut still holds
    (("ideal", "closure", "L2", "--seed", "1", "--window", "12",
      "--budget", "1"), 3),
])
def test_closed_stdout_exits_quietly(capsys, monkeypatch, argv, expect):
    read_end, write_end = os.pipe()
    os.close(read_end)
    # line buffered, so that every print writes to the pipe, and raises
    # BrokenPipeError since nothing reads it
    with open(write_end, "w", buffering=1) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == expect
        # stdout now points at devnull
        print("more")
        monkeypatch.undo()
    assert capsys.readouterr().err == ""
