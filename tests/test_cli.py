"""Command-line interface: exit codes, output formats, and determinism."""

from __future__ import annotations

import json

import pytest

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


def test_unknown_target_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "unknown target" in err


def test_malformed_seed_is_input_error(capsys):
    code, _, err = run(capsys, "ideal", "closure", "L2", "--seed", "t^^2")
    assert code == 2 and "malformed polynomial" in err


@pytest.mark.parametrize("seed", ["t^9", "t^-1"])
def test_seed_outside_window_is_input_error(capsys, seed):
    code, out, err = run(capsys, "ideal", "closure", "L1", "--seed", seed,
                         "--window", "4")
    assert code == 2 and not out
    assert "input error" in err and repr(seed) in err


@pytest.mark.parametrize("argv", [
    ("verify", "r1", "--window", "-1", "--cutoff", "0"),
    ("verify", "L1", "--window", "-1"),
    ("ideal", "closure", "L1", "--seed", "1", "--window", "-1"),
    ("simplicity", "L2", "--window", "-2", "--seeds", "1"),
    ("module", "check", "block-bimodule", "--window", "-3"),
    ("report", "--all", "--window", "-1"),
])
def test_negative_window_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "window must be nonnegative" in err


def test_window_beyond_cutoff_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "r1", "--window", "9",
                       "--cutoff", "4")
    assert code == 2


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


def test_module_check_instances(capsys):
    for name in ("tpoly-under-third", "t2poly-under-first",
                 "block-bimodule"):
        code, out, _ = run(capsys, "module", "check", name)
        assert code == 0, name
        assert all(r["status"] == "pass" for r in records(out)), name


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
