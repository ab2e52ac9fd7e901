"""Verification reports: pass/fail records with replayable counterexamples.

Structured output is deterministic: keys are emitted in a fixed order and no
wall-clock data is included, so identical runs produce byte-identical lines.
No timing is recorded.
"""

from __future__ import annotations

import json


def json_line(record):
    """One structured output line: the record's keys in insertion order."""
    return json.dumps(record, separators=(", ", ": "), default=str)


class VerificationReport:
    """Outcome of one exact check over a window of basis elements."""

    __slots__ = ("check", "target", "params", "passed", "counterexample",
                 "details")

    def __init__(self, check, target, params=None, passed=True,
                 counterexample=None, details=None):
        self.check = check
        self.target = target
        self.params = dict(params or {})
        self.passed = passed
        self.counterexample = counterexample
        self.details = details

    @classmethod
    def success(cls, check, target, params=None, details=None):
        return cls(check, target, params, True, None, details)

    @classmethod
    def failure(cls, check, target, counterexample, params=None, details=None):
        return cls(check, target, params, False, counterexample, details)

    def to_dict(self):
        rec = {"check": self.check, "target": self.target}
        for key in sorted(self.params):
            rec[key] = self.params[key]
        rec["status"] = "pass" if self.passed else "fail"
        if self.counterexample is not None:
            rec["counterexample"] = self.counterexample
        if self.details is not None:
            rec["details"] = self.details
        return rec

    def to_json(self):
        return json_line(self.to_dict())

    def summary_line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.counterexample is not None:
            extra = "  counterexample: %s" % (self.counterexample,)
        return "%-4s %s %s%s" % (status, self.check, self.target, extra)

    def __repr__(self):
        return "VerificationReport(%s)" % self.to_json()
