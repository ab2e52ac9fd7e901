"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from doublelie import brackets


class _FirstIndexDropped:
    """An operator seen through a support that misses its first index s."""

    def __init__(self, R):
        self._R = R

    def __getattr__(self, attr):
        return getattr(self._R, attr)

    def support(self, p, q):
        return list(self._R.support(p, q))[1:]


@pytest.fixture
def short_correspondence(monkeypatch):
    """bracket_from_rb with the first index s taken out of every
    correspondence sum; the operator, and every other sum over its support,
    keeps every index."""
    full = brackets.bracket_from_rb
    monkeypatch.setattr(brackets, "bracket_from_rb", lambda R, name=None:
                        full(_FirstIndexDropped(R), name))
