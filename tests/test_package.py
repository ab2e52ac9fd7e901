"""The package's public names."""

from __future__ import annotations

import doublelie


def test_every_exported_name_resolves_once():
    names = doublelie.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(doublelie, name) is not None, name
