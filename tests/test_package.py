"""The package's public names and its module entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import doublelie


def test_every_exported_name_resolves_once():
    names = doublelie.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(doublelie, name) is not None, name


def test_module_entry_point_runs_the_cli():
    # python -m doublelie is the cli's main, exit code included
    src = os.path.dirname(os.path.dirname(doublelie.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "doublelie", "catalog",
                           "list"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[0]) == {"kind": "operator",
                                                       "name": "r1"}
    done = subprocess.run([sys.executable, "-m", "doublelie", "verify",
                           "nosuch"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2 and "unknown target" in done.stderr
