"""The benchmark in bench/ drives the package by name: its workloads import
public functions, and its tracer patches functions, methods and memo
attributes.  Importing both and installing the tracer fails here when a
name the benchmark needs is gone."""

from __future__ import annotations

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_benchmark_binds_to_the_package():
    sys.path.insert(0, BENCH)
    try:
        import tracing
        import workloads
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert tracer._undo
        finally:
            tracer.uninstall()
        assert not tracer._undo
        assert callable(workloads.WORKLOADS["battery"][1])
    finally:
        sys.path.remove(BENCH)
