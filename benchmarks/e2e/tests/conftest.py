"""Fixtures for the benchmark's self-tests (run from the repo root with
``PYTHONPATH=src python -m pytest benchmarks/e2e``)."""

from __future__ import annotations

import pytest

from benchmarks.e2e.child import Session
from benchmarks.e2e.run import run_workload
from benchmarks.e2e.workloads import WORKLOADS, pinned_digests


@pytest.fixture
def make_session(tmp_path):
    """``make_session(name)``: an in-process Session at the pinned seed."""
    import repro.cli

    def make(name: str) -> Session:
        return Session(repro.cli.main, WORKLOADS[name], 1996, tmp_path,
                       pinned_digests(name, 1996))
    return make


@pytest.fixture(scope="session")
def tiny_results():
    """Every workload measured once end to end, with tiny loops: one
    workload child, one cold start, one timed and one traced invocation."""
    return {
        name: run_workload(name, 1996, children=1, cold_starts=1,
                           iterations=1, traced_iterations=1)
        for name in WORKLOADS
    }
