"""Benchmark harness conventions.

Every benchmark regenerates one of the paper's tables or figures via the
experiment registry, prints the paper-style rows, and asserts the
*shape* of the result: who wins, by roughly what factor, where the
crossovers fall. Absolute agreement with the paper's testbed is not
expected and not asserted. Timing lives in ``repro-bench``
(``benchmarks/regression.py``), not here.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once():
    """Run a callable once and return its result."""

    def runner(func):
        return func()

    return runner
