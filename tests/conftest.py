"""Shared test set-up.

Hypothesis runs derandomized: each property test draws the same examples
on every run, so a rare draw cannot make one run fail and the next pass.
A test's own ``@settings(max_examples=...)`` still applies.

The ``set_cpus`` fixture fixes the CPU count the sweep engine measures,
so a test can choose between nodes in this process and forked workers."""

import os

import pytest
from hypothesis import settings

import levelcross.sweep as sweep

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(n)`` makes the sweep engine see n available CPUs and
    returns a list that records how many workers each later sweep forked.
    Afterwards, every forked worker must have been reaped."""
    forked = []
    start = sweep._start_workers

    def spy(workers, *args):
        start(workers, *args)
        forked.append(len(workers))

    monkeypatch.setattr(sweep, "_start_workers", spy)

    def set_cpus(n):
        monkeypatch.setattr(sweep, "_cpu_count", lambda: n)
        return forked

    yield set_cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
