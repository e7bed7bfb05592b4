"""Checks that hold for the whole suite."""

import multiprocessing

import pytest

from ssnmf import synth


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_suite():
    yield
    # active_children joins the finished ones, so only running processes remain
    running = multiprocessing.active_children()
    assert not running, f"processes still running after the suite: {running}"


@pytest.fixture
def real_pool_sizes(monkeypatch):
    """Stubs 2 usable CPUs, so synth builds real pools of up to 2 processes on
    any runner, and records the max_workers of each pool it builds."""
    sizes = []

    class RecordingPool(synth.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(synth, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
    return sizes
