"""Checks that hold for the whole suite."""

import multiprocessing
from concurrent.futures import Future

import pytest

from ssnmf import jobs


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_suite():
    yield
    # active_children joins the finished ones, so only running processes remain
    running = multiprocessing.active_children()
    assert not running, f"processes still running after the suite: {running}"


@pytest.fixture
def real_pool_sizes(monkeypatch):
    """Stubs 2 usable CPUs, so map_jobs builds real pools of 1 process beside
    this one on any runner, and records the max_workers of each pool it builds."""
    sizes = []

    class RecordingPool(jobs.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 2)
    return sizes


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands a recorder in for the process pool on a 4-CPU machine: each
    pool's max_workers is appended, and its jobs run in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            # every pool's workers watch for their parent's end
            assert initializer is jobs._exit_with_parent
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 4)
    return sizes
