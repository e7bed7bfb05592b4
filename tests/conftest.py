"""Checks that hold for the whole suite."""

import multiprocessing

import pytest

from ssnmf import jobs


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    yield
    # active_children joins the finished ones, so only running processes remain
    running = multiprocessing.active_children()
    assert not running, f"processes still running after the test: {running}"


@pytest.fixture
def real_pool_sizes(monkeypatch):
    """Stubs 2 usable CPUs, so map_jobs builds real pools of 1 or 2 processes
    beside this one on any runner, and records the max_workers of each pool
    it builds. OPENBLAS_NUM_THREADS=1 makes the map's CPUs the stubbed ones
    also where numpy's OpenBLAS thread count setter is not found."""
    sizes = []

    class RecordingPool(jobs.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return sizes


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands a recorder in for the process pool on a 4-CPU machine, with
    OPENBLAS_NUM_THREADS=1 as in real_pool_sizes: each pool's max_workers is
    appended, and its map runs the jobs here, in order, as a pool process,
    each when its result is asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            # every pool's workers watch for their parent's end
            assert initializer is jobs._exit_with_parent
            sizes.append(max_workers)
            self.initargs = initargs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            jobs._running[:] = self.initargs
            try:
                yield from (fn(*args) for args in zip(*iterables))
            finally:
                jobs._running.clear()

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return sizes
