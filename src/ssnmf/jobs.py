"""Running independent jobs on the usable CPUs, this process among them."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

from .exceptions import ConfigError


def _usable_cpus() -> int:
    has_affinity = hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1


def default_workers() -> int:
    """Usable CPUs // BLAS threads per process, at least 1: numpy's OpenBLAS
    takes OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else every usable CPU.
    OpenBLAS reads them once, when numpy is imported, so they must be set
    before that; an MKL-built numpy ignores OPENBLAS_NUM_THREADS."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "").strip()
        if threads.isdecimal() and int(threads) > 0:
            return max(1, _usable_cpus() // int(threads))
    return 1


def _exit_with_parent() -> None:
    """Pool initializer: ends this worker once its parent is gone, which the
    pool's own queues never notice when the parent is killed."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def map_jobs(func, jobs: list, workers: int | None = None) -> list:
    """[func(*job) for job in jobs] on min(workers, len(jobs), usable CPUs)
    processes, this one among them; workers defaults to default_workers().

    A pool of the other processes takes jobs from the front while this one
    runs the last job, then takes back from the back every job the pool has
    not started. func must be importable by name and a job's result must
    depend on its arguments alone. When jobs fail, the first failing job in
    job order raises, as when they all run here.
    """
    workers = default_workers() if workers is None else workers
    if not workers >= 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    processes = min(workers, len(jobs), _usable_cpus())
    if processes <= 1:
        return [func(*job) for job in jobs]
    with ProcessPoolExecutor(processes - 1, initializer=_exit_with_parent) as pool:
        futures = [pool.submit(func, *job) for job in jobs[:-1]] + [None]
        for i in reversed(range(len(jobs))):
            if futures[i] is None or futures[i].cancel():
                futures[i] = Future()
                try:
                    futures[i].set_result(func(*jobs[i]))
                except Exception as exc:  # raised below, in job order
                    futures[i].set_exception(exc)
        return [future.result() for future in futures]
