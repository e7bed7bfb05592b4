"""Running independent jobs on the usable CPUs, this process among them."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

# jobs per CPU from which a map runs one process per CPU; below it, one process per job, so no
# CPU idles through a last round that one process runs alone. On 2 CPUs, 1 BLAS thread each,
# text-grid's classify --grid took 0.52 s with its 3 lambda jobs on 3 processes, 0.56 s on 2,
# and its test transform's 6 blocks 123 ms on 2 processes, 152 ms on 6 (medians of 8 runs)
JOBS_PER_CPU = 2

# map_jobs' (func, jobs) in a pool process of that map, and here while job 0 runs
_running = []
# [numpy's OpenBLAS (set, get) thread count functions, or None], once looked up
_blas = []


def _usable_cpus() -> int:
    has_affinity = hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1


def _blas_threads():
    """The (set, get) thread count functions of the OpenBLAS that numpy has
    loaded, found through ctypes on first use; None where there is none."""
    if not _blas:
        import ctypes
        import glob

        import numpy

        libs = os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs")
        try:  # RTLD_NOLOAD: the library numpy loaded, never a second copy
            lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))[0],
                              mode=os.RTLD_NOLOAD)
            put, get = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
            put.argtypes, put.restype = [ctypes.c_int], None
            get.argtypes, get.restype = [], ctypes.c_int
            _blas.append((put, get))
        except (IndexError, OSError, AttributeError):
            _blas.append(None)
    return _blas[0]


def _cpus() -> int:
    """The CPUs map_jobs runs on: the usable CPUs where numpy's OpenBLAS is
    found, since map_jobs then runs BLAS on one thread in every process.
    Elsewhere usable CPUs // BLAS threads per process, at least 1: OpenBLAS
    takes OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else every usable CPU,
    read once, when numpy is imported; an MKL-built numpy ignores
    OPENBLAS_NUM_THREADS."""
    if _blas_threads():
        return _usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "").strip()
        if threads.isdecimal() and int(threads) > 0:
            return max(1, _usable_cpus() // int(threads))
    return 1


def _exit_with_parent(*running) -> None:
    """Pool initializer: keeps map_jobs' state, runs BLAS on one thread and
    ends this worker once its parent is gone, which the pool's own queues
    never notice when it is killed."""
    _running[:] = running
    if _blas_threads():
        _blas_threads()[0](1)
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run_job(i: int):
    """Job i of the map whose pool this process is in."""
    func, jobs = _running
    return func(*jobs[i])


def map_jobs(func, jobs: list) -> list:
    """[func(*job) for job in jobs], with BLAS on one thread in every process.

    On C = _cpus(), a map of at least JOBS_PER_CPU * C jobs runs on C
    processes, a smaller one on one process per job, and any map runs here
    alone when that is 1 process. Otherwise job 0 runs here while a pool
    runs the others on the rest of those processes, or on C processes in a
    map of at least JOBS_PER_CPU * C jobs, so that no CPU idles once job 0
    is done. The pool gets the job list through its initializer, inherited
    at fork or pickled once per process, so an operand that several jobs
    hold travels once, and its ordered map returns their results in job
    order. A map inside a job runs in place. This process's BLAS thread
    count is restored when the map returns. func must be importable by name
    and a job's result must depend on its arguments alone. When jobs fail,
    the first failing job in job order raises, as when they all run here.
    """
    cpus = _cpus()
    processes = cpus if len(jobs) >= JOBS_PER_CPU * cpus else len(jobs)
    blas = _blas_threads()
    if blas:
        threads = blas[1]()
        blas[0](1)
    try:
        if processes <= 1 or _running:
            return [func(*job) for job in jobs]
        with ProcessPoolExecutor(min(processes, len(jobs) - 1), initializer=_exit_with_parent,
                                 initargs=(func, jobs)) as pool:
            rest = pool.map(_run_job, range(1, len(jobs)))
            _running[:] = func, jobs  # a map inside job 0 runs in place
            try:
                first = func(*jobs[0])
            finally:
                _running.clear()
            return [first, *rest]
    finally:
        if blas:
            blas[0](threads)
