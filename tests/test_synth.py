import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from dataclasses import replace

from ssnmf import objectives, synth
from ssnmf.exceptions import ConfigError, FitError
from ssnmf.objectives import VARIANTS, ModelVariant


def test_gen_factors_shapes_and_support():
    true = synth.gen_factors(n1=8, n2=10, k=6, r=4, density=0.5, seed=0)
    assert true.a.shape == (8, 4)
    assert true.b.shape == (6, 4)
    assert true.s.shape == (4, 10)
    # dense A, exactly round(density * size) nonzeros in S and B
    assert (true.a > 0).all()
    assert np.count_nonzero(true.s) == 20
    assert np.count_nonzero(true.b) == 12
    assert true.s.min() >= 0 and true.b.min() >= 0


def test_gen_factors_density_one_is_dense():
    true = synth.gen_factors(5, 5, 5, 2, density=1.0, seed=3)
    assert np.count_nonzero(true.s) == 10
    assert np.count_nonzero(true.b) == 10


def test_gen_factors_deterministic():
    t1 = synth.gen_factors(6, 7, 5, 3, 0.5, seed=9)
    t2 = synth.gen_factors(6, 7, 5, 3, 0.5, seed=9)
    assert np.array_equal(t1.a, t2.a)
    assert np.array_equal(t1.s, t2.s)
    assert np.array_equal(t1.b, t2.b)


def test_gen_factors_rejects_bad_density():
    with pytest.raises(ConfigError):
        synth.gen_factors(4, 4, 4, 2, density=0.0, seed=0)
    with pytest.raises(ConfigError):
        synth.gen_factors(4, 4, 4, 2, density=1.5, seed=0)


def test_gaussian_sample_moments():
    mean = np.full((250, 400), 4.0)  # clamping at 0 is negligible out here
    draws = synth.sample_gaussian(mean, variance=1.0, seed=1)
    assert draws.min() >= 0
    assert draws.mean() == pytest.approx(4.0, abs=0.02)
    assert draws.var() == pytest.approx(1.0, abs=0.05)


def test_gaussian_clamps_at_zero():
    mean = np.zeros((100, 100))
    draws = synth.sample_gaussian(mean, variance=1.0, seed=2)
    assert draws.min() == 0.0
    assert (draws == 0).mean() > 0.3  # about half the mass clamps


def test_gaussian_rejects_bad_variance():
    for variance in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="variance must be finite and positive"):
            synth.sample_gaussian(np.ones((2, 2)), variance=variance, seed=0)


def test_poisson_sample_moments():
    mean = np.full((250, 400), 3.0)
    draws = synth.sample_poisson(mean, seed=4)
    assert draws.dtype == np.float64
    assert draws.mean() == pytest.approx(3.0, abs=0.03)
    # equidispersion: variance tracks the mean
    assert draws.var() / draws.mean() == pytest.approx(1.0, abs=0.05)


def test_poisson_zero_intensity_stays_zero():
    draws = synth.sample_poisson(np.zeros((20, 20)), seed=5)
    assert (draws == 0).all()


def test_poisson_rejects_negative_intensity():
    with pytest.raises(ConfigError):
        synth.sample_poisson(np.array([[-1.0]]), seed=0)


def test_noise_pair_mapping():
    for exp, (xk, yk) in {
        1: ("gaussian", "gaussian"),
        2: ("gaussian", "poisson"),
        3: ("poisson", "gaussian"),
        4: ("poisson", "poisson"),
    }.items():
        xn, yn = synth.noise_pair(exp, r=5)
        assert (xn.kind, yn.kind) == (xk, yk)
    # the narrow Gaussian carries variance 1/(2r)
    xn, _ = synth.noise_pair(2, r=5)
    assert xn.variance == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        synth.noise_pair(0, r=5)


def test_matched_variant_diagonal():
    assert synth.MATCHED_VARIANT[1] is ModelVariant.FRO_FRO
    assert synth.MATCHED_VARIANT[2] is ModelVariant.FRO_DIV
    assert synth.MATCHED_VARIANT[3] is ModelVariant.DIV_FRO
    assert synth.MATCHED_VARIANT[4] is ModelVariant.DIV_DIV


@pytest.mark.parametrize("field,value", [
    ("r", 0), ("n1", 0), ("n2", 0), ("k", 0), ("max_iters", 0), ("trials", 0),
    ("lam", -1.0), ("lam", float("nan")), ("eps", 0.0), ("eps", -1.0),
    ("eps", float("nan")), ("eps", float("inf")),
])
def test_experiment_spec_rejects_out_of_range_knobs(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        synth.ExperimentSpec(experiment=1, **{field: value})


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        synth.ExperimentSpec(experiment=5)
    with pytest.raises(ConfigError):
        synth.ExperimentSpec(experiment=1, density=0.0)
    with pytest.raises(ConfigError):
        synth.ExperimentSpec(experiment=1, trials=0)


def test_experiment_spec_rejects_rank_above_the_data(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factors drawn for a rank the data cannot hold")

    monkeypatch.setattr(synth, "gen_factors", refuse)
    for n1, n2 in ((4, 9), (9, 4)):
        with pytest.raises(ConfigError, match=r"r must be <= min\(n1, n2\) = 4"):
            synth.ExperimentSpec(experiment=1, n1=n1, n2=n2, k=3, r=5)
    synth.ExperimentSpec(experiment=1, n1=5, n2=9, k=3, r=5)


def tiny_spec(experiment=1):
    return synth.ExperimentSpec(
        experiment=experiment, n1=12, n2=12, k=12, r=2,
        density=0.5, max_iters=40, trials=2, seed=0,
    )


def test_trial_builds_one_term_pair_per_variant(monkeypatch):
    real = objectives.TermValue.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(objectives.TermValue, "__init__", counted)
    for max_iters in (1, 9):
        built.clear()
        synth._trial_column(replace(tiny_spec(4), max_iters=max_iters), 0)
        # the base score's pair, then per variant the sweeps' pair and the final score's
        assert len(built) == 2 + 2 * 2 * len(VARIANTS)


def test_benchmark_smoke_and_determinism():
    grid1 = synth.run_benchmark(tiny_spec(), experiments=(1, 3))
    grid2 = synth.run_benchmark(tiny_spec(), experiments=(1, 3))
    assert grid1.means.shape == (4, 2)
    assert grid1.per_trial.shape == (2, 4, 2)
    assert np.isfinite(grid1.means).all()
    assert (grid1.means > 0).all()
    assert np.array_equal(grid1.means, grid2.means)
    assert grid1.means[:, 0] == pytest.approx(grid1.per_trial[:, :, 0].mean(axis=0))


def test_parallel_jobs_match_serial_bit_for_bit(real_pool_sizes):
    # three workers for 2 experiments x 2 trials: more workers than trials
    serial = synth.run_benchmark(tiny_spec(), (1, 3), workers=1)
    parallel = synth.run_benchmark(tiny_spec(), (1, 3), workers=3)
    assert real_pool_sizes == [2]
    assert serial.per_trial.tobytes() == parallel.per_trial.tobytes()
    assert serial.means.tobytes() == parallel.means.tobytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands a recorder in for the process pool on a 4-CPU machine: each
    pool's max_workers is appended, and its jobs run in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            # every pool's workers watch for their parent's end
            assert initializer is synth._exit_with_parent
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(synth, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 4)
    return sizes


def test_one_job_runs_in_process_whatever_the_workers(pool_sizes):
    one_job = replace(tiny_spec(), trials=1)
    pooled = synth.run_benchmark(one_job, (1,), workers=3)
    serial = synth.run_benchmark(one_job, (1,), workers=1)
    assert pool_sizes == []
    assert pooled.per_trial.tobytes() == serial.per_trial.tobytes()


def test_pool_is_no_larger_than_the_jobs_or_the_cpus(pool_sizes, monkeypatch):
    monkeypatch.setattr(synth, "_trial_column", lambda spec, trial: np.zeros(len(VARIANTS)))
    synth.run_benchmark(replace(tiny_spec(), trials=2), (1,), workers=3)
    synth.run_benchmark(replace(tiny_spec(), trials=100000), (1,), workers=100000)
    assert pool_sizes == [2, 4]


def test_unpinned_blas_runs_the_jobs_in_process(pool_sizes, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    synth.run_benchmark(tiny_spec(), (1, 3))
    assert pool_sizes == []
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    synth.run_benchmark(tiny_spec(), (1, 3))
    assert pool_sizes == [4]


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "-2"}, 8, 1),
    ({"OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 8, 8),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 2),
])
def test_default_workers_is_usable_cpus_over_blas_threads(monkeypatch, env, cpus, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
    assert synth.default_workers() == expected


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert synth._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert synth._usable_cpus() == 3


WORKER_OF_A_PARENT = """
import os, time
from concurrent.futures import ProcessPoolExecutor
from ssnmf import synth
pool = ProcessPoolExecutor(1, initializer=synth._exit_with_parent)
print(pool.submit(os.getpid).result(), flush=True)
pool.submit(time.sleep, 600)
time.sleep(600)
"""


def test_pool_worker_exits_when_its_parent_is_killed():
    parent = subprocess.Popen([sys.executable, "-c", WORKER_OF_A_PARENT],
                              stdout=subprocess.PIPE, text=True)
    worker = int(parent.stdout.readline())
    parent.kill()
    try:
        # the worker holds its parent's stdout open until it exits
        parent.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.kill(worker, signal.SIGKILL)
        parent.communicate()
        pytest.fail(f"pool worker {worker} outlived its killed parent")


def test_benchmark_rejects_fewer_than_one_worker():
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        synth.run_benchmark(tiny_spec(), (1,), workers=0)


def test_error_grid_serialization(tmp_path):
    grid = synth.run_benchmark(tiny_spec(2), [2])
    assert grid.column_minima() == [int(np.argmin(grid.means[:, 0]))]
    payload = grid.to_dict()
    assert payload["experiments"] == [2]
    assert set(payload["means"]) == {"fro-fro", "fro-div", "div-fro", "div-div"}
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "variant,experiment_2"
    assert len(lines) == 5
    assert lines[1].startswith("fro-fro,")


def test_gen_separable_structure():
    x, y, ids = synth.gen_separable(classes=3, per_class=5, features_per_class=4,
                                    noise_var=0.0, seed=0)
    assert x.shape == (12, 15)
    assert y.shape == (3, 15)
    assert (y.sum(axis=0) == 1).all()
    assert np.array_equal(np.argmax(y, axis=0), ids)
    # noise-free samples load only on their own class block
    for j in range(15):
        block = ids[j]
        outside = np.delete(x[:, j].reshape(3, 4), block, axis=0)
        assert np.all(outside == 0)
    assert x.min() >= 0


def test_non_finite_b_is_a_fit_error_naming_the_trial(monkeypatch):
    step = synth.mu_step
    spec = tiny_spec(2)
    calls = []

    def inf_in_b(*args, **kwargs):
        # the first variant's last sweep leaves A and S finite, B not
        out = step(*args, **kwargs)
        calls.append(None)
        if len(calls) == spec.max_iters:
            out.b[0, 0] = np.inf
        return out

    monkeypatch.setattr(synth, "mu_step", inf_in_b)
    with pytest.raises(FitError, match="trial 0, experiment 2, variant fro-fro"):
        synth.run_benchmark(spec, [2])
