import multiprocessing

import numpy as np
import pytest

from dataclasses import replace

from ssnmf import jobs, objectives, synth
from ssnmf.exceptions import ConfigError, FitError
from ssnmf.objectives import VARIANTS, Loss, ModelVariant
from ssnmf.rng import substream
from ssnmf.solver import FactorState


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
    draws = synth._draw(Loss.FRO, 1.0, mean, substream(1, "gaussian"))
    assert draws.min() >= 0
    assert draws.mean() == pytest.approx(4.0, abs=0.02)
    assert draws.var() == pytest.approx(1.0, abs=0.05)


def test_gaussian_clamps_at_zero():
    mean = np.zeros((100, 100))
    draws = synth._draw(Loss.FRO, 1.0, mean, substream(2, "gaussian"))
    assert draws.min() == 0.0
    assert (draws == 0).mean() > 0.3  # about half the mass clamps


def test_poisson_sample_moments():
    mean = np.full((250, 400), 3.0)
    draws = synth._draw(Loss.DIV, 1.0, mean, substream(4, "poisson"))
    assert draws.dtype == np.float64
    assert draws.mean() == pytest.approx(3.0, abs=0.03)
    # equidispersion: variance tracks the mean
    assert draws.var() / draws.mean() == pytest.approx(1.0, abs=0.05)


def test_poisson_zero_intensity_stays_zero():
    draws = synth._draw(Loss.DIV, 1.0, np.zeros((20, 20)), substream(5, "poisson"))
    assert (draws == 0).all()


def test_each_experiment_draws_the_noise_of_its_matched_variant(monkeypatch):
    # every clean entry is 4r = 20, so no Gaussian draw clamps at 0
    monkeypatch.setattr(synth, "gen_factors", lambda n1, n2, k, r, density, seed: FactorState(
        a=np.full((n1, r), 2.0), b=np.full((k, r), 2.0), s=np.full((r, n2), 2.0)))
    real = synth._draw
    drawn = []

    def record(loss, variance, mean, gen):
        drawn.append((mean, real(loss, variance, mean, gen)))
        return drawn[-1][1]

    monkeypatch.setattr(synth, "_draw", record)
    spec = synth.ExperimentSpec(n1=60, n2=60, k=60, r=5, max_iters=1, trials=1)
    # (x, y) noise per experiment: a Gaussian's variance, or None for Poisson
    for experiment, sides in {1: (1.0, 1.0), 2: (0.1, None), 3: (None, 0.1),
                              4: (None, None)}.items():
        drawn.clear()
        synth._trial_column(spec, experiment, 0)
        assert len(drawn) == 2
        for (mean, draws), variance in zip(drawn, sides):
            integral = np.array_equal(draws, np.round(draws))
            if variance is None:
                assert integral
            else:
                assert not integral
                assert np.var(draws - mean) == pytest.approx(variance, rel=0.1)


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
        synth.ExperimentSpec(**{field: value})


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        synth.ExperimentSpec(density=0.0)
    with pytest.raises(ConfigError):
        synth.ExperimentSpec(trials=0)


def test_benchmark_rejects_unknown_or_no_experiments_before_any_job(monkeypatch):
    def refuse(*args):
        raise AssertionError("a job ran")

    monkeypatch.setattr(synth, "_trial_column", refuse)
    for experiments in ([5], [1, 0], [], [1, 1]):
        with pytest.raises(ConfigError, match="must be a nonempty list of 1..4, got"):
            synth.run_benchmark(tiny_spec(), experiments)


def test_experiment_spec_rejects_rank_above_the_data(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factors drawn for a rank the data cannot hold")

    monkeypatch.setattr(synth, "gen_factors", refuse)
    for n1, n2 in ((4, 9), (9, 4)):
        with pytest.raises(ConfigError, match=r"r must be <= min\(n1, n2\) = 4"):
            synth.ExperimentSpec(n1=n1, n2=n2, k=3, r=5)
    synth.ExperimentSpec(n1=5, n2=9, k=3, r=5)


def tiny_spec():
    return synth.ExperimentSpec(n1=12, n2=12, k=12, r=2, density=0.5, max_iters=40, trials=2,
                                seed=0)


def test_trial_builds_one_term_pair_per_variant(monkeypatch):
    real = objectives.TermValue.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(objectives.TermValue, "__init__", counted)
    for max_iters in (1, 9):
        built.clear()
        synth._trial_column(replace(tiny_spec(), max_iters=max_iters), 4, 0)
        # the clean pair that scores base and every final state, then each variant's pair
        assert len(built) == 2 + 2 * len(VARIANTS)


def test_benchmark_smoke_and_determinism():
    grid1 = synth.run_benchmark(tiny_spec(), experiments=(1, 3))
    grid2 = synth.run_benchmark(tiny_spec(), experiments=(1, 3))
    assert grid1.means.shape == (4, 2)
    assert grid1.per_trial.shape == (2, 4, 2)
    assert np.isfinite(grid1.means).all()
    assert (grid1.means > 0).all()
    assert np.array_equal(grid1.means, grid2.means)
    assert grid1.means[:, 0] == pytest.approx(grid1.per_trial[:, :, 0].mean(axis=0))


def test_parallel_jobs_match_serial_bit_for_bit(monkeypatch, real_pool_sizes):
    # 2 experiments x 2 trials on 2 CPUs: a pool of 2 processes beside job 0 here
    parallel = synth.run_benchmark(tiny_spec(), (1, 3))
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 1)
    serial = synth.run_benchmark(tiny_spec(), (1, 3))
    assert real_pool_sizes == [2]
    assert serial.per_trial.tobytes() == parallel.per_trial.tobytes()
    assert serial.means.tobytes() == parallel.means.tobytes()


def test_one_job_runs_in_process_whatever_the_cpus(pool_sizes, monkeypatch):
    one_job = replace(tiny_spec(), trials=1)
    pooled = synth.run_benchmark(one_job, (1,))
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 1)
    serial = synth.run_benchmark(one_job, (1,))
    assert pool_sizes == []
    assert pooled.per_trial.tobytes() == serial.per_trial.tobytes()


def test_pool_is_no_larger_than_the_jobs_or_the_cpus(pool_sizes, monkeypatch):
    # 2 jobs on 4 CPUs are 2 processes, this one and a pool of 1; 100000 jobs
    # on 4 CPUs are a pool of 4 beside job 0 here
    monkeypatch.setattr(synth, "_trial_column", lambda *job: np.zeros(len(VARIANTS)))
    synth.run_benchmark(replace(tiny_spec(), trials=2), (1,))
    synth.run_benchmark(replace(tiny_spec(), trials=100000), (1,))
    assert pool_sizes == [1, 4]


def test_benchmark_jobs_hold_one_spec_object(monkeypatch):
    # a pool gets the job list pickled once per process under spawn or
    # forkserver, and pickle writes an object once however many jobs hold it
    maps = []

    def record(func, jobs):
        maps.append(jobs)
        return [np.zeros(len(VARIANTS)) for _ in jobs]

    monkeypatch.setattr(synth, "map_jobs", record)
    spec = tiny_spec()
    synth.run_benchmark(spec, (1, 3))
    [jobs] = maps
    assert [(e, t) for _, e, t in jobs] == [(1, 0), (1, 1), (3, 0), (3, 1)]
    assert all(job[0] is spec for job in jobs)


def test_error_grid_serialization(tmp_path):
    grid = synth.run_benchmark(tiny_spec(), [2])
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


def inf_in_b_at_the_last_sweep(monkeypatch, spec):
    """Patches synth.mu_step so each process's first variant's last sweep
    leaves A and S finite, B not."""
    step = synth.mu_step
    calls = []

    def inf_in_b(*args, **kwargs):
        out = step(*args, **kwargs)
        calls.append(None)
        if len(calls) == spec.max_iters:
            out.b[0, 0] = np.inf
        return out

    monkeypatch.setattr(synth, "mu_step", inf_in_b)


def test_non_finite_b_is_a_fit_error_naming_the_trial(monkeypatch):
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: 1)
    spec = tiny_spec()
    inf_in_b_at_the_last_sweep(monkeypatch, spec)
    with pytest.raises(FitError, match="trial 0, experiment 2, variant fro-fro"):
        synth.run_benchmark(spec, [2])


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched mu_step reaches the pool's process only by fork")
def test_pooled_non_finite_b_names_the_first_failing_trial(monkeypatch, real_pool_sizes):
    # each process counts its own sweeps, so trial 1, which the pool's process
    # runs, fails too; the first failing job in order is reported
    spec = tiny_spec()
    inf_in_b_at_the_last_sweep(monkeypatch, spec)
    with pytest.raises(FitError, match="trial 0, experiment 2, variant fro-fro"):
        synth.run_benchmark(spec, [2])
    assert real_pool_sizes == [1]
