import numpy as np
import pytest

from ssnmf import synth
from ssnmf.exceptions import ConfigError
from ssnmf.objectives import ModelVariant


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
    with pytest.raises(ConfigError):
        synth.sample_gaussian(np.ones((2, 2)), variance=0.0, seed=0)


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


def tiny_spec(experiment=1):
    return synth.ExperimentSpec(
        experiment=experiment, n1=12, n2=12, k=12, r=2,
        density=0.5, max_iters=40, trials=2, seed=0,
    )


def test_benchmark_smoke_and_determinism():
    grid1 = synth.run_benchmark(tiny_spec(), experiments=(1, 3))
    grid2 = synth.run_benchmark(tiny_spec(), experiments=(1, 3))
    assert grid1.means.shape == (4, 2)
    assert grid1.per_trial.shape == (2, 4, 2)
    assert np.isfinite(grid1.means).all()
    assert (grid1.means > 0).all()
    assert np.array_equal(grid1.means, grid2.means)
    assert grid1.means[:, 0] == pytest.approx(grid1.per_trial[:, :, 0].mean(axis=0))


def test_error_grid_serialization(tmp_path):
    grid = synth.run_mle_experiment(tiny_spec(2))
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


def test_worker_env_cap(monkeypatch):
    monkeypatch.setenv("SSNMF_THREADS", "3")
    assert synth._worker_count(trials=5, workers=None) == 3
    assert synth._worker_count(trials=2, workers=None) == 2
    monkeypatch.delenv("SSNMF_THREADS")
    assert synth._worker_count(trials=5, workers=None) == 1
    assert synth._worker_count(trials=5, workers=8) == 5


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
