"""Synthetic data generation and the noise-model benchmark.

The benchmark fits all four model variants on data generated under four
Gaussian/Poisson noise pairs and scores each fit by the relative error of the
objective matched to the noise pair, computed against the clean products
A @ S and B @ S. The variant that is the maximum-likelihood estimator for a
noise pair should win its own column, which is the pattern the acceptance
suite checks for.

Experiments (x noise / y noise):
  1: Gaussian(var 1)      / Gaussian(var 1)      -> matched variant fro-fro
  2: Gaussian(var 1/(2r)) / Poisson              -> matched variant fro-div
  3: Poisson              / Gaussian(var 1/(2r)) -> matched variant div-fro
  4: Poisson              / Poisson              -> matched variant div-div

Experiments 2 and 3 pair each side with its matched loss, but at lam=1 they
are not fitted at the exact maximum-likelihood weight: with variance 1/(2r)
that weight is 2*var_x = 1/r for fro-div and 1/(2*var_y) = r for div-fro
(see objectives.mle_lambda).
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exceptions import ConfigError, FitError
from .objectives import VARIANTS, ModelVariant, ObjectiveSpec, objective
from .rng import substream
from .solver import FactorState, _check_knobs, _check_rank, _draw_factors, _terms, mu_step


@dataclass(frozen=True)
class NoiseModel:
    kind: str  # "gaussian" or "poisson"
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "poisson"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.variance < math.inf:
            raise ConfigError(f"gaussian variance must be finite and positive, "
                              f"got {self.variance}")


EXPERIMENT_IDS = (1, 2, 3, 4)

# experiment id -> variant that is the MLE under that noise pair
MATCHED_VARIANT = {
    1: ModelVariant.FRO_FRO,
    2: ModelVariant.FRO_DIV,
    3: ModelVariant.DIV_FRO,
    4: ModelVariant.DIV_DIV,
}


def noise_pair(experiment: int, r: int):
    """The (x_noise, y_noise) models for an experiment id."""
    narrow = NoiseModel("gaussian", 1.0 / (2.0 * r))
    wide = NoiseModel("gaussian", 1.0)
    po = NoiseModel("poisson")
    pairs = {
        1: (wide, wide),
        2: (narrow, po),
        3: (po, narrow),
        4: (po, po),
    }
    if experiment not in pairs:
        raise ConfigError(f"experiment id must be in 1..4, got {experiment}")
    return pairs[experiment]


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark experiment. Defaults are the full-scale settings; pass
    smaller dims and iteration counts for a desk-scale run.

    The matched variant wins its column at the full-scale size, not on small
    matrices. There the score's eps guard decides the ranking: the Poisson
    sides are mostly zeros, the divergence fits drive the fitted product to
    the factor floor at entries whose counts are all zero but whose clean
    product is positive (as a Poisson MLE should), and the score charges each
    such entry c*log(c/eps), about 23c at eps=1e-10. At 100x100 those
    entries are 70-78% of the matched score in experiments 2-4 and the
    Frobenius fits win most columns; at 300x300 they are 49% and fro-fro
    still wins experiment 4. At 500x500 the matched variant wins every column
    after 1000 sweeps, where the fits have levelled off; a long run is not
    needed. The CLI's default synth-bench size (100x100) still shows the
    small-size pattern.
    """

    experiment: int
    n1: int = 500
    n2: int = 500
    k: int = 500
    r: int = 5
    density: float = 0.5
    lam: float = 1.0
    max_iters: int = 100000
    trials: int = 5
    seed: int = 0
    eps: float = 1e-10

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"experiment id must be in 1..4, got {self.experiment}")
        if not 0 < self.density <= 1:
            raise ConfigError(f"density must be in (0, 1], got {self.density}")
        _check_knobs(self)
        _check_rank(self.r, self.n1, self.n2)


def gen_factors(n1: int, n2: int, k: int, r: int, density: float, seed: int) -> FactorState:
    """Ground-truth factors: dense uniform A, sparse uniform S and B.

    S and B get exactly round(density * size) nonzeros, support drawn
    uniformly without replacement, values uniform on [0, 1).
    """
    if not 0 < density <= 1:
        raise ConfigError(f"density must be in (0, 1], got {density}")
    gen = substream(seed, "factors")
    a = gen.random((n1, r))

    def sparse(rows, cols):
        size = rows * cols
        nnz = int(round(density * size))
        flat = np.zeros(size)
        support = gen.choice(size, size=nnz, replace=False)
        flat[support] = gen.random(nnz)
        return flat.reshape(rows, cols)

    s = sparse(r, n2)
    b = sparse(k, r)
    return FactorState(a=a, b=b, s=s)


def _draw(noise: NoiseModel, mean, gen: np.random.Generator) -> np.ndarray:
    """Entrywise draws around mean from an explicit stream; Gaussians clamp at 0."""
    if noise.kind == "gaussian":
        return np.maximum(gen.normal(loc=mean, scale=math.sqrt(noise.variance)), 0.0)
    return gen.poisson(mean).astype(np.float64)


def sample_gaussian(mean, variance: float, seed: int) -> np.ndarray:
    """Entrywise N(mean, variance) draws, clamped at zero.

    Clamping keeps samples valid for the divergence models, but at the
    benchmark's means and variances it is not rare (measured at 100x100 and
    500x500): experiment 1 clamps 29% of X and 39% of Y, raising their means
    by 32% and 93%; experiment 2 clamps 11-13% of X and experiment 3 26-27%
    of Y. Experiment 1's data is therefore a clamped Gaussian, for which
    fro-fro is only approximately the MLE; this is why experiment 1's margin
    is the narrowest at most seeds (matched/best-other 0.961-0.994 at 500x500).
    """
    noise = NoiseModel("gaussian", variance)
    return _draw(noise, np.asarray(mean, dtype=np.float64), substream(seed, "gaussian"))


def sample_poisson(mean, seed: int) -> np.ndarray:
    """Entrywise Poisson draws with the given intensities (0 stays 0)."""
    mean = np.asarray(mean, dtype=np.float64)
    if np.any(mean < 0):
        raise ConfigError("poisson intensities must be nonnegative")
    return _draw(NoiseModel("poisson"), mean, substream(seed, "poisson"))


@dataclass
class ErrorGrid:
    """Mean relative errors, one row per variant, one column per experiment."""

    experiments: list
    variants: list
    means: np.ndarray  # len(variants) x len(experiments)
    per_trial: np.ndarray  # trials x len(variants) x len(experiments)

    def column_minima(self) -> list:
        """Index of the winning (lowest-error) variant per experiment."""
        return [int(np.argmin(self.means[:, j])) for j in range(self.means.shape[1])]

    def to_dict(self) -> dict:
        return {
            "experiments": [int(e) for e in self.experiments],
            "variants": [v.key for v in self.variants],
            "means": {
                v.key: {
                    f"experiment_{e}": float(self.means[i, j])
                    for j, e in enumerate(self.experiments)
                }
                for i, v in enumerate(self.variants)
            },
            "per_trial": [
                {
                    v.key: {
                        f"experiment_{e}": float(self.per_trial[t, i, j])
                        for j, e in enumerate(self.experiments)
                    }
                    for i, v in enumerate(self.variants)
                }
                for t in range(self.per_trial.shape[0])
            ],
        }

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = ",".join(f"experiment_{e}" for e in self.experiments)
            fh.write(f"variant,{header}\n")
            for i, v in enumerate(self.variants):
                row = ",".join(repr(float(x)) for x in self.means[i])
                fh.write(f"{v.key},{row}\n")


def _trial_column(spec: ExperimentSpec, trial: int) -> np.ndarray:
    """Relative errors of all variants for one trial of one experiment."""
    x_noise, y_noise = noise_pair(spec.experiment, spec.r)
    true = gen_factors(spec.n1, spec.n2, spec.k, spec.r, spec.density, spec.seed)
    clean_x = true.a @ true.s
    clean_y = true.b @ true.s
    x = _draw(x_noise, clean_x, substream(spec.seed, "x", trial, spec.experiment))
    y = _draw(y_noise, clean_y, substream(spec.seed, "y", trial, spec.experiment))
    init = _draw_factors(substream(spec.seed, "init", trial), spec.n1, spec.n2, spec.k, spec.r)
    score = ObjectiveSpec(MATCHED_VARIANT[spec.experiment], spec.lam)
    base = objective(score, init.a, init.b, init.s, clean_x, clean_y, eps=spec.eps)
    errors = np.empty(len(VARIANTS))
    for i, variant in enumerate(VARIANTS):
        state = init.copy()
        terms = _terms(variant, x, y, None, None, spec.eps)
        for _ in range(spec.max_iters):
            state = mu_step(variant, state, x, y, None, None, spec.lam, spec.eps, reuse=terms)
        if not all(np.all(np.isfinite(f)) for f in (state.a, state.b, state.s)):
            raise FitError(
                f"non-finite factors in trial {trial}, experiment {spec.experiment}, "
                f"variant {variant.key}"
            )
        final = objective(score, state.a, state.b, state.s, clean_x, clean_y, eps=spec.eps)
        errors[i] = final / base
    return errors


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


def run_benchmark(
    base: ExperimentSpec,
    experiments: Sequence[int] = EXPERIMENT_IDS,
    workers: int | None = None,
) -> ErrorGrid:
    """Every trial of every experiment, with base's knobs. Each (experiment,
    trial) job draws from its own substreams, so running them here or in a
    pool of min(workers, jobs, usable CPUs) processes gives the same grid bit
    for bit. workers defaults to default_workers().
    """
    workers = default_workers() if workers is None else workers
    if not workers >= 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    jobs = [(replace(base, experiment=e), t) for e in experiments for t in range(base.trials)]
    processes = min(workers, len(jobs), _usable_cpus())
    if processes <= 1:
        columns = [_trial_column(spec, t) for spec, t in jobs]
    else:
        with ProcessPoolExecutor(processes, initializer=_exit_with_parent) as pool:
            columns = list(pool.map(_trial_column, *zip(*jobs)))
    # jobs run experiment-major; per_trial is trials x variants x experiments
    per_trial = np.array(columns).reshape(len(experiments), base.trials, -1).transpose(1, 2, 0)
    return ErrorGrid(
        experiments=list(experiments),
        variants=list(VARIANTS),
        means=per_trial.mean(axis=0),
        per_trial=per_trial,
    )


def gen_separable(
    classes: int,
    per_class: int,
    features_per_class: int = 10,
    noise_var: float = 0.01,
    seed: int = 0,
):
    """Class-blocked data for classification tests.

    Each class owns a block of features; samples load on their class block
    only, plus clamped Gaussian noise. Returns (x, y, class_ids) with y the
    one-hot class matrix.
    """
    gen = substream(seed, "separable")
    n1 = classes * features_per_class
    n = classes * per_class
    a = np.zeros((n1, classes))
    for c in range(classes):
        block = slice(c * features_per_class, (c + 1) * features_per_class)
        a[block, c] = 0.5 + gen.random(features_per_class)
    class_ids = np.repeat(np.arange(classes), per_class)
    s = np.zeros((classes, n))
    s[class_ids, np.arange(n)] = 0.5 + gen.random(n)
    x = a @ s
    if noise_var > 0:
        x = x + gen.normal(0.0, math.sqrt(noise_var), size=x.shape)
    x = np.maximum(x, 0.0)
    y = np.zeros((classes, n))
    y[class_ids, np.arange(n)] = 1.0
    return x, y, class_ids
