"""Synthetic data generation and the noise-model benchmark.

The benchmark fits all four model variants on data generated under four
Gaussian/Poisson noise pairs and scores each fit by the relative error of the
objective matched to the noise pair, computed against the clean products
A @ S and B @ S. The variant that is the maximum-likelihood estimator for a
noise pair should win its own column, which is the pattern the acceptance
suite checks for.

Each experiment's noise follows its matched variant (MATCHED_VARIANT): a
fro side gets Gaussian noise clamped at 0, a div side Poisson counts.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ConfigError, FitError
from .jobs import map_jobs
from .objectives import VARIANTS, Loss, ModelVariant, ObjectiveSpec, objective
from .rng import substream
from .solver import FactorState, _check_knobs, _check_rank, _draw_factors, _terms, mu_step


EXPERIMENT_IDS = (1, 2, 3, 4)

# experiment id -> the variant that is the MLE under its noise, which the
# variant sets: Gaussian on a fro side, Poisson on a div side
MATCHED_VARIANT = dict(zip(EXPERIMENT_IDS, VARIANTS))


@dataclass(frozen=True)
class ExperimentSpec:
    """The knobs every experiment of a benchmark run shares. Defaults are the
    full-scale settings; pass smaller dims and iteration counts for a
    desk-scale run.

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


def _draw(loss: Loss, variance: float, mean, gen: np.random.Generator) -> np.ndarray:
    """Entrywise draws around mean from an explicit stream, the noise that
    loss is the MLE for: Gaussian of the given variance, clamped at 0, for
    fro, Poisson for div.

    Clamping keeps samples valid for the divergence models, but at the
    benchmark's means and variances it is not rare (measured at 100x100 and
    500x500): experiment 1 clamps 29% of X and 39% of Y, raising their means
    by 32% and 93%; experiment 2 clamps 11-13% of X and experiment 3 26-27%
    of Y. Experiment 1's data is therefore a clamped Gaussian, for which
    fro-fro is only approximately the MLE; this is why experiment 1's margin
    is the narrowest at most seeds (matched/best-other 0.961-0.994 at 500x500).
    """
    if loss is Loss.FRO:
        return np.maximum(gen.normal(loc=mean, scale=math.sqrt(variance)), 0.0)
    return gen.poisson(mean).astype(np.float64)


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

    def _table(self, errors) -> dict:
        """{variant: {"experiment_<id>": error}} of a variants x experiments array."""
        return {v.key: {f"experiment_{e}": float(error) for e, error in zip(self.experiments, row)}
                for v, row in zip(self.variants, errors)}

    def to_dict(self) -> dict:
        return {
            "experiments": [int(e) for e in self.experiments],
            "variants": [v.key for v in self.variants],
            "means": self._table(self.means),
            "per_trial": [self._table(trial) for trial in self.per_trial],
        }

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = ",".join(f"experiment_{e}" for e in self.experiments)
            fh.write(f"variant,{header}\n")
            for i, v in enumerate(self.variants):
                row = ",".join(repr(float(x)) for x in self.means[i])
                fh.write(f"{v.key},{row}\n")


def _trial_column(spec: ExperimentSpec, experiment: int, trial: int) -> np.ndarray:
    """Relative errors of all variants for one trial of one experiment."""
    matched = MATCHED_VARIANT[experiment]
    # a Gaussian side has variance 1 beside another Gaussian, 1/(2r) beside a Poisson
    variance = 1.0 if matched is ModelVariant.FRO_FRO else 1.0 / (2.0 * spec.r)
    true = gen_factors(spec.n1, spec.n2, spec.k, spec.r, spec.density, spec.seed)
    clean_x = true.a @ true.s
    clean_y = true.b @ true.s
    x = _draw(matched.reconstruction, variance, clean_x,
              substream(spec.seed, "x", trial, experiment))
    y = _draw(matched.supervision, variance, clean_y,
              substream(spec.seed, "y", trial, experiment))
    init = _draw_factors(substream(spec.seed, "init", trial), spec.n1, spec.n2, spec.k, spec.r)
    score = ObjectiveSpec(matched, spec.lam)
    base = objective(score, init.a, init.b, init.s, clean_x, clean_y, eps=spec.eps)
    errors = np.empty(len(VARIANTS))
    for i, variant in enumerate(VARIANTS):
        state = init.copy()
        terms = _terms(variant, x, y, None, None, spec.eps)
        for _ in range(spec.max_iters):
            state = mu_step(variant, state, x, y, None, None, spec.lam, spec.eps, reuse=terms)
        if not all(np.all(np.isfinite(f)) for f in (state.a, state.b, state.s)):
            raise FitError(
                f"non-finite factors in trial {trial}, experiment {experiment}, "
                f"variant {variant.key}"
            )
        final = objective(score, state.a, state.b, state.s, clean_x, clean_y, eps=spec.eps)
        errors[i] = final / base
    return errors


def run_benchmark(base: ExperimentSpec, experiments: Sequence[int] = EXPERIMENT_IDS) -> ErrorGrid:
    """Every trial of every experiment, with base's knobs, on jobs.map_jobs's
    processes. Each (experiment, trial) job draws from its own substreams, so
    the grid is the same bit for bit on any number of processes. Every job
    holds base itself, so a pool gets it once per process.
    """
    if not experiments or any(e not in MATCHED_VARIANT for e in experiments):
        raise ConfigError(f"experiment ids must be a nonempty list of 1..4, "
                          f"got {list(experiments)}")
    jobs = [(base, e, t) for e in experiments for t in range(base.trials)]
    columns = map_jobs(_trial_column, jobs)
    # jobs run experiment-major; per_trial is trials x variants x experiments
    per_trial = np.array(columns).reshape(len(experiments), base.trials, -1).transpose(1, 2, 0)
    return ErrorGrid(list(experiments), list(VARIANTS), per_trial.mean(axis=0), per_trial)


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
