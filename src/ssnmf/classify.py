"""Classification on top of the joint factorization.

Three steps: train dictionaries A, B on labeled data, project new data onto
the fixed dictionary A to get codes S, then read off labels from B @ S. The
projection reuses the multiplicative update for S under the model's
reconstruction error, so both Frobenius and divergence models share one
mechanism.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import matrix
from .exceptions import FitError, ParseError, ShapeError
from .objectives import ModelVariant, TermValue
from .rng import substream
from .solver import FitResult, SsnmfConfig, _update_codes, fit, tol_stop

DEFAULT_TRANSFORM_ITERS = 200


@dataclass
class ClassifierModel:
    a_train: np.ndarray
    b_train: np.ndarray
    variant: ModelVariant
    config: SsnmfConfig

    @property
    def r(self) -> int:
        return self.a_train.shape[1]


def train(
    x_train,
    y_train,
    variant: ModelVariant,
    config: SsnmfConfig,
    w_train=None,
    l_train=None,
):
    """Fit the variant on labeled data and keep the dictionaries.

    With l_train omitted every training column counts as labeled. Returns the
    model together with the full fit diagnostics.
    """
    result = fit(variant, x_train, y_train, config, w=w_train, l=l_train)
    return _model(result), result


def _model(result: FitResult) -> ClassifierModel:
    return ClassifierModel(result.state.a, result.state.b, result.variant, result.config)


def train_tols(
    x_train,
    y_train,
    variant: ModelVariant,
    config: SsnmfConfig,
    tols,
    w_train=None,
    l_train=None,
) -> dict:
    """train at every tol in tols from one fit: {tol: (model, result)}.

    For one config apart from tol, runs follow one trajectory and differ only
    in where they stop (solver.tol_stop), so a fit at the smallest tol passes
    each larger tol's stop on its way. Each tol gets the state and the trace
    up to its own stop, or the whole run if it never stops, and equals train
    at that tol bit for bit. Tols that stop at the same sweep share factors.
    """
    start = []
    stops = {}  # tol -> (sweep, state) at its first stop

    def snapshot(sweep, state, value):
        if sweep == 0:
            start.append(value)
            return
        for tol in tols:
            if tol not in stops and tol_stop(value, start[0], tol):
                stops[tol] = (sweep, state)

    result = fit(variant, x_train, y_train, replace(config, tol=min(tols)),
                 w=w_train, l=l_train, callback=snapshot)
    trained = {}
    for tol in tols:
        sweep, state = stops.get(tol, (result.iterations_run, result.state))
        run = FitResult.from_trace(variant, replace(config, tol=tol), state,
                                   result.objective_trace[: sweep + 1])
        trained[tol] = (_model(run), run)
    return trained


def transform(
    model: ClassifierModel,
    x_test,
    w_test=None,
    iters: int = DEFAULT_TRANSFORM_ITERS,
) -> np.ndarray:
    """Codes S for new data under the frozen dictionary A.

    Runs one-sided multiplicative updates on S alone, using the model's
    reconstruction error. S starts from the same seeded uniform scheme as
    training initialization (its own substream of config.seed). Codes that
    are not finite after the last update raise FitError.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    x_test = matrix.check_nonnegative(matrix.as_matrix(x_test, "x_test"), "x_test")
    a = model.a_train
    if x_test.shape[0] != a.shape[0]:
        raise ShapeError(
            f"x_test has {x_test.shape[0]} rows, dictionary expects {a.shape[0]}"
        )
    w_test = matrix.as_mask(w_test, x_test, "w_test", "x_test")
    eps = model.config.eps
    gen = substream(model.config.seed, "transform")
    s = gen.random((a.shape[1], x_test.shape[1])) + 0.01
    weighted = [(a, TermValue(x_test, w_test, model.variant.reconstruction, eps), 1.0)]
    # a non-finite entry stays non-finite, so one check after the loop is enough
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            s = _update_codes(s, weighted, eps)
    if not np.all(np.isfinite(s)):
        raise FitError(f"transform codes are not finite after {iters} iterations")
    return s


def label(z) -> np.ndarray:
    """One-hot per column at the largest entry; ties go to the lowest row."""
    z = matrix.as_matrix(z, "z")
    out = np.zeros_like(z)
    out[np.argmax(z, axis=0), np.arange(z.shape[1])] = 1.0
    return out


def predict(model: ClassifierModel, s_test) -> np.ndarray:
    s_test = matrix.as_matrix(s_test, "s_test")
    if s_test.shape[0] != model.b_train.shape[1]:
        raise ShapeError(
            f"s_test has {s_test.shape[0]} rows, model rank is {model.b_train.shape[1]}"
        )
    return label(model.b_train @ s_test)


def accuracy(y_true, y_pred) -> float:
    """Fraction of columns whose one-hot labels match exactly."""
    y_true = matrix.as_matrix(y_true, "y_true")
    y_pred = matrix.as_matrix(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.all(y_true == y_pred, axis=0).mean())


def save_model(model: ClassifierModel, out_dir, vocabulary: Optional[str] = None) -> None:
    """Persist as A.csv + B.csv + manifest.json in out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    matrix.write_csv(os.path.join(out_dir, "A.csv"), model.a_train)
    matrix.write_csv(os.path.join(out_dir, "B.csv"), model.b_train)
    manifest = {"variant": model.variant.key, "vocabulary": vocabulary, **asdict(model.config)}
    matrix.write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_model(model_dir) -> ClassifierModel:
    path = os.path.join(model_dir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    try:
        config = SsnmfConfig(**{f.name: manifest[f.name] for f in fields(SsnmfConfig)})
        variant = ModelVariant.parse(manifest["variant"])
    except KeyError as exc:
        raise ParseError(f"{path}: manifest has no {exc.args[0]!r} field") from None
    return ClassifierModel(
        a_train=matrix.read_csv(os.path.join(model_dir, "A.csv")),
        b_train=matrix.read_csv(os.path.join(model_dir, "B.csv")),
        variant=variant,
        config=config,
    )
