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
from dataclasses import asdict, dataclass, replace
from typing import Optional, get_type_hints

import numpy as np

from . import matrix
from .exceptions import FitError, ParseError, ShapeError
from .jobs import map_jobs
from .objectives import ModelVariant, TermValue
from .rng import substream
from .solver import FitResult, SsnmfConfig, _config_value, _uniform, _update_codes, fit, tol_stop

DEFAULT_TRANSFORM_ITERS = 200
GRID_TOLS = (1e-4, 1e-3, 1e-2)
GRID_LAMBDAS = (10.0, 100.0, 1000.0)
# columns per transform job: at 600x723, r=13 and 1 CPU, 200 updates took 0.25-0.29 s in blocks
# of 128, whose temporaries stay in cache, 0.29-0.35 s whole and 0.29-0.43 s in blocks of 32-256
TRANSFORM_BLOCK = 128


@dataclass
class ClassifierModel:
    a_train: np.ndarray
    b_train: np.ndarray
    variant: ModelVariant
    config: SsnmfConfig


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


def grid_search(x_train, y_train, x_val, y_val, variant: ModelVariant, config: SsnmfConfig,
                w_train=None, iters: int = DEFAULT_TRANSFORM_ITERS):
    """Choose (tol, lam) in GRID_TOLS x GRID_LAMBDAS by accuracy on x_val.

    Returns ((model, result), rows): train's output at the most accurate
    pair (the first row on ties), bit for bit, and one {"tol", "lam",
    "val_accuracy"} row per pair, tol-major. A tol's run is where its stop
    (solver.tol_stop) falls on one fit per lam at the smallest tol, so tols
    stopping at one sweep share factors and one validation transform. Each
    lam is one jobs.map_jobs job, so the processes do not change the result.
    A validation split unlike the training set is a ShapeError, and iters
    below 1 a ValueError, before any fit.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    _check_split(x_train, y_train, x_val, y_val, "val")
    jobs = [(x_train, y_train, x_val, y_val, w_train, variant, iters, replace(config, lam=lam),
             GRID_TOLS) for lam in GRID_LAMBDAS]
    per_lam = dict(zip(GRID_LAMBDAS, map_jobs(_grid_lam, jobs)))
    rows = [{"tol": tol, "lam": lam, "val_accuracy": per_lam[lam][tol][1]}
            for tol in GRID_TOLS for lam in GRID_LAMBDAS]
    best = max(rows, key=lambda row: row["val_accuracy"])  # the first of equals
    return per_lam[best["lam"]][best["tol"]][0], rows


def _grid_lam(x_train, y_train, x_val, y_val, w_train, variant, iters, config, tols):
    """grid_search's job for config.lam: tol -> ((model, run), val accuracy)."""
    trace, stops = [], {}  # stops: tol -> (sweep, state) at its first stop

    def snapshot(sweep, state, value):
        trace.append(value)
        for tol in tols:
            if sweep and tol not in stops and tol_stop(value, trace[0], tol):
                stops[tol] = (sweep, state)

    result = fit(variant, x_train, y_train, replace(config, tol=min(tols)),
                 w=w_train, callback=snapshot)
    out, val_accuracy = {}, {}  # val_accuracy: sweep -> accuracy
    for tol in tols:
        sweep, state = stops.get(tol, (result.iterations_run, result.state))
        run = FitResult.from_trace(variant, replace(config, tol=tol), state,
                                   result.objective_trace[: sweep + 1])
        model = _model(run)
        if sweep not in val_accuracy:
            y_pred = predict(model, transform(model, x_val, iters=iters))
            val_accuracy[sweep] = accuracy(y_val, y_pred)
        out[tol] = ((model, run), val_accuracy[sweep])
    return out


def _check_split(x_train, y_train, x, y, split):
    """Reject an evaluation split whose x is not finite and nonnegative with
    x_train's rows, or whose y, when given, is not y_train's rows by x's columns."""
    rows, cols = matrix.check_nonnegative(matrix.as_matrix(x, f"x_{split}"), f"x_{split}").shape
    if rows != np.shape(x_train)[0]:
        raise ShapeError(f"x_{split} has {rows} rows, x_train has {np.shape(x_train)[0]}")
    if y is not None and np.shape(y) != (np.shape(y_train)[0], cols):
        raise ShapeError(f"y_{split} has shape {np.shape(y)}, expected "
                         f"{(np.shape(y_train)[0], cols)} from y_train and x_{split}")


def transform(
    model: ClassifierModel,
    x_test,
    w_test=None,
    iters: int = DEFAULT_TRANSFORM_ITERS,
) -> np.ndarray:
    """Codes S for new data under the frozen dictionary A.

    Runs one-sided multiplicative updates on S alone, using the model's
    reconstruction error. S starts from the same seeded uniform scheme as
    training initialization (its own substream of config.seed). Under the
    divergence the quotient W.X / (W.AS + eps) is formed at X's nonzero
    entries only when W.X is at most objectives.SPARSE_QUOTIENT_DENSITY
    dense, as text data is. Each near-equal block of at most TRANSFORM_BLOCK
    columns is one jobs.map_jobs job whose codes depend on that block alone.
    Codes that are not finite after the last update raise FitError.
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
    s = _uniform(substream(model.config.seed, "transform"), (a.shape[1], x_test.shape[1]))
    blocks = max(1, -(-x_test.shape[1] // TRANSFORM_BLOCK))  # 0 columns: one empty block
    jobs = [(model, iters, *block) for block in zip(
        *([None] * blocks if m is None else np.array_split(m, blocks, axis=1)
          for m in (s, x_test, w_test)))]
    s = np.hstack(map_jobs(_transform_block, jobs))
    if not np.all(np.isfinite(s)):
        raise FitError(f"transform codes are not finite after {iters} iterations")
    return s


def _transform_block(model, iters, s, x, w):
    """transform's job: the codes s of x's columns after iters updates."""
    eps = model.config.eps
    term = TermValue(x, w, model.variant.reconstruction, eps)
    weighted = [(model.a_train, term, 1.0)]
    # a non-finite entry stays non-finite, so one check after the loop is enough
    with np.errstate(over="ignore", invalid="ignore"):
        term.freeze(model.a_train)
        for _ in range(iters):
            s = _update_codes(s, weighted, eps)
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
    """save_model's model; a bad manifest or matrix is a ParseError naming its file."""
    path = os.path.join(model_dir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    try:
        config = SsnmfConfig(**{name: _config_value(name, kind, manifest[name])
                                for name, kind in get_type_hints(SsnmfConfig).items()})
        variant = ModelVariant.parse(_config_value("variant", str, manifest["variant"]))
    except KeyError as exc:
        raise ParseError(f"{path}: manifest has no {exc.args[0]!r} field") from None
    except ValueError as exc:
        raise ParseError(f"{path}: manifest field {exc}") from None
    factors = []
    for name in ("A", "B"):
        csv = os.path.join(model_dir, f"{name}.csv")
        try:
            factors.append(matrix.check_nonnegative(matrix.read_csv(csv), name))
        except ShapeError as exc:
            raise ParseError(f"{csv}: {exc}") from None
        if factors[-1].shape[1] != config.r:
            raise ParseError(f"{path}: manifest field r is {config.r}, "
                             f"but {name}.csv has {factors[-1].shape[1]} columns")
    return ClassifierModel(*factors, variant, config)
