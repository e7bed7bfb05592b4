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
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import matrix
from .exceptions import ParseError, ShapeError
from .objectives import ModelVariant
from .rng import substream
from .solver import SsnmfConfig, _apply_floor, _ratio, _s_terms, fit

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
    model = ClassifierModel(
        a_train=result.state.a,
        b_train=result.state.b,
        variant=variant,
        config=config,
    )
    return model, result


def transform(
    model: ClassifierModel,
    x_test,
    w_test=None,
    iters: int = DEFAULT_TRANSFORM_ITERS,
) -> np.ndarray:
    """Codes S for new data under the frozen dictionary A.

    Runs one-sided multiplicative updates on S alone, using the model's
    reconstruction error. S starts from the same seeded uniform scheme as
    training initialization (its own substream of config.seed).
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
    loss = model.variant.reconstruction
    for _ in range(iters):
        num, den = _s_terms(a, s, x_test, w_test, loss, eps)
        s = _apply_floor(s * _ratio(num, den, eps))
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
