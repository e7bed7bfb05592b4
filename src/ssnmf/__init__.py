"""Semi-supervised nonnegative matrix factorization.

Jointly factorizes a data matrix X ~ A @ S and a label matrix Y ~ B @ S with
a shared nonnegative representation S, under squared Frobenius or information
divergence error on either term. Includes multiplicative-update training,
classification on top of the learned dictionaries, synthetic noise-model
benchmarks, text preprocessing, and cluster evaluation.
"""

from . import evalcluster, matrix, rng, textprep
from .classify import (
    ClassifierModel,
    accuracy,
    grid_search,
    label,
    load_model,
    predict,
    save_model,
    train,
    transform,
)
from .exceptions import (
    ConfigError,
    EvaluationError,
    FitError,
    ParseError,
    ShapeError,
)
from .objectives import (
    VARIANTS,
    Loss,
    ModelVariant,
    ObjectiveSpec,
    frobenius_sq,
    i_divergence,
    mle_lambda,
    objective,
)
from .solver import (
    FactorState,
    FitResult,
    SsnmfConfig,
    fit,
    gradient,
    initialize,
    mu_step,
    step_scale,
)
from .synth import (
    ErrorGrid,
    ExperimentSpec,
    NoiseModel,
    gen_factors,
    gen_separable,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel",
    "ConfigError",
    "ErrorGrid",
    "EvaluationError",
    "ExperimentSpec",
    "FactorState",
    "FitError",
    "FitResult",
    "Loss",
    "ModelVariant",
    "NoiseModel",
    "ObjectiveSpec",
    "ParseError",
    "ShapeError",
    "SsnmfConfig",
    "VARIANTS",
    "accuracy",
    "fit",
    "frobenius_sq",
    "gen_factors",
    "gen_separable",
    "gradient",
    "grid_search",
    "i_divergence",
    "initialize",
    "label",
    "load_model",
    "mle_lambda",
    "mu_step",
    "objective",
    "predict",
    "run_benchmark",
    "save_model",
    "step_scale",
    "train",
    "transform",
]
