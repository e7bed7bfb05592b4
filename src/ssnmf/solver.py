"""Multiplicative-update training for the joint factorization.

One sweep updates A, then B, then S; each later update sees the factors
already updated in the same sweep. Every multiplicative ratio is guarded as
(numerator + eps) / (denominator + eps), so a fully masked-out factor is left
unchanged instead of being dragged to zero, and exact factorizations are fixed
points of the sweep. Masks are 0/1 indicators and may be None, meaning all
ones; that path skips materializing the mask and agrees with the
explicit-ones path to rounding.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import matrix
from .exceptions import ConfigError, FitError, ShapeError
from .objectives import Loss, ModelVariant, ObjectiveSpec, objective
from .rng import substream


# the lowest allowed value of each bounded numeric knob, for every config dataclass
_LOWEST = {"r": 1, "max_iters": 1, "n1": 1, "n2": 1, "k": 1, "trials": 1, "lam": 0, "tol": 0}


def _check_knobs(config) -> None:
    """Reject a knob below its lowest value, a non-positive eps, and any of
    them non-finite. Each test states what must hold, so NaN, which fails
    every comparison, fails the test."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in _LOWEST and not _LOWEST[f.name] <= value < math.inf:
            raise ConfigError(f"{f.name} must be finite and >= {_LOWEST[f.name]}, got {value}")
    if not 0 < config.eps < math.inf:
        raise ConfigError(f"eps must be finite and positive, got {config.eps}")


@dataclass(frozen=True)
class SsnmfConfig:
    """Training knobs: factorization rank and loop controls.

    tol stops training once objective(now) / objective(start) drops below it;
    tol = 0 disables the check and runs all max_iters sweeps.
    """

    r: int
    lam: float = 1.0
    max_iters: int = 100
    tol: float = 0.0
    eps: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _check_knobs(self)


@dataclass
class FactorState:
    """Current factors: a is n1 x r, b is k x r, s is r x n2."""

    a: np.ndarray
    b: np.ndarray
    s: np.ndarray

    def copy(self) -> "FactorState":
        return FactorState(self.a.copy(), self.b.copy(), self.s.copy())


@dataclass
class FitResult:
    variant: ModelVariant
    config: SsnmfConfig
    state: FactorState
    objective_trace: list = field(default_factory=list)
    relative_error: float = 0.0
    iterations_run: int = 0

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.key,
            "config": asdict(self.config),
            "objective_trace": [float(v) for v in self.objective_trace],
            "relative_error": float(self.relative_error),
            "iterations_run": int(self.iterations_run),
        }

    def save(self, out_dir) -> None:
        """Write result.json plus A.csv, B.csv, S.csv into out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        matrix.write_json(os.path.join(out_dir, "result.json"), self.to_dict())
        matrix.write_csv(os.path.join(out_dir, "A.csv"), self.state.a)
        matrix.write_csv(os.path.join(out_dir, "B.csv"), self.state.b)
        matrix.write_csv(os.path.join(out_dir, "S.csv"), self.state.s)


def _draw_factors(gen: np.random.Generator, n1: int, n2: int, k: int, r: int) -> FactorState:
    """Uniform [0.01, 1.01) factors from an explicit stream, drawn A, then B, then S."""
    a = gen.random((n1, r)) + 0.01
    b = gen.random((k, r)) + 0.01
    s = gen.random((r, n2)) + 0.01
    return FactorState(a, b, s)


def initialize(n1: int, n2: int, k: int, config: SsnmfConfig) -> FactorState:
    """Strictly positive uniform draws on [0.01, 1.01), deterministic per seed."""
    return _draw_factors(substream(config.seed, "init"), n1, n2, k, config.r)


def _ratio(num, den, eps):
    # symmetric guard: zero-signal updates become exact no-ops
    return (num + eps) / (den + eps)


# Smallest magnitude a factor entry may keep. Multiplicative decay toward an
# unneeded entry otherwise walks through the subnormal float range, where
# hardware arithmetic is an order of magnitude slower. Entries at the floor
# are zero for every practical purpose; exact zeros stay exact zeros.
FACTOR_FLOOR = 1e-100


def _apply_floor(f):
    np.maximum(f, FACTOR_FLOOR, out=f, where=f != 0.0)
    return f


# Factor of each loss's gradient in the product: the squared Frobenius
# residual brings a 2 that the divergence gradient lacks.
_GRAD_FACTOR = {Loss.FRO: 2.0, Loss.DIV: 1.0}


def _gradient_parts(f, s, data, mask, loss, eps):
    """The nonnegative parts (pos, neg) of one fit term's gradient in Z = f @ s.

    The term's gradient in Z is _GRAD_FACTOR[loss] * (pos - neg), and its
    multiplicative update is the ratio of neg to pos carried through the
    product. A pos of None stands for all ones. This is the one place where
    the loss and the mask are told apart.
    """
    # z is a fresh product, so it is reused in place: every large temporary
    # costs page faults once the allocator has handed its memory back
    z = f @ s
    if mask is not None:
        z *= mask
    if loss is Loss.FRO:
        return z, (data if mask is None else mask * data)
    z += eps
    if mask is None:
        return None, np.divide(data, z, out=z)
    np.divide(mask * data, z, out=z)
    z *= mask
    return mask, z


def _times_st(part, s):
    """part @ s.T, with None (all ones) as the row sums of s."""
    return s.sum(axis=1)[None, :] if part is None else part @ s.T


def _ft_times(f, part):
    """f.T @ part, with None (all ones) as the column sums of f."""
    return f.sum(axis=0)[:, None] if part is None else f.T @ part


def _update_dictionary(f, s, data, mask, loss, eps):
    """One multiplicative update of a dictionary factor (A or B), s held fixed."""
    pos, neg = _gradient_parts(f, s, data, mask, loss, eps)
    return f * _ratio(_times_st(neg, s), _times_st(pos, s), eps)


def _s_terms(f, s, data, mask, loss, eps):
    """Numerator and denominator contribution of one fit term to the S update."""
    pos, neg = _gradient_parts(f, s, data, mask, loss, eps)
    return _ft_times(f, neg), _ft_times(f, pos)


def mu_step(
    variant: ModelVariant,
    state: FactorState,
    x,
    y,
    w=None,
    l=None,
    lam: float = 1.0,
    eps: float = 1e-10,
) -> FactorState:
    """One sweep of multiplicative updates (A, then B, then S)."""
    rec = variant.reconstruction
    sup = variant.supervision
    a = _apply_floor(_update_dictionary(state.a, state.s, x, w, rec, eps))
    b = _apply_floor(_update_dictionary(state.b, state.s, y, l, sup, eps))

    # the S update weighs each term by its gradient factor; the factors
    # cancel only when both terms share a loss
    num_r, den_r = _s_terms(a, state.s, x, w, rec, eps)
    num_s, den_s = _s_terms(b, state.s, y, l, sup, eps)
    cr, cs = (1.0, 1.0) if rec is sup else (_GRAD_FACTOR[rec], _GRAD_FACTOR[sup])
    num = cr * num_r + cs * lam * num_s
    den = cr * den_r + cs * lam * den_s
    s = _apply_floor(state.s * _ratio(num, den, eps))
    return FactorState(a, b, s)


def _check_system(x, y, w, l):
    x = matrix.check_nonnegative(matrix.as_matrix(x, "x"), "x")
    y = matrix.check_nonnegative(matrix.as_matrix(y, "y"), "y")
    if y.shape[1] != x.shape[1]:
        raise ShapeError(f"x has {x.shape[1]} columns but y has {y.shape[1]}")
    return x, y, matrix.as_mask(w, x, "w", "x"), matrix.as_mask(l, y, "l", "y")


def fit(
    variant: ModelVariant,
    x,
    y,
    config: SsnmfConfig,
    w=None,
    l=None,
    init: Optional[FactorState] = None,
) -> FitResult:
    """Train the variant on (x, y) and return factors plus the objective trace.

    The trace has one entry per sweep plus the value before the first sweep.
    Stops early once trace[-1] / trace[0] < config.tol.
    """
    x, y, w, l = _check_system(x, y, w, l)
    n1, n2 = x.shape
    k = y.shape[0]
    state = init.copy() if init is not None else initialize(n1, n2, k, config)
    spec = ObjectiveSpec(variant, config.lam)
    start = objective(spec, state.a, state.b, state.s, x, y, w, l, eps=config.eps)
    if not math.isfinite(start):
        raise FitError(f"objective is {start} at initialization")
    trace = [start]
    iterations = 0
    for _ in range(config.max_iters):
        state = mu_step(variant, state, x, y, w, l, config.lam, config.eps)
        value = objective(spec, state.a, state.b, state.s, x, y, w, l, eps=config.eps)
        trace.append(value)
        iterations += 1
        if start > 0 and value / start < config.tol:
            break
    relative_error = trace[-1] / trace[0] if trace[0] > 0 else 0.0
    return FitResult(
        variant=variant,
        config=config,
        state=state,
        objective_trace=trace,
        relative_error=relative_error,
        iterations_run=iterations,
    )


def _fit_terms(variant, state, x, y, w, l, lam):
    """(factor, data, mask, loss, weight) of the reconstruction and supervision terms."""
    return (
        (state.a, np.asarray(x, dtype=np.float64), w, variant.reconstruction, 1.0),
        (state.b, np.asarray(y, dtype=np.float64), l, variant.supervision, lam),
    )


def gradient(
    variant: ModelVariant,
    state: FactorState,
    x,
    y,
    w=None,
    l=None,
    lam: float = 1.0,
    eps: float = 1e-10,
):
    """Analytic gradients (dA, dB, dS) of the joint objective.

    Divergence quotients are eps-guarded and never raise.
    """
    s = state.s
    grads = []
    ds = 0.0
    for f, data, mask, loss, weight in _fit_terms(variant, state, x, y, w, l, lam):
        pos, neg = _gradient_parts(f, s, data, mask, loss, eps)
        c = _GRAD_FACTOR[loss] * weight
        grads.append(c * (_times_st(pos, s) - _times_st(neg, s)))
        ds = ds + c * (_ft_times(f, pos) - _ft_times(f, neg))
    return grads[0], grads[1], ds


def step_scale(
    variant: ModelVariant,
    state: FactorState,
    x,
    y,
    w=None,
    l=None,
    lam: float = 1.0,
    eps: float = 1e-10,
):
    """Entrywise step sizes (Ga, Gb, Gs) for the scaled gradient-descent view.

    Each multiplicative update equals factor - G . grad for these scales (up
    to the eps ratio guard), which is what makes the sweep a descent scheme.
    """
    s = state.s
    scales = []
    den = 0.0
    for f, data, mask, loss, weight in _fit_terms(variant, state, x, y, w, l, lam):
        pos, _ = _gradient_parts(f, s, data, mask, loss, eps)
        c = _GRAD_FACTOR[loss] * weight
        scales.append(f / (c * _times_st(pos, s) + eps))
        den = den + c * _ft_times(f, pos)
    return scales[0], scales[1], s / (den + eps)
