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
from .objectives import ModelVariant, ObjectiveSpec, TermValue, objective
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


def _check_rank(r: int, n1: int, n2: int) -> None:
    """Reject a rank above min(n1, n2), the largest rank of an n1 x n2 X,
    before any factor is allocated."""
    if r > min(n1, n2):
        raise ConfigError(f"r must be <= min(n1, n2) = {min(n1, n2)} "
                          f"for {n1} x {n2} data, got {r}")


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
    """Current factors: a is n1 x r, b is k x r, s is r x n2.

    objective is the objective of the state a scored mu_step started from,
    and None otherwise.
    """

    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    objective: Optional[float] = None

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

    @classmethod
    def from_trace(cls, variant, config, state, trace) -> "FitResult":
        """The result of a run that ended at state with this objective trace."""
        relative_error = trace[-1] / trace[0] if trace[0] > 0 else 0.0
        return cls(variant, config, state, trace, relative_error, len(trace) - 1)

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


def _times_st(part, s):
    """part @ s.T, with None (all ones) as the row sums of s."""
    return s.sum(axis=1)[None, :] if part is None else part @ s.T


def _ft_times(f, part):
    """f.T @ part, with None (all ones) as the column sums of f."""
    return f.sum(axis=0)[:, None] if part is None else f.T @ part


def _terms(variant, x, y, w, l, eps):
    """The (reconstruction, supervision) objectives.TermValue pair of a system."""
    return (TermValue(x, w, variant.reconstruction, eps),
            TermValue(y, l, variant.supervision, eps))


def _update_dictionary(f, s, term, eps, scored):
    """One multiplicative update of a dictionary factor (A or B), s held fixed,
    and the term's error at (f, s), scored from the update's own product
    when scored (None otherwise)."""
    wz = term.product(f, s)
    value = term(wz) if scored else None
    pos, neg = term.parts(wz)
    return _apply_floor(f * _ratio(_times_st(neg, s), _times_st(pos, s), eps)), value


def _update_codes(s, weighted, eps):
    """One multiplicative update of the codes S under the fit terms in
    weighted, (f, term, weight) each with its factor f held fixed: numerator
    and denominator sum weight * f.T @ part over the terms."""
    num = den = None
    for f, term, weight in weighted:
        pos, neg = term.parts(term.product(f, s))
        n, d = weight * _ft_times(f, neg), weight * _ft_times(f, pos)
        num, den = (n, d) if num is None else (num + n, den + d)
    return _apply_floor(s * _ratio(num, den, eps))


def mu_step(
    variant: ModelVariant,
    state: FactorState,
    x,
    y,
    w=None,
    l=None,
    lam: float = 1.0,
    eps: float = 1e-10,
    *,
    terms=None,
) -> FactorState:
    """One sweep of multiplicative updates (A, then B, then S).

    terms, fit's (reconstruction, supervision) objectives.TermValue pair for
    these x, y, w, l and eps, makes the sweep score the state it starts from
    on the way: the A and B updates form exactly W.AS and L.BS of that state.
    The returned state then carries that objective; without terms, nothing
    is scored and its objective is None.
    """
    scored = terms is not None
    rec, sup = terms if scored else _terms(variant, x, y, w, l, eps)
    a, rec_value = _update_dictionary(state.a, state.s, rec, eps, scored)
    b, sup_value = _update_dictionary(state.b, state.s, sup, eps, scored)
    # the S update weighs each term by its gradient factor; the factors
    # cancel only when both terms share a loss
    cr, cs = (1.0, 1.0) if rec.loss is sup.loss else (rec.grad_factor, sup.grad_factor)
    s = _update_codes(state.s, [(a, rec, cr), (b, sup, cs * lam)], eps)
    value = rec_value + lam * sup_value if scored else None
    return FactorState(a, b, s, value)


def _check_system(x, y, w, l):
    x = matrix.check_nonnegative(matrix.as_matrix(x, "x"), "x")
    y = matrix.check_nonnegative(matrix.as_matrix(y, "y"), "y")
    if y.shape[1] != x.shape[1]:
        raise ShapeError(f"x has {x.shape[1]} columns but y has {y.shape[1]}")
    return x, y, matrix.as_mask(w, x, "w", "x"), matrix.as_mask(l, y, "l", "y")


def tol_stop(value: float, start: float, tol: float) -> bool:
    """The tol stop rule: a run ends at the first sweep t >= 1 whose objective
    value has value / start < tol, and returns state t. A larger tol never
    first holds at a later sweep than a smaller one."""
    return start > 0 and value / start < tol


def fit(
    variant: ModelVariant,
    x,
    y,
    config: SsnmfConfig,
    w=None,
    l=None,
    init: Optional[FactorState] = None,
    callback=None,
) -> FitResult:
    """Train the variant on (x, y) and return factors plus the objective trace.

    config.r above min(n1, n2) for the n1 x n2 x is a ConfigError, raised
    before any factor is drawn.

    The trace has one entry per sweep plus the value before the first sweep.
    Stops early at the first sweep where tol_stop(trace[-1], trace[0],
    config.tol) holds. The first value comes from objective; every other
    value is scored by the following sweep from the products its A and B
    updates form, and the last one of a run through all max_iters sweeps by
    fit's own terms on the last state, equal to objective bit for bit. So a
    tol stop at sweep t returns state t and discards the one sweep that
    scored it. A value that is not finite raises FitError naming its sweep.

    callback(sweep, state, value), when given, is called once per trace
    entry, in order: sweep 0 with the start state, then each sweep t with
    state t and trace[t]; the last call has the returned state. fit never
    changes a state after passing it, so the callback may keep states but
    must not modify them.
    """
    x, y, w, l = _check_system(x, y, w, l)
    n1, n2 = x.shape
    k = y.shape[0]
    _check_rank(config.r, n1, n2)
    state = init.copy() if init is not None else initialize(n1, n2, k, config)
    trace = []

    def record(state, value):
        sweep = len(trace)
        if not math.isfinite(value):
            where = f"sweep {sweep}" if sweep else "initialization"
            raise FitError(f"objective is {value} at {where}")
        trace.append(value)
        if callback is not None:
            callback(sweep, state, value)

    spec = ObjectiveSpec(variant, config.lam)
    record(state, objective(spec, state.a, state.b, state.s, x, y, w, l, eps=config.eps))
    terms = _terms(variant, x, y, w, l, config.eps)
    state = mu_step(variant, state, x, y, w, l, config.lam, config.eps)
    for _ in range(1, config.max_iters):
        # the next sweep scores the state it starts from
        ahead = mu_step(variant, state, x, y, w, l, config.lam, config.eps, terms=terms)
        record(state, ahead.objective)
        if tol_stop(ahead.objective, trace[0], config.tol):
            break
        state = ahead
    else:
        rec, sup = terms
        record(state, rec(rec.product(state.a, state.s))
               + config.lam * sup(sup.product(state.b, state.s)))
    return FitResult.from_trace(variant, config, state, trace)


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
    for f, term, weight in zip((state.a, state.b), _terms(variant, x, y, w, l, eps), (1.0, lam)):
        pos, neg = term.parts(term.product(f, s))
        c = term.grad_factor * weight
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
    for f, term, weight in zip((state.a, state.b), _terms(variant, x, y, w, l, eps), (1.0, lam)):
        pos, _ = term.parts(term.product(f, s))
        c = term.grad_factor * weight
        scales.append(f / (c * _times_st(pos, s) + eps))
        den = den + c * _ft_times(f, pos)
    return scales[0], scales[1], s / (den + eps)
