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
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import matrix
from .exceptions import ConfigError, FitError, ShapeError
from .objectives import ModelVariant, ObjectiveSpec, objective, pair_value, term_pair
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


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _config_value(key, kind, value):
    """A config file or manifest value as its option's type. 2.0 is an integer;
    2.7, true and "2" are not; no other JSON type stands in for a string or a bool."""
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    elif kind in (int, float):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    else:
        ok = isinstance(value, kind)
    if not ok:
        want = "one of " + ", ".join(kind) if isinstance(kind, tuple) else _KIND_NAMES[kind]
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    return kind(value) if kind in (int, float) else value


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


def _uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform [0.01, 1.01) entries from an explicit stream: fit's and transform's start."""
    return gen.random(shape) + 0.01


def _draw_factors(gen: np.random.Generator, n1: int, n2: int, k: int, r: int) -> FactorState:
    """Uniform [0.01, 1.01) factors from an explicit stream, drawn A, then B, then S."""
    return FactorState(_uniform(gen, (n1, r)), _uniform(gen, (k, r)), _uniform(gen, (r, n2)))


def initialize(n1: int, n2: int, k: int, config: SsnmfConfig) -> FactorState:
    """Strictly positive uniform draws on [0.01, 1.01), deterministic per seed."""
    return _draw_factors(substream(config.seed, "init"), n1, n2, k, config.r)


# Smallest magnitude a factor entry may keep. Multiplicative decay toward an
# unneeded entry otherwise walks through the subnormal float range, where
# hardware arithmetic is an order of magnitude slower. Entries at the floor
# are zero for every practical purpose; exact zeros stay exact zeros.
FACTOR_FLOOR = 1e-100


def _apply_floor(f):
    np.maximum(f, FACTOR_FLOOR, out=f, where=f != 0.0)
    return f


def _update(f, num, den, eps):
    """One multiplicative update: f times (num + eps) / (den + eps), floored."""
    return _apply_floor(f * ((num + eps) / (den + eps)))


def _update_codes(s, weighted, eps):
    """One multiplicative update of the codes S under the fit terms in
    weighted, (f, term, weight) each with its factor f held fixed: numerator
    and denominator sum weight times the term's for_codes over the terms."""
    num = den = None
    for f, term, weight in weighted:
        n, d = term.for_codes(f, s)
        if weight != 1.0:
            n, d = weight * n, weight * d
        num, den = (n, d) if num is None else (num + n, den + d)
    return _update(s, num, den, eps)


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
    reuse=None,
) -> FactorState:
    """One sweep of multiplicative updates (A, then B, then S).

    terms, fit's objectives.term_pair for these x, y, w, l and eps, makes
    the sweep score the state it starts from on the way: the A and B updates
    form exactly W.AS and L.BS of that state. The returned state then carries
    that objective; without terms, nothing is scored and its objective is
    None. reuse, such a pair given instead of terms, saves building one per
    sweep and scores nothing. Without either, a factor of state whose shape
    does not fit x and y is a ShapeError naming it.
    """
    scored = terms is not None
    pair = terms if scored else reuse
    rec, sup = pair if pair is not None else _state_terms(variant, state, x, y, w, l, eps)
    num, den, rec_value = rec.for_factor(state.a, state.s, scored)
    a = _update(state.a, num, den, eps)
    num, den, sup_value = sup.for_factor(state.b, state.s, scored)
    b = _update(state.b, num, den, eps)
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


def _check_shapes(state, n1, n2, k, r, what=""):
    """Raise a ShapeError naming the first of A, B and S whose shape is not
    (n1, r), (k, r) or (r, n2)."""
    for name, f, shape in (("A", state.a, (n1, r)), ("B", state.b, (k, r)),
                           ("S", state.s, (r, n2))):
        if np.shape(f) != shape:
            raise ShapeError(f"{what}{name} has shape {np.shape(f)}, expected {shape}")


def _check_init(init, n1, n2, k, r):
    """A copy of init, whose factors must be finite and nonnegative, with
    shapes (n1, r), (k, r) and (r, n2)."""
    state = init.copy()
    _check_shapes(state, n1, n2, k, r, "init ")
    for name, f in (("A", state.a), ("B", state.b), ("S", state.s)):
        matrix.check_nonnegative(f, f"init {name}")
    return state


def _state_terms(variant, state, x, y, w, l, eps):
    """The term pair of a system, for a state whose factors must fit x and y;
    the rank is the row count of the state's S."""
    n1, n2 = np.shape(x)
    _check_shapes(state, n1, n2, np.shape(y)[0], np.shape(state.s)[0])
    return term_pair(variant, x, y, w, l, eps)


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
    before any factor is drawn. An init factor of the wrong shape, or with a
    negative or non-finite entry, is a ShapeError naming it.

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
    if init is None:
        state = initialize(n1, n2, k, config)
    else:
        state = _check_init(init, n1, n2, k, config.r)
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
    terms = term_pair(variant, x, y, w, l, config.eps)
    state = mu_step(variant, state, x, y, w, l, config.lam, config.eps, reuse=terms)
    for _ in range(1, config.max_iters):
        # the next sweep scores the state it starts from
        ahead = mu_step(variant, state, x, y, w, l, config.lam, config.eps, terms=terms)
        record(state, ahead.objective)
        if tol_stop(ahead.objective, trace[0], config.tol):
            break
        state = ahead
    else:
        record(state, pair_value(terms, state.a, state.b, state.s, config.lam))
    return FitResult.from_trace(variant, config, state, trace)


def _descent(variant, state, x, y, w, l, lam, eps):
    """gradient's (dA, dB, dS) and step_scale's (Ga, Gb, Gs), from one pass
    over the term pair: each term's gradient in a factor is its weight c
    times the update's denominator minus its numerator."""
    grads, scales, ds, den = [], [], 0.0, 0.0
    pair = _state_terms(variant, state, x, y, w, l, eps)
    for f, term, weight in zip((state.a, state.b), pair, (1.0, lam)):
        num, f_den, _ = term.for_factor(f, state.s)
        s_num, s_den = term.for_codes(f, state.s)
        c = term.grad_factor * weight
        grads.append(c * (f_den - num))
        scales.append(f / (c * f_den + eps))
        ds, den = ds + c * (s_den - s_num), den + c * s_den
    return (*grads, ds), (*scales, state.s / (den + eps))


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

    Divergence quotients are eps-guarded and never raise. A factor of state
    whose shape does not fit x and y is a ShapeError naming it.
    """
    return _descent(variant, state, x, y, w, l, lam, eps)[0]


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
    A factor of state whose shape does not fit x and y is a ShapeError naming it.
    """
    return _descent(variant, state, x, y, w, l, lam, eps)[1]
