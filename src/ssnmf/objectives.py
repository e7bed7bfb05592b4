"""Error functions and joint objectives for semi-supervised NMF.

A model jointly factorizes a data matrix X (n1 x n2) as A @ S and a label
matrix Y (k x n2) as B @ S with a shared coefficient matrix S (r x n2). Each
of the two fit terms uses one of two error functions:

  fro: squared Frobenius norm of the masked residual
  div: information divergence (generalized Kullback-Leibler)

giving four model variants. Masks W (same shape as X) and L (same shape as Y)
keep (1) or drop (0) individual entries; a zero mask entry removes that entry
from the objective entirely. The divergence is applied to the masked pair, so
div(x, z, mask) = D(mask . x || mask . z).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ShapeError


class Loss(str, enum.Enum):
    FRO = "fro"
    DIV = "div"


class ModelVariant(enum.Enum):
    """(reconstruction error, supervision error) pair."""

    FRO_FRO = (Loss.FRO, Loss.FRO)
    FRO_DIV = (Loss.FRO, Loss.DIV)
    DIV_FRO = (Loss.DIV, Loss.FRO)
    DIV_DIV = (Loss.DIV, Loss.DIV)

    @property
    def reconstruction(self) -> Loss:
        return self.value[0]

    @property
    def supervision(self) -> Loss:
        return self.value[1]

    @property
    def key(self) -> str:
        """Stable string form, e.g. 'div-fro'."""
        return f"{self.reconstruction.value}-{self.supervision.value}"

    @classmethod
    def parse(cls, name: str) -> "ModelVariant":
        for variant in cls:
            if variant.key == name or variant.name == name:
                return variant
        valid = ", ".join(v.key for v in cls)
        raise ValueError(f"unknown model variant {name!r}, expected one of: {valid}")


VARIANTS = tuple(ModelVariant)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which variant to score with, and the supervision weight lam >= 0."""

    variant: ModelVariant
    lam: float = 1.0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


class TermValue:
    """One fit term's error loss(W.X || W.Z), scored on masked products W.Z.

    W.X is built once, and for the divergence so are the flat positions of
    its positive entries, their values and its sum; scoring gathers W.Z at
    those positions with take, into a buffer kept with the term.
    """

    def __init__(self, x, mask, loss: Loss, eps: float = 0.0):
        x = np.asarray(x, dtype=np.float64)
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != x.shape:
                raise ShapeError(f"mask shape mismatch: {mask.shape} vs {x.shape}")
            x = mask * x
        self.mask = mask
        self.wx = x
        self.loss = loss
        self.eps = eps
        if loss is Loss.FRO:
            self._scratch = np.empty(x.shape)
            return
        if np.any(x < 0):
            raise ValueError("i_divergence requires nonnegative entries")
        self.positions = np.flatnonzero(x > 0)
        self.values = x.take(self.positions)
        self.total = x.sum()
        self._scratch = np.empty(self.positions.size)

    def __call__(self, wz) -> float:
        """The term's error at the masked product wz = W.Z, which is left as it is."""
        if self.loss is Loss.FRO:
            d = np.subtract(self.wx, wz, out=self._scratch).ravel()
            # huge residuals square to inf, the intended value: fit reports it as a FitError
            with np.errstate(over="ignore"):
                return float(np.dot(d, d))
        if np.any(wz < 0):
            raise ValueError("i_divergence requires nonnegative entries")
        total = float(wz.sum() - self.total)
        if not self.positions.size:
            return total
        # mode="clip" lets take write into the buffer directly; every position is in range
        bp = np.take(wz, self.positions, out=self._scratch, mode="clip")
        bp += self.eps
        with np.errstate(divide="ignore"):
            logs = np.log(np.divide(self.values, bp, out=bp), out=bp)
        if np.any(np.isinf(logs)):
            return math.inf
        return total + float(np.dot(self.values, logs))


def _term_error(x, z, mask, loss, eps):
    """loss(mask.x || mask.z) for one pair; z is a fresh array, masked in place."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != z.shape:
        raise ShapeError(f"operand shape mismatch: {x.shape} vs {z.shape}")
    term = TermValue(x, mask, loss, eps)
    if term.mask is not None:
        z *= term.mask
    return term(z)


def frobenius_sq(x, z, mask=None) -> float:
    """Sum of squared masked residuals, sum((mask . (x - z))**2)."""
    return _term_error(x, np.array(z, dtype=np.float64), mask, Loss.FRO, 0.0)


def i_divergence(x, z, mask=None, eps: float = 0.0) -> float:
    """Information divergence D(mask . x || mask . z).

    D(a || b) = sum a*log(a/b) - a + b, with the conventions 0*log(0) = 0 and
    D = +inf whenever some entry has a > 0 but b = 0. Entries of x and z must
    be nonnegative. When eps > 0 the log denominator is guarded as b + eps,
    which keeps the value finite on degenerate inputs; eps = 0 is exact.
    """
    return _term_error(x, np.array(z, dtype=np.float64), mask, Loss.DIV, eps)


def objective(
    spec: ObjectiveSpec,
    a,
    b,
    s,
    x,
    y,
    w=None,
    l=None,
    eps: float = 0.0,
) -> float:
    """Joint objective R(W.X, W.AS) + lam * S(L.Y, L.BS) for the given variant.

    eps is forwarded to divergence terms only (Frobenius needs no guard).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    rec = _term_error(x, a @ s, w, spec.variant.reconstruction, eps)
    sup = _term_error(y, b @ s, l, spec.variant.supervision, eps)
    return rec + spec.lam * sup


def mle_lambda(variant: ModelVariant, *, var_x: float = 1.0, var_y: float = 1.0) -> float:
    """Supervision weight under which the variant is a maximum-likelihood fit.

    The noise model is Gaussian or Poisson per side, matching the variant's
    error functions (fro for Gaussian, div for Poisson). A Gaussian side with
    variance v contributes ||X - AS||^2 / (2v) to the negative log-likelihood
    and a Poisson side contributes D(Y || BS), each up to a constant, so:
    fro-fro with variances var_x, var_y gives var_x/var_y; fro-div (Gaussian
    data, Poisson labels) gives 2*var_x; div-fro gives 1/(2*var_y); div-div
    gives 1. The rank does not enter. Interpreting masks as binary keep/drop
    indicators is what makes this exact.
    """
    if variant is ModelVariant.FRO_FRO:
        return var_x / var_y
    if variant is ModelVariant.FRO_DIV:
        return 2.0 * var_x
    if variant is ModelVariant.DIV_FRO:
        return 1.0 / (2.0 * var_y)
    return 1.0
