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


# Largest density of W.X (nonzero entries over all entries) at which parts
# forms the divergence quotient at W.X's nonzero entries only. Measured on one
# core (numpy 2.4, OpenBLAS, 1 thread), median µs of gather+divide+scatter vs
# the dense add+divide: 100x100 at 10% 11.6 vs 13.9, at 15% 15.1 vs 14.2;
# 500x500 at 15% 327 vs 418, at 20% 395 vs 435; 600x723 at 15% 580 vs 729,
# at 20% 675 vs 713.
SPARSE_QUOTIENT_DENSITY = 0.15


class TermValue:
    """One fit term loss(W.X || W.Z) with Z = f @ s: its masked product, its
    gradient split, each update's numerator and denominator and its error,
    the one place where loss and mask differ.

    An unmasked Frobenius term (gram) takes its update denominators in Gram
    form, f @ (s @ s.T) and (f.T @ f) @ s, which never form the n1 x n2
    product Z: for every r <= min(n1, n2) that is less work than (f @ s) @ s.T
    and f.T @ (f @ s), and the two agree to rounding, since every summand is
    nonnegative. Masked terms and divergence terms form W.Z.

    W.X is built once. The first score builds a buffer. For the divergence,
    the first score, or the first gradient split of a sparse W.X, builds the
    flat positions of W.X's nonzero entries and their values (_support):
    scoring gathers W.Z there with take, and so does the quotient of a
    sparse W.X. The first divergence score also takes W.X's sum.
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
        # the squared Frobenius residual brings a 2 the divergence lacks
        self.grad_factor = 2.0 if loss is Loss.FRO else 1.0
        self.gram = loss is Loss.FRO and mask is None
        self._scratch = self.positions = self._quotient = self._sparse = self.total = None
        self._frozen = None, None  # freeze's (f, what for_codes takes from f alone)

    def product(self, f, s):
        """W.(f @ s), formed in place: the product is fresh, and every large
        temporary costs page faults once the allocator has handed its memory back."""
        z = f @ s
        if self.mask is not None:
            z *= self.mask
        return z

    def _support(self):
        """W.X's nonzero entries as flat positions and their values, built once."""
        if self.positions is None:
            # a bool array's nonzero runs about twice as fast as a float one's
            self.positions = np.flatnonzero(self.wx != 0)
            self.values = self.wx.take(self.positions)
            self.negative = bool(np.any(self.values < 0))

    def _is_sparse(self):
        """Whether W.X is at most SPARSE_QUOTIENT_DENSITY nonzero, counted once."""
        if self._sparse is None:
            self._sparse = np.count_nonzero(self.wx) <= SPARSE_QUOTIENT_DENSITY * self.wx.size
        return self._sparse

    def _gather(self, wz):
        """W.Z + eps at the positions, in the term's scratch buffer."""
        # mode="clip" lets take write into the buffer directly; every position is in range
        self._scratch = bp = np.take(wz, self.positions, out=self._scratch, mode="clip")
        bp += self.eps
        return bp

    def parts(self, wz):
        """The nonnegative parts (pos, neg) of the term's gradient in Z.

        wz is the masked product W.Z, which may be reused in place. The
        gradient is grad_factor * (pos - neg), and the multiplicative update
        is the ratio of neg to pos carried through the product. A pos of None
        stands for all ones; the divergence's pos is the mask whatever wz is.
        The divergence quotient W.X / (W.Z + eps) needs no masking of its
        own, since where W is 0, W.X is 0 and so is the quotient.

        When W.X is sparse (density at most SPARSE_QUOTIENT_DENSITY) the
        quotient is formed at W.X's nonzero entries only and scattered into
        the term's buffer, whose other entries stay 0; the returned neg is
        that buffer, valid until the next call. Otherwise it is formed over
        the whole grid in wz. The two forms agree bit for bit whenever
        W.Z + eps > 0 everywhere, which holds for every eps > 0 (a -0.0 in
        W.X leaves a 0 of the other sign). At eps = 0 a zero of W.Z gives
        inf in both forms where W.X > 0; where W.X is 0 it gives 0/0 = NaN
        in the dense form and stays 0 in the sparse one.
        """
        if self.loss is Loss.FRO:
            return wz, self.wx
        if not self._is_sparse():
            wz += self.eps
            np.divide(self.wx, wz, out=wz)
            return self.mask, wz
        self._support()
        if self._quotient is None:
            self._quotient = np.zeros(self.wx.shape)
        bp = self._gather(wz)
        self._quotient.ravel()[self.positions] = np.divide(self.values, bp, out=bp)
        return self.mask, self._quotient

    def for_factor(self, f, s, scored=False):
        """Numerator neg @ s.T and denominator pos @ s.T (the row sums of s for
        an all-ones pos) of f's update with s fixed, and the term's error at
        (f, s) when scored (None otherwise), all from one product W.(f @ s).

        A gram term returns X @ s.T and f @ (s @ s.T) instead, and forms
        f @ s only when scored, to score it; its denominator is the same
        whether scored or not, so a scored sweep steps as an unscored one."""
        if self.gram:
            value = self(self.product(f, s)) if scored else None
            return self.wx @ s.T, f @ (s @ s.T), value
        wz = self.product(f, s)
        value = self(wz) if scored else None
        pos, neg = self.parts(wz)
        return neg @ s.T, s.sum(axis=1)[None, :] if pos is None else pos @ s.T, value

    def freeze(self, f):
        """Forms once what for_codes takes from f alone, and keeps it for every
        later call with this f, which must not change in place: f.T @ X and
        f.T @ f under the Frobenius loss, the denominator under the divergence."""
        if self.loss is Loss.FRO:
            self._frozen = f, (f.T @ self.wx, f.T @ f)
        else:
            self._frozen = f, f.sum(axis=0)[:, None] if self.mask is None else f.T @ self.mask

    def for_codes(self, f, s):
        """Numerator f.T @ neg and denominator f.T @ pos (the column sums of f
        for an all-ones pos) of the codes' update with f fixed; for a gram
        term, f.T @ X and (f.T @ f) @ s, with no product f @ s. A frozen f's
        part comes from freeze."""
        frozen, kept = self._frozen[0] is f, self._frozen[1]
        if self.gram:
            ftx, ftf = kept if frozen else (f.T @ self.wx, f.T @ f)
            return ftx, ftf @ s
        pos, neg = self.parts(self.product(f, s))
        if self.loss is Loss.FRO:  # neg is W.X
            return kept[0] if frozen else f.T @ neg, f.T @ pos
        return f.T @ neg, kept if frozen else f.sum(axis=0)[:, None] if pos is None else f.T @ pos

    def __call__(self, wz) -> float:
        """The term's error at the masked product wz = W.Z, which is left as it is."""
        # the first score allocates the buffer (out=None), later ones reuse it
        if self.loss is Loss.FRO:
            self._scratch = np.subtract(self.wx, wz, out=self._scratch)
            d = self._scratch.ravel()
            # huge residuals square to inf, the intended value: fit reports it as a FitError
            with np.errstate(over="ignore"):
                return float(np.dot(d, d))
        # as above, an overflowing sum, log or dot gives the non-finite value fit reports
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self._support()
            if self.negative or np.any(wz < 0):
                raise ValueError("i_divergence requires nonnegative entries")
            if self.total is None:
                self.total = self.wx.sum()
            if self.total == math.inf:  # inf - inf below would read nan
                return math.inf
            total = float(wz.sum() - self.total)
            if not self.positions.size:
                return total
            bp = self._gather(wz)
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
