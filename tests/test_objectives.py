import math

import numpy as np
import pytest

from ssnmf.exceptions import ShapeError
from ssnmf.objectives import (
    VARIANTS,
    Loss,
    ModelVariant,
    ObjectiveSpec,
    frobenius_sq,
    i_divergence,
    mle_lambda,
    objective,
)


def test_frobenius_scalar():
    assert frobenius_sq([[2.0]], [[1.0]]) == pytest.approx(1.0)


def test_frobenius_matrix():
    x = [[1.0, 2.0], [3.0, 4.0]]
    z = [[0.0, 0.0], [0.0, 0.0]]
    assert frobenius_sq(x, z) == pytest.approx(30.0)


def test_frobenius_mask_scales_residual():
    # the mask applies to each operand before the difference
    got = frobenius_sq([[1.0]], [[3.0]], mask=[[0.5]])
    assert got == pytest.approx(1.0)


def test_frobenius_zero_mask_removes_entry():
    got = frobenius_sq([[1.0, 5.0]], [[3.0, 5.0]], mask=[[0.0, 1.0]])
    assert got == pytest.approx(0.0)


def test_divergence_scalar():
    # D(2 || 1) = 2 log 2 - 2 + 1
    assert i_divergence([[2.0]], [[1.0]]) == pytest.approx(2 * math.log(2) - 1)


def test_divergence_zero_times_log_zero():
    # 0 * log(0/b) reads as 0, leaving just b - a = 3
    assert i_divergence([[0.0]], [[3.0]]) == pytest.approx(3.0)


def test_divergence_infinite_when_support_missing():
    assert i_divergence([[2.0]], [[0.0]]) == math.inf


def test_divergence_eps_guard_keeps_value_finite():
    # guard makes log(1/(0+1)) = 0, so D = -a + b = -1
    got = i_divergence([[1.0]], [[0.0]], eps=1.0)
    assert got == pytest.approx(-1.0)


def test_divergence_identity_is_zero():
    rng = np.random.default_rng(5)
    x = rng.random((3, 4)) + 0.1
    assert i_divergence(x, x) == pytest.approx(0.0, abs=1e-12)


def test_divergence_rejects_negative():
    with pytest.raises(ValueError):
        i_divergence([[-1.0]], [[1.0]])
    with pytest.raises(ValueError):
        i_divergence([[1.0]], [[-1.0]])


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        frobenius_sq([[1.0]], [[1.0, 2.0]])
    with pytest.raises(ShapeError):
        i_divergence([[1.0]], [[1.0]], mask=[[1.0, 1.0]])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("side", ["x", "y"])
def test_objective_rejects_a_product_of_the_wrong_shape(side, masked):
    # A @ S or B @ S against a data or label matrix with one row too many
    a, b, s = np.ones((2, 1)), np.ones((3, 1)), np.ones((1, 4))
    x = np.ones((3 if side == "x" else 2, 4))
    y = np.ones((4 if side == "y" else 3, 4))
    w, l = (np.ones_like(x), np.ones_like(y)) if masked else (None, None)
    for variant in VARIANTS:
        with pytest.raises(ShapeError, match="^operand shape mismatch"):
            objective(ObjectiveSpec(variant), a, b, s, x, y, w, l)


def test_objective_mixed_losses_scalar():
    # fro part (2-1)^2 = 1; div part D(3 || 1) = 3 log 3 - 2
    spec = ObjectiveSpec(ModelVariant.FRO_DIV, lam=1.0)
    got = objective(spec, [[1.0]], [[1.0]], [[1.0]], [[2.0]], [[3.0]])
    assert got == pytest.approx(1.0 + 3 * math.log(3) - 2)


def test_objective_lam_scales_supervision_term():
    spec1 = ObjectiveSpec(ModelVariant.FRO_FRO, lam=1.0)
    spec2 = ObjectiveSpec(ModelVariant.FRO_FRO, lam=2.0)
    args = ([[1.0]], [[1.0]], [[1.0]], [[2.0]], [[3.0]])
    rec = 1.0
    sup = 4.0
    assert objective(spec1, *args) == pytest.approx(rec + sup)
    assert objective(spec2, *args) == pytest.approx(rec + 2 * sup)


@pytest.mark.parametrize("variant", VARIANTS)
def test_objective_none_mask_equals_ones(variant):
    rng = np.random.default_rng(9)
    a = rng.random((4, 2)) + 0.1
    b = rng.random((3, 2)) + 0.1
    s = rng.random((2, 5)) + 0.1
    x = rng.random((4, 5)) + 0.1
    y = rng.random((3, 5)) + 0.1
    spec = ObjectiveSpec(variant, lam=0.7)
    plain = objective(spec, a, b, s, x, y)
    masked = objective(spec, a, b, s, x, y, np.ones_like(x), np.ones_like(y))
    assert plain == masked


def test_objective_spec_rejects_negative_lam():
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            ObjectiveSpec(ModelVariant.FRO_FRO, lam=lam)


def test_variant_keys_and_parse():
    assert ModelVariant.FRO_FRO.key == "fro-fro"
    assert ModelVariant.DIV_FRO.key == "div-fro"
    for v in VARIANTS:
        assert ModelVariant.parse(v.key) is v
        assert ModelVariant.parse(v.name) is v
    with pytest.raises(ValueError):
        ModelVariant.parse("frobenius")


def test_mle_lambda_values():
    assert mle_lambda(ModelVariant.FRO_FRO, var_x=2.0, var_y=4.0) == pytest.approx(0.5)
    assert mle_lambda(ModelVariant.FRO_DIV, var_x=2.0) == pytest.approx(4.0)
    assert mle_lambda(ModelVariant.DIV_FRO, var_y=1.0) == pytest.approx(0.5)
    assert mle_lambda(ModelVariant.DIV_DIV, var_x=3.0, var_y=7.0) == pytest.approx(1.0)


def _neg_log_likelihood(data, mean, loss, var):
    """-log p(data | mean): Gaussian with variance var for fro, Poisson for div."""
    data = np.asarray(data, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if loss is Loss.FRO:
        return float(np.sum((data - mean) ** 2 / (2.0 * var)
                            + 0.5 * math.log(2.0 * math.pi * var)))
    log_fact = sum(math.lgamma(v + 1.0) for v in data.ravel())
    return float(np.sum(mean - data * np.log(mean)) + log_fact)


@pytest.mark.parametrize("variant", VARIANTS)
def test_mle_lambda_matches_likelihood_difference(variant):
    # For two sets of factors, the change in -log p(X, Y) under the variant's
    # noise pair must be c times the change in the objective at
    # lam = mle_lambda, with c = 1/(2 var_x) for fro data and 1 for div data.
    var_x, var_y = 0.3, 2.5
    gen = np.random.default_rng(17)
    n1, n2, k, r = 6, 7, 4, 3

    def draw(loss, shape):
        if loss is Loss.FRO:
            return gen.random(shape) * 3.0
        return gen.poisson(2.0, shape).astype(float)

    x = draw(variant.reconstruction, (n1, n2))
    y = draw(variant.supervision, (k, n2))
    lam = mle_lambda(variant, var_x=var_x, var_y=var_y)
    c = 1.0 / (2.0 * var_x) if variant.reconstruction is Loss.FRO else 1.0
    nll = []
    obj = []
    for _ in range(2):
        a, b, s = (gen.random(shape) + 0.1 for shape in ((n1, r), (k, r), (r, n2)))
        nll.append(_neg_log_likelihood(x, a @ s, variant.reconstruction, var_x)
                   + _neg_log_likelihood(y, b @ s, variant.supervision, var_y))
        obj.append(objective(ObjectiveSpec(variant, lam), a, b, s, x, y))
    assert abs(obj[1] - obj[0]) > 1e-3
    assert nll[1] - nll[0] == pytest.approx(c * (obj[1] - obj[0]), rel=1e-10)


def _old_frobenius_sq(x, z, mask):
    # the formulas before each term got one value object, kept as the reference
    a, b = (x, z) if mask is None else (mask * x, mask * z)
    d = a - b
    return float(np.dot(d.ravel(), d.ravel()))


def _old_i_divergence(x, z, mask, eps):
    a, b = (x, z) if mask is None else (mask * x, mask * z)
    total = float(b.sum() - a.sum())
    pos = a > 0
    if not np.any(pos):
        return total
    with np.errstate(divide="ignore"):
        logs = np.log(a[pos] / (b[pos] + eps))
    if np.any(np.isinf(logs)):
        return math.inf
    return total + float(np.dot(a[pos], logs))


@pytest.mark.parametrize("seed", range(12))
def test_term_values_equal_the_old_formulas(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    x = rng.random(shape) * (rng.random(shape) > 0.4) * 10.0 ** rng.integers(-3, 4)
    z = rng.random(shape) * (rng.random(shape) > 0.3)
    masks = [None, (rng.random(shape) > 0.3).astype(float), rng.random(shape)]
    for mask in masks:
        assert frobenius_sq(x, z, mask) == _old_frobenius_sq(x, z, mask)
        for eps in (0.0, 1e-10, 0.5):
            assert i_divergence(x, z, mask, eps) == _old_i_divergence(x, z, mask, eps)
    # z = 0 where x > 0 gives inf at eps = 0 and a finite value with the guard
    z[x > 0] = 0.0
    if np.any(x > 0):
        assert i_divergence(x, z) == math.inf == _old_i_divergence(x, z, None, 0.0)
        assert math.isfinite(i_divergence(x, z, eps=1e-10))
