import json

import numpy as np
import pytest

from ssnmf import classify
from ssnmf.exceptions import ParseError, ShapeError
from ssnmf.objectives import VARIANTS, ModelVariant, frobenius_sq, i_divergence
from ssnmf.rng import substream
from ssnmf.solver import SsnmfConfig
from ssnmf.synth import gen_separable


def test_label_one_hot_and_tie_break():
    z = np.array([[0.2, 0.5, 1.0], [0.8, 0.5, 0.0]])
    got = classify.label(z)
    # ties go to the lowest row index
    want = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(got, want)


def test_accuracy_counts_exact_columns():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert classify.accuracy(y, p) == pytest.approx(0.5)
    with pytest.raises(ShapeError):
        classify.accuracy(y, p[:, :1])


def test_transform_rank_one_recovers_codes():
    # with r = 1 and Frobenius loss the S update lands on the least-squares
    # solution in one step, so exact data must be recovered almost exactly
    rng = np.random.default_rng(0)
    a = rng.random((6, 1)) + 0.5
    s_true = rng.random((1, 9)) + 0.5
    x = a @ s_true
    cfg = SsnmfConfig(r=1, max_iters=10, seed=4)
    model = classify.ClassifierModel(a, np.ones((2, 1)), ModelVariant.FRO_FRO, cfg)
    s_hat = classify.transform(model, x, iters=50)
    rel = np.abs(s_hat - s_true).max() / s_true.max()
    assert rel < 1e-4


@pytest.mark.parametrize("variant", [ModelVariant.FRO_FRO, ModelVariant.DIV_DIV])
def test_transform_reduces_reconstruction_error(variant):
    rng = np.random.default_rng(8)
    a = rng.random((7, 3)) + 0.1
    x = rng.random((7, 10)) + 0.1
    cfg = SsnmfConfig(r=3, seed=6)
    model = classify.ClassifierModel(a, np.ones((2, 3)), variant, cfg)
    err_fn = frobenius_sq if variant.reconstruction.value == "fro" else i_divergence
    few = classify.transform(model, x, iters=2)
    many = classify.transform(model, x, iters=80)
    assert err_fn(x, a @ many) < err_fn(x, a @ few)


def test_transform_fully_masked_is_identity():
    # a zero weight matrix carries no information, so the codes must come
    # back exactly as initialized
    rng = np.random.default_rng(12)
    a = rng.random((5, 2)) + 0.1
    x = rng.random((5, 4)) + 0.1
    cfg = SsnmfConfig(r=2, seed=9)
    model = classify.ClassifierModel(a, np.ones((3, 2)), ModelVariant.FRO_FRO, cfg)
    got = classify.transform(model, x, w_test=np.zeros_like(x), iters=25)
    want = substream(cfg.seed, "transform").random((2, 4)) + 0.01
    assert np.array_equal(got, want)


def test_transform_validates_inputs():
    a = np.ones((4, 2))
    cfg = SsnmfConfig(r=2)
    model = classify.ClassifierModel(a, np.ones((2, 2)), ModelVariant.FRO_FRO, cfg)
    with pytest.raises(ShapeError):
        classify.transform(model, np.ones((3, 5)))
    with pytest.raises(ShapeError):
        classify.transform(model, np.ones((4, 5)), w_test=np.ones((4, 4)))
    with pytest.raises(ValueError):
        classify.transform(model, np.ones((4, 5)), iters=0)


def test_transform_rejects_fractional_mask_and_non_finite_data():
    cfg = SsnmfConfig(r=2)
    model = classify.ClassifierModel(np.ones((4, 2)), np.ones((2, 2)), ModelVariant.DIV_FRO, cfg)
    x = np.ones((4, 5))
    w = np.ones((4, 5))
    w[1, 1] = 0.0
    assert np.all(np.isfinite(classify.transform(model, x, w_test=w, iters=3)))
    w[1, 1] = 0.5
    with pytest.raises(ShapeError, match="w_test must be a 0/1 mask"):
        classify.transform(model, x, w_test=w)
    for bad in (np.nan, np.inf):
        x[3, 4] = bad
        with pytest.raises(ShapeError, match="x_test must be entrywise finite"):
            classify.transform(model, x)


def test_predict_shape_check():
    model = classify.ClassifierModel(
        np.ones((4, 2)), np.ones((3, 2)), ModelVariant.FRO_FRO, SsnmfConfig(r=2)
    )
    with pytest.raises(ShapeError):
        classify.predict(model, np.ones((3, 5)))


def split_columns(x, y, ids, train_frac, seed):
    n = x.shape[1]
    order = substream(seed, "split").permutation(n)
    cut = int(train_frac * n)
    tr, te = order[:cut], order[cut:]
    return (x[:, tr], y[:, tr]), (x[:, te], y[:, te]), ids[te]


@pytest.mark.parametrize("variant", VARIANTS)
def test_separable_pipeline_high_accuracy(variant):
    x, y, ids = gen_separable(classes=3, per_class=40, seed=7)
    (x_tr, y_tr), (x_te, y_te), _ = split_columns(x, y, ids, 0.75, seed=1)
    cfg = SsnmfConfig(r=3, lam=5.0, max_iters=120, seed=11)
    model, _ = classify.train(x_tr, y_tr, variant, cfg)
    s_te = classify.transform(model, x_te, iters=120)
    acc = classify.accuracy(y_te, classify.predict(model, s_te))
    assert acc >= 0.95


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    model = classify.ClassifierModel(
        rng.random((6, 3)),
        rng.random((4, 3)),
        ModelVariant.DIV_FRO,
        SsnmfConfig(r=3, lam=10.0, max_iters=50, tol=1e-3, seed=2),
    )
    classify.save_model(model, tmp_path, vocabulary="vocab.txt")
    back = classify.load_model(tmp_path)
    assert np.array_equal(back.a_train, model.a_train)
    assert np.array_equal(back.b_train, model.b_train)
    assert back.variant is model.variant
    assert back.config == model.config


def test_load_model_missing_field_is_parse_error(tmp_path):
    model = classify.ClassifierModel(
        np.ones((3, 2)), np.ones((2, 2)), ModelVariant.FRO_FRO, SsnmfConfig(r=2)
    )
    classify.save_model(model, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["lam"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="lam"):
        classify.load_model(tmp_path)
    (tmp_path / "manifest.json").write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        classify.load_model(tmp_path)
