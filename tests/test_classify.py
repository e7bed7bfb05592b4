import json
import os
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from ssnmf import classify, jobs, matrix
from ssnmf.exceptions import FitError, ParseError, ShapeError
from ssnmf.objectives import VARIANTS, ModelVariant, TermValue, frobenius_sq, i_divergence
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


@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_with_non_finite_codes_is_a_fit_error(variant):
    # finite data whose products overflow: the codes go inf/NaN on the way
    cfg = SsnmfConfig(r=2, seed=5)
    model = classify.ClassifierModel(np.ones((4, 2)), np.ones((2, 2)), variant, cfg)
    with pytest.raises(FitError, match="^transform codes are not finite after 20 iterations$"):
        classify.transform(model, np.full((4, 5), 1e308), iters=20)


@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_with_an_overflowing_sparse_column_is_a_fit_error(variant):
    # one column of 1e308 in otherwise zero data: 1 in 18 entries is nonzero,
    # so a divergence model forms its quotient at those entries only
    rng = np.random.default_rng(3)
    cfg = SsnmfConfig(r=3, seed=5)
    model = classify.ClassifierModel(rng.random((30, 3)) + 0.1, np.ones((2, 3)), variant, cfg)
    x = np.zeros((30, 18))
    x[:, 4] = 1e308
    with pytest.raises(FitError, match="^transform codes are not finite after 20 iterations$"):
        classify.transform(model, x, iters=20)


@pytest.mark.parametrize("n2", [0, 1, 128, 129])
def test_transform_block_edges(n2):
    # 129 columns make two blocks, [0, 65) and [65, 129); the codes of one
    # depend on its own columns alone
    rng = np.random.default_rng(2)
    cfg = SsnmfConfig(r=3, seed=6)
    model = classify.ClassifierModel(rng.random((7, 3)) + 0.1, np.ones((2, 3)),
                                     ModelVariant.DIV_FRO, cfg)
    x = rng.random((7, n2))
    s = classify.transform(model, x, iters=5)
    assert s.shape == (3, n2)
    assert np.all(np.isfinite(s))
    if n2 == 129:
        x[:, 65:] = rng.random((7, 64))
        other = classify.transform(model, x, iters=5)
        assert other[:, :65].tobytes() == s[:, :65].tobytes()
        assert not np.array_equal(other[:, 65:], s[:, 65:])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_codes_are_the_same_bytes_on_any_number_of_processes(variant, masked,
                                                                       monkeypatch,
                                                                       real_pool_sizes):
    rng = np.random.default_rng(8)
    model = classify.ClassifierModel(rng.random((20, 3)) + 0.1, np.ones((2, 3)), variant,
                                     SsnmfConfig(r=3, seed=2))
    for n2 in (1, 127, 128, 129, 723):
        # 10% nonzero, so a divergence model forms its quotient sparsely
        x = rng.random((20, n2)) * (rng.random((20, n2)) < 0.1)
        w = (rng.random((20, n2)) < 0.8).astype(float) if masked else None
        codes = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(jobs, "_usable_cpus", lambda cpus=cpus: cpus)
            codes.add(classify.transform(model, x, w_test=w, iters=15).tobytes())
        assert len(codes) == 1, n2
    # 129 columns are 2 blocks, a pool of 1 process beside block 0 here; 723
    # are 6, a pool of one process per CPU beside it on 2 and on 3 CPUs
    assert real_pool_sizes == [1, 1, 2, 3]


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_codes_match_a_recomputation_of_the_frozen_factor_terms(variant, masked,
                                                                           monkeypatch):
    # transform freezes A; forming its part of every update again must give
    # the same bytes
    rng = np.random.default_rng(4)
    model = classify.ClassifierModel(rng.random((20, 3)) + 0.1, np.ones((2, 3)), variant,
                                     SsnmfConfig(r=3, seed=2))
    for n2 in (1, 128, 129):
        x = rng.random((20, n2)) * (rng.random((20, n2)) < 0.5)
        w = (rng.random((20, n2)) < 0.8).astype(float) if masked else None
        kept = classify.transform(model, x, w_test=w, iters=15)
        with monkeypatch.context() as patch:
            patch.setattr(TermValue, "freeze", lambda term, f: None)
            assert classify.transform(model, x, w_test=w, iters=15).tobytes() == kept.tobytes()


def test_transform_fit_error_from_a_pooled_block(real_pool_sizes):
    # the overflowing column is in the last of 3 blocks, one process each
    rng = np.random.default_rng(3)
    model = classify.ClassifierModel(rng.random((30, 3)) + 0.1, np.ones((2, 3)),
                                     ModelVariant.DIV_DIV, SsnmfConfig(r=3, seed=5))
    x = np.zeros((30, 300))
    x[:, 250] = 1e308
    with pytest.raises(FitError, match="^transform codes are not finite after 20 iterations$"):
        classify.transform(model, x, iters=20)
    assert real_pool_sizes == [2]


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


def stop_tols(trace, sweep):
    """Two tols whose first stop on this trace falls at sweep."""
    q = [v / trace[0] for v in trace]
    gap = q[sweep - 1] - q[sweep]
    return q[sweep] + gap / 3, q[sweep] + 2 * gap / 3


@pytest.mark.parametrize("variant", VARIANTS)
def test_grid_search_equals_train_at_the_chosen_pair(variant, monkeypatch):
    # one lam and four tols that stop at sweeps 12, 30 (never), 4 and 12
    x, y, _ = gen_separable(classes=3, per_class=12, seed=5)
    cfg = SsnmfConfig(r=3, lam=4.0, max_iters=30, seed=9)
    trace = classify.train(x, y, variant, cfg)[1].objective_trace
    late, late_twin = stop_tols(trace, 12)
    early, _ = stop_tols(trace, 4)
    never = trace[-1] / trace[0] / 2
    tols = (late, never, early, late_twin)
    monkeypatch.setattr(classify, "GRID_TOLS", tols)
    monkeypatch.setattr(classify, "GRID_LAMBDAS", (cfg.lam,))
    transforms = []
    real_transform = classify.transform

    def counted(*args, **kwargs):
        transforms.append(None)
        return real_transform(*args, **kwargs)

    monkeypatch.setattr(classify, "transform", counted)
    # one validation accuracy per distinct stop, in tol-major order: 12, 30, 4;
    # the last scores tie everywhere, so the first row wins
    for scores, chosen, stop in (((1.0, 0.0, 0.0), late, 12), ((0.0, 1.0, 0.0), never, 30),
                                 ((0.0, 0.0, 1.0), early, 4), ((0.5, 0.5, 0.5), late, 12)):
        rigged = iter(scores)
        monkeypatch.setattr(classify, "accuracy", lambda y_true, y_pred: next(rigged))
        transforms.clear()
        (model, result), rows = classify.grid_search(x, y, x, y, variant, cfg, iters=5)
        assert len(transforms) == 3
        assert rows == [{"tol": tol, "lam": cfg.lam, "val_accuracy": acc}
                        for tol, acc in zip(tols, scores + scores[:1])]
        assert result.iterations_run == stop
        want_model, want = classify.train(x, y, variant, replace(cfg, tol=chosen))
        assert result.to_dict() == want.to_dict()
        assert (model.variant, model.config) == (want_model.variant, want_model.config)
        for got, ref in zip((model.a_train, model.b_train, result.state.s),
                            (want_model.a_train, want_model.b_train, want.state.s)):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("iters", [0, -3])
def test_grid_search_rejects_iters_below_one_before_any_fit(iters, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("grid_search fitted before it checked iters")

    monkeypatch.setattr(classify, "fit", no_fit)
    x, y, _ = gen_separable(classes=3, per_class=4, seed=5)
    with pytest.raises(ValueError, match=f"^iters must be >= 1, got {iters}$"):
        classify.grid_search(x, y, x, y, ModelVariant.DIV_FRO, SsnmfConfig(r=3), iters=iters)


@pytest.fixture
def recorded_maps(monkeypatch):
    """Stands a recorder in for classify's job map: it runs the jobs here and
    keeps each map's job list."""
    maps = []

    def record(func, jobs):
        maps.append(jobs)
        return [func(*job) for job in jobs]

    monkeypatch.setattr(classify, "map_jobs", record)
    return maps


def test_grid_jobs_pickle_their_shared_operands_once(recorded_maps):
    # a pool gets the job list pickled once per process under spawn or
    # forkserver, and pickle writes an object once however many jobs hold it;
    # a job that copied or transposed an operand would pickle it again
    x, y, _ = gen_separable(classes=3, per_class=60, seed=6)
    operands = (x[:, :120], y[:, :120], x[:, 120:], y[:, 120:])
    classify.grid_search(*operands, ModelVariant.DIV_FRO, SsnmfConfig(r=3, max_iters=5), iters=5)
    grid = recorded_maps[0]  # the validation transforms' maps run inside its jobs
    assert len(grid) == len(classify.GRID_LAMBDAS)
    assert len(pickle.dumps(grid)) < 1.1 * len(pickle.dumps(operands))


def test_transform_jobs_pickle_the_data_and_start_codes_once(recorded_maps):
    rng = np.random.default_rng(6)
    model = classify.ClassifierModel(rng.random((20, 3)) + 0.1, np.ones((2, 3)),
                                     ModelVariant.DIV_FRO, SsnmfConfig(r=3, seed=2))
    x = rng.random((20, 3 * classify.TRANSFORM_BLOCK - 40))
    classify.transform(model, x, iters=5)
    [blocks] = recorded_maps
    assert len(blocks) == 3
    # the start codes are r x n2 float64, so any such array pickles to their size
    assert len(pickle.dumps(blocks)) < 1.1 * len(pickle.dumps((x, np.zeros((3, x.shape[1])))))


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


@pytest.mark.parametrize("field,value,want", [
    ("r", "2", "r must be an integer, got '2'"),
    ("r", 2.5, "r must be an integer, got 2.5"),
    ("lam", None, "lam must be a number, got None"),
    ("r", 0, "r must be finite and >= 1, got 0"),
    ("eps", -1.0, "eps must be finite and positive, got -1.0"),
    ("variant", 5, "variant must be a string, got 5"),
    ("r", 3, "r is 3, but A.csv has 2 columns"),
    # a .csv field replaces that matrix; want then names the file it expects
    ("B.csv", np.ones((2, 3)), "manifest.json: manifest field r is 2, but B.csv has 3 columns"),
    ("A.csv", [[1.0, np.nan], [1.0, 1.0], [1.0, 1.0]],
     "A.csv: A must be entrywise finite and nonnegative, found nan at (0, 1)"),
    ("B.csv", [[1.0, 1.0], [-1.0, 1.0]],
     "B.csv: B must be entrywise finite and nonnegative, found -1.0 at (1, 0)"),
])
def test_load_model_field_of_wrong_type_is_parse_error(tmp_path, field, value, want):
    model = classify.ClassifierModel(
        np.ones((3, 2)), np.ones((2, 2)), ModelVariant.FRO_FRO, SsnmfConfig(r=2)
    )
    classify.save_model(model, tmp_path)
    if field.endswith(".csv"):
        matrix.write_csv(tmp_path / field, np.asarray(value, dtype=float))
    else:
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest[field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        want = "manifest.json: manifest field " + want
    with pytest.raises(ParseError, match=f"^{re.escape(os.path.join(tmp_path, want))}$"):
        classify.load_model(tmp_path)
