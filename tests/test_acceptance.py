"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints one `criterion N: PASS/FAIL` line with its headline
measurement. Run `pytest -s tests/test_acceptance.py -v` to watch the lines
as they complete; without -s pytest shows output for failing tests only.
The 500x500 benchmark in criterion 4 dominates the runtime (about 36 s on
one core: 35.6 s under `taskset -c 0` on a 2-vCPU x86_64 VM).
"""

import json
import os
import time

import numpy as np
import pytest

from ssnmf import cli, evalcluster, matrix, synth
from ssnmf.classify import ClassifierModel, accuracy, predict, train, transform
from ssnmf.objectives import VARIANTS, ModelVariant, ObjectiveSpec, objective
from ssnmf.rng import substream
from ssnmf.solver import (
    FactorState,
    SsnmfConfig,
    fit,
    gradient,
    mu_step,
    step_scale,
)
from ssnmf.synth import ExperimentSpec, gen_separable, run_benchmark
from ssnmf.textprep import one_hot

FRO_FRO = ModelVariant.parse("fro-fro")
FRO_DIV = ModelVariant.parse("fro-div")


def _line(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    return ok


# ------------------------------------------------------------- criterion 1

def test_criterion_1_monotone_objective_traces():
    n1, n2, k, r = 30, 40, 5, 4
    lams = (0.1, 1.0, 10.0)
    worst = 0.0
    started = time.perf_counter()
    for i in range(50):
        gen = substream(100, "monotone", i)
        x = gen.random((n1, n2)) * 2.0
        y = gen.random((k, n2)) * 2.0
        x[gen.random((n1, n2)) < 0.1] = 0.0
        y[gen.random((k, n2)) < 0.1] = 0.0
        if i % 3 == 0:
            w = l = None
        else:
            w = (gen.random((n1, n2)) < 0.85).astype(float)
            l = (gen.random((k, n2)) < 0.85).astype(float)
        lam = lams[i % 3]
        for variant in VARIANTS:
            cfg = SsnmfConfig(r=r, lam=lam, max_iters=200, tol=0.0,
                              eps=1e-10, seed=i)
            trace = np.asarray(fit(variant, x, y, cfg, w=w, l=l).objective_trace)
            assert trace.size == 201
            rises = (trace[1:] - trace[:-1]) / np.maximum(trace[:-1], 1e-30)
            worst = max(worst, float(rises.max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 60.0
    _line(1, ok, f"max relative rise {worst:.3g}, {elapsed:.1f}s for 200 fits")
    assert worst <= 1e-9
    assert elapsed <= 60.0


# ------------------------------------------------------------- criterion 2

def test_criterion_2_exact_factorization_is_fixed_point():
    gen = substream(200, "fixed-point")
    a = gen.random((30, 4)) + 0.05
    s = gen.random((4, 40))
    s[gen.random(s.shape) < 0.25] = 0.0
    b = gen.random((5, 4)) + 0.05
    x = a @ s
    y = b @ s
    w = np.ones_like(x)
    l = np.ones_like(y)
    state = FactorState(a, b, s)
    worst = 0.0
    for variant in VARIANTS:
        out = mu_step(variant, state, x, y, w, l, lam=1.0, eps=1e-10)
        worst = max(
            worst,
            float(np.abs(out.a - a).max()),
            float(np.abs(out.b - b).max()),
            float(np.abs(out.s - s).max()),
        )
    ok = worst <= 1e-6
    _line(2, ok, f"max factor drift after one step {worst:.3g}")
    assert worst <= 1e-6


# ------------------------------------------------------------- criterion 3

def _objective_on(variant, a, b, s, x, y, w, l, lam):
    return objective(ObjectiveSpec(variant, lam), a, b, s, x, y,
                     w=w, l=l, eps=0.0)


def _central_diff(variant, state, x, y, w, l, lam, which, h=1e-6):
    base = getattr(state, which)
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        bumped = {f: getattr(state, f).copy() for f in ("a", "b", "s")}
        bumped[which][idx] = base[idx] + h
        hi = _objective_on(variant, bumped["a"], bumped["b"], bumped["s"],
                           x, y, w, l, lam)
        bumped[which][idx] = base[idx] - h
        lo = _objective_on(variant, bumped["a"], bumped["b"], bumped["s"],
                           x, y, w, l, lam)
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def test_criterion_3_gradients_and_scaled_descent_identity():
    n1, n2, k, r = 5, 6, 3, 2
    lam = 1.7
    worst_grad = 0.0
    worst_identity = 0.0
    for trial, masked in ((0, False), (1, True)):
        gen = substream(300, "grad", trial)
        state = FactorState(
            gen.random((n1, r)) + 0.2,
            gen.random((k, r)) + 0.2,
            gen.random((r, n2)) + 0.2,
        )
        x = gen.random((n1, n2)) + 0.1
        y = gen.random((k, n2)) + 0.1
        if masked:
            w = (gen.random((n1, n2)) < 0.8).astype(float)
            l = (gen.random((k, n2)) < 0.8).astype(float)
        else:
            w = l = None
        for variant in VARIANTS:
            analytic = gradient(variant, state, x, y, w, l, lam, eps=1e-14)
            for which, got in zip(("a", "b", "s"), analytic):
                numeric = _central_diff(variant, state, x, y, w, l, lam, which)
                rel = np.abs(got - numeric).max() / max(np.abs(numeric).max(), 1e-30)
                worst_grad = max(worst_grad, float(rel))

            # update = factor - scale . gradient, checked at the states each
            # update actually sees: A and B against the sweep start, S against
            # the post-A/B state
            stepped = mu_step(variant, state, x, y, w, l, lam, eps=1e-14)
            ga, gb, _ = gradient(variant, state, x, y, w, l, lam, eps=1e-14)
            sa, sb, _ = step_scale(variant, state, x, y, w, l, lam, eps=1e-14)
            mid = FactorState(stepped.a, stepped.b, state.s)
            _, _, gs = gradient(variant, mid, x, y, w, l, lam, eps=1e-14)
            _, _, ss = step_scale(variant, mid, x, y, w, l, lam, eps=1e-14)
            for got, start, scale, grad in (
                (stepped.a, state.a, sa, ga),
                (stepped.b, state.b, sb, gb),
                (stepped.s, state.s, ss, gs),
            ):
                gap = np.abs(got - (start - scale * grad)).max()
                worst_identity = max(worst_identity, float(gap))
    ok = worst_grad < 1e-5 and worst_identity <= 1e-10
    _line(3, ok, f"max gradient rel err {worst_grad:.3g}, "
                 f"max identity gap {worst_identity:.3g}")
    assert worst_grad < 1e-5
    assert worst_identity <= 1e-10


# ------------------------------------------------------------- criterion 4

@pytest.mark.slow
def test_criterion_4_noise_matched_variant_wins_each_experiment():
    # The paper's size, 500x500 with k=500. At 100x100 the ranking is set by
    # the eps guard rather than the estimator: the divergence fits, as Poisson
    # MLEs do on all-zero counts, floor the fitted product at 300-1100 entries
    # whose clean product is positive, and the score charges each of them
    # c*log(c/eps), about 23c at eps=1e-10. Those entries are 70-78% of the
    # matched score in experiments 2-4 at 100x100 and 49% at 300x300, where
    # fro-fro still wins experiment 4. At 500x500 the fits level off by 1000
    # sweeps (div-div on experiment 4: 0.0165 at 1045 sweeps, 0.0168 at 5000)
    # and the matched variant wins every column for seeds 0-4; matched to
    # best-other ratios at seed 0 are 0.967, 0.727, 0.807 and 0.886, and the
    # closest at any seed are 0.994 (experiment 1) and 0.993 (experiment 4).
    spec = ExperimentSpec(n1=500, n2=500, k=500, r=5, density=0.5, lam=1.0,
                          max_iters=1000, trials=1, seed=0, eps=1e-10)
    started = time.perf_counter()
    grid = run_benchmark(spec, list(synth.EXPERIMENT_IDS))
    elapsed = time.perf_counter() - started
    matched = [grid.variants.index(synth.MATCHED_VARIANT[e])
               for e in grid.experiments]
    minima = grid.column_minima()
    rows = "\n".join(
        f"  {v.key:<8}" + " ".join(f"{grid.means[i, j]:.4f}" for j in range(4))
        for i, v in enumerate(grid.variants)
    )
    ok = minima == matched and elapsed <= 600.0
    _line(4, ok, f"column winners {minima} want {matched}, {elapsed:.0f}s\n{rows}")
    assert elapsed <= 600.0
    assert minima == matched, (
        f"noise-matched variant must win every experiment column at 500x500; "
        f"winners were {[grid.variants[i].key for i in minima]}. At this size "
        f"the matched variant wins every column for seeds 0-4, by 3-27% at "
        f"seed 0 (matched/best-other at most 0.994 at any seed), so a lost "
        f"column points at the update rules, the samplers or the score; see "
        f"README (benchmark notes).\n{rows}"
    )


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("SSNMF_FULL_SCALE"),
                    reason="hours-long full-scale benchmark; set "
                           "SSNMF_FULL_SCALE=1 to run")
def test_criterion_4_full_scale_diagonal_values():
    spec = ExperimentSpec(n1=500, n2=500, k=500, r=5, density=0.5, lam=1.0,
                          max_iters=100000, trials=5, seed=0, eps=1e-10)
    grid = run_benchmark(spec, list(synth.EXPERIMENT_IDS))
    matched = [grid.variants.index(synth.MATCHED_VARIANT[e])
               for e in grid.experiments]
    minima = grid.column_minima()
    expected = {1: 0.2917, 2: 0.0065, 3: 0.0071, 4: 0.0172}
    worst = 0.0
    for j, (e, i) in enumerate(zip(grid.experiments, matched)):
        rel = abs(grid.means[i, j] - expected[e]) / expected[e]
        worst = max(worst, rel)
    ok = worst <= 0.30 and minima == matched
    _line("4 (full scale)", ok, f"max diagonal deviation {worst:.1%}, "
                                f"column winners {minima} want {matched}")
    assert minima == matched
    assert worst <= 0.30


# ------------------------------------------------------------- criterion 5

def test_criterion_5_single_entry_one_step_oracle():
    # By hand, from A = B = S = [[1]] on X = [[2]], Y = [[3]]: the A step
    # gives 2/1 = 2 and the B step 3/1 = 3 for either loss. The S step then
    # sees the exact system X = AS, Y = BS, so its numerator and denominator
    # agree for every loss mix (fro-fro: (A^T X + B^T Y)/(A^T AS + B^T BS)
    # = 13/13; fro-div: (2A^T X + B^T(Y/BS))/(2A^T AS + B^T 1) = 11/11) and
    # S stays exactly 1.
    worst = 0.0
    for variant in (FRO_DIV, FRO_FRO):
        state = FactorState(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        out = mu_step(variant, state, [[2.0]], [[3.0]], lam=1.0, eps=1e-12)
        worst = max(worst,
                    abs(float(out.a[0, 0]) - 2.0),
                    abs(float(out.b[0, 0]) - 3.0),
                    abs(float(out.s[0, 0]) - 1.0))
    ok = worst <= 1e-8
    _line(5, ok, f"max deviation from hand result {worst:.3g}")
    assert worst <= 1e-8


# ------------------------------------------------------------- criterion 6

def _split_columns(x, y, train_frac, seed):
    n = x.shape[1]
    order = substream(seed, "acc-split").permutation(n)
    cut = int(round(train_frac * n))
    tr, te = order[:cut], order[cut:]
    return (x[:, tr], y[:, tr]), (x[:, te], y[:, te])


def test_criterion_6_separable_classification_accuracy():
    x, y, _ = gen_separable(3, 40, seed=7)
    (x_tr, y_tr), (x_te, y_te) = _split_columns(x, y, 0.75, seed=1)
    cfg = SsnmfConfig(r=3, lam=5.0, max_iters=120, seed=11)
    accs = {}
    for variant in VARIANTS:
        model, _ = train(x_tr, y_tr, variant, cfg)
        s_te = transform(model, x_te, iters=120)
        accs[variant.key] = accuracy(y_te, predict(model, s_te))
    worst = min(accs.values())
    ok = worst >= 0.95
    _line(6, ok, "accuracy " + " ".join(f"{k}={v:.3f}" for k, v in accs.items()))
    assert worst >= 0.95, accs


@pytest.mark.skipif(not os.environ.get("SSNMF_20NEWS_DIR"),
                    reason="newsgroup corpus not bundled; set SSNMF_20NEWS_DIR "
                           "to a class/subgroup/document tree to run")
def test_criterion_6_newsgroup_accuracy():
    from ssnmf import textprep

    corpus = textprep.load_corpus_tree(os.environ["SSNMF_20NEWS_DIR"])
    variant = ModelVariant.parse("div-fro")
    scores = []
    for trial in range(11):
        trn, _, tst = textprep.split(corpus, ratios=(0.6, 0.2, 0.2), seed=trial)
        vocab = textprep.build_vocabulary(trn, stop_terms=textprep.stopwords(),
                                          min_df=5, max_df_ratio=0.7,
                                          max_size=5000)
        k = len(corpus.class_names)
        cfg = SsnmfConfig(r=13, lam=100.0, max_iters=50, tol=1e-3, seed=trial)
        model, _ = train(textprep.tfidf(trn, vocab),
                         one_hot(trn.class_ids(), k), variant, cfg)
        s_te = transform(model, textprep.tfidf(tst, vocab))
        scores.append(accuracy(one_hot(tst.class_ids(), k),
                               predict(model, s_te)))
    mean_pct = 100.0 * float(np.mean(scores))
    ok = abs(mean_pct - 81.88) <= 2.0
    _line("6 (newsgroups)", ok, f"mean accuracy {mean_pct:.2f}% over 11 trials")
    assert ok


# ------------------------------------------------------------- criterion 7

def _nnls_projected_gradient(a, x, iters=30000):
    """Reference solver for min ||x - a s||_F^2 with s >= 0."""
    ata = a.T @ a
    atx = a.T @ x
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(ata).max()))
    s = np.full((a.shape[1], x.shape[1]), 0.5)
    for _ in range(iters):
        s = np.maximum(s - step * 2.0 * (ata @ s - atx), 0.0)
    return s


def test_criterion_7_transform_matches_nnls_oracle():
    worst = 0.0
    for r in (1, 2, 3):
        gen = substream(700, "nnls", r)
        a = gen.random((8, r)) + 0.05
        x = gen.random((8, 5)) * 2.0
        model = ClassifierModel(a_train=a, b_train=np.zeros((1, r)),
                                variant=FRO_FRO,
                                config=SsnmfConfig(r=r, seed=3))
        s_mu = transform(model, x, iters=6000)
        s_pg = _nnls_projected_gradient(a, x)
        err_mu = float(np.sum((x - a @ s_mu) ** 2))
        err_pg = float(np.sum((x - a @ s_pg) ** 2))
        worst = max(worst, abs(err_mu - err_pg) / err_pg)
    ok = worst <= 1e-4
    _line(7, ok, f"max relative reconstruction gap {worst:.3g}")
    assert worst <= 1e-4


# ------------------------------------------------------------- criterion 8

def test_criterion_8_topic_score_bounds_and_exact_cases():
    # bounds on random pairs
    for i in range(100):
        gen = substream(800, "pairs", i)
        r = 2 + i % 4
        g = 2 + i % 3
        n = max(g, 5 + i % 7)
        s = gen.random((r, n))
        s[gen.random(s.shape) < 0.2] = 0.0
        m = np.zeros((g, n))
        cols = np.arange(n)
        picks = gen.integers(0, g, size=n)
        picks[:g] = np.arange(g)  # keep every ground-truth row nonempty
        m[picks, cols] = 1.0
        p = evalcluster.mean_score(s, m, mode=("hard", "soft")[i % 2])
        assert 0.0 <= p <= 1.0, (i, p)

    # P = 1 when the hard assignment equals m up to row order
    gen = substream(800, "perm")
    s = 0.1 * gen.random((4, 8))
    for j in range(8):
        s[j % 4, j] += 1.0
    m = evalcluster.hard_assign(s)[[2, 0, 3, 1], :]
    exact = evalcluster.mean_score(s, m, mode="hard")

    # tie: topic row [1,0,1,0] overlaps half of either group; lowest wins
    best, score = evalcluster.topic_score(
        [1.0, 0.0, 1.0, 0.0],
        [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
    )
    ok = exact == 1.0 and (best, score) == (0, 0.5)
    _line(8, ok, f"bounds held, permuted match P={exact}, tie=({best}, {score})")
    assert exact == 1.0
    assert (best, score) == (0, 0.5)


# ------------------------------------------------------------- criterion 9

def _tree_bytes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    gen = substream(900, "cli")
    x = gen.random((6, 9))
    y = np.zeros((2, 9))
    y[0, :5] = 1.0
    y[1, 5:] = 1.0
    x_path = str(tmp_path / "x.csv")
    y_path = str(tmp_path / "y.csv")
    matrix.write_csv(x_path, x)
    matrix.write_csv(y_path, y)

    xc, yc, _ = gen_separable(2, 10, seed=4)
    xc_tr, yc_tr = xc[:, :14], yc[:, :14]
    xc_te, yc_te = xc[:, 14:], yc[:, 14:]
    paths = {}
    for name, mat in (("xtr", xc_tr), ("ytr", yc_tr),
                      ("xte", xc_te), ("yte", yc_te)):
        paths[name] = str(tmp_path / f"{name}.csv")
        matrix.write_csv(paths[name], mat)

    corpus = tmp_path / "corpus"
    for cls, sub, texts in (
        ("sport", "hockey", ["puck ice goal", "ice goal skate", "puck goal shot"]),
        ("tech", "crypt", ["cipher key code", "key code hash", "cipher code salt"]),
    ):
        d = corpus / cls / sub
        d.mkdir(parents=True)
        for i, text in enumerate(texts):
            (d / f"{i}.txt").write_text(text)

    a_path = str(tmp_path / "A_topics.csv")
    matrix.write_csv(a_path, [[0.9, 0.0], [0.5, 0.1], [0.0, 0.8]])
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("alpha\nbeta\ngamma\n")
    s_path = str(tmp_path / "S_score.csv")
    m_path = str(tmp_path / "M_score.csv")
    matrix.write_csv(s_path, [[1.0, 0.2, 0.0], [0.0, 0.8, 1.0]])
    matrix.write_csv(m_path, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])

    commands = {
        "fit": ["fit", "--x", x_path, "--y", y_path, "--r", "2",
                "--max-iters", "15"],
        "classify": ["classify", "--x-train", paths["xtr"],
                     "--y-train", paths["ytr"], "--x-test", paths["xte"],
                     "--y-test", paths["yte"], "--r", "2", "--lam", "5",
                     "--max-iters", "25", "--tol", "0",
                     "--transform-iters", "25"],
        "synth-bench": ["synth-bench", "--experiment", "2", "--n1", "8",
                        "--n2", "10", "--k", "6", "--r", "2",
                        "--max-iters", "25", "--trials", "2"],
        "prep": ["prep", "--input", str(corpus), "--min-df", "1",
                 "--train-ratio", "0.5", "--val-ratio", "0.25",
                 "--test-ratio", "0.25"],
        "topics": ["topics", "--a", a_path, "--vocab", str(vocab_path),
                   "--count", "2"],
        "cluster-score": ["cluster-score", "--s", s_path, "--m", m_path],
    }
    diffs = []
    for name, args in commands.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        code1 = cli.main(args + ["--no-timestamp", "--out-dir", str(out1)])
        code2 = cli.main(args + ["--no-timestamp", "--out-dir", str(out2)])
        assert code1 == 0 and code2 == 0, name
        if _tree_bytes(out1) != _tree_bytes(out2):
            diffs.append(name)
    ok = not diffs
    _line(9, ok, f"6 commands rerun, mismatches: {diffs or 'none'}")
    assert not diffs
