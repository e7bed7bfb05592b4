import numpy as np
import pytest

from ssnmf import matrix, objectives, solver
from ssnmf.classify import ClassifierModel, transform
from ssnmf.exceptions import ConfigError, FitError, ShapeError
from ssnmf.objectives import VARIANTS, Loss, ModelVariant, ObjectiveSpec, objective
from ssnmf.solver import (
    FACTOR_FLOOR,
    FactorState,
    SsnmfConfig,
    _apply_floor,
    fit,
    gradient,
    initialize,
    mu_step,
    step_scale,
)


def random_system(seed, n1=6, n2=8, k=3, r=2, positive=0.1):
    rng = np.random.default_rng(seed)
    state = FactorState(
        rng.random((n1, r)) + positive,
        rng.random((k, r)) + positive,
        rng.random((r, n2)) + positive,
    )
    x = rng.random((n1, n2)) + positive
    y = rng.random((k, n2)) + positive
    return state, x, y


@pytest.mark.parametrize("field", ["lam", "tol", "eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        SsnmfConfig(r=1, **{field: value})


def test_config_validation():
    with pytest.raises(ConfigError):
        SsnmfConfig(r=0)
    with pytest.raises(ConfigError):
        SsnmfConfig(r=1, lam=-1.0)
    with pytest.raises(ConfigError):
        SsnmfConfig(r=1, max_iters=0)
    with pytest.raises(ConfigError):
        SsnmfConfig(r=1, tol=-0.5)
    with pytest.raises(ConfigError):
        SsnmfConfig(r=1, eps=0.0)


def test_initialize_deterministic_and_positive():
    cfg = SsnmfConfig(r=3, seed=42)
    s1 = initialize(5, 7, 4, cfg)
    s2 = initialize(5, 7, 4, cfg)
    for f1, f2 in zip((s1.a, s1.b, s1.s), (s2.a, s2.b, s2.s)):
        assert np.array_equal(f1, f2)
        assert f1.min() >= 0.01
        assert f1.max() < 1.01
    assert s1.a.shape == (5, 3)
    assert s1.b.shape == (4, 3)
    assert s1.s.shape == (3, 7)


# One sweep from A = B = S = [[1]] on X = [[2]], Y = [[3]], lam = 1. Every
# variant sends A to 2 and B to 3; the updated system is then an exact
# factorization (X = AS, Y = BS at S = 1), so the S step is a no-op however
# the losses are mixed. Working the numerators/denominators by hand confirms
# it, e.g. fro-fro gives S = (A^T X + B^T Y) / (A^T AS + B^T BS) = 13/13 and
# fro-div gives (2 A^T X + B^T (Y/BS)) / (2 A^T AS + B^T 1) = 11/11.
@pytest.mark.parametrize("variant", VARIANTS)
def test_single_step_scalar_oracle(variant):
    state = FactorState(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    out = mu_step(variant, state, [[2.0]], [[3.0]], lam=1.0, eps=1e-12)
    assert out.a[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert out.b[0, 0] == pytest.approx(3.0, abs=1e-8)
    assert out.s[0, 0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_exact_factorization_is_fixed_point(variant):
    state, _, _ = random_system(17)
    x = state.a @ state.s
    y = state.b @ state.s
    out = mu_step(variant, state, x, y, lam=1.0, eps=1e-10)
    assert np.allclose(out.a, state.a, rtol=0, atol=1e-6)
    assert np.allclose(out.b, state.b, rtol=0, atol=1e-6)
    assert np.allclose(out.s, state.s, rtol=0, atol=1e-6)


def _mu_step_factors(variant, state, x, y, w, l):
    out = mu_step(variant, state.copy(), x, y, w, l, lam=0.8)
    return out.a, out.b, out.s


def _transform_codes(variant, state, x, y, w, l):
    model = ClassifierModel(state.a, state.b, variant, SsnmfConfig(r=state.a.shape[1]))
    return (transform(model, x, w, iters=20),)


NONE_MASK_PATHS = {
    "mu_step": _mu_step_factors,
    "gradient": lambda v, st, x, y, w, l: gradient(v, st, x, y, w, l, lam=0.8),
    "step_scale": lambda v, st, x, y, w, l: step_scale(v, st, x, y, w, l, lam=0.8),
    "transform": _transform_codes,
}
# the mu_step cases keep their original ids
NONE_MASK_CASES = [
    pytest.param(path, variant, id=str(variant) if path == "mu_step" else f"{path}-{variant}")
    for path in NONE_MASK_PATHS
    for variant in VARIANTS
]


@pytest.mark.parametrize("path,variant", NONE_MASK_CASES)
def test_none_mask_matches_explicit_ones(path, variant):
    # the None fast path sums in a different order than ones @ s.T, so the
    # agreement is to rounding, not bitwise
    state, x, y = random_system(23)
    w = np.ones_like(x)
    l = np.ones_like(y)
    run = NONE_MASK_PATHS[path]
    plain = run(variant, state, x, y, None, None)
    masked = run(variant, state, x, y, w, l)
    for p, m in zip(plain, masked):
        p, m = np.broadcast_arrays(p, m)
        assert np.allclose(p, m, rtol=1e-12, atol=0)


def _parts_masking_the_quotient(term, wz):
    """TermValue.parts in its older form, with a second mask pass over the
    divergence quotient."""
    if term.loss is Loss.FRO:
        return wz, term.wx
    wz += term.eps
    np.divide(term.wx, wz, out=wz)
    if term.mask is None:
        return None, wz
    wz *= term.mask
    return term.mask, wz


@pytest.mark.parametrize("masking", ["w-and-l", "none", "w-only"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_divergence_quotient_needs_no_second_mask_pass(variant, masking, monkeypatch):
    state, x, y = random_system(89, n1=9, n2=11, k=3, r=2)
    x[::4, ::3] = 0.0
    w, l = {"w-and-l": (_pattern(x, 3), _pattern(y, 2)),
            "none": (None, None),
            "w-only": (_pattern(x, 4), None)}[masking]

    def outputs():
        out = [part for run in NONE_MASK_PATHS.values()
               for part in run(variant, state, x, y, w, l)]
        result = fit(variant, x, y, SsnmfConfig(r=2, lam=0.8, max_iters=15, seed=6), w, l)
        out += [result.state.a, result.state.b, result.state.s, result.objective_trace]
        return [np.asarray(part).tobytes() for part in out]

    now = outputs()
    monkeypatch.setattr(objectives.TermValue, "parts", _parts_masking_the_quotient)
    assert outputs() == now


def _parts_dense_quotient(term, wz):
    """TermValue.parts with the divergence quotient formed over the whole
    grid at every density, kept as the reference for the sparse form."""
    if term.loss is Loss.FRO:
        return wz, term.wx
    wz += term.eps
    np.divide(term.wx, wz, out=wz)
    return term.mask, wz


def _sparse_x(gen, shape, nonzero):
    """A nonnegative x with exactly nonzero positive entries, at random positions."""
    x = np.zeros(shape)
    x.ravel()[gen.choice(x.size, nonzero, replace=False)] = gen.random(nonzero) + 0.05
    return x


# nonzero entries of a 100 x 100 W.X at the crossover density, 1500 at 15%
AT_CROSSOVER = round(objectives.SPARSE_QUOTIENT_DENSITY * 100 * 100)


@pytest.mark.parametrize("eps", [1e-10, 0.5])
@pytest.mark.parametrize("masking", ["none", "binary"])
@pytest.mark.parametrize("nonzero,zero_column", [
    pytest.param(AT_CROSSOVER // 2, False, id="half"),
    pytest.param(AT_CROSSOVER - 1, False, id="below"),
    pytest.param(AT_CROSSOVER, False, id="at"),
    pytest.param(AT_CROSSOVER + 1, False, id="above"),
    pytest.param(3 * AT_CROSSOVER, False, id="dense"),
    pytest.param(AT_CROSSOVER, True, id="zero-column"),
    pytest.param(0, False, id="all-zero"),
])
def test_sparse_quotient_equals_the_dense_form(nonzero, zero_column, masking, eps):
    gen = np.random.default_rng(nonzero)
    wx = _sparse_x(gen, (100, 100), nonzero)
    if zero_column:
        wx[:, 7] = 0.0
    x, w = wx, None
    if masking == "binary":
        # W keeps every entry of wx and some others; what it drops is positive in x
        w = ((wx > 0) | (gen.random(wx.shape) < 0.5)).astype(float)
        x = wx + (w == 0) * gen.random(wx.shape)
    f = gen.random((100, 4))
    term = objectives.TermValue(x, w, Loss.DIV, eps)
    reference = objectives.TermValue(x, w, Loss.DIV, eps)
    assert np.count_nonzero(term.wx) == np.count_nonzero(wx)
    # the term's quotient buffer is reused: the second product overwrites the first
    for s in (gen.random((4, 100)), gen.random((4, 100)) * 1e-3):
        if zero_column:
            s[:, 7] = 0.0  # W.Z + eps is eps in column 7
        wz = term.product(f, s)
        pos, neg = term.parts(wz)
        want_pos, want_neg = _parts_dense_quotient(reference, reference.product(f, s))
        assert pos is want_pos
        assert neg.tobytes() == want_neg.tobytes()
        # the dense form divides in wz and builds no positions, the sparse
        # one divides into the term's buffer
        dense = np.count_nonzero(wx) > AT_CROSSOVER
        assert (neg is wz) == dense
        assert (term.positions is None) == dense


def test_quotient_forms_differ_only_where_wz_plus_eps_is_zero():
    gen = np.random.default_rng(4)
    x = _sparse_x(gen, (30, 40), 60)
    x[:, 5] = 0.0
    x[2, 5] = 1.0
    f, s = gen.random((30, 3)), gen.random((3, 40))
    s[:, 5] = 0.0  # W.Z is 0 in column 5
    for eps in (1e-300, 0.0):
        term = objectives.TermValue(x, None, Loss.DIV, eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, sparse = term.parts(term.product(f, s))
            _, dense = _parts_dense_quotient(term, term.product(f, s))
        if eps > 0:
            assert sparse.tobytes() == dense.tobytes()
            continue
        # at eps = 0: W.X > 0 over W.Z = 0 is inf in both forms; 0/0 is NaN
        # in the dense form and stays 0 in the sparse one
        assert sparse[2, 5] == dense[2, 5] == np.inf
        zero_over_zero = np.zeros_like(x, dtype=bool)
        zero_over_zero[:, 5] = x[:, 5] == 0
        assert np.all(np.isnan(dense[zero_over_zero])) and np.all(sparse[zero_over_zero] == 0)
        assert sparse[~zero_over_zero].tobytes() == dense[~zero_over_zero].tobytes()


def _unsummable_sparse_x():
    """A 60x40 x whose 168 nonzero entries (7%) are 1e307: its sum overflows."""
    x = np.zeros((60, 40))
    x[::5, ::3] = 1e307
    return x


def test_sparse_split_of_an_unsummable_x_does_not_warn():
    # the suite turns numpy's warnings into errors; W.X's sum is the score's alone
    x = _unsummable_sparse_x()
    term = objectives.TermValue(x, None, Loss.DIV, 1e-10)
    _, neg = term.parts(np.ones_like(x))
    assert term.positions is not None
    assert np.array_equal(neg != 0, x != 0)


@pytest.mark.parametrize("x", [_unsummable_sparse_x(), np.full((60, 40), 1e306)],
                         ids=["sparse", "dense"])
@pytest.mark.parametrize("variant", [ModelVariant.DIV_FRO, ModelVariant.DIV_DIV])
def test_unsummable_divergence_data_scores_inf(variant, x):
    # not nan: the score's sum(W.Z) - sum(W.X) would be inf - inf, or -inf
    # plus an overflowing dot product
    y = np.eye(3)[:, np.arange(40) % 3]
    with pytest.raises(FitError, match="^objective is inf at initialization$"):
        fit(variant, x, y, SsnmfConfig(r=2, max_iters=3))


def _text_shaped_system(seed):
    """A 6%-dense TF-IDF-like x (terms x documents) with one-hot labels."""
    gen = np.random.default_rng(seed)
    x = _sparse_x(gen, (150, 180), round(0.06 * 150 * 180))
    y = np.zeros((8, 180))
    y[gen.integers(0, 8, 180), np.arange(180)] = 1.0
    return x, y


@pytest.mark.parametrize("masking", ["none", "binary"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sparse_text_fit_and_transform_equal_the_dense_form(variant, masking, monkeypatch):
    x, y = _text_shaped_system(5)
    w, l = MASKINGS[masking](x, y)
    config = SsnmfConfig(r=5, lam=0.8, max_iters=20, seed=2)

    def outputs():
        result = fit(variant, x, y, config, w, l)
        model = ClassifierModel(result.state.a, result.state.b, variant, config)
        out = [result.state.a, result.state.b, result.state.s, result.objective_trace,
               transform(model, x, w, iters=20)]
        return [np.asarray(part).tobytes() for part in out]

    now = outputs()
    monkeypatch.setattr(objectives.TermValue, "parts", _parts_dense_quotient)
    assert outputs() == now


def _direct_for_factor(term, f, s, scored=False):
    """TermValue.for_factor with every denominator formed from the product
    W.(f @ s), kept as the reference for the Gram form."""
    wz = term.product(f, s)
    value = term(wz) if scored else None
    pos, neg = term.parts(wz)
    return neg @ s.T, s.sum(axis=1)[None, :] if pos is None else pos @ s.T, value


def _direct_for_codes(term, f, s):
    """TermValue.for_codes in the same direct form."""
    pos, neg = term.parts(term.product(f, s))
    return f.T @ neg, f.sum(axis=0)[:, None] if pos is None else f.T @ pos


def _no_product(self, f, s):
    raise AssertionError("the term formed f @ s")


def test_gram_updates_form_no_product(monkeypatch):
    state, x, y = random_system(113)
    w, _ = MASKINGS["binary"](x, y)
    monkeypatch.setattr(objectives.TermValue, "product", _no_product)
    gram = objectives.TermValue(x, None, Loss.FRO, 1e-10)
    gram.for_factor(state.a, state.s)
    gram.for_codes(state.a, state.s)
    # scoring needs the product
    with pytest.raises(AssertionError, match="formed f @ s"):
        gram.for_factor(state.a, state.s, scored=True)
    for mask, loss in ((w, Loss.FRO), (None, Loss.DIV), (w, Loss.DIV)):
        term = objectives.TermValue(x, mask, loss, 1e-10)
        with pytest.raises(AssertionError, match="formed f @ s"):
            term.for_factor(state.a, state.s)
        with pytest.raises(AssertionError, match="formed f @ s"):
            term.for_codes(state.a, state.s)


def test_unmasked_fro_fro_sweeps_and_fro_transform_form_no_product(monkeypatch):
    state, x, y = random_system(127)
    monkeypatch.setattr(objectives.TermValue, "product", _no_product)
    mu_step(ModelVariant.FRO_FRO, state, x, y, lam=0.8)
    gradient(ModelVariant.FRO_FRO, state, x, y, lam=0.8)
    step_scale(ModelVariant.FRO_FRO, state, x, y, lam=0.8)
    for variant in (ModelVariant.FRO_FRO, ModelVariant.FRO_DIV):
        _transform_codes(variant, state, x, y, None, None)


# Relative bound on the Gram form's gap to the direct form. Each denominator
# entry is a sum of at most n2 + r nonnegative products in either form, so
# the two differ by rounding only: at most 1.5e-15 over this catalogue
# (numpy 2.4, OpenBLAS). A wrong contraction would differ by order one.
GRAM_RTOL = 1e-12
GRAM_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 3), (5, 5), (9, 4), (13, 30), (60, 70)]


@pytest.mark.parametrize("eps", [1e-10, 0.5])
@pytest.mark.parametrize("n1,n2", GRAM_SHAPES)
def test_gram_form_matches_the_direct_form(n1, n2, eps, monkeypatch):
    gen = np.random.default_rng(n1 * 100 + n2)
    k = 4
    x = gen.random((n1, n2)) * (gen.random((n1, n2)) > 0.2)
    y = gen.random((k, n2)) * 2.0
    for r in range(1, min(n1, n2) + 1):
        state = FactorState(gen.random((n1, r)) + 0.01, gen.random((k, r)) + 0.01,
                            gen.random((r, n2)) + 0.01)
        term = objectives.TermValue(x, None, Loss.FRO, eps)
        for scored in (False, True):
            num, den, value = term.for_factor(state.a, state.s, scored)
            want_num, want_den, want_value = _direct_for_factor(term, state.a, state.s, scored)
            assert num.tobytes() == want_num.tobytes()
            assert np.allclose(den, want_den, rtol=GRAM_RTOL, atol=0)
            assert value == want_value
        # a scored sweep steps as an unscored one
        assert den.tobytes() == term.for_factor(state.a, state.s)[1].tobytes()
        num, den = term.for_codes(state.a, state.s)
        want_num, want_den = _direct_for_codes(term, state.a, state.s)
        assert num.tobytes() == want_num.tobytes()
        assert np.allclose(den, want_den, rtol=GRAM_RTOL, atol=0)

        for variant in VARIANTS:
            for masking in ("none", "binary"):
                w, l = MASKINGS[masking](x, y)
                args = (variant, state, x, y, w, l, 0.8, eps)

                def outputs():
                    step = mu_step(*args)
                    return (step.a, step.b, step.s), gradient(*args), step_scale(*args)

                got = outputs()
                with monkeypatch.context() as patch:
                    patch.setattr(objectives.TermValue, "for_factor", _direct_for_factor)
                    patch.setattr(objectives.TermValue, "for_codes", _direct_for_codes)
                    want = outputs()
                (got_step, got_grad, got_scale), (want_step, want_grad, want_scale) = got, want
                if masking == "binary" or variant is ModelVariant.DIV_DIV:
                    # no unmasked Frobenius term: the same code runs
                    for g, m in zip(got_step + got_grad + got_scale,
                                    want_step + want_grad + want_scale):
                        assert g.tobytes() == m.tobytes()
                    continue
                for g, m in zip(got_step + got_scale, want_step + want_scale):
                    assert np.allclose(g, m, rtol=GRAM_RTOL, atol=0)
                # a gradient is c * (den - num), which may cancel; its gap is
                # bounded by the denominator's, and step_scale's G = f /
                # (c * den + eps) gives c * den + eps = f / G
                for g, m, f, scale in zip(got_grad, want_grad, (state.a, state.b, state.s),
                                          want_scale):
                    assert np.all(np.abs(g - m) <= GRAM_RTOL * f / scale)


@pytest.mark.parametrize("bad", ["w", "l"])
@pytest.mark.parametrize("path", ["mu_step", "gradient", "step_scale"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_mask_of_another_shape_is_a_shape_error(variant, path, bad):
    # a (1, n2) row would broadcast against the product without the check
    state, x, y = random_system(31)
    masks = {"w": np.ones_like(x), "l": np.ones_like(y)}
    masks[bad] = np.ones((1, x.shape[1]))
    with pytest.raises(ShapeError, match="mask shape mismatch"):
        NONE_MASK_PATHS[path](variant, state, x, y, masks["w"], masks["l"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_fully_masked_step_changes_nothing(variant):
    state, x, y = random_system(29)
    w = np.zeros_like(x)
    l = np.zeros_like(y)
    out = mu_step(variant, state, x, y, w, l)
    assert np.array_equal(out.a, state.a)
    assert np.array_equal(out.b, state.b)
    assert np.array_equal(out.s, state.s)


def test_exact_zero_entries_stay_zero():
    state, x, y = random_system(31)
    state.a[0, 0] = 0.0
    state.s[1, 2] = 0.0
    out = mu_step(ModelVariant.FRO_FRO, state, x, y)
    assert out.a[0, 0] == 0.0
    assert out.s[1, 2] == 0.0


def test_apply_floor_lifts_tiny_keeps_zero():
    f = np.array([[0.0, 1e-300, 0.5]])
    out = _apply_floor(f)
    assert out[0, 0] == 0.0
    assert out[0, 1] == FACTOR_FLOOR
    assert out[0, 2] == 0.5


@pytest.mark.parametrize("variant", VARIANTS)
def test_factors_stay_nonnegative(variant):
    state, x, y = random_system(37)
    for _ in range(25):
        state = mu_step(variant, state, x, y, lam=2.0)
    assert state.a.min() >= 0
    assert state.b.min() >= 0
    assert state.s.min() >= 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_trace_monotone(variant):
    _, x, y = random_system(41, n1=10, n2=12, k=4, r=3)
    cfg = SsnmfConfig(r=3, lam=1.5, max_iters=60, seed=2)
    result = fit(variant, x, y, cfg)
    trace = result.objective_trace
    assert len(trace) == 61
    assert result.iterations_run == 60
    for before, after in zip(trace, trace[1:]):
        assert after <= before * (1 + 1e-9)
    assert result.relative_error == pytest.approx(trace[-1] / trace[0])


def test_fit_is_deterministic():
    _, x, y = random_system(43)
    cfg = SsnmfConfig(r=2, max_iters=30, seed=5)
    r1 = fit(ModelVariant.DIV_FRO, x, y, cfg)
    r2 = fit(ModelVariant.DIV_FRO, x, y, cfg)
    assert r1.objective_trace == r2.objective_trace
    assert np.array_equal(r1.state.s, r2.state.s)


def test_fit_tol_stops_early():
    _, x, y = random_system(47, n1=8, n2=9, k=3, r=2)
    cfg = SsnmfConfig(r=2, max_iters=200, tol=0.0, seed=3)
    full = fit(ModelVariant.FRO_FRO, x, y, cfg)
    ratios = [v / full.objective_trace[0] for v in full.objective_trace[1:]]
    target = ratios[len(ratios) // 2]  # a tol some run actually crosses
    expected = next(i + 1 for i, v in enumerate(ratios) if v < target)
    stopped = fit(
        ModelVariant.FRO_FRO, x, y,
        SsnmfConfig(r=2, max_iters=200, tol=target, seed=3),
    )
    assert stopped.iterations_run == expected
    assert stopped.iterations_run < full.iterations_run


def _pattern(a, period):
    """A 0/1 mask shaped like a that drops every period-th entry."""
    return (np.arange(a.size).reshape(a.shape) % period != 0).astype(float)


MASKINGS = {
    "none": lambda x, y: (None, None),
    "binary": lambda x, y: (_pattern(x, 3), _pattern(y, 2)),
    "zero-l": lambda x, y: (_pattern(x, 4), np.zeros_like(y)),
}


@pytest.mark.parametrize("stop", ["max-iters", "tol"])
@pytest.mark.parametrize("masking", list(MASKINGS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_trace_is_objective_of_hand_stepped_states(variant, masking, stop):
    # fit takes each later value from the next sweep's own products; it must
    # equal objective on the states stepped by hand, bit for bit, and a tol
    # stop must hand back state t, not the sweep it made past it
    _, x, y = random_system(79, n1=9, n2=11, k=3, r=2)
    w, l = MASKINGS[masking](x, y)
    cfg = SsnmfConfig(r=2, lam=0.6, max_iters=25, seed=4)
    spec = ObjectiveSpec(variant, cfg.lam)
    states = [initialize(9, 11, 3, cfg)]
    for _ in range(cfg.max_iters):
        states.append(mu_step(variant, states[-1], x, y, w, l, cfg.lam, cfg.eps))
    expected = [objective(spec, st.a, st.b, st.s, x, y, w, l, eps=cfg.eps) for st in states]
    if stop == "tol":
        t = 9
        cfg = SsnmfConfig(r=2, lam=0.6, max_iters=25, seed=4,
                          tol=(expected[t] / expected[0] + expected[t - 1] / expected[0]) / 2)
        expected = expected[: t + 1]
    result = fit(variant, x, y, cfg, w, l)
    assert result.objective_trace == expected
    t = len(expected) - 1
    assert result.iterations_run == t
    for got, want in zip((result.state.a, result.state.b, result.state.s),
                         (states[t].a, states[t].b, states[t].s)):
        assert got.tobytes() == want.tobytes()


def test_fit_calls_objective_at_most_twice(monkeypatch):
    _, x, y = random_system(83)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return objective(*args, **kwargs)

    monkeypatch.setattr("ssnmf.solver.objective", counted)
    fit(ModelVariant.DIV_FRO, x, y, SsnmfConfig(r=2, max_iters=30))
    assert len(calls) == 1


@pytest.mark.parametrize("tol", [0.0, 0.5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_callback_sees_every_trace_entry_and_the_returned_state(variant, tol):
    _, x, y = random_system(97, n1=9, n2=11, k=3, r=2)
    w, l = MASKINGS["binary"](x, y)
    seen = []
    result = fit(variant, x, y, SsnmfConfig(r=2, lam=0.6, max_iters=40, tol=tol, seed=6),
                 w, l, callback=lambda sweep, state, value: seen.append((sweep, state, value)))
    assert [(sweep, value) for sweep, _, value in seen] == list(enumerate(result.objective_trace))
    assert (result.iterations_run < 40) == (tol > 0)
    last = seen[-1][1]
    for got, want in zip((last.a, last.b, last.s),
                         (result.state.a, result.state.b, result.state.s)):
        assert got.tobytes() == want.tobytes()


def _nan_at_sweep(monkeypatch, bad_sweep):
    """Make fit's scored sweeps report NaN for the state of bad_sweep."""
    real = solver.mu_step
    scored = []

    def patched(*args, terms=None, **kwargs):
        out = real(*args, terms=terms, **kwargs)
        if terms is not None:
            scored.append(None)  # the n-th scored sweep scores state n
            if len(scored) == bad_sweep:
                out.objective = float("nan")
        return out

    monkeypatch.setattr(solver, "mu_step", patched)


def test_non_finite_value_after_the_start_is_a_fit_error(monkeypatch):
    _, x, y = random_system(101)
    _nan_at_sweep(monkeypatch, 7)
    with pytest.raises(FitError, match="^objective is nan at sweep 7$"):
        fit(ModelVariant.DIV_FRO, x, y, SsnmfConfig(r=2, max_iters=20))


def test_non_finite_closing_value_is_a_fit_error(monkeypatch):
    # the last state of a full run is scored by fit's own terms, not a sweep
    class InfTerm(objectives.TermValue):
        def __call__(self, wz):
            return float("inf")

    _, x, y = random_system(103)
    monkeypatch.setattr(solver, "TermValue", InfTerm)
    with pytest.raises(FitError, match="^objective is inf at sweep 1$"):
        fit(ModelVariant.FRO_FRO, x, y, SsnmfConfig(r=2, max_iters=1))


def test_fit_builds_one_term_pair_besides_the_start_value(monkeypatch):
    real = objectives.TermValue.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    _, x, y = random_system(107)
    monkeypatch.setattr(objectives.TermValue, "__init__", counted)
    for max_iters in (1, 5):
        built.clear()
        fit(ModelVariant.DIV_FRO, x, y, SsnmfConfig(r=2, max_iters=max_iters))
        # objective's pair for the start value, and fit's for every sweep
        assert len(built) == 4


@pytest.mark.parametrize("masking", list(MASKINGS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_mu_step_without_terms_scores_nothing(variant, masking, monkeypatch):
    def fail(self, wz):
        raise AssertionError("mu_step scored a term it was not given")

    state, x, y = random_system(89)
    w, l = MASKINGS[masking](x, y)
    monkeypatch.setattr(objectives.TermValue, "__call__", fail)
    out = mu_step(variant, state, x, y, w, l)
    assert out.objective is None
    reused = mu_step(variant, state, x, y, w, l, reuse=solver._terms(variant, x, y, w, l, 1e-10))
    assert reused.objective is None
    for got, want in zip((reused.a, reused.b, reused.s), (out.a, out.b, out.s)):
        assert got.tobytes() == want.tobytes()


class _SeamTerm:
    """A fit term that offers solver only its loss, gradient factor and the
    two update contractions, each delegated to a real TermValue."""

    def __init__(self, *args):
        self._real = objectives.TermValue(*args)
        self.loss = self._real.loss
        self.grad_factor = self._real.grad_factor

    def for_factor(self, f, s, scored=False):
        return self._real.for_factor(f, s, scored)

    def for_codes(self, f, s):
        return self._real.for_codes(f, s)

    def __getattr__(self, name):
        raise AssertionError(f"solver asked a fit term for {name}")


@pytest.mark.parametrize("masking", list(MASKINGS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_solver_asks_a_term_only_for_its_update_contractions(variant, masking, monkeypatch):
    state, x, y = random_system(109)
    w, l = MASKINGS[masking](x, y)
    args = (variant, state, x, y, w, l, 0.8, 1e-10)

    def outputs():
        scored = mu_step(*args, terms=solver._terms(variant, x, y, w, l, 1e-10))
        plain = mu_step(*args)
        out = [scored.a, scored.b, scored.s, [scored.objective], plain.a, plain.b, plain.s,
               *gradient(*args), *step_scale(*args)]
        return [np.asarray(part).tobytes() for part in out]

    real = outputs()
    monkeypatch.setattr(solver, "TermValue", _SeamTerm)
    assert outputs() == real


def test_fit_accepts_explicit_init():
    state, x, y = random_system(53)
    cfg = SsnmfConfig(r=2, max_iters=5, seed=0)
    result = fit(ModelVariant.FRO_FRO, x, y, cfg, init=state)
    spec = ObjectiveSpec(ModelVariant.FRO_FRO, cfg.lam)
    start = objective(spec, state.a, state.b, state.s, x, y)
    assert result.objective_trace[0] == pytest.approx(start)


@pytest.mark.parametrize("name", ["A", "B", "S"])
def test_fit_rejects_an_init_factor_of_the_wrong_shape(name):
    # a rank-3 init under r=2 once ran at rank 3 while result.config.r read 2
    state, x, y = random_system(61)
    wide, _, _ = random_system(61, r=3)
    setattr(state, name.lower(), getattr(wide, name.lower()))
    with pytest.raises(ShapeError, match=f"^init {name} has shape"):
        fit(ModelVariant.FRO_FRO, x, y, SsnmfConfig(r=2, max_iters=3), init=state)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_rejects_a_negative_init_entry(variant):
    # fro-fro once fitted from it, and div-div raised a bare ValueError
    state, x, y = random_system(67)
    state.a[1, 1] = -0.5
    with pytest.raises(ShapeError, match=r"^init A must be .* found -0.5 at \(1, 1\)$"):
        fit(variant, x, y, SsnmfConfig(r=2, max_iters=3), init=state)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fit_rejects_a_non_finite_init_entry(value):
    # at the boundary, not as a FitError at initialization
    state, x, y = random_system(71)
    state.s[0, 2] = value
    with pytest.raises(ShapeError, match=f"^init S must be entrywise finite .* found {value}"):
        fit(ModelVariant.DIV_FRO, x, y, SsnmfConfig(r=2, max_iters=3), init=state)


def test_fit_rejects_infinite_start():
    # squared residuals overflow, so the first objective value is inf
    _, _, y = random_system(59)
    x = np.full((6, 8), 1e200)
    cfg = SsnmfConfig(r=2, max_iters=5)
    with pytest.raises(FitError):
        fit(ModelVariant.FRO_FRO, x, y, cfg)


def test_fit_validates_shapes_and_signs():
    _, x, y = random_system(61)
    cfg = SsnmfConfig(r=2, max_iters=2)
    with pytest.raises(ShapeError):
        fit(ModelVariant.FRO_FRO, x, y[:, :-1], cfg)
    x_bad = x.copy()
    x_bad[0, 0] = -1.0
    with pytest.raises(ShapeError):
        fit(ModelVariant.FRO_FRO, x_bad, y, cfg)


def test_fit_rejects_rank_above_the_data_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factors drawn for a rank the data cannot hold")

    monkeypatch.setattr(solver, "initialize", refuse)
    _, x, y = random_system(97)  # x is 6 x 8, y is 3 x 8
    for r in (7, 100_000_000):
        with pytest.raises(ConfigError, match=r"r must be <= min\(n1, n2\) = 6 for 6 x 8"):
            fit(ModelVariant.FRO_FRO, x, y, SsnmfConfig(r=r))
        with pytest.raises(ConfigError):
            fit(ModelVariant.FRO_FRO, x.T, np.ones((3, 6)), SsnmfConfig(r=r))


def test_fit_accepts_binary_masks_rejects_fractional():
    # the multiplicative updates descend the objective only for 0/1 masks
    _, x, y = random_system(71)
    cfg = SsnmfConfig(r=2, max_iters=3)
    w = (np.arange(x.size).reshape(x.shape) % 3 != 0).astype(float)
    l = np.zeros_like(y)
    fit(ModelVariant.FRO_FRO, x, y, cfg, w=w, l=l)
    for name in ("w", "l"):
        masks = {"w": w, "l": l}
        masks[name] = np.full_like(masks[name], 0.5)
        with pytest.raises(ShapeError, match=f"{name} must be a 0/1 mask"):
            fit(ModelVariant.FRO_FRO, x, y, cfg, **masks)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_input(bad):
    _, x, y = random_system(73)
    cfg = SsnmfConfig(r=2, max_iters=3)
    x[2, 3] = bad
    with pytest.raises(ShapeError, match=r"x must be entrywise finite.*\(2, 3\)"):
        fit(ModelVariant.DIV_DIV, x, y, cfg)
    l = np.ones_like(y)
    l[0, 0] = bad
    with pytest.raises(ShapeError, match="l must be a 0/1 mask"):
        fit(ModelVariant.DIV_DIV, np.ones((6, 8)), y, cfg, l=l)


def test_fit_result_save_roundtrip(tmp_path):
    # the factor CSVs and result.json that `ssnmf fit` writes read back exactly
    _, x, y = random_system(67)
    cfg = SsnmfConfig(r=2, max_iters=4, seed=1)
    result = fit(ModelVariant.FRO_DIV, x, y, cfg)
    for name, f in (("A", result.state.a), ("B", result.state.b), ("S", result.state.s)):
        matrix.write_csv(tmp_path / f"{name}.csv", f)
        assert np.array_equal(matrix.read_csv(tmp_path / f"{name}.csv"), f)
    matrix.write_json(tmp_path / "result.json", result.to_dict())
    import json

    report = json.loads((tmp_path / "result.json").read_text())
    assert report == result.to_dict()
    assert report["variant"] == "fro-div"
    assert report["iterations_run"] == 4
    assert len(report["objective_trace"]) == 5
