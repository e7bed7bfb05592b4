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


def test_fit_accepts_explicit_init():
    state, x, y = random_system(53)
    cfg = SsnmfConfig(r=2, max_iters=5, seed=0)
    result = fit(ModelVariant.FRO_FRO, x, y, cfg, init=state)
    spec = ObjectiveSpec(ModelVariant.FRO_FRO, cfg.lam)
    start = objective(spec, state.a, state.b, state.s, x, y)
    assert result.objective_trace[0] == pytest.approx(start)


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
    _, x, y = random_system(67)
    cfg = SsnmfConfig(r=2, max_iters=4, seed=1)
    result = fit(ModelVariant.FRO_DIV, x, y, cfg)
    result.save(tmp_path)
    assert np.array_equal(matrix.read_csv(tmp_path / "A.csv"), result.state.a)
    assert np.array_equal(matrix.read_csv(tmp_path / "B.csv"), result.state.b)
    assert np.array_equal(matrix.read_csv(tmp_path / "S.csv"), result.state.s)
    import json

    report = json.loads((tmp_path / "result.json").read_text())
    assert report["variant"] == "fro-div"
    assert report["iterations_run"] == 4
    assert len(report["objective_trace"]) == 5
