import numpy as np
import pytest

from ssnmf import evalcluster
from ssnmf.exceptions import EvaluationError, ShapeError


def test_hard_assign_one_hot_with_tie_to_first_row():
    s = np.array([[0.5, 0.1], [0.5, 0.9]])
    got = evalcluster.hard_assign(s)
    assert np.array_equal(got, [[1.0, 0.0], [0.0, 1.0]])


def test_soft_assign_column_normalized():
    s = np.array([[1.0, 0.0], [3.0, 0.0]])
    got = evalcluster.soft_assign(s)
    assert got[:, 0] == pytest.approx([0.25, 0.75])
    # an all-zero column stays zero instead of dividing by zero
    assert (got[:, 1] == 0).all()


def test_topic_score_tie_takes_first_ground_truth_row():
    # topic captures half of each subgroup; the tie resolves to row 0
    row = np.array([1.0, 0.0, 1.0, 0.0])
    m = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    group, score = evalcluster.topic_score(row, m)
    assert group == 0
    assert score == pytest.approx(0.5)


def test_topic_score_perfect_match():
    row = np.array([0.0, 0.0, 1.0, 1.0])
    m = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    group, score = evalcluster.topic_score(row, m)
    assert (group, score) == (1, pytest.approx(1.0))


def test_topic_score_rejects_empty_ground_truth_row():
    m = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(EvaluationError) as err:
        evalcluster.topic_score(np.array([1.0, 0.0]), m)
    assert "row 1" in str(err.value)


def test_mean_score_identity_assignment():
    m = np.eye(3)
    assert evalcluster.mean_score(m, m, mode="hard") == pytest.approx(1.0)


def test_mean_score_row_permutation_invariant():
    rng = np.random.default_rng(2)
    s = rng.random((4, 12))
    m = (rng.random((4, 12)) < 0.4).astype(float)
    m[m.sum(axis=1) == 0, 0] = 1.0  # every subgroup owns a document
    base = evalcluster.mean_score(s, m, mode="soft")
    perm = evalcluster.mean_score(s[[2, 0, 3, 1], :], m, mode="soft")
    assert perm == pytest.approx(base)


def test_mean_score_bounds_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        r = rng.integers(2, 6)
        n = rng.integers(r, 20)
        s = rng.random((r, n))
        m = np.zeros((r, n))
        m[rng.integers(0, r, n), np.arange(n)] = 1.0
        m[m.sum(axis=1) == 0, 0] = 1.0
        for mode in ("hard", "soft"):
            p = evalcluster.mean_score(s, m, mode=mode)
            assert 0.0 <= p <= 1.0


def test_mean_score_rejects_bad_mode():
    with pytest.raises(ValueError):
        evalcluster.mean_score(np.eye(2), np.eye(2), mode="fuzzy")


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_mean_score_rejects_non_finite_codes(mode):
    s = np.eye(2)
    s[0, 0] = np.nan
    with pytest.raises(ShapeError, match="finite"):
        evalcluster.mean_score(s, np.eye(2), mode=mode)


class FakeVocab:
    def __init__(self, terms):
        self.terms = terms


def test_top_keywords_orders_by_weight_then_term():
    a = np.array([[3.0, 0.0], [1.0, 2.0], [1.0, 2.0]])
    vocab = FakeVocab(["alpha", "beta", "gamma"])
    got = evalcluster.top_keywords(a, vocab, count=2)
    assert got[0] == ["alpha", "beta"]  # tie at 1.0 breaks alphabetically
    assert got[1] == ["beta", "gamma"]  # tie at 2.0 breaks alphabetically


@pytest.mark.parametrize("count", [0, -3])
def test_top_keywords_rejects_count_below_one(count):
    with pytest.raises(EvaluationError, match="count must be >= 1"):
        evalcluster.top_keywords(np.array([[1.0], [2.0]]), FakeVocab(["x", "y"]), count=count)


def test_top_keywords_count_capped_at_vocab_size():
    a = np.array([[1.0], [2.0]])
    got = evalcluster.top_keywords(a, FakeVocab(["x", "y"]), count=10)
    assert got == [["y", "x"]]


def test_topic_report_end_to_end(tmp_path):
    s = np.eye(3)
    m = np.eye(3)
    a = np.array([[5.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 3.0]])
    vocab = FakeVocab(["ant", "bee", "cow"])
    report = evalcluster.topic_report(
        a, s, m, vocab, mode="hard", count=1, group_names=["g0", "g1", "g2"]
    )
    assert report.mode == "hard"
    assert [t["topic"] for t in report.topics] == [0, 1, 2]
    assert [t["group_name"] for t in report.topics] == ["g0", "g1", "g2"]
    assert [t["keywords"] for t in report.topics] == [["ant"], ["bee"], ["cow"]]
    assert all(t["score"] == pytest.approx(1.0) for t in report.topics)
    text = report.to_text()
    assert "g1" in text and "bee" in text
    out = tmp_path / "topics.json"
    report.save(out)
    assert out.exists()
