import json
import math

import numpy as np
import pytest

from ssnmf import textprep
from ssnmf.exceptions import ParseError
from ssnmf.textprep import Corpus, Document


def make_corpus(texts, class_ids=None, classes=1, subgroups=1):
    class_ids = class_ids or [0] * len(texts)
    docs = [Document(t, c, 0) for t, c in zip(texts, class_ids)]
    return Corpus(docs, [f"c{i}" for i in range(classes)],
                  [f"g{i}" for i in range(subgroups)])


def test_tokenize_letters_only_lowercase():
    assert textprep.tokenize("Mac's X11!") == ["mac", "s", "x"]
    assert textprep.tokenize("don't stop") == ["don", "t", "stop"]
    assert textprep.tokenize("") == []
    assert textprep.tokenize("123 456") == []


def test_clean_document_strips_headers_quotes_signature():
    raw = (
        "From: someone@example.com\n"
        "Subject: hello\n"
        "\n"
        "real content line\n"
        "> quoted reply\n"
        "more content\n"
        "--\n"
        "signature block\n"
    )
    cleaned = textprep.clean_document(raw)
    assert "real content line" in cleaned
    assert "more content" in cleaned
    assert "someone" not in cleaned
    assert "quoted reply" not in cleaned
    assert "signature block" not in cleaned


def test_clean_document_without_headers_keeps_text():
    raw = "just a plain paragraph\nwith two lines\n"
    assert "plain paragraph" in textprep.clean_document(raw)


def test_stopword_list_loads():
    stop = textprep.stopwords()
    assert "the" in stop
    assert "and" in stop
    assert "network" not in stop


def test_build_vocabulary_df_bounds():
    corpus = make_corpus(["the cat sat", "the dog ran", "the cat ran fast"])
    vocab = textprep.build_vocabulary(corpus, min_df=2, max_df_ratio=0.7)
    # "the" is in 3/3 docs > 0.7, singles fall under min_df
    assert "the" not in vocab.term_index
    assert set(vocab.terms) == {"cat", "ran"}
    # terms come out sorted
    assert vocab.terms == sorted(vocab.terms)


def test_build_vocabulary_stop_terms():
    corpus = make_corpus(["the cat", "the dog"])
    vocab = textprep.build_vocabulary(corpus, stop_terms=("the",))
    assert "the" not in vocab.term_index
    assert "cat" in vocab.term_index


def test_build_vocabulary_size_cap_prefers_frequent_terms():
    corpus = make_corpus(["apple apple apple banana", "apple cherry banana"])
    vocab = textprep.build_vocabulary(corpus, max_size=2)
    # apple (4 uses) and banana (2 uses) beat cherry (1 use)
    assert set(vocab.terms) == {"apple", "banana"}


def test_build_vocabulary_empty_raises():
    corpus = make_corpus(["the", "the"])
    with pytest.raises(ParseError):
        textprep.build_vocabulary(corpus, stop_terms=("the",))


@pytest.mark.parametrize("max_size", [0, -1])
def test_build_vocabulary_size_below_one_raises(max_size):
    corpus = make_corpus(["apple banana", "apple cherry"])
    with pytest.raises(ParseError, match=f"max_size must be >= 1, got {max_size}"):
        textprep.build_vocabulary(corpus, max_size=max_size)


def test_idf_formula():
    corpus = make_corpus(["cat dog", "cat"])
    vocab = textprep.build_vocabulary(corpus)
    idf = vocab.idf()
    i_cat = vocab.term_index["cat"]
    i_dog = vocab.term_index["dog"]
    assert idf[i_cat] == pytest.approx(math.log(3 / 3) + 1)
    assert idf[i_dog] == pytest.approx(math.log(3 / 2) + 1)


def test_tfidf_single_doc_hand_computed():
    corpus = make_corpus(["a a b"])
    vocab = textprep.build_vocabulary(corpus)
    mat = textprep.tfidf(corpus, vocab)
    # counts (2, 1), idf 1 everywhere, then unit L2 column norm
    want = np.array([[2.0], [1.0]]) / math.sqrt(5)
    assert np.allclose(mat, want)


def test_tfidf_columns_unit_norm():
    corpus = make_corpus(["cat dog bird", "dog dog fish", "bird cat cat"])
    vocab = textprep.build_vocabulary(corpus)
    mat = textprep.tfidf(corpus, vocab)
    norms = np.linalg.norm(mat, axis=0)
    assert np.allclose(norms, 1.0)


def test_tfidf_out_of_vocabulary_column_is_zero():
    corpus = make_corpus(["cat dog", "zzz qqq"])
    vocab = textprep.build_vocabulary(make_corpus(["cat dog"]))
    mat = textprep.tfidf(corpus, vocab)
    assert textprep.empty_columns(mat) == [1]
    assert (mat[:, 1] == 0).all()


def test_one_hot():
    got = textprep.one_hot([0, 2, 1], 3)
    assert got.shape == (3, 3)
    # column j carries a single 1 at its label row
    assert np.array_equal(np.argmax(got, axis=0), [0, 2, 1])
    assert (got.sum(axis=0) == 1).all()
    with pytest.raises(ValueError):
        textprep.one_hot([3], 3)


def test_split_sizes_per_class_with_cap():
    # five classes of 1800 documents capped at 1796 split 60/20/20 by floor
    docs = []
    for c in range(5):
        docs.extend(Document(f"word{i}", c, 0) for i in range(1800))
    corpus = Corpus(docs, [f"c{i}" for i in range(5)], ["g0"])
    train, val, test = textprep.split(corpus, per_class_cap=1796, seed=0)
    assert len(train) == 5 * 1077
    assert len(val) == 5 * 359
    assert len(test) == 5 * 360
    for part in (train, val, test):
        ids = np.array(part.class_ids())
        counts = [(ids == c).sum() for c in range(5)]
        assert len(set(counts)) == 1  # balanced across classes


def test_split_disjoint_and_deterministic():
    docs = [Document(f"doc{i}", i % 2, 0) for i in range(40)]
    corpus = Corpus(docs, ["a", "b"], ["g0"])
    t1, v1, s1 = textprep.split(corpus, seed=3)
    t2, v2, s2 = textprep.split(corpus, seed=3)
    assert t1.texts() == t2.texts()
    assert v1.texts() == v2.texts()
    assert s1.texts() == s2.texts()
    seen = t1.texts() + v1.texts() + s1.texts()
    assert sorted(seen) == sorted(d.text for d in docs)


@pytest.mark.parametrize("ratios", [
    (-0.2, 0.6, 0.6), (0.6, 0.2, 0.3), (math.nan, 0.2, 0.2), (math.inf, 0.2, 0.2),
])
def test_split_rejects_bad_ratios(ratios):
    corpus = Corpus([Document(f"d{i}", 0, 0) for i in range(5)], ["only"], ["g0"])
    with pytest.raises(ParseError, match="ratios must be nonnegative and sum to 1"):
        textprep.split(corpus, ratios=ratios)


@pytest.mark.parametrize("cap", [0, -1])
def test_split_cap_below_one_raises(cap):
    corpus = Corpus([Document(f"d{i}", 0, 0) for i in range(5)], ["only"], ["g0"])
    with pytest.raises(ParseError, match=f"per_class_cap must be >= 1, got {cap}"):
        textprep.split(corpus, per_class_cap=cap)


def test_split_cap_larger_than_class_fails():
    docs = [Document(f"d{i}", 0, 0) for i in range(5)]
    corpus = Corpus(docs, ["only"], ["g0"])
    with pytest.raises(ValueError) as err:
        textprep.split(corpus, per_class_cap=10)
    assert "only" in str(err.value)


def test_load_corpus_tree(tmp_path):
    for cls, sub, text in [
        ("sport", "hockey", "puck ice goal"),
        ("sport", "soccer", "ball goal net"),
        ("tech", "crypt", "cipher key code"),
    ]:
        d = tmp_path / cls / sub
        d.mkdir(parents=True, exist_ok=True)
        (d / "0001.txt").write_text(text)
    corpus = textprep.load_corpus_tree(tmp_path)
    assert corpus.class_names == ["sport", "tech"]
    assert corpus.subgroup_names == ["crypt", "hockey", "soccer"]
    assert len(corpus) == 3
    by_text = {d.text.strip(): d for d in corpus.documents}
    assert by_text["puck ice goal"].class_id == 0
    assert by_text["cipher key code"].class_id == 1
    assert by_text["ball goal net"].subgroup_id == 2


def test_load_corpus_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    rows = [
        {"text": "puck ice", "group": "sport", "subgroup": "hockey"},
        {"text": "cipher key", "group": "tech", "subgroup": "crypt"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    corpus = textprep.load_corpus_jsonl(path)
    assert corpus.class_names == ["sport", "tech"]
    assert len(corpus) == 2

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"group": "x", "subgroup": "y"}) + "\n")
    with pytest.raises(ParseError):
        textprep.load_corpus_jsonl(bad)


def test_vocabulary_save_load(tmp_path):
    corpus = make_corpus(["cat dog", "cat fish"])
    vocab = textprep.build_vocabulary(corpus)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    back = textprep.load_vocabulary(path)
    assert back.terms == vocab.terms
    assert back.term_index == vocab.term_index
