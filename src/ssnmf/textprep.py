"""Corpus ingestion: tokenization, vocabulary filtering, TF-IDF, splits.

The pipeline is deterministic end to end: token order, vocabulary order
(lexicographic), and split shuffles (seeded per class) are all reproducible,
so the same corpus and seed always yield bit-identical matrices.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .exceptions import ParseError, ShapeError
from .rng import substream

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-zA-Z]+")
_HEADER_RE = re.compile(r"^[A-Za-z][A-Za-z0-9-]*:")


@dataclass(frozen=True)
class Document:
    text: str
    class_id: int
    subgroup_id: int


@dataclass
class Corpus:
    documents: list
    class_names: list
    subgroup_names: list

    def __len__(self) -> int:
        return len(self.documents)

    def class_ids(self) -> np.ndarray:
        return np.array([d.class_id for d in self.documents], dtype=np.int64)

    def subgroup_ids(self) -> np.ndarray:
        return np.array([d.subgroup_id for d in self.documents], dtype=np.int64)


@dataclass
class Vocabulary:
    terms: list
    idf: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(term + "\n" for term in self.terms)


def load_vocabulary(path) -> list:
    """The ordered term list written by Vocabulary.save (it holds no idf)."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def tokenize(text: str) -> list:
    """Lowercased maximal runs of ASCII letters; everything else delimits."""
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def clean_document(text: str) -> str:
    """Approximate message cleanup: drop a leading header block (field lines
    up to the first blank line), quoted lines starting with '>', and anything
    after a '--' signature delimiter."""
    lines = text.splitlines()
    start = 0
    if lines and _HEADER_RE.match(lines[0]):
        while start < len(lines) and lines[start].strip():
            start += 1
    kept = []
    for line in lines[start:]:
        if line.lstrip().startswith(">"):
            continue
        if line.strip() == "--":
            break
        kept.append(line)
    return "\n".join(kept)


def stopwords() -> frozenset:
    """The bundled English stopword list."""
    data = resources.files("ssnmf").joinpath("data/stopwords_english.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def build_vocabulary(
    corpus: Corpus,
    stop_terms: Sequence[str] = (),
    min_df: int = 1,
    max_df_ratio: float = 1.0,
    max_size: Optional[int] = None,
) -> Vocabulary:
    """Filtered, lexicographically ordered vocabulary.

    Drops stopwords, then terms in fewer than min_df documents or in more
    than max_df_ratio of all documents. If more than max_size terms survive,
    keeps those with the highest total corpus frequency (ties lexicographic).
    """
    if min_df < 1:
        raise ParseError(f"min_df must be >= 1, got {min_df}")
    if not 0 < max_df_ratio <= 1:
        raise ParseError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    if not (max_size is None or max_size >= 1):
        raise ParseError(f"max_size must be >= 1, got {max_size}")
    stop = set(stop_terms)
    doc_freq = Counter()
    total_freq = Counter()
    n_docs = len(corpus.documents)
    for doc in corpus.documents:
        tokens = [t for t in tokenize(doc.text) if t not in stop]
        total_freq.update(tokens)
        doc_freq.update(set(tokens))
    max_df = max_df_ratio * n_docs
    kept = [t for t, df in doc_freq.items() if df >= min_df and df <= max_df]
    if max_size is not None and len(kept) > max_size:
        kept.sort(key=lambda t: (-total_freq[t], t))
        kept = kept[:max_size]
    kept.sort()
    if not kept:
        raise ParseError("vocabulary is empty after filtering")
    df = np.array([doc_freq[t] for t in kept], dtype=np.int64)
    return Vocabulary(kept, np.log((1.0 + n_docs) / (1.0 + df)) + 1.0)


def tfidf(corpus: Corpus, vocab: Vocabulary) -> np.ndarray:
    """TF-IDF matrix, one column per document, unit Euclidean norm columns.

    tf is the raw in-document count and idf(t) = ln((1+n)/(1+df(t))) + 1 with
    n and df taken from the corpus the vocabulary was built on. Documents
    with no in-vocabulary terms stay all-zero columns (and are logged), which
    preserves column alignment with the label matrices.
    """
    if len(vocab) == 0:
        raise ParseError("vocabulary is empty")
    mat = np.zeros((len(vocab), len(corpus.documents)))
    index = {t: i for i, t in enumerate(vocab.terms)}
    for j, doc in enumerate(corpus.documents):
        for term, count in Counter(tokenize(doc.text)).items():
            i = index.get(term)
            if i is not None:
                mat[i, j] = count
    mat *= vocab.idf[:, None]
    norms = np.sqrt((mat * mat).sum(axis=0))
    nonzero = norms > 0
    mat[:, nonzero] /= norms[nonzero]
    empty = np.flatnonzero(~nonzero)
    if empty.size:
        logger.warning("%d document(s) have no in-vocabulary terms: %s",
                       empty.size, empty.tolist())
    return mat


def empty_columns(mat: np.ndarray) -> list:
    """Indices of all-zero columns (documents that lost every term)."""
    return np.flatnonzero(~np.any(mat != 0, axis=0)).tolist()


def one_hot(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError("labels must be a flat sequence")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"label ids must lie in [0, {k})")
    out = np.zeros((k, labels.size))
    out[labels, np.arange(labels.size)] = 1.0
    return out


def split(
    corpus: Corpus,
    ratios=(0.6, 0.2, 0.2),
    per_class_cap: Optional[int] = None,
    seed: int = 0,
):
    """Per-class shuffle, optional cap, then partition into train/val/test.

    Train and validation sizes are floored, the remainder goes to test, so a
    cap of 1796 with (0.6, 0.2, 0.2) gives 1077/359/360 per class.
    """
    if len(ratios) != 3:
        raise ParseError("ratios must have three entries")
    if not (all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ParseError(f"ratios must be nonnegative and sum to 1, got {ratios}")
    if not (per_class_cap is None or per_class_cap >= 1):
        raise ParseError(f"per_class_cap must be >= 1, got {per_class_cap}")
    by_class = {}
    for idx, doc in enumerate(corpus.documents):
        by_class.setdefault(doc.class_id, []).append(idx)
    train_idx, val_idx, test_idx = [], [], []
    for class_id in sorted(by_class):
        members = by_class[class_id]
        if per_class_cap is not None and len(members) < per_class_cap:
            name = (corpus.class_names[class_id]
                    if class_id < len(corpus.class_names) else str(class_id))
            raise ParseError(
                f"class {name!r} has {len(members)} documents, "
                f"fewer than the per-class cap {per_class_cap}"
            )
        order = substream(seed, "split", class_id).permutation(len(members))
        chosen = [members[i] for i in order]
        if per_class_cap is not None:
            chosen = chosen[:per_class_cap]
        n = len(chosen)
        n_train = math.floor(ratios[0] * n)
        n_val = math.floor(ratios[1] * n)
        train_idx.extend(chosen[:n_train])
        val_idx.extend(chosen[n_train:n_train + n_val])
        test_idx.extend(chosen[n_train + n_val:])

    def subset(indices):
        return Corpus(
            documents=[corpus.documents[i] for i in indices],
            class_names=corpus.class_names,
            subgroup_names=corpus.subgroup_names,
        )

    return subset(train_idx), subset(val_idx), subset(test_idx)


def _corpus(records, strip: bool, groups=(), subgroups=()) -> Corpus:
    """The Corpus of (text, group, subgroup) records, in their order; ids follow the
    sorted names of the records and of groups and subgroups, which may have none."""
    class_names = sorted({g for _, g, _ in records}.union(groups))
    subgroup_names = sorted({s for _, _, s in records}.union(subgroups))
    class_index = {n: i for i, n in enumerate(class_names)}
    subgroup_index = {n: i for i, n in enumerate(subgroup_names)}
    documents = [
        Document(clean_document(text) if strip else text, class_index[g], subgroup_index[s])
        for text, g, s in records
    ]
    return Corpus(documents, class_names, subgroup_names)


def load_corpus_tree(root, strip: bool = True) -> Corpus:
    """Read a class/subgroup/document directory tree.

    Class and subgroup ids follow the sorted directory names, empty ones
    included; files are read in sorted order, undecodable bytes replaced.
    Non-directories at the class or subgroup level are ignored.
    """
    root = Path(root)
    if not root.is_dir():
        raise ParseError(f"corpus root {root} is not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ParseError(f"no class directories under {root}")
    sub_dirs = [(cls.name, sub) for cls in class_dirs
                for sub in sorted(p for p in cls.iterdir() if p.is_dir())]
    records = [
        (doc.read_text("utf-8", errors="replace"), group, sub.name)
        for group, sub in sub_dirs
        for doc in sorted(p for p in sub.iterdir() if p.is_file())
    ]
    if not records:
        raise ParseError(f"no documents found under {root}")
    return _corpus(records, strip, [c.name for c in class_dirs], [s.name for _, s in sub_dirs])


def load_corpus_jsonl(path, strip: bool = True) -> Corpus:
    """Read one JSON object per line whose keys text, group and subgroup are
    strings. Any other non-blank line, a line that is not UTF-8 included, is
    a ParseError naming the line."""
    records = []
    # undecodable bytes pass as lone surrogates until their line is known
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: line {lineno}: a record must be a JSON object")
            bad = [k for k in ("text", "group", "subgroup") if not isinstance(obj.get(k), str)]
            if bad:
                raise ParseError(f"{path}: line {lineno}: keys missing or not strings: {bad}")
            records.append((obj["text"], obj["group"], obj["subgroup"]))
    if not records:
        raise ParseError(f"{path}: no documents")
    return _corpus(records, strip)
