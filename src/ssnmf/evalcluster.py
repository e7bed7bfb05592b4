"""Cluster quality against ground-truth group memberships, plus keywords.

A representation matrix S (topics x documents) is turned into an assignment:
hard (argmax per document) or soft (column sums normalized to 1). Each topic
row is then scored against the ground-truth membership rows M_i by the share
of the best-matching group it captures:

    I = argmax_i ||row . M_i||_1 / ||M_i||_1,   P = the maximized ratio.
"""

from __future__ import annotations

import logging

import numpy as np

from . import matrix
from .classify import label
from .exceptions import EvaluationError, ShapeError

logger = logging.getLogger(__name__)


def hard_assign(s) -> np.ndarray:
    """One-hot argmax per column (ties to the lowest topic index)."""
    return label(matrix.check_nonnegative(matrix.as_matrix(s, "s"), "s"))


def soft_assign(s) -> np.ndarray:
    """Columns scaled to sum 1; all-zero columns stay zero and are logged."""
    s = matrix.as_matrix(s, "s")
    matrix.check_nonnegative(s, "s")
    sums = s.sum(axis=0)
    out = s.copy()
    nonzero = sums > 0
    out[:, nonzero] /= sums[nonzero]
    if np.any(~nonzero):
        cols = np.flatnonzero(~nonzero).tolist()
        logger.warning("%d all-zero column(s) left unassigned: %s", len(cols), cols)
    return out


def topic_score(s_hat_row, m):
    """Best-matching ground-truth group for one topic row and its score.

    Returns (group index, P). Ties break to the lowest group index. Every
    row of m must have a nonzero sum.
    """
    row = np.asarray(s_hat_row, dtype=np.float64).ravel()
    m = matrix.as_matrix(m, "m")
    matrix.check_nonnegative(m, "m")
    if m.shape[1] != row.size:
        raise ShapeError(f"row has {row.size} entries but m has {m.shape[1]} columns")
    norms = m.sum(axis=1)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise EvaluationError(f"ground-truth row {bad} is all zeros")
    ratios = (m @ row) / norms
    best = int(np.argmax(ratios))
    return best, float(ratios[best])


_ASSIGN = {"hard": hard_assign, "soft": soft_assign}


def _assign(s, mode: str) -> np.ndarray:
    if mode not in _ASSIGN:
        raise EvaluationError(f"mode must be 'hard' or 'soft', got {mode!r}")
    return _ASSIGN[mode](s)


def mean_score(s, m, mode: str = "hard") -> float:
    """Average topic score P over all topic rows of s."""
    s_hat = _assign(s, mode)
    scores = [topic_score(s_hat[i], m)[1] for i in range(s_hat.shape[0])]
    return float(np.mean(scores))


def top_keywords(a, vocab, count: int = 10) -> list:
    """Highest-weight terms per topic column, ties broken lexicographically.

    vocab may be a Vocabulary or a plain term sequence; count must be at
    least 1, and a count larger than the vocabulary returns the full ordering.
    An entry of a that is negative, NaN or infinite is a ShapeError.
    """
    if not count >= 1:
        raise EvaluationError(f"count must be >= 1, got {count}")
    terms = list(getattr(vocab, "terms", vocab))
    a = matrix.check_nonnegative(matrix.as_matrix(a, "a"), "a")
    if a.shape[0] != len(terms):
        raise ShapeError(f"a has {a.shape[0]} rows but vocabulary has {len(terms)} terms")
    count = min(count, len(terms))
    result = []
    for c in range(a.shape[1]):
        order = sorted(range(len(terms)), key=lambda i: (-a[i, c], terms[i]))
        result.append([terms[i] for i in order[:count]])
    return result
