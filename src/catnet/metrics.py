"""Ranking metrics.

All metrics are micro-averaged: every (instance, code) score/label pair is
pooled before computing AUC or average precision.  Ties are handled
explicitly: AUC counts a tied positive/negative pair as half a win, while
average precision and top-k recall order tied scores by ascending index so
results are deterministic.  Every metric rejects scores that are NaN or
infinite, labels other than 0 and 1, mismatched shapes and undefined values,
naming itself in the error.
"""

from __future__ import annotations

import numpy as np

from catnet.cohort import _is_integer

TOPK_GRID = (10, 20, 30, 40, 50)


def _finite(scores, metric: str) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError(f"{metric}: scores must be finite, got {s[~np.isfinite(s)][0]}")
    return s


def _binary(labels, metric: str) -> np.ndarray:
    y = np.asarray(labels, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"{metric}: labels must be 0 or 1")
    return y


def _flat(scores, labels, metric: str):
    s = _finite(scores, metric).reshape(-1)
    y = _binary(labels, metric).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"{metric}: scores shape {s.shape} != labels shape {y.shape}")
    return s, y


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.shape[0], dtype=np.float64)
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])   # first index of each run of ties
    ends = np.r_[starts[1:], x.shape[0]]
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    s, y = _flat(scores, labels, "auc")
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc: AUC undefined: need at least one positive and one negative")
    ranks = _average_ranks(s)
    u = ranks[y == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Mean precision at the rank of each positive, ties broken by index."""
    s, y = _flat(scores, labels, "average_precision")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average_precision: average precision undefined: no positives")
    ys = y[np.lexsort((np.arange(s.shape[0]), -s))]
    precision = np.cumsum(ys) / np.arange(1, ys.shape[0] + 1)
    total = np.cumsum(precision[ys == 1.0])[-1]  # sequential, in rank order
    return float(total / n_pos)


def topk_recall(score_rows, label_rows, k: int):
    """Mean fraction of an instance's true codes inside its k top scores.

    Instances without any true code are skipped; returns
    ``(mean_recall, n_scored, n_skipped)``.
    """
    if not _is_integer(k):
        raise ValueError(f"topk_recall: k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"topk_recall: k must be >= 1, got {k}")
    score_rows = _finite(score_rows, "topk_recall")
    label_rows = _binary(label_rows, "topk_recall")
    if score_rows.shape != label_rows.shape or score_rows.ndim != 2:
        raise ValueError(f"topk_recall: need matching 2-D scores/labels, got "
                         f"{score_rows.shape} and {label_rows.shape}")
    true = label_rows == 1.0
    scored = true.any(axis=1)
    true, s = true[scored], score_rows[scored]
    top = np.lexsort((np.broadcast_to(np.arange(s.shape[1]), s.shape), -s))[:, :k]
    recall = np.take_along_axis(true, top, axis=1).sum(axis=1) / true.sum(axis=1)
    mean = float(np.mean(recall)) if recall.size else 0.0
    return mean, len(recall), len(scored) - len(recall)


def evaluate_predictions(scores, labels, ks=TOPK_GRID) -> dict:
    """Micro AUC/AUPR plus the top-k recall grid for a score/label matrix."""
    out = {"auc": auc(scores, labels), "aupr": average_precision(scores, labels)}
    skipped = 0
    for k in ks:
        value, _, skipped = topk_recall(scores, labels, k)
        out[f"recall@{k}"] = value
    out["skipped_instances"] = skipped
    return out

