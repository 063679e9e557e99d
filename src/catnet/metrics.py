"""Ranking metrics.

All metrics are micro-averaged: every (instance, code) score/label pair is
pooled before computing AUC or average precision.  Ties are handled
explicitly: AUC counts a tied positive/negative pair as half a win, while
average precision and top-k recall order tied scores by ascending index so
results are deterministic.
"""

from __future__ import annotations

import numpy as np

TOPK_GRID = (10, 20, 30, 40, 50)


def _flat(scores, labels):
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"scores shape {s.shape} != labels shape {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return s, y


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.shape[0], dtype=np.float64)
    sx = x[order]
    boundaries = np.flatnonzero(np.diff(sx)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [x.shape[0]]))
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + 1 + e)
    return ranks


def auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    s, y = _flat(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative")
    ranks = _average_ranks(s)
    u = ranks[y == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Mean precision at the rank of each positive, ties broken by index."""
    s, y = _flat(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average precision undefined: no positives")
    ys = y[np.lexsort((np.arange(s.shape[0]), -s))]
    precision = np.cumsum(ys) / np.arange(1, ys.shape[0] + 1)
    total = np.cumsum(precision[ys == 1.0])[-1]  # sequential, in rank order
    return float(total / n_pos)


def topk_recall(score_rows, label_rows, k: int):
    """Mean fraction of an instance's true codes inside its k top scores.

    Instances without any true code are skipped; returns
    ``(mean_recall, n_scored, n_skipped)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    score_rows = np.asarray(score_rows, dtype=np.float64)
    label_rows = np.asarray(label_rows, dtype=np.float64)
    if score_rows.shape != label_rows.shape or score_rows.ndim != 2:
        raise ValueError(f"need matching 2-D scores/labels, got "
                         f"{score_rows.shape} and {label_rows.shape}")
    recalls = []
    skipped = 0
    width = score_rows.shape[1]
    for s, y in zip(score_rows, label_rows):
        true = np.flatnonzero(y == 1.0)
        if true.size == 0:
            skipped += 1
            continue
        top = np.lexsort((np.arange(width), -s))[:k]
        recalls.append(np.isin(true, top).sum() / true.size)
    mean = float(np.mean(recalls)) if recalls else 0.0
    return mean, len(recalls), skipped


def evaluate_predictions(scores, labels, ks=TOPK_GRID) -> dict:
    """Micro AUC/AUPR plus the top-k recall grid for a score/label matrix."""
    out = {"auc": auc(scores, labels), "aupr": average_precision(scores, labels)}
    skipped = 0
    for k in ks:
        value, _, skipped = topk_recall(scores, labels, k)
        out[f"recall@{k}"] = value
    out["skipped_instances"] = skipped
    return out

