import numpy as np
import pytest

from catnet.metrics import auc, average_precision, evaluate_predictions, topk_recall


def auc_brute(scores, labels):
    """O(n^2) pair count: wins plus half-ties over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def ap_brute(scores, labels):
    """O(n^2) rank walk: precision at each positive's rank, index-tiebroken."""
    n = len(scores)
    total = 0.0
    n_pos = sum(labels)
    for i in range(n):
        if labels[i] != 1:
            continue
        rank = 1
        hits = 1
        for j in range(n):
            if j == i:
                continue
            ahead = scores[j] > scores[i] or (scores[j] == scores[i] and j < i)
            if ahead:
                rank += 1
                if labels[j] == 1:
                    hits += 1
        total += hits / rank
    return total / n_pos


def topk_brute(scores, true_set, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    top = set(order[:k])
    return len(top & true_set) / len(true_set)


class TestAUC:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.3] * 6, [0, 1, 0, 1, 1, 0]) == 0.5

    def test_worked_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc([0.1, 0.9], [1, 1])


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 7
        scores = list(np.linspace(1.0, 0.1, n))
        labels = [0] * (n - 1) + [1]
        assert average_precision(scores, labels) == pytest.approx(1 / n, abs=1e-15)

    def test_worked_example(self):
        got = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError, match="no positives"):
            average_precision([0.5, 0.6], [0, 0])


class TestTopK:
    def test_k_at_least_width_gives_full_recall(self):
        scores = np.random.default_rng(0).random((5, 6))
        labels = (np.random.default_rng(1).random((5, 6)) < 0.4).astype(float)
        labels[labels.sum(axis=1) == 0, 0] = 1.0
        value, scored, skipped = topk_recall(scores, labels, k=6)
        assert value == 1.0 and scored == 5 and skipped == 0

    def test_disjoint_top_scores_zero(self):
        scores = np.array([[0.9, 0.8, 0.1, 0.2]])
        labels = np.array([[0.0, 0.0, 1.0, 1.0]])
        value, _, _ = topk_recall(scores, labels, k=2)
        assert value == 0.0

    def test_worked_example(self):
        scores = np.array([[0.9, 0.1, 0.8, 0.7, 0.2]])
        labels = np.array([[0.0, 1.0, 0.0, 1.0, 0.0]])
        value, _, _ = topk_recall(scores, labels, k=2)
        assert value == 0.0

    def test_empty_true_sets_skipped_and_counted(self):
        scores = np.array([[0.5, 0.4], [0.2, 0.9]])
        labels = np.array([[0.0, 0.0], [1.0, 0.0]])
        value, scored, skipped = topk_recall(scores, labels, k=1)
        assert (scored, skipped) == (1, 1)
        assert value == 0.0  # the scored instance's true code is not in top-1


class TestEvaluatePredictions:
    def test_values_equal_the_individual_metrics(self):
        scores = np.array([[0.9, 0.1, 0.8], [0.3, 0.6, 0.2], [0.5, 0.4, 0.7], [0.2, 0.3, 0.1]])
        labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        out = evaluate_predictions(scores, labels, ks=(1, 2))
        assert list(out) == ["auc", "aupr", "recall@1", "recall@2", "skipped_instances"]
        assert out["auc"] == auc(scores, labels)
        assert out["aupr"] == average_precision(scores, labels)
        for k in (1, 2):
            assert out[f"recall@{k}"] == topk_recall(scores, labels, k)[0]
        assert out["skipped_instances"] == 1


class TestAgainstBruteForce:
    def test_two_hundred_random_cases_including_ties(self):
        rng = np.random.default_rng(99)
        for case in range(200):
            n = int(rng.integers(4, 40))
            if case % 3 == 0:
                scores = rng.integers(0, 4, n).astype(float) / 3.0  # heavy ties
            else:
                scores = rng.random(n)
            labels = (rng.random(n) < 0.4).astype(float)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1.0
            if labels.sum() == n:
                labels[int(rng.integers(0, n))] = 0.0

            assert abs(auc(scores, labels) - auc_brute(scores, labels)) <= 1e-12
            assert abs(average_precision(scores, labels)
                       - ap_brute(list(scores), list(labels))) <= 1e-12

            k = int(rng.integers(1, n + 1))
            true_set = set(np.flatnonzero(labels == 1.0).tolist())
            got, _, _ = topk_recall(scores[None, :], labels[None, :], k)
            assert abs(got - topk_brute(list(scores), true_set, k)) <= 1e-12


class TestInvariances:
    def test_strictly_increasing_transform_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(5)
        scores = rng.random(60)
        labels = (rng.random(60) < 0.3).astype(float)
        labels[0] = 1.0
        labels[1] = 0.0
        transformed = scores ** 3 + 2 * scores
        assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-12)
        assert average_precision(scores, labels) == pytest.approx(
            average_precision(transformed, labels), abs=1e-12)
        got_a, _, _ = topk_recall(scores[None, :], labels[None, :], 5)
        got_b, _, _ = topk_recall(transformed[None, :], labels[None, :], 5)
        assert got_a == got_b

    def test_micro_pooling_matches_flat_pair_list(self):
        rng = np.random.default_rng(6)
        scores = rng.random((10, 7))
        labels = (rng.random((10, 7)) < 0.3).astype(float)
        labels[0, 0] = 1.0
        labels[0, 1] = 0.0
        by_matrix = auc(scores, labels)
        flat_pairs = [(s, y) for row_s, row_y in zip(scores, labels)
                      for s, y in zip(row_s, row_y)]
        by_list = auc([p[0] for p in flat_pairs], [p[1] for p in flat_pairs])
        assert by_matrix == by_list

