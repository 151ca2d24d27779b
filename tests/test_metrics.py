"""AUROC and evaluation tests, checked against an independent O(n^2)
pair-counting oracle (wins plus half-ties over all positive/negative pairs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unforget.data import LabeledDataset
from unforget.metrics import (
    auroc_binary,
    evaluate,
    predict_scores,
    rank_difficulty,
    ranking_from_per_class,
)
from unforget.nn_core import UNKNOWN, ArchSpec, Dense, Flatten, clone_with_params, init_model


def pairwise_auroc(scores, labels):
    """Brute-force oracle: fraction of (positive, negative) pairs won, ties
    counted one half. Independent of the rank-based implementation."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels][:, None]
    neg = scores[~labels][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (labels.sum() * (~labels).sum())


score_label_vectors = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: _random_case(seed)
)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    if rng.random() < 0.5:
        scores = rng.choice(np.linspace(0, 1, int(rng.integers(2, 8))), size=n)  # heavy ties
    else:
        scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return scores, labels


class TestAurocBinary:
    def test_perfect_separation(self):
        assert auroc_binary([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert auroc_binary([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_three_of_four_pairs(self):
        # pairs: (0.9 vs 0.3) win, (0.9 vs 0.6) win, (0.4 vs 0.3) win,
        # (0.4 vs 0.6) loss -> 3/4
        assert auroc_binary([0.9, 0.3, 0.4, 0.6], [1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            auroc_binary([0.1, 0.2], [1, 1])

    @given(score_label_vectors)
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_oracle(self, case):
        scores, labels = case
        assert auroc_binary(scores, labels) == pytest.approx(
            pairwise_auroc(scores, labels), abs=1e-12
        )

    @given(score_label_vectors)
    @settings(max_examples=150, deadline=None)
    def test_complement_symmetry_exact(self, case):
        scores, labels = case
        assert auroc_binary(scores, labels) + auroc_binary(scores, 1 - labels) == 1.0

    @given(score_label_vectors)
    @settings(max_examples=150, deadline=None)
    def test_monotone_transform_invariance_exact(self, case):
        scores, labels = case
        base = auroc_binary(scores, labels)
        assert auroc_binary(np.exp(scores), labels) == base
        assert auroc_binary(3.0 * scores + 7.0, labels) == base


def toy_dataset(n=60, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    features = np.empty((n, 1, 2, 2))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        features[i] = rng.random((1, 2, 2))
        labels[i] = rng.integers(num_classes)
    ids = np.arange(n)
    return LabeledDataset(ids, features, labels, ids // 3, ids % 2, "single_label", num_classes)


def toy_model(num_classes=3, seed=0):
    arch = ArchSpec((1, 2, 2), (Flatten(), Dense(4, num_classes)), num_classes)
    return init_model(arch, seed)


class TestEvaluate:
    def test_unknown_labels_rejected(self):
        ds = toy_dataset()
        labels = (ds.label_array()[:, None] == np.arange(3)).astype(np.int8)
        labels[5, 2] = UNKNOWN
        ds = LabeledDataset(np.arange(len(ds)), ds.feature_array(), labels, ds.patient_array(),
                            ds.group_array(), "multi_label", 3)
        with pytest.raises(ValueError, match="^unknown label entries remain; apply the u-one policy first$"):
            evaluate(toy_model(), ds)

    def test_constant_logits_give_half(self):
        model = toy_model()
        model = clone_with_params(model, np.zeros(model.num_params))
        result = evaluate(model, toy_dataset())
        assert result.macro_auroc == 0.5

    def test_pure_under_repetition(self):
        model = toy_model(seed=4)
        ds = toy_dataset(seed=4)
        a = evaluate(model, ds)
        b = evaluate(model, ds)
        assert a == b

    def test_per_class_matches_pairwise_oracle(self):
        model = toy_model(seed=7)
        ds = toy_dataset(n=200, seed=7)
        result = evaluate(model, ds)
        scores = predict_scores(model, ds)
        labels = ds.label_array()
        for c, value in result.per_class.items():
            assert value == pytest.approx(pairwise_auroc(scores[:, c], labels == c), abs=1e-12)

    def test_macro_is_unweighted_mean(self):
        model = toy_model(seed=8)
        ds = toy_dataset(n=150, seed=8)
        result = evaluate(model, ds)
        assert result.macro_auroc == pytest.approx(
            np.mean(list(result.per_class.values())), abs=1e-15
        )

    def test_group_decomposition(self):
        model = toy_model(seed=9)
        ds = toy_dataset(n=200, seed=9)
        result = evaluate(model, ds)
        for g in (0, 1):
            ids = np.array(ds.ids())[ds.group_array() == g]
            direct = evaluate(model, ds.subset(ids))
            assert result.per_group[g] == pytest.approx(direct.macro_auroc, abs=1e-15)

    def test_missing_polarity_class_skipped(self):
        rng = np.random.default_rng(1)
        ids = np.arange(20)
        features = np.array([rng.random((1, 2, 2)) for _ in ids])
        # class 2 never appears
        ds = LabeledDataset(ids, features, ids % 2, ids, np.zeros(20), "single_label", 3)
        model = toy_model(seed=1)
        result = evaluate(model, ds)
        assert 2 not in result.per_class
        assert 2 in result.skipped_classes

    def test_multi_label_macro(self):
        rng = np.random.default_rng(2)
        ids = np.arange(40)
        features, labels = np.empty((40, 1, 2, 2)), np.empty((40, 4), dtype=np.int8)
        for i in ids:
            features[i] = rng.random((1, 2, 2))
            labels[i] = rng.integers(0, 2, 4)
        ds = LabeledDataset(ids, features, labels, ids, np.zeros(40), "multi_label", 4)
        model = init_model(ArchSpec((1, 2, 2), (Flatten(), Dense(4, 4)), 4), 2)
        result = evaluate(model, ds)
        assert 0.0 <= result.macro_auroc <= 1.0
        assert set(result.per_class) <= {0, 1, 2, 3}

    def test_output_dim_mismatch_rejected(self):
        model = toy_model(num_classes=4)
        with pytest.raises(ValueError, match="outputs"):
            evaluate(model, toy_dataset(num_classes=3))

    def test_predict_scores_checks_the_output_count(self):
        with pytest.raises(ValueError, match=r"^model emits 2 outputs, dataset has 3$"):
            predict_scores(toy_model(num_classes=2), toy_dataset(num_classes=3))


class TestDifficultyRanking:
    def test_orders_by_descending_auroc(self):
        ranking = ranking_from_per_class({0: 0.9623, 1: 0.9213, 2: 0.8390})
        assert ranking.order == (0, 1, 2)
        assert (ranking.easy, ranking.intermediate, ranking.hard) == (0, 1, 2)

    def test_ties_broken_by_class_index(self):
        ranking = ranking_from_per_class({2: 0.9, 0: 0.9, 1: 0.9})
        assert ranking.order == (0, 1, 2)

    def test_needs_three_classes(self):
        with pytest.raises(ValueError, match="3"):
            ranking_from_per_class({0: 0.9, 1: 0.8})

    def test_five_class_representatives(self):
        per_class = {c: 0.95 - 0.03 * c for c in range(5)}
        ranking = ranking_from_per_class(per_class)
        assert ranking.easy == 0
        assert ranking.intermediate == 2
        assert ranking.hard == 4

    def test_rank_difficulty_end_to_end(self):
        model = toy_model(seed=12)
        ds = toy_dataset(n=120, seed=12)
        ranking = rank_difficulty(model, ds)
        values = [ranking.per_class[c] for c in ranking.order]
        assert values == sorted(values, reverse=True)
