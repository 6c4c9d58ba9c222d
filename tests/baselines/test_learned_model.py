"""Unit tests for the KeyScoreModel classifier."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.baselines.learned.model import KeyScoreModel
from repro.errors import ConfigurationError


class TestConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            KeyScoreModel(num_features=4)
        with pytest.raises(ConfigurationError):
            KeyScoreModel(ngram_sizes=())
        with pytest.raises(ConfigurationError):
            KeyScoreModel(epochs=0)

    def test_fit_requires_both_classes(self):
        model = KeyScoreModel()
        with pytest.raises(ConfigurationError):
            model.fit([], ["n"])
        with pytest.raises(ConfigurationError):
            model.fit(["p"], [])

    def test_size_in_bits(self):
        model = KeyScoreModel(num_features=128, weight_bits=32)
        assert model.size_in_bits() == (128 + 1) * 32


class TestTraining:
    def test_separates_structured_classes(self, small_shalla):
        """URLs with category structure should be classified well above chance."""
        dataset = small_shalla
        model = KeyScoreModel(num_features=256, epochs=40, seed=2)
        model.fit(dataset.positives, dataset.negatives)
        assert model.is_trained
        accuracy = model.accuracy(dataset.positives, dataset.negatives)
        assert accuracy > 0.8

    def test_struggles_on_unstructured_keys(self, small_ycsb):
        """YCSB-style keys carry no signal, so accuracy stays near chance."""
        dataset = small_ycsb
        model = KeyScoreModel(num_features=256, epochs=30, seed=2)
        model.fit(dataset.positives, dataset.negatives)
        accuracy = model.accuracy(dataset.positives, dataset.negatives)
        assert accuracy < 0.7

    def test_scores_are_probabilities(self, small_shalla):
        model = KeyScoreModel(num_features=128, epochs=10, seed=2)
        model.fit(small_shalla.positives[:200], small_shalla.negatives[:200])
        scores = model.scores(small_shalla.positives[:50])
        assert scores.shape == (50,)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_deterministic_given_seed(self, small_shalla):
        kwargs = dict(num_features=64, epochs=5, seed=9)
        a = KeyScoreModel(**kwargs).fit(small_shalla.positives[:100], small_shalla.negatives[:100])
        b = KeyScoreModel(**kwargs).fit(small_shalla.positives[:100], small_shalla.negatives[:100])
        key = small_shalla.positives[0]
        assert a.score(key) == pytest.approx(b.score(key))

    def test_empty_scores(self):
        model = KeyScoreModel()
        assert model.scores([]).shape == (0,)

    def test_score_single_key_matches_batch(self, small_shalla):
        model = KeyScoreModel(num_features=64, epochs=5, seed=9)
        model.fit(small_shalla.positives[:100], small_shalla.negatives[:100])
        key = small_shalla.negatives[0]
        assert model.score(key) == pytest.approx(float(model.scores([key])[0]))

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_batch_scores_are_bit_identical_to_single_scores(self, small_shalla, size):
        # The learned filters set thresholds from batch scores at build time
        # but score one key at a time in `contains`, so a last-bit difference
        # on a threshold becomes a false negative.
        model = KeyScoreModel().fit(small_shalla.positives, small_shalla.negatives)
        keys = [key for pair in zip(small_shalla.positives, small_shalla.negatives) for key in pair]
        keys = keys[:size]
        batch = model.scores(keys)
        assert [float(score) for score in batch] == [model.score(key) for key in keys]
