"""A from-scratch key-scoring classifier used by the learned-filter baselines.

The model is a logistic regression over hashed character n-gram features
(feature hashing into a fixed-width dense vector), trained with full-batch
gradient descent in numpy.  It fills the architectural role of the paper's
GRU / MLP classifiers: it maps any key to a score in ``[0, 1]`` where higher
means "more likely to be a positive key", it has a fixed serialized size that
is charged against the filter's space budget, and its accuracy depends on how
much learnable structure the key schema has (good on the Shalla-like URLs,
near-random on the YCSB-like keys).
"""

from __future__ import annotations

from typing import List, Sequence

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover - the CI image bundles numpy
    np = None

from repro.errors import ConfigurationError
from repro.hashing.base import Key, normalize_key

_FNV_PRIME = 0x100000001B3
_FNV_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1


def _ngram_indices(data: bytes, num_features: int, ngram_sizes: Sequence[int]) -> List[int]:
    """Feature-hash the byte n-grams of ``data`` into ``[0, num_features)``."""
    indices: List[int] = []
    for size in ngram_sizes:
        if len(data) < size:
            continue
        for start in range(len(data) - size + 1):
            value = _FNV_OFFSET ^ size
            for byte in data[start : start + size]:
                value ^= byte
                value = (value * _FNV_PRIME) & _MASK64
            indices.append(value % num_features)
    if not indices:
        indices.append(len(data) % num_features)
    return indices


class KeyScoreModel:
    """Logistic regression over hashed character n-grams.

    Args:
        num_features: Width of the hashed feature vector (model capacity and
            serialized size are proportional to it).
        ngram_sizes: Byte n-gram lengths to extract.
        learning_rate: Gradient-descent step size.
        epochs: Number of full-batch passes.
        seed: Weight-initialisation seed.
        weight_bits: Bits charged per weight when accounting model size
            (32 matches a float32 export).
    """

    def __init__(
        self,
        num_features: int = 256,
        ngram_sizes: Sequence[int] = (2, 3),
        learning_rate: float = 0.5,
        epochs: int = 60,
        seed: int = 1,
        weight_bits: int = 32,
    ) -> None:
        if np is None:
            raise ConfigurationError(
                "KeyScoreModel requires numpy; the learned baselines have no "
                "scalar fallback"
            )
        if num_features < 8:
            raise ConfigurationError("num_features must be at least 8")
        if not ngram_sizes:
            raise ConfigurationError("ngram_sizes must not be empty")
        if epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        self._num_features = num_features
        self._ngram_sizes = tuple(ngram_sizes)
        self._learning_rate = learning_rate
        self._epochs = epochs
        self._seed = seed
        self._weight_bits = weight_bits
        self._weights = np.zeros(num_features, dtype=np.float64)
        self._bias = 0.0
        self._trained = False

    # ------------------------------------------------------------------ #
    # Feature extraction
    # ------------------------------------------------------------------ #
    def _featurize(self, keys: Sequence[Key]) -> np.ndarray:
        matrix = np.zeros((len(keys), self._num_features), dtype=np.float64)
        for row, key in enumerate(keys):
            data = normalize_key(key)
            for index in _ngram_indices(data, self._num_features, self._ngram_sizes):
                matrix[row, index] += 1.0
        # L2-normalise rows so long keys do not dominate the gradients.
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return matrix / norms

    # ------------------------------------------------------------------ #
    # Training and scoring
    # ------------------------------------------------------------------ #
    def fit(self, positives: Sequence[Key], negatives: Sequence[Key]) -> "KeyScoreModel":
        """Train on ``positives`` (label 1) vs ``negatives`` (label 0)."""
        positives = list(positives)
        negatives = list(negatives)
        if not positives or not negatives:
            raise ConfigurationError("training needs both positive and negative keys")
        keys = positives + negatives
        labels = np.concatenate(
            [np.ones(len(positives)), np.zeros(len(negatives))]
        )
        features = self._featurize(keys)
        rng = np.random.default_rng(self._seed)
        self._weights = rng.normal(0.0, 0.01, self._num_features)
        self._bias = 0.0
        count = len(keys)
        for _ in range(self._epochs):
            logits = features @ self._weights + self._bias
            probabilities = 1.0 / (1.0 + np.exp(-logits))
            error = probabilities - labels
            gradient = features.T @ error / count
            self._weights -= self._learning_rate * gradient
            self._bias -= self._learning_rate * float(error.mean())
        self._trained = True
        return self

    def scores(self, keys: Sequence[Key]) -> np.ndarray:
        """Return the score in ``[0, 1]`` for every key, in order.

        Each key's score is bit-identical whatever batch it is scored in:
        the logit is an elementwise product summed along the row, a
        reduction that depends only on that row.  (A BLAS matrix-vector
        product's last bit depends on how many rows it is given, and the
        learned filters set thresholds from batch scores at build time but
        score one key at a time in ``contains``.)
        """
        if not len(keys):
            return np.zeros(0)
        features = self._featurize(list(keys))
        logits = (features * self._weights).sum(axis=1) + self._bias
        return 1.0 / (1.0 + np.exp(-logits))

    def score(self, key: Key) -> float:
        """Return the score of a single key."""
        return float(self.scores([key])[0])

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        """True once :meth:`fit` has been called."""
        return self._trained

    @property
    def num_features(self) -> int:
        """Width of the hashed feature vector."""
        return self._num_features

    def size_in_bits(self) -> int:
        """Serialized model size: one weight per feature plus the bias."""
        return (self._num_features + 1) * self._weight_bits

    def to_frame(self) -> bytes:
        """Serialize the model (weights, bias, hyperparameters) to one codec frame."""
        from repro.service import codec

        return codec.dumps(self)

    @classmethod
    def from_frame(cls, data: bytes) -> "KeyScoreModel":
        """Revive a model from a frame written by :meth:`to_frame`."""
        from repro.service import codec

        return codec.loads_as(data, cls)

    def accuracy(self, positives: Sequence[Key], negatives: Sequence[Key], threshold: float = 0.5) -> float:
        """Classification accuracy at ``threshold`` (diagnostic helper)."""
        pos_scores = self.scores(list(positives))
        neg_scores = self.scores(list(negatives))
        correct = int((pos_scores >= threshold).sum()) + int((neg_scores < threshold).sum())
        total = len(pos_scores) + len(neg_scores)
        return correct / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KeyScoreModel(features={self._num_features}, ngrams={self._ngram_sizes}, "
            f"trained={self._trained})"
        )
