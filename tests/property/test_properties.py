"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter
from repro.core.habf import HABF
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.baselines.xor_filter import XorFilter
from repro.errors import ConfigurationError
from repro.hashing.base import normalize_key
from repro.hashing.registry import GLOBAL_HASH_FAMILY
from repro.service import codec
from repro.service.backends import available_backends, get_backend
from repro.service.shards import ShardedFilterStore
from repro.workloads.zipf import zipf_weights

# Text keys without surrogates so UTF-8 encoding always succeeds.
key_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
)
key_sets = st.lists(key_strategy, min_size=1, max_size=60, unique=True)

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestBitArrayProperties:
    @given(
        num_bits=st.integers(min_value=1, max_value=4096),
        indices=st.lists(st.integers(min_value=0, max_value=4095), max_size=100),
    )
    @relaxed
    def test_set_then_test(self, num_bits, indices):
        bits = BitArray(num_bits)
        valid = [index % num_bits for index in indices]
        bits.set_all(valid)
        assert all(bits.test(index) for index in valid)
        assert bits.count() == len(set(valid))

    @given(
        num_bits=st.integers(min_value=1, max_value=2048),
        indices=st.lists(st.integers(min_value=0, max_value=2047), max_size=60),
    )
    @relaxed
    def test_serialization_round_trip(self, num_bits, indices):
        bits = BitArray.from_indices(num_bits, [index % num_bits for index in indices])
        assert BitArray.from_bytes(num_bits, bits.to_bytes()) == bits

    @given(
        num_bits=st.integers(min_value=1, max_value=1024),
        indices=st.lists(st.integers(min_value=0, max_value=1023), max_size=40),
    )
    @relaxed
    def test_iter_set_bits_matches_count(self, num_bits, indices):
        bits = BitArray.from_indices(num_bits, [index % num_bits for index in indices])
        listed = list(bits.iter_set_bits())
        assert len(listed) == bits.count()
        assert listed == sorted(set(listed))


class TestKeyNormalizationProperties:
    @given(key_strategy)
    @relaxed
    def test_string_normalization_is_deterministic(self, key):
        assert normalize_key(key) == normalize_key(key)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @relaxed
    def test_u64_keys_have_fixed_width(self, value):
        assert len(normalize_key(value)) == 8

    @given(st.lists(st.integers(min_value=-(10 ** 30), max_value=10 ** 30), unique=True, min_size=2, max_size=30))
    @relaxed
    def test_distinct_ints_stay_distinct(self, values):
        encoded = {normalize_key(value) for value in values}
        assert len(encoded) == len(values)


class TestBloomFilterProperties:
    @given(keys=key_sets, num_bits=st.integers(min_value=64, max_value=4096), k=st.integers(min_value=1, max_value=6))
    @relaxed
    def test_no_false_negatives(self, keys, num_bits, k):
        bloom = BloomFilter(num_bits=num_bits, num_hashes=k)
        bloom.add_all(keys)
        assert all(key in bloom for key in keys)

    @given(keys=key_sets)
    @relaxed
    def test_positions_are_in_range(self, keys):
        bloom = BloomFilter(num_bits=509, num_hashes=3)
        for key in keys:
            assert all(0 <= p < 509 for p in bloom.bit_positions(key))


class TestHashExpressorProperties:
    @given(
        selections=st.lists(
            st.lists(st.integers(min_value=0, max_value=14), min_size=3, max_size=3, unique=True),
            min_size=1,
            max_size=20,
        )
    )
    @relaxed
    def test_inserted_selections_are_always_retrievable(self, selections):
        """Zero FNR of the HashExpressor: anything inserted is recovered exactly."""
        expressor = HashExpressor(num_cells=512, cell_hash_bits=4, family=GLOBAL_HASH_FAMILY)
        stored = {}
        for i, selection in enumerate(selections):
            key = f"key-{i}"
            if expressor.try_insert(key, selection):
                stored[key] = selection
        for key, selection in stored.items():
            retrieved = expressor.query(key, k=3)
            assert retrieved is not None
            assert sorted(retrieved) == sorted(selection)


class TestHABFProperties:
    @given(
        num_positive=st.integers(min_value=5, max_value=120),
        num_negative=st.integers(min_value=0, max_value=120),
        bits_per_key=st.sampled_from([6.0, 8.0, 12.0]),
    )
    @relaxed
    def test_zero_false_negatives(self, num_positive, num_negative, bits_per_key):
        positives = [f"pos#{i}" for i in range(num_positive)]
        negatives = [f"neg#{i}" for i in range(num_negative)]
        params = HABFParams.from_bits_per_key(bits_per_key, num_positive)
        habf = HABF.build(positives, negatives, params=params)
        assert all(key in habf for key in positives)

    @given(
        num_positive=st.integers(min_value=10, max_value=100),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @relaxed
    def test_size_never_exceeds_budget(self, num_positive, seed):
        positives = [f"p{i}" for i in range(num_positive)]
        negatives = [f"n{i}" for i in range(num_positive)]
        params = HABFParams.from_bits_per_key(10.0, num_positive, seed=seed)
        habf = HABF.build(positives, negatives, params=params)
        assert habf.size_in_bits() <= params.total_bits


class TestXorFilterProperties:
    @given(keys=key_sets, fingerprint_bits=st.integers(min_value=4, max_value=16))
    @relaxed
    def test_no_false_negatives(self, keys, fingerprint_bits):
        xor = XorFilter(keys, fingerprint_bits=fingerprint_bits)
        assert all(key in xor for key in keys)


class TestZipfProperties:
    @given(count=st.integers(min_value=1, max_value=500), skew=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @relaxed
    def test_weights_are_positive_with_unit_mean(self, count, skew):
        weights = zipf_weights(count, skew)
        assert len(weights) == count
        assert all(weight > 0 for weight in weights)
        assert sum(weights) / count == __import__("pytest").approx(1.0)

    @given(count=st.integers(min_value=2, max_value=300), skew=st.floats(min_value=0.01, max_value=3.0, allow_nan=False))
    @relaxed
    def test_weights_are_non_increasing(self, count, skew):
        weights = zipf_weights(count, skew)
        assert all(a >= b for a, b in zip(weights, weights[1:]))


# Every example builds (and for the learned backends, trains) real filters,
# so the codec fuzz runs fewer examples than the cheap structural properties.
codec_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestCodecFrameProperties:
    """Codec frames are a fixed point of decode→re-encode for every backend.

    The example-based suite (``tests/service/test_codec_backends.py``) checks
    the same contract on curated URL-shaped datasets; here hypothesis feeds
    arbitrary unicode key material, because byte-identity is exactly the kind
    of invariant that breaks on the inputs nobody curated — empty strings,
    astral-plane characters, keys that normalise to each other's prefixes.
    Mixed-backend frames matter since adaptive migrations made them a normal
    serving state rather than a test-only curiosity.
    """

    @staticmethod
    def _filter_for(name, keys, negatives):
        negatives = [key for key in negatives if key not in set(keys)]
        if not negatives and "codec-fuzz-negative" not in keys:
            negatives = ["codec-fuzz-negative"]  # learned backends train on both classes
        costs = {key: 2.0 + index for index, key in enumerate(negatives[:5])}
        policy = get_backend(name)
        try:
            return policy.create_filter(keys, negatives=negatives, costs=costs)
        except ConfigurationError as exc:
            if "numpy" in str(exc):
                pytest.skip(f"backend {name!r} needs numpy to build")
            raise

    @pytest.mark.parametrize("name", available_backends())
    @given(
        keys=key_sets,
        negatives=st.lists(key_strategy, max_size=30, unique=True),
    )
    # A positive whose learned score sat on an Ada-BF threshold: batch and
    # single-key scoring once differed in the last bit, so scalar `contains`
    # probed a hash the key was never inserted under.
    @example(
        keys=["0", "I\xf3\x0c1", ">(-00000"],
        negatives=["", "s0", "10>?\x1c00011)00B0\xde\xba"],
    )
    @codec_settings
    def test_every_backend_frame_survives_decode_reencode(
        self, name, keys, negatives
    ):
        filt = self._filter_for(name, keys, negatives)
        frame = codec.dumps(filt)
        revived = codec.loads(frame)
        assert type(revived) is type(filt)
        assert codec.dumps(revived) == frame, (
            f"{name}: decode→re-encode changed the frame bytes"
        )
        assert all(revived.contains(key) for key in keys)
        probe = keys + negatives
        assert [revived.contains(key) for key in probe] == [
            filt.contains(key) for key in probe
        ]

    @given(
        keys=st.lists(key_strategy, min_size=4, max_size=60, unique=True),
        xor_shard=st.integers(min_value=0, max_value=2),
        habf_shard=st.integers(min_value=0, max_value=2),
    )
    @codec_settings
    def test_mixed_backend_store_frame_survives_decode_reencode(
        self, keys, xor_shard, habf_shard
    ):
        store = ShardedFilterStore.build(
            keys,
            num_shards=3,
            backend="bloom",
            bits_per_key=9.0,
            shard_backends={
                xor_shard: ("xor", {"bits_per_key": 10.0}),
                habf_shard: ("habf", {"bits_per_key": 10.0}),
            },
        )
        frame = codec.dumps(store)
        revived = codec.loads(frame)
        assert codec.dumps(revived) == frame
        assert revived.shard_backend_names == store.shard_backend_names
        assert revived.backend_name == store.backend_name
        assert revived.query_many(keys) == [True] * len(keys)
