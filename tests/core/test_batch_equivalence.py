"""Scalar-vs-batch equivalence for every filter type in the library.

The contract of the batch-membership engine is exactly one sentence:
``filter.contains_many(keys) == [filter.contains(k) for k in keys]`` for
every filter, on the numpy engine path *and* on the pure-Python fallback
(simulated by monkeypatching the engine's numpy handle away).  These tests
pin that contract for the core filters, every baseline, the degenerate
shard/table filters and the sharded store, plus the serialization invariant
that engine-built and fallback-built answers come from byte-identical codec
frames.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.baselines.learned.adabf import AdaptiveLearnedBloomFilter
from repro.baselines.learned.lbf import LearnedBloomFilter
from repro.baselines.learned.slbf import SandwichedLearnedBloomFilter
from repro.baselines.weighted_bloom import WeightedBloomFilter
from repro.baselines.xor_filter import XorFilter
from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter
from repro.core.habf import HABF, FastHABF
from repro.core.params import HABFParams
from repro.hashing import primitives as scalar_primitives
from repro.hashing import vectorized
from repro.hashing.double_hashing import DoubleHashFamily
from repro.kvstore.filter_policy import AlwaysContainsFilter
from repro.service import codec
from repro.service.shards import (
    SCALAR_KEYS_PER_GROUP,
    EmptyShardFilter,
    ShardedFilterStore,
)


def _params(dataset) -> HABFParams:
    return HABFParams.from_bits_per_key(10.0, dataset.num_positives, seed=5)


FILTER_BUILDERS = {
    "bloom": lambda ds, costs: _built_bloom(ds, family=None),
    "bloom-double": lambda ds, costs: _built_bloom(
        ds, family=DoubleHashFamily(size=7, primitive="xxhash", seed=2)
    ),
    "habf": lambda ds, costs: HABF.build(
        ds.positives, ds.negatives, costs=costs, params=_params(ds)
    ),
    "f-habf": lambda ds, costs: FastHABF.build(
        ds.positives, ds.negatives, costs=costs, params=_params(ds)
    ),
    "habf-no-expressor": lambda ds, costs: HABF.build(
        ds.positives,
        negatives=(),
        params=HABFParams(total_bits=10 * ds.num_positives, k=3, delta=0.0),
    ),
    "xor": lambda ds, costs: XorFilter.from_bits_per_key(ds.positives, 10.0),
    "wbf": lambda ds, costs: WeightedBloomFilter.build(
        ds.positives, ds.negatives, costs=costs, bits_per_key=10.0
    ),
    "lbf": lambda ds, costs: LearnedBloomFilter.build(
        ds.positives, ds.negatives, bits_per_key=12.0
    ),
    "slbf": lambda ds, costs: SandwichedLearnedBloomFilter.build(
        ds.positives, ds.negatives, bits_per_key=12.0
    ),
    "ada-bf": lambda ds, costs: AdaptiveLearnedBloomFilter.build(
        ds.positives, ds.negatives, bits_per_key=12.0
    ),
    "empty-shard": lambda ds, costs: EmptyShardFilter(),
    "always-contains": lambda ds, costs: AlwaysContainsFilter(),
}


def _built_bloom(dataset, family):
    bloom = BloomFilter(num_bits=10 * dataset.num_positives, num_hashes=7, family=family)
    bloom.add_all(dataset.positives)
    return bloom


@pytest.fixture(scope="module")
def probe_keys(small_shalla):
    keys = small_shalla.negatives[:400] + small_shalla.positives[:400]
    random.Random(9).shuffle(keys)
    return keys


@pytest.fixture(scope="module")
def built_filters(small_shalla, skewed_costs):
    return {
        name: build(small_shalla, skewed_costs)
        for name, build in FILTER_BUILDERS.items()
    }


@pytest.mark.parametrize("name", list(FILTER_BUILDERS))
def test_contains_many_matches_scalar(name, built_filters, probe_keys):
    filt = built_filters[name]
    # A serving-window-sized batch is the other input: its hash passes run
    # the scalar primitive loop (SCALAR_CROSSOVER_ROWS) inside the engine.
    for keys in (probe_keys, probe_keys[:16]):
        answers = filt.contains_many(keys)
        assert answers == [filt.contains(key) for key in keys]
        assert all(isinstance(answer, bool) for answer in answers)


@pytest.mark.parametrize("name", list(FILTER_BUILDERS))
def test_contains_many_fallback_without_numpy(name, built_filters, probe_keys, monkeypatch):
    filt = built_filters[name]
    engine_answers = filt.contains_many(probe_keys)
    monkeypatch.setattr(vectorized, "np", None)
    assert filt.contains_many(probe_keys) == engine_answers


def test_contains_many_empty_batch(built_filters):
    for name, filt in built_filters.items():
        assert filt.contains_many([]) == [], name


def test_zero_false_negatives_through_engine(built_filters, small_shalla):
    for name in ("bloom", "habf", "f-habf", "xor", "wbf", "lbf", "slbf"):
        answers = built_filters[name].contains_many(small_shalla.positives)
        assert all(answers), f"{name} dropped a positive key on the batch path"


def test_sharded_store_query_many_matches_scalar(small_shalla, probe_keys):
    # f-habf hashes with a double-hashing family, the default habf with the
    # Table II family.  With 4 shards the 24- and 96-key windows give shard
    # groups at or below SCALAR_CROSSOVER_ROWS (32), the full probe groups
    # well above it.  A lone key, and a window of SCALAR_KEYS_PER_GROUP keys
    # per shard, take the scalar path; one key more takes the engine again.
    per = SCALAR_KEYS_PER_GROUP
    for backend in ("f-habf", "habf"):
        batch_store = ShardedFilterStore.build(
            small_shalla.positives, small_shalla.negatives, num_shards=4, backend=backend
        )
        scalar_store = ShardedFilterStore.build(
            small_shalla.positives, small_shalla.negatives, num_shards=4, backend=backend
        )
        taken, spread = {}, []
        for key in probe_keys[120:]:
            shard = batch_store.shard_of(key)
            if taken.get(shard, 0) < per:
                taken[shard] = taken.get(shard, 0) + 1
                spread.append(key)
        assert len(spread) == per * 4
        windows = [
            probe_keys[:24],
            probe_keys[24:120],
            probe_keys,
            probe_keys[120:121],
            spread,
            spread + probe_keys[:1],
        ]
        for keys in windows:
            assert batch_store.query_many(keys) == [
                scalar_store.query(key) for key in keys
            ], (backend, len(keys))
        batch_stats = {s.shard: (s.queries, s.positives) for s in batch_store.shard_stats()}
        scalar_stats = {s.shard: (s.queries, s.positives) for s in scalar_store.shard_stats()}
        assert batch_stats == scalar_stats, backend


def test_habf_window_hashes_only_the_router_and_h0_passes(small_shalla, skewed_costs):
    """Round 2 hashes its sparse groups' own rows, never the whole window."""
    store = ShardedFilterStore.build(
        small_shalla.positives,
        small_shalla.negatives,
        costs=skewed_costs,
        num_shards=4,
        backend="habf",
    )
    keys = small_shalla.negatives + small_shalla.positives
    random.Random(13).shuffle(keys)
    window = vectorized.KeyBatch(keys[:1024])
    store.query_many(window)
    passes = {key[1] for key in window.cache if key[0] == "primitive"}
    # The router hashes with xxhash; H0 at k=3 is the family's first three
    # members, xxhash, cityhash and murmur3.
    assert passes == {
        scalar_primitives.PRIMITIVES[name] for name in ("xxhash", "cityhash", "murmur3")
    }


def test_sharded_store_fallback_without_numpy(small_shalla, probe_keys, monkeypatch):
    store = ShardedFilterStore.build(
        small_shalla.positives, small_shalla.negatives, num_shards=3, backend="bloom"
    )
    engine_answers = store.query_many(probe_keys)
    monkeypatch.setattr(vectorized, "np", None)
    assert store.query_many(probe_keys) == engine_answers


def test_codec_frames_identical_on_both_paths(built_filters, monkeypatch):
    """Engine availability must not change a single serialized byte."""
    for name in ("bloom", "bloom-double", "habf", "f-habf", "xor"):
        filt = built_filters[name]
        engine_frame = codec.dumps(filt)
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(vectorized, "np", None)
            fallback_frame = codec.dumps(filt)
        assert engine_frame == fallback_frame, name
        revived = codec.loads(engine_frame)
        probe = [f"codec-probe-{i}" for i in range(64)]
        assert revived.contains_many(probe) == filt.contains_many(probe), name


def test_bitarray_set_many_matches_scalar_and_serialization():
    rng = random.Random(5)
    indices = [rng.randrange(997) for _ in range(300)] + [-1, -997, 0, 996]
    scalar = BitArray(997)
    for index in indices:
        scalar.set(index)
    batched = BitArray(997)
    batched.set_many(indices)
    assert batched == scalar
    assert batched.to_bytes() == scalar.to_bytes()
    tested = batched.test_many(list(range(997)))
    assert tested.tolist() == [scalar.test(i) for i in range(997)]


def test_bitarray_set_many_fallback_without_numpy(monkeypatch):
    monkeypatch.setattr(vectorized, "np", None)
    array = BitArray(100)
    array.set_many([1, 5, 99, -1])
    assert array.test_many([1, 5, 99, -1, 0]) == [True, True, True, True, False]
    assert sorted(array.iter_set_bits()) == [1, 5, 99]


def test_bitarray_test_many_wraps_negative_indices():
    array = BitArray(64)
    array.set_many([-1, 5])
    assert array.test_many([-1, 63, -59, 5, 0, -64]).tolist() == [
        True, True, True, True, False, False
    ]


def test_bitarray_batch_bounds_checking():
    array = BitArray(64)
    with pytest.raises(IndexError):
        array.set_many([0, 64])
    with pytest.raises(IndexError):
        array.test_many([-65])
    # The failed call must not have set anything.
    assert array.count() == 0
