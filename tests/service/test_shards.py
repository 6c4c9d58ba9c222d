"""Sharded store: routing, batch semantics, backends and serialization."""

from __future__ import annotations

import pytest

from repro.core.habf import HABF
from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.service import codec
from repro.service.backends import (
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.service.shards import (
    SCALAR_KEYS_PER_GROUP,
    EmptyShardFilter,
    ShardRouter,
    ShardedFilterStore,
)
from repro.workloads.shalla import generate_shalla_like


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(num_positives=900, num_negatives=800, seed=31)


def test_router_is_deterministic_and_covers_all_shards():
    router = ShardRouter(num_shards=8, seed=3)
    keys = [f"key-{i}" for i in range(2000)]
    shards = [router.shard_of(key) for key in keys]
    assert shards == [router.shard_of(key) for key in keys]
    assert set(shards) == set(range(8))
    assert all(0 <= shard < 8 for shard in shards)


def test_router_seed_changes_placement():
    keys = [f"key-{i}" for i in range(500)]
    a = ShardRouter(num_shards=4, seed=0)
    b = ShardRouter(num_shards=4, seed=1)
    assert [a.shard_of(k) for k in keys] != [b.shard_of(k) for k in keys]


@pytest.mark.parametrize("backend", ["habf", "f-habf", "bloom", "bloom-dh", "xor"])
def test_store_has_zero_false_negatives_across_backends(dataset, backend):
    store = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        num_shards=4,
        backend=backend,
        bits_per_key=10.0,
    )
    assert store.backend_name == backend
    assert all(store.query_many(dataset.positives))
    assert all(key in store for key in dataset.positives[:50])


def test_query_many_matches_scalar_queries_in_order(dataset):
    store = ShardedFilterStore.build(
        dataset.positives, negatives=dataset.negatives, num_shards=4, backend="habf"
    )
    probe = dataset.negatives[:300] + dataset.positives[:300]
    assert store.query_many(probe) == [store.query(key) for key in probe]


def test_store_partitions_every_key_exactly_once(dataset):
    store = ShardedFilterStore.build(dataset.positives, num_shards=6, backend="bloom")
    assert sum(store.shard_key_counts) == len(dataset.positives)
    assert store.num_keys() == len(dataset.positives)
    router = ShardRouter(6, seed=store.router_seed)
    for key in dataset.positives[:100]:
        assert store.shard_of(key) == router.shard_of(key)


def test_more_shards_than_keys_yields_empty_shards():
    store = ShardedFilterStore.build(["a", "b", "c"], num_shards=16, backend="bloom")
    empties = [f for f in store.filters if isinstance(f, EmptyShardFilter)]
    assert empties, "16 shards over 3 keys must leave empty shards"
    assert all(store.query_many(["a", "b", "c"]))
    missing = [f"missing-{i}" for i in range(64)]
    answers = store.query_many(missing)
    for key, answer in zip(missing, answers):
        if store.shard_key_counts[store.shard_of(key)] == 0:
            assert not answer


def test_empty_key_set_is_rejected():
    with pytest.raises(ConfigurationError):
        ShardedFilterStore.build([], num_shards=4)


def test_batch_path_uses_contains_many(dataset):
    store = ShardedFilterStore.build(dataset.positives, num_shards=2, backend="bloom")

    calls = {"batch": 0}

    class Recording:
        def __init__(self, inner):
            self._inner = inner

        def contains(self, key):
            return self._inner.contains(key)

        def contains_many(self, keys):
            calls["batch"] += 1
            return self._inner.contains_many(keys)

    store.filters[0] = Recording(store.filters[0])
    store.filters[1] = Recording(store.filters[1])
    store.query_many(dataset.positives[:200])
    # One contains_many call per shard touched by the batch, not per key.
    assert 1 <= calls["batch"] <= 2


def _spread(store, keys, per_shard):
    """The first keys of ``keys`` that give every shard ``per_shard`` keys."""
    taken, picked = {}, []
    for key in keys:
        shard = store.shard_of(key)
        if taken.get(shard, 0) < per_shard:
            taken[shard] = taken.get(shard, 0) + 1
            picked.append(key)
    assert len(picked) == per_shard * store.num_shards
    return picked


@pytest.mark.parametrize("encoded", [False, True])
def test_small_groups_skip_the_engine(dataset, encoded, monkeypatch):
    """A window of at most SCALAR_KEYS_PER_GROUP keys per shard it touches
    makes one scalar call per shard group and no array program; one key
    more, or a single shard's larger group, reaches _contains_batch."""
    pytest.importorskip("numpy")  # the engine side of the cut needs numpy
    store = ShardedFilterStore.build(
        dataset.positives, negatives=dataset.negatives, num_shards=4, backend="habf"
    )
    calls = {"scalar": [], "batch": 0, "engine": 0}
    engine = HABF._contains_batch

    def counted_engine(self, batch):
        calls["engine"] += 1
        return engine(self, batch)

    monkeypatch.setattr(HABF, "_contains_batch", counted_engine)

    class Recording:
        def __init__(self, shard, inner):
            self._shard = shard
            self._inner = inner

        def contains(self, key):
            return self._inner.contains(key)

        def contains_many(self, keys):
            return self._inner.contains_many(keys)

        def _contains_fallback(self, keys):
            calls["scalar"].append(self._shard)
            return self._inner._contains_fallback(keys)

        def _contains_batch(self, batch):
            calls["batch"] += 1
            return self._inner._contains_batch(batch)

    per = SCALAR_KEYS_PER_GROUP
    mixed = [key for pair in zip(dataset.positives, dataset.negatives) for key in pair]
    # Highest shard first, so the scalar path must reorder its calls.
    spread = sorted(_spread(store, mixed, per), key=store.shard_of, reverse=True)
    crowded = [key for key in mixed if store.shard_of(key) == 0][: per + 1]
    extra = next(key for key in mixed[::-1] if store.shard_of(key) == 0)
    for shard, filt in enumerate(list(store.filters)):
        store.filters[shard] = Recording(shard, filt)
    cases = [
        (spread[:1], True),
        (crowded[:per], True),
        (spread, True),
        (spread + [extra], False),
        (crowded, False),
    ]
    for keys, scalar in cases:
        calls.update(scalar=[], batch=0, engine=0)
        window = vec.KeyBatch(keys) if encoded else keys
        answers = store.query_many(window)
        touched = {store.shard_of(key) for key in keys}
        if scalar:
            assert calls["batch"] == calls["engine"] == 0, len(keys)
            # One call per shard touched, in the engine path's shard order.
            assert calls["scalar"] == sorted(touched), len(keys)
        else:
            assert calls["batch"] == calls["engine"] == len(touched), len(keys)
            assert calls["scalar"] == []
        assert answers == [store.query(key) for key in keys]


def test_shard_stats_count_queries_and_positives(dataset):
    store = ShardedFilterStore.build(dataset.positives, num_shards=4, backend="habf")
    store.query_many(dataset.positives[:100])
    for key in dataset.negatives[:50]:
        store.query(key)
    stats = store.shard_stats()
    assert sum(s.queries for s in stats) == 150
    assert sum(s.positives for s in stats) >= 100
    assert sum(s.num_keys for s in stats) == len(dataset.positives)
    assert all(s.size_in_bits >= 0 for s in stats)


def test_shard_stats_are_point_in_time_copies(dataset):
    store = ShardedFilterStore.build(dataset.positives, num_shards=2, backend="bloom")
    before = store.shard_stats()
    store.query_many(dataset.positives[:100])
    after = store.shard_stats()
    assert sum(s.queries for s in before) == 0  # earlier snapshot unchanged
    assert sum(s.queries for s in after) == 100
    assert before[0] is not after[0]


def test_store_round_trips_through_codec(dataset):
    store = ShardedFilterStore.build(
        dataset.positives, negatives=dataset.negatives, num_shards=5, backend="habf"
    )
    revived = codec.loads(codec.dumps(store))
    assert isinstance(revived, ShardedFilterStore)
    assert revived.num_shards == store.num_shards
    assert revived.backend_name == store.backend_name
    assert revived.shard_key_counts == store.shard_key_counts
    probe = dataset.positives + dataset.negatives
    assert revived.query_many(probe) == store.query_many(probe)


def test_store_with_empty_shards_round_trips():
    store = ShardedFilterStore.build(["a", "b"], num_shards=8, backend="xor")
    revived = codec.loads(codec.dumps(store))
    assert revived.query_many(["a", "b", "c", "d"]) == store.query_many(["a", "b", "c", "d"])


# --------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------- #
def test_builtin_backends_are_registered():
    assert {"habf", "f-habf", "bloom", "bloom-dh", "xor"} <= set(available_backends())


def test_get_backend_forwards_kwargs():
    backend = get_backend("bloom", bits_per_key=14.0)
    assert backend.bits_per_key == 14.0


def test_unknown_backend_raises():
    with pytest.raises(ConfigurationError, match="unknown filter backend"):
        get_backend("cuckoo")


def test_resolve_backend_accepts_instances():
    instance = get_backend("habf", bits_per_key=9.0)
    assert resolve_backend(instance) is instance
    with pytest.raises(ConfigurationError):
        resolve_backend(instance, bits_per_key=12.0)
    with pytest.raises(ConfigurationError):
        resolve_backend(42)


def test_register_custom_backend():
    class TinyPolicy:
        name = "tiny"

        def create_filter(self, keys, negatives=(), costs=None):
            held = set(keys)

            class Exact:
                def contains(self, key):
                    return key in held

            return Exact()

    register_backend("tiny", TinyPolicy)
    try:
        store = ShardedFilterStore.build(["x", "y"], num_shards=2, backend="tiny")
        assert store.query("x") and not store.query("z")
    finally:
        from repro.service import backends as backends_module

        backends_module._REGISTRY.pop("tiny", None)


def test_bloom_dh_backend_round_trips_and_matches_scalar(dataset):
    """The double-hashing serving backend: zero FN, codec frames, engine parity."""
    store = ShardedFilterStore.build(
        dataset.positives,
        num_shards=4,
        backend="bloom-dh",
        bits_per_key=10.0,
        primitive="murmur3",
        seed=3,
    )
    assert store.backend_name == "bloom-dh"
    assert all(store.query_many(dataset.positives))
    probe = dataset.negatives[:200] + dataset.positives[:200]
    assert store.query_many(probe) == [store.query(key) for key in probe]
    revived = codec.loads(codec.dumps(store))
    assert revived.query_many(probe) == store.query_many(probe)
