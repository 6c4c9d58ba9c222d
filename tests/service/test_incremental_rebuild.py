"""Parallel shard builds and incremental (dirty-shard-only) rebuilds."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.service import codec
from repro.service.backends import get_backend
from repro.service.server import MembershipService
from repro.service.shards import ShardRouter, ShardedFilterStore
from repro.workloads.shalla import generate_shalla_like

NUM_SHARDS = 8


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(num_positives=1600, num_negatives=900, seed=59)


def _key_for_shard(router: ShardRouter, shard: int, tag: str) -> str:
    """A fresh key that routes to ``shard`` (probed deterministically)."""
    for attempt in range(100_000):
        key = f"{tag}-{attempt}"
        if router.shard_of(key) == shard:
            return key
    raise AssertionError("no key found for shard")  # pragma: no cover


# --------------------------------------------------------------------- #
# Parallel builds
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "backend",
    [
        # a built-in name builds on process workers
        pytest.param("habf", id="process"),
        # a policy instance builds on threads that share it
        pytest.param(get_backend("habf"), id="thread"),
    ],
)
def test_parallel_build_is_bit_identical_to_sequential(dataset, backend):
    sequential = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        num_shards=NUM_SHARDS,
        backend=backend,
    )
    parallel = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        num_shards=NUM_SHARDS,
        backend=backend,
        workers=4,
    )
    assert codec.dumps(parallel) == codec.dumps(sequential)


def test_parallel_build_with_empty_shards():
    store = ShardedFilterStore.build(
        ["a", "b", "c"], num_shards=16, backend="bloom", workers=4
    )
    assert all(store.query_many(["a", "b", "c"]))
    assert store.num_keys() == 3


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #
def test_fingerprints_are_order_independent_and_key_sensitive(dataset):
    forward = ShardedFilterStore.build(dataset.positives, num_shards=4, backend="bloom")
    reversed_build = ShardedFilterStore.build(
        list(reversed(dataset.positives)), num_shards=4, backend="bloom"
    )
    assert forward.shard_fingerprints == reversed_build.shard_fingerprints
    changed = ShardedFilterStore.build(
        dataset.positives[:-1] + ["something-new"], num_shards=4, backend="bloom"
    )
    assert forward.shard_fingerprints != changed.shard_fingerprints


def test_partition_engine_path_matches_scalar(dataset):
    """Fingerprints and placement must be identical with and without numpy.

    A snapshot written on a numpy machine must diff cleanly against a
    rebuild on a numpy-less one (and vice versa); any drift between the
    vectorized and scalar partition passes would silently dirty — or worse,
    silently skip — shards.
    """
    from repro.hashing import vectorized as vec

    router = ShardRouter(6, seed=3)
    keys = dataset.positives[:500]
    negatives = dataset.negatives[:300]
    engine = ShardedFilterStore._partition(router, keys, negatives, None)
    with vec.force_scalar():
        scalar = ShardedFilterStore._partition(router, keys, negatives, None)
    assert engine[0] == scalar[0]  # per-shard keys, in arrival order
    assert engine[1] == scalar[1]  # per-shard negatives
    assert engine[3] == scalar[3]  # fingerprints


def test_fingerprints_survive_the_codec(dataset):
    store = ShardedFilterStore.build(dataset.positives, num_shards=4, backend="bloom")
    revived = codec.loads(codec.dumps(store))
    assert revived.shard_fingerprints == store.shard_fingerprints
    assert revived.shard_generations == store.shard_generations


# --------------------------------------------------------------------- #
# Incremental rebuilds through the store
# --------------------------------------------------------------------- #
def test_rebuild_from_shares_clean_shard_filters(dataset):
    previous = ShardedFilterStore.build(
        dataset.positives, num_shards=NUM_SHARDS, backend="bloom"
    )
    victim = dataset.positives[0]
    shard = previous.shard_of(victim)
    keys = [key for key in dataset.positives if key != victim]
    store, rebuilt, skipped = ShardedFilterStore.rebuild_from(
        previous, keys, backend="bloom"
    )
    assert rebuilt == [shard]
    assert sorted(rebuilt + skipped) == list(range(NUM_SHARDS))
    for index in range(NUM_SHARDS):
        if index == shard:
            assert store.filters[index] is not previous.filters[index]
            assert store.shard_generations[index] == 2
        else:
            assert store.filters[index] is previous.filters[index]
            assert store.shard_generations[index] == 1
    assert all(store.query_many(keys))


def test_rebuild_from_treats_unknown_fingerprints_as_dirty(dataset):
    previous = ShardedFilterStore.build(dataset.positives, num_shards=4, backend="bloom")
    stripped = ShardedFilterStore(
        previous.filters,
        previous.router_seed,
        [replace(entry, fingerprint=None) for entry in previous.entries],
    )
    store, rebuilt, skipped = ShardedFilterStore.rebuild_from(
        stripped, dataset.positives, backend="bloom"
    )
    assert rebuilt == [0, 1, 2, 3] and skipped == []
    assert store.shard_fingerprints == previous.shard_fingerprints


def test_changed_keys_hint_forces_clean_shards(dataset):
    previous = ShardedFilterStore.build(
        dataset.positives, num_shards=NUM_SHARDS, backend="bloom"
    )
    hint = dataset.positives[5]
    store, rebuilt, _ = ShardedFilterStore.rebuild_from(
        previous, dataset.positives, backend="bloom", changed_keys=[hint]
    )
    assert rebuilt == [previous.shard_of(hint)]
    assert store.shard_generations[previous.shard_of(hint)] == 2


# --------------------------------------------------------------------- #
# Incremental rebuilds through the service
# --------------------------------------------------------------------- #
def test_service_rebuild_skips_clean_shards_and_reports_it(dataset):
    service = MembershipService(backend="bloom", num_shards=NUM_SHARDS, bits_per_key=10.0)
    service.load(dataset.positives)
    router = ShardRouter(NUM_SHARDS, seed=0)
    fresh = _key_for_shard(router, 3, "fresh-key")
    generation = service.rebuild(dataset.positives + [fresh])
    assert generation == 2
    stats = service.stats()
    assert stats.rebuilds == 1
    assert stats.shards_rebuilt == NUM_SHARDS + 1  # first load + one dirty shard
    assert stats.shards_skipped == NUM_SHARDS - 1
    assert stats.rebuild_latency is not None and stats.rebuild_latency.count == 2
    generations = [shard.generation for shard in stats.shards]
    assert generations[3] == 2
    assert generations.count(1) == NUM_SHARDS - 1
    assert service.query(fresh)
    assert all(service.query_many(dataset.positives))


def test_service_rebuild_full_when_disabled(dataset):
    service = MembershipService(backend="bloom", num_shards=4)
    service.load(dataset.positives)
    service.rebuild(dataset.positives, incremental=False)
    stats = service.stats()
    assert stats.shards_rebuilt == 8 and stats.shards_skipped == 0
    # A forced full rebuild is a fresh store: per-shard generations reset to 1.
    assert [shard.generation for shard in stats.shards] == [1, 1, 1, 1]


def test_service_noop_rebuild_shares_every_filter(dataset):
    service = MembershipService(backend="bloom", num_shards=4)
    service.load(dataset.positives)
    before = [id(filt) for filt in service.snapshot.store.filters]
    service.rebuild(dataset.positives)
    after = [id(filt) for filt in service.snapshot.store.filters]
    assert after == before
    assert service.generation == 2  # the service generation still advances
    assert service.stats().shards_skipped == 4


def test_service_parallel_rebuild_answers_identically(dataset):
    sequential = MembershipService(backend="bloom", num_shards=NUM_SHARDS)
    sequential.load(dataset.positives)
    parallel = MembershipService(
        backend="bloom", num_shards=NUM_SHARDS, build_workers=4
    )
    parallel.load(dataset.positives)
    assert codec.dumps(parallel.snapshot.store) == codec.dumps(sequential.snapshot.store)


def test_snapshot_restore_rebuilds_fully_once_then_incrementally(tmp_path, dataset):
    """A restored service cannot verify the snapshot's build parameters.

    An installed snapshot records no ``build_params``, so the first rebuild
    after a restore is full (a snapshot built at different bits/key must not
    leak its shards into the new configuration); from then on fingerprints
    diff as usual.
    """
    service = MembershipService(backend="bloom", num_shards=NUM_SHARDS, bits_per_key=10.0)
    service.load(dataset.positives)
    path = tmp_path / "store.snap"
    service.save_snapshot(path)
    revived = MembershipService.from_snapshot(path, backend="bloom", bits_per_key=10.0)
    revived.rebuild(dataset.positives)
    stats = revived.stats()
    assert stats.shards_rebuilt == NUM_SHARDS and stats.shards_skipped == 0
    revived.rebuild(dataset.positives)  # now the previous generation is known
    stats = revived.stats()
    assert stats.shards_rebuilt == NUM_SHARDS
    assert stats.shards_skipped == NUM_SHARDS


# --------------------------------------------------------------------- #
# Per-shard backend overrides (what an adaptive migration asks the store for)
# --------------------------------------------------------------------- #
def test_shard_backend_override_dirties_only_that_shard(dataset):
    previous = ShardedFilterStore.build(
        dataset.positives, num_shards=NUM_SHARDS, backend="bloom", bits_per_key=10.0
    )
    store, rebuilt, skipped = ShardedFilterStore.rebuild_from(
        previous,
        dataset.positives,
        negatives=dataset.negatives,
        backend="bloom",
        shard_backends={5: ("habf", {"bits_per_key": 10.0})},
        bits_per_key=10.0,
    )
    assert rebuilt == [5]
    assert sorted(rebuilt + skipped) == list(range(NUM_SHARDS))
    assert store.backend_name == "mixed"
    assert store.shard_backend_names[5] == "habf"
    assert [name for i, name in enumerate(store.shard_backend_names) if i != 5] == [
        "bloom"
    ] * (NUM_SHARDS - 1)
    for index in range(NUM_SHARDS):
        if index != 5:
            assert store.filters[index] is previous.filters[index]
    assert all(store.query_many(dataset.positives))


def test_repeated_shard_backend_assignment_is_clean(dataset):
    """An unchanged assignment must not rebuild: migrations are sticky."""
    first = ShardedFilterStore.build(
        dataset.positives,
        num_shards=NUM_SHARDS,
        backend="bloom",
        shard_backends={5: ("habf", {"bits_per_key": 10.0})},
        bits_per_key=10.0,
    )
    store, rebuilt, skipped = ShardedFilterStore.rebuild_from(
        first,
        dataset.positives,
        backend="bloom",
        shard_backends={5: ("habf", {"bits_per_key": 10.0})},
        bits_per_key=10.0,
    )
    assert rebuilt == []
    assert skipped == list(range(NUM_SHARDS))
    assert all(
        store.filters[index] is first.filters[index] for index in range(NUM_SHARDS)
    )


def test_dropping_shard_backend_assignment_reverts_the_shard(dataset):
    mixed = ShardedFilterStore.build(
        dataset.positives,
        num_shards=NUM_SHARDS,
        backend="bloom",
        shard_backends={5: ("habf", {"bits_per_key": 10.0})},
        bits_per_key=10.0,
    )
    store, rebuilt, _ = ShardedFilterStore.rebuild_from(
        mixed, dataset.positives, backend="bloom", bits_per_key=10.0
    )
    assert rebuilt == [5]  # same keys, but the shard's backend changed back
    assert store.backend_name == "bloom"
    assert store.shard_backend_names == ["bloom"] * NUM_SHARDS
    assert all(store.query_many(dataset.positives))


def test_shard_backend_override_rejects_unknown_shards(dataset):
    with pytest.raises(ConfigurationError, match="shard_backends"):
        ShardedFilterStore.build(
            dataset.positives,
            num_shards=4,
            backend="bloom",
            shard_backends={7: "habf"},
        )


def test_mixed_store_survives_service_snapshot_restore(tmp_path, dataset):
    service = MembershipService(backend="bloom", num_shards=4, bits_per_key=10.0)
    mixed = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        num_shards=4,
        backend="bloom",
        shard_backends={2: ("habf", {"bits_per_key": 10.0})},
        bits_per_key=10.0,
    )
    service.install_snapshot(mixed)
    path = tmp_path / "mixed.snap"
    service.save_snapshot(path)
    revived = MembershipService.from_snapshot(path, backend="bloom", bits_per_key=10.0)
    store = revived.snapshot.store
    assert store.backend_name == "mixed"
    assert store.shard_backend_names == mixed.shard_backend_names
    assert all(revived.query_many(dataset.positives))


def test_rebuild_is_full_when_backend_kwargs_change(dataset):
    """Clean shards built under other parameters must not be reused."""
    service = MembershipService(backend="bloom", num_shards=4, bits_per_key=8.0)
    service.load(dataset.positives)
    other = MembershipService(backend="bloom", num_shards=4, bits_per_key=16.0)
    other.install_snapshot(service.snapshot.store)
    other.rebuild(dataset.positives)  # same keys, but 8-bpk shards are stale
    stats = other.stats()
    assert stats.shards_skipped == 0
    assert all(
        filt.num_bits >= 16 * count / 4
        for filt, count in zip(
            other.snapshot.store.filters, other.snapshot.store.shard_key_counts
        )
    )
