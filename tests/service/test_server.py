"""MembershipService: serving, hot rebuilds, batch limits, snapshots, stats."""

from __future__ import annotations

import threading

import pytest

from repro.core.bloom import BloomFilter
from repro.errors import ServiceError
from repro.hashing import vectorized as vec
from repro.obs import FprEstimator
from repro.service import codec, shards
from repro.service.server import MembershipService
from repro.workloads.shalla import generate_shalla_like


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(num_positives=1000, num_negatives=900, seed=47)


@pytest.fixture()
def service(dataset):
    svc = MembershipService(backend="habf", num_shards=4, bits_per_key=10.0)
    svc.load(dataset.positives, dataset.negatives)
    return svc


def test_acceptance_sharded_habf_service_zero_false_negatives(dataset, service):
    """ISSUE acceptance: ≥4 HABF shards, zero FN on held-in keys via query_many."""
    assert service.snapshot.store.num_shards >= 4
    assert service.snapshot.store.backend_name == "habf"
    assert all(service.query_many(dataset.positives))


def test_query_before_load_raises():
    svc = MembershipService()
    with pytest.raises(ServiceError, match="load"):
        svc.query("anything")
    with pytest.raises(ServiceError):
        svc.query_many(["anything"])


def test_generation_versioning(dataset):
    svc = MembershipService(backend="bloom", num_shards=4)
    assert svc.generation == 0
    assert svc.load(dataset.positives) == 1
    assert svc.rebuild(dataset.positives) == 2
    assert svc.generation == 2
    assert svc.stats().rebuilds == 1


def test_rebuild_serves_updated_keys(dataset, service):
    added = [f"added-{i}" for i in range(50)]
    removed = set(dataset.positives[:100])
    kept = [key for key in dataset.positives if key not in removed]
    generation = service.rebuild(kept + added, dataset.negatives)
    assert generation == 2
    assert all(service.query_many(kept + added))
    # Removed keys are no longer guaranteed positive; most should now miss.
    removed_answers = service.query_many(sorted(removed))
    assert removed_answers.count(False) > len(removed) // 2


def test_hot_rebuild_mid_traffic_never_drops_held_keys(dataset):
    """Queries racing a rebuild must always see a complete generation."""
    svc = MembershipService(backend="bloom", num_shards=4, bits_per_key=10.0)
    svc.load(dataset.positives)
    failures = []
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            answers = svc.query_many(dataset.positives[:200])
            if not all(answers):
                failures.append(answers)
                return

    workers = [threading.Thread(target=hammer) for _ in range(3)]
    for worker in workers:
        worker.start()
    try:
        # Every rebuilt generation keeps the probed keys, so a query hitting
        # either the old or the new snapshot must answer all-positive.
        for round_number in range(5):
            extra = [f"round-{round_number}-{i}" for i in range(100)]
            svc.rebuild(dataset.positives + extra)
    finally:
        stop.set()
        for worker in workers:
            worker.join()
    assert not failures
    assert svc.generation == 6
    assert svc.stats().rebuilds == 5
    assert all(svc.query_many([f"round-4-{i}" for i in range(100)]))


def test_batch_limits_are_enforced_and_counted(service):
    with pytest.raises(ServiceError, match="rejected"):
        service.query_many([])
    small = MembershipService(backend="bloom", num_shards=2, max_batch_size=10)
    small.load(["a", "b", "c"])
    with pytest.raises(ServiceError, match="rejected"):
        small.query_many([f"k{i}" for i in range(11)])
    assert small.query_many(["a", "b"]) == [True, True]
    assert small.stats().rejected_batches == 1
    assert service.stats().rejected_batches == 1


def test_stats_counters_and_latency_percentiles(dataset, service):
    service.query_many(dataset.positives[:300])
    for key in dataset.negatives[:100]:
        service.query(key)
    stats = service.stats()
    assert stats.generation == 1
    assert stats.num_keys == len(dataset.positives)
    assert stats.queries == 400
    assert stats.batches == 1
    assert stats.positives >= 300
    assert len(stats.shards) == 4
    assert sum(s.queries for s in stats.shards) == 400
    assert stats.latency is not None
    assert stats.latency.count == 101  # one batch sample + 100 scalar samples
    assert 0.0 <= stats.latency.p50 <= stats.latency.p95 <= stats.latency.p99


def test_snapshot_save_and_restore(tmp_path, dataset, service):
    probe = dataset.positives[:200] + dataset.negatives[:200]
    before = service.query_many(probe)
    path = tmp_path / "service.snap"
    written = service.save_snapshot(path)
    assert path.stat().st_size == written
    revived = MembershipService.from_snapshot(path)
    assert revived.generation == 1
    assert revived.query_many(probe) == before
    # The revived service can keep rebuilding with its configured backend.
    revived.rebuild(dataset.positives[:500])
    assert all(revived.query_many(dataset.positives[:500]))


def test_from_snapshot_rejects_non_store_frames(tmp_path):
    bloom = BloomFilter(num_bits=64, num_hashes=2)
    bloom.add("a")
    path = tmp_path / "not-a-store.snap"
    codec.dump(bloom, path)
    with pytest.raises(ServiceError, match="ShardedFilterStore"):
        MembershipService.from_snapshot(path)


def test_install_snapshot_swaps_generations(dataset, service):
    other = MembershipService(backend="bloom", num_shards=4)
    other.load(dataset.positives[:100])
    assert service.install_snapshot(other.snapshot.store) == 2
    assert service.stats().rebuilds == 1
    assert all(service.query_many(dataset.positives[:100]))


def test_small_window_is_routed_once_for_the_fpr_estimator(dataset, monkeypatch):
    """An encoded window of two keys per shard takes the scalar path, and
    the estimator's feed reuses its router pass instead of hashing the keys
    again."""
    pytest.importorskip("numpy")
    estimator = FprEstimator(sample_rate=1.0)
    svc = MembershipService(
        backend="habf", num_shards=4, bits_per_key=10.0, fpr_estimator=estimator
    )
    svc.load(dataset.positives, dataset.negatives)
    store = svc.snapshot.store
    # One positive and one negative per shard: within SCALAR_KEYS_PER_GROUP.
    assert shards.SCALAR_KEYS_PER_GROUP >= 2
    keys = [
        next(key for key in pool if store.shard_of(key) == shard)
        for pool in (dataset.positives, dataset.negatives)
        for shard in range(4)
    ]
    routed = []
    router_hash = shards.xxhash

    def counted(data):
        routed.append(data)
        return router_hash(data)

    monkeypatch.setattr(shards, "xxhash", counted)
    answer = svc.query_batch(vec.KeyBatch(keys))
    assert answer.verdicts[:4] == [True] * 4
    assert len(routed) == len(keys)
    # Every positive verdict was sampled, with the scalar path's shard ids.
    assert sum(e.sampled for e in svc.fpr_estimates()) == sum(answer.verdicts)


def test_list_window_is_encoded_once_for_the_fpr_estimator(dataset, monkeypatch):
    """``query_batch`` encodes a plain list once: the store and the
    estimator's feed share the batch's router pass, so no sampled key is
    routed again through the scalar ``shard_of``."""
    pytest.importorskip("numpy")
    estimator = FprEstimator(sample_rate=1.0)
    svc = MembershipService(
        backend="habf", num_shards=4, bits_per_key=10.0, fpr_estimator=estimator
    )
    svc.load(dataset.positives, dataset.negatives)
    scalar_routes = []
    shard_of = shards.ShardRouter.shard_of

    def counted(self, key):
        scalar_routes.append(key)
        return shard_of(self, key)

    monkeypatch.setattr(shards.ShardRouter, "shard_of", counted)
    keys = dataset.positives[:150] + dataset.negatives[:150]
    answer = svc.query_batch(keys)
    assert sum(answer.verdicts) >= 150
    assert sum(e.sampled for e in svc.fpr_estimates()) == sum(answer.verdicts)
    assert scalar_routes == []


def test_invalid_configuration_rejected():
    with pytest.raises(ServiceError):
        MembershipService(num_shards=0)
    with pytest.raises(ServiceError):
        MembershipService(max_batch_size=0)
