"""Unit and integration tests for the disk-backed shard store.

Four contracts are pinned here:

* **Format** — the DIRECTORY record round-trips and every malformed input
  fails with a typed :class:`CodecError` before any field is trusted.
* **Cache** — the byte-budgeted LRU accounts exactly, evicts in recency
  order, and a re-admitted shard answers bit-for-bit like the all-in-RAM
  store (checked across every registered backend).
* **Commits** — incremental commits append only dirty shards' pages, the
  garbage they strand triggers compaction at the configured ratio, and
  every illegal transition (generation not moving, geometry change on an
  incremental commit) raises :class:`ServiceError`.
* **Composition** — ``MembershipService(store_path=...)`` and
  ``ReplicaPool(store_path=...)`` serve off the mapping with verdicts
  identical to RAM mode, and a restarted service resumes from the
  committed generation.

The crash battery and corruption fuzz live in ``test_diskstore_crash.py``
and ``tests/property/test_diskstore_fuzz.py``.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import pytest

from repro.errors import CodecError, ConfigurationError, ServiceError
from repro.hashing import vectorized as vec
from repro.obs import Registry
from repro.obs.export import render_text
from repro.service import codec
from repro.service.backends import available_backends, get_backend
from repro.service.diskstore import (
    DIRECTORY_NAME,
    DiskShardStore,
    DirectoryEntry,
    _Directory,
    _FrameCache,
)
from repro.service.multiproc import ReplicaPool
from repro.service.server import MembershipService
from repro.service.shards import SCALAR_KEYS_PER_GROUP, ShardedFilterStore
from repro.workloads.shalla import generate_shalla_like
from repro.workloads.zipf import assign_zipf_costs

PAGE = 256  # small pages keep the test stores tiny but multi-page


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(num_positives=600, num_negatives=500, seed=23)


@pytest.fixture(scope="module")
def costs(dataset):
    return assign_zipf_costs(dataset.negatives, skewness=1.0, seed=23)


@pytest.fixture(scope="module")
def ram_store(dataset, costs):
    return ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        costs=costs,
        num_shards=4,
        backend="bloom-dh",
    )


@pytest.fixture(scope="module")
def probe(dataset):
    return dataset.positives + dataset.negatives + [
        f"disk-unseen-{i}" for i in range(400)
    ]


def _create(tmp_path, ram_store, **kwargs):
    kwargs.setdefault("page_size", PAGE)
    kwargs.setdefault("registry", Registry())
    return DiskShardStore.create(tmp_path / "store", ram_store, **kwargs)


# --------------------------------------------------------------------- #
# DIRECTORY record format
# --------------------------------------------------------------------- #
class TestDirectoryFormat:
    def _directory(self):
        return _Directory(
            page_size=PAGE,
            generation=7,
            epoch=3,
            next_free_page=10,
            router_seed=42,
            backend_name="bloom-dh",
            pages_name="frames-000003.pages",
            shards=(
                DirectoryEntry(5, 2, 123456, "bloom-dh", 512, 0, 300, 99),
                DirectoryEntry(9, 1, None, "habf", 1024, 2, 2000, 1),
            ),
        )

    def test_round_trip(self):
        directory = self._directory()
        revived = _Directory.decode(directory.encode())
        assert revived.page_size == PAGE
        assert revived.generation == 7
        assert revived.epoch == 3
        assert revived.next_free_page == 10
        assert revived.router_seed == 42
        assert revived.pages_name == "frames-000003.pages"
        assert len(revived.shards) == 2
        first, second = revived.shards
        assert (first.key_count, first.generation, first.fingerprint) == (5, 2, 123456)
        assert second.fingerprint is None
        assert second.backend_name == "habf"
        assert (second.start_page, second.frame_bytes, second.frame_crc) == (2, 2000, 1)
        assert revived.encode() == directory.encode()

    def test_rejects_short_record(self):
        with pytest.raises(CodecError, match="too short"):
            _Directory.decode(b"DSKD")

    def test_rejects_bad_magic(self):
        record = bytearray(self._directory().encode())
        record[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            _Directory.decode(bytes(record))

    def test_rejects_bad_version(self):
        record = bytearray(self._directory().encode())
        record[4] = 99
        # version is CRC-covered, so either message is acceptable as long
        # as the error is typed; re-seal the CRC to hit the version check.
        record[-4:] = zlib.crc32(bytes(record[4:-4])).to_bytes(4, "big")
        with pytest.raises(CodecError, match="version"):
            _Directory.decode(bytes(record))

    def test_rejects_length_mismatch(self):
        record = self._directory().encode()
        with pytest.raises(CodecError, match="length mismatch"):
            _Directory.decode(record + b"\x00")

    def test_rejects_crc_mismatch(self):
        record = bytearray(self._directory().encode())
        record[20] ^= 0x01
        with pytest.raises(CodecError, match="checksum"):
            _Directory.decode(bytes(record))

    def test_rejects_run_past_next_free_page(self):
        directory = self._directory()
        first, second = directory.shards
        # 2000 bytes / 256 = 8 pages > end
        directory = replace(directory, shards=(first, replace(second, start_page=9)))
        with pytest.raises(CodecError, match="exceeds"):
            _Directory.decode(directory.encode())

    def test_rejects_sub_header_frame(self):
        directory = self._directory()
        first, second = directory.shards
        directory = replace(directory, shards=(replace(first, frame_bytes=4), second))
        with pytest.raises(CodecError, match="smaller"):
            _Directory.decode(directory.encode())

    @staticmethod
    def _resealed(path, edit) -> None:
        """Rewrite a store's DIRECTORY payload with ``edit``, under a valid
        length and CRC, so only the decoder's payload checks can object."""
        record = (path / DIRECTORY_NAME).read_bytes()
        payload = edit(record[9:-4])
        body = record[:5] + len(payload).to_bytes(4, "big") + payload
        (path / DIRECTORY_NAME).write_bytes(
            body + zlib.crc32(body[4:]).to_bytes(4, "big")
        )

    def test_open_rejects_a_backend_name_that_is_not_utf8(self, tmp_path, ram_store):
        _create(tmp_path, ram_store).close()
        path = tmp_path / "store"

        def break_last_shard_name(payload: bytes) -> bytes:
            at = payload.rindex(b"bloom-dh")
            return payload[:at] + b"\xff" + payload[at + 1 :]

        self._resealed(path, break_last_shard_name)
        with pytest.raises(CodecError, match="UTF-8"):
            DiskShardStore.open(path, registry=Registry())

    def test_open_rejects_trailing_payload_bytes(self, tmp_path, ram_store):
        _create(tmp_path, ram_store).close()
        path = tmp_path / "store"
        self._resealed(path, lambda payload: payload + b"\x00\x00\x00")
        with pytest.raises(CodecError, match="trailing"):
            DiskShardStore.open(path, registry=Registry())


# --------------------------------------------------------------------- #
# LRU cache unit behaviour
# --------------------------------------------------------------------- #
class TestFrameCache:
    def test_byte_accounting_is_exact(self):
        cache = _FrameCache(budget=100)
        cache.put(("a",), "A", 40)
        cache.put(("b",), "B", 35)
        assert cache.bytes == 75
        # replacing a key swaps its cost, never double-counts
        cache.put(("a",), "A2", 10)
        assert cache.bytes == 45
        assert cache.get(("a",)) == "A2"
        assert len(cache) == 2

    def test_evicts_least_recently_used_first(self):
        cache = _FrameCache(budget=100)
        cache.put(("a",), "A", 40)
        cache.put(("b",), "B", 40)
        assert cache.get(("a",)) == "A"  # refresh a; b is now LRU
        cache.put(("c",), "C", 40)  # 120 > 100: evict b only
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"
        assert cache.bytes == 80
        assert cache.evictions == 1

    def test_oversized_entry_is_not_retained(self):
        cache = _FrameCache(budget=50)
        cache.put(("big",), "B", 200)
        assert cache.bytes == 0
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_zero_budget_never_admits(self):
        cache = _FrameCache(budget=0)
        cache.put(("a",), "A", 1)
        assert len(cache) == 0
        assert cache.bytes == 0
        assert cache.get(("a",)) is None

    def test_unbounded_budget_never_evicts(self):
        cache = _FrameCache(budget=None)
        for index in range(50):
            cache.put((index,), index, 1 << 20)
        assert len(cache) == 50
        assert cache.bytes == 50 << 20
        assert cache.evictions == 0

    def test_prune_drops_only_dead_keys(self):
        cache = _FrameCache(budget=None)
        cache.put(("live",), 1, 10)
        cache.put(("dead",), 2, 20)
        cache.prune([("live",)])
        assert cache.get(("live",)) == 1
        assert cache.get(("dead",)) is None
        assert cache.bytes == 10

    def test_hit_miss_counters(self):
        cache = _FrameCache(budget=None)
        assert cache.get(("a",)) is None
        cache.put(("a",), "A", 1)
        assert cache.get(("a",)) == "A"
        assert (cache.hits, cache.misses) == (1, 1)


# --------------------------------------------------------------------- #
# Create / open / close lifecycle
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_create_serves_identically_to_ram(self, tmp_path, ram_store, probe):
        with _create(tmp_path, ram_store) as disk:
            assert disk.generation == 1
            assert disk.num_shards == ram_store.num_shards
            assert disk.serving_store().query_many(probe) == ram_store.query_many(probe)
            assert disk.verify() == ram_store.num_shards
            assert disk.garbage_ratio == 0.0

    def test_reopen_cold_serves_identically(self, tmp_path, ram_store, probe):
        expected = ram_store.query_many(probe)
        _create(tmp_path, ram_store).close()
        with DiskShardStore.open(
            tmp_path / "store", cache_budget=0, registry=Registry()
        ) as disk:
            assert disk.serving_store().query_many(probe) == expected
            stats = disk.cache_stats()
            assert stats["entries"] == 0 and stats["bytes"] == 0
            assert stats["misses"] >= ram_store.num_shards

    def test_exists(self, tmp_path, ram_store):
        assert not DiskShardStore.exists(tmp_path / "store")
        _create(tmp_path, ram_store).close()
        assert DiskShardStore.exists(tmp_path / "store")

    def test_create_refuses_existing_store(self, tmp_path, ram_store):
        _create(tmp_path, ram_store).close()
        with pytest.raises(ServiceError, match="already holds a store"):
            _create(tmp_path, ram_store)

    def test_open_missing_store_is_typed(self, tmp_path):
        with pytest.raises(ServiceError, match="holds no"):
            DiskShardStore.open(tmp_path / "nowhere", registry=Registry())

    def test_direct_constructor_is_blocked(self):
        with pytest.raises(ServiceError, match="create"):
            DiskShardStore()

    def test_validates_parameters(self, tmp_path, ram_store):
        with pytest.raises(ServiceError, match="generation"):
            _create(tmp_path, ram_store, generation=0)
        with pytest.raises(ServiceError, match="page_size"):
            _create(tmp_path, ram_store, page_size=32)
        with pytest.raises(ServiceError, match="cache_budget"):
            _create(tmp_path, ram_store, cache_budget=-1)
        with pytest.raises(ServiceError, match="compact_ratio"):
            _create(tmp_path, ram_store, compact_ratio=0.0)

    def test_close_is_idempotent_and_final(self, tmp_path, ram_store):
        disk = _create(tmp_path, ram_store)
        disk.close()
        disk.close()
        with pytest.raises(ServiceError, match="closed"):
            disk.serving_store()
        with pytest.raises(ServiceError, match="closed"):
            disk.commit(ram_store, 2)

    def test_frames_are_page_aligned(self, tmp_path, ram_store):
        with _create(tmp_path, ram_store) as disk:
            directory = disk._epoch.directory
            runs = sorted(
                (entry.start_page, entry.frame_bytes) for entry in directory.shards
            )
            expected_start = 0
            for start_page, frame_bytes in runs:
                assert start_page == expected_start
                expected_start += -(-frame_bytes // PAGE)
            assert directory.next_free_page == expected_start
            assert disk.mapped_bytes == expected_start * PAGE
            assert disk.pages_file.stat().st_size == disk.mapped_bytes


# --------------------------------------------------------------------- #
# Eviction / re-admission equivalence (per backend)
# --------------------------------------------------------------------- #
def _build_filter(name, dataset, costs):
    try:
        return get_backend(name).create_filter(
            dataset.positives, negatives=dataset.negatives, costs=costs
        )
    except ConfigurationError as exc:
        if "numpy" in str(exc):
            pytest.skip(f"backend {name!r} needs numpy to build")
        raise


@pytest.mark.parametrize("name", available_backends())
def test_evicted_shard_readmits_bit_for_bit(name, dataset, costs, probe, tmp_path):
    """Cold, hot, and re-admitted-after-eviction answers are all identical.

    A budget of one serialized frame forces every shard touch to evict the
    previous tenant, so a full probe pass exercises decode → cache → evict
    → re-decode on every shard; verdicts must match the all-in-RAM store
    bit for bit (in particular: zero false negatives survive the cycle).
    """
    _build_filter(name, dataset, costs)  # numpy skip happens here
    ram = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        costs=costs,
        num_shards=3,
        backend=name,
    )
    expected = ram.query_many(probe)
    largest = max(len(codec.dumps(filt)) for filt in ram.filters)
    disk = DiskShardStore.create(
        tmp_path / "store",
        ram,
        page_size=PAGE,
        cache_budget=largest,  # at most one decoded shard stays hot
        registry=Registry(),
    )
    try:
        view = disk.serving_store()
        assert view.query_many(probe) == expected
        stats = disk.cache_stats()
        assert stats["bytes"] <= largest
        assert stats["entries"] <= 1
        # thrash the cache shard by shard, then re-check the full batch
        for shard in range(ram.num_shards):
            disk._filter_for(disk._epoch, shard)
        assert disk.cache_stats()["evictions"] >= ram.num_shards - 1
        assert view.query_many(probe) == expected
        assert all(view.query(key) for key in dataset.positives)
    finally:
        disk.close()


def test_cache_metrics_track_counters(tmp_path, ram_store, probe):
    registry = Registry()
    with _create(tmp_path, ram_store, cache_budget=None, registry=registry) as disk:
        disk.serving_store().query_many(probe)
        disk.serving_store().query_many(probe)
        stats = disk.cache_stats()
        assert stats["misses"] == ram_store.num_shards
        assert stats["hits"] >= ram_store.num_shards
        exposition = render_text(registry)
        assert "repro_disk_cache_hits_total" in exposition
        assert "repro_disk_cache_misses_total" in exposition
        assert "repro_disk_mapped_bytes" in exposition
        assert "repro_disk_cold_read_seconds" in exposition
        hits = registry.counter(
            "repro_disk_cache_hits_total", "", ("store",)
        ).labels(disk._obs_label)
        assert hits.value == stats["hits"]


@pytest.mark.parametrize("encoded", [False, True])
def test_small_window_resolves_each_shard_once(tmp_path, ram_store, probe, encoded):
    """A window of SCALAR_KEYS_PER_GROUP keys per shard skips the engine;
    each shard it touches is still resolved through the cache once, not
    once per key."""
    if encoded:
        pytest.importorskip("numpy")
    taken, keys = {}, []
    for key in probe[::7]:
        shard = ram_store.shard_of(key)
        if taken.get(shard, 0) < SCALAR_KEYS_PER_GROUP:
            taken[shard] = taken.get(shard, 0) + 1
            keys.append(key)
    touched = set(taken)
    assert len(touched) == ram_store.num_shards < len(keys)
    with _create(tmp_path, ram_store, cache_budget=None) as disk:
        view = disk.serving_store()
        view.query_many(probe)  # every shard decoded and cached
        hits = disk.cache_stats()["hits"]
        window = vec.KeyBatch(keys) if encoded else keys
        assert view.query_many(window) == ram_store.query_many(keys)
        assert disk.cache_stats()["hits"] - hits == len(touched)


@pytest.mark.parametrize("budget", [0, None])
def test_engine_window_resolves_each_shard_once(tmp_path, dataset, costs, probe, budget):
    """An engine-path window on an HABF store runs one two-round program
    over every shard it touches, yet resolves each of them through the
    cache exactly once, whether the cache admits nothing or everything."""
    pytest.importorskip("numpy")
    ram = ShardedFilterStore.build(
        dataset.positives,
        negatives=dataset.negatives,
        costs=costs,
        num_shards=4,
        backend="habf",
    )
    with _create(tmp_path, ram, cache_budget=budget) as disk:
        view = disk.serving_store()
        for size in (24, 300, len(probe), 24):
            keys = probe[-size:]
            stats = disk.cache_stats()
            before = stats["hits"] + stats["misses"]
            assert view.query_many(keys) == ram.query_many(keys), size
            stats = disk.cache_stats()
            touched = {ram.shard_of(key) for key in keys}
            assert stats["hits"] + stats["misses"] - before == len(touched), size
            if budget == 0:
                assert stats["hits"] == 0 and stats["entries"] == 0


# --------------------------------------------------------------------- #
# Commit protocol: incremental appends, compaction, illegal transitions
# --------------------------------------------------------------------- #
class TestCommits:
    def test_incremental_commit_appends_only_dirty_pages(
        self, tmp_path, dataset, costs, ram_store
    ):
        disk = _create(tmp_path, ram_store, compact_ratio=0.95)
        try:
            pages_before = disk.pages_file
            size_before = pages_before.stat().st_size
            keys = dataset.positives + ["fresh-key-1", "fresh-key-2"]
            successor, rebuilt, skipped = ShardedFilterStore.rebuild_from(
                disk.serving_store(),
                keys,
                negatives=dataset.negatives,
                costs=costs,
                backend="bloom-dh",
            )
            assert rebuilt and skipped, "fixture must dirty some but not all shards"
            disk.commit(successor, 2, rebuilt_shards=rebuilt)
            assert disk.generation == 2
            assert disk.pages_file == pages_before, "append must reuse the page file"
            grown = disk.pages_file.stat().st_size - size_before
            dirty_pages = sum(
                -(-len(codec.dumps(successor.filters[shard])) // PAGE)
                for shard in rebuilt
            )
            assert grown == dirty_pages * PAGE
            assert 0.0 < disk.garbage_ratio < 1.0
            assert disk.serving_store().query_many(keys) == [True] * len(keys)
            assert disk.verify() == ram_store.num_shards
        finally:
            disk.close()

    def test_reopen_after_incremental_commit(self, tmp_path, dataset, costs, ram_store):
        disk = _create(tmp_path, ram_store, compact_ratio=0.95)
        keys = dataset.positives + ["reopen-key"]
        successor, rebuilt, _ = ShardedFilterStore.rebuild_from(
            disk.serving_store(), keys, negatives=dataset.negatives, costs=costs,
            backend="bloom-dh",
        )
        disk.commit(successor, 2, rebuilt_shards=rebuilt)
        expected = disk.serving_store().query_many(keys + dataset.negatives)
        disk.close()
        with DiskShardStore.open(tmp_path / "store", registry=Registry()) as reopened:
            assert reopened.generation == 2
            assert reopened.serving_store().query_many(keys + dataset.negatives) == expected

    def test_clean_shards_stay_cached_across_commits(
        self, tmp_path, dataset, costs, ram_store
    ):
        """Cache keys are content-addressed, so clean shards never re-decode."""
        disk = _create(tmp_path, ram_store, compact_ratio=0.95)
        try:
            disk.serving_store().query_many(dataset.positives)  # warm every shard
            misses_before = disk.cache_stats()["misses"]
            keys = dataset.positives + ["cache-key-1"]
            successor, rebuilt, skipped = ShardedFilterStore.rebuild_from(
                disk.serving_store(), keys, negatives=dataset.negatives, costs=costs,
                backend="bloom-dh",
            )
            disk.commit(successor, 2, rebuilt_shards=rebuilt)
            disk.serving_store().query_many(keys)
            misses = disk.cache_stats()["misses"] - misses_before
            assert misses <= len(rebuilt), (
                f"{misses} cold decodes after a commit that only dirtied "
                f"{len(rebuilt)} shards — clean shards must stay hot"
            )
        finally:
            disk.close()

    def test_append_garbage_triggers_compaction(self, tmp_path, dataset, costs, ram_store):
        registry = Registry()
        disk = _create(
            tmp_path, ram_store, compact_ratio=0.3, registry=registry
        )
        try:
            epoch_file = disk.pages_file
            keys = list(dataset.positives)
            generation = 1
            compactions = registry.counter(
                "repro_disk_compactions_total", "", ("store",)
            ).labels(disk._obs_label)
            # keep dirtying a few shards until the dead fraction crosses
            # 0.3 and the commit path rewrites the page file; 3 churn keys
            # per round can dirty at most 3 of the 4 shards, so every
            # commit stays incremental (a full commit would also swap the
            # file, masking the compaction path this test pins)
            for round_index in range(12):
                keys = keys + [f"churn-{round_index}-{i}" for i in range(3)]
                successor, rebuilt, _ = ShardedFilterStore.rebuild_from(
                    disk.serving_store(), keys, negatives=dataset.negatives,
                    costs=costs, backend="bloom-dh",
                )
                assert 0 < len(rebuilt) < successor.num_shards
                generation += 1
                disk.commit(successor, generation, rebuilt_shards=rebuilt)
                if compactions.value >= 1:
                    break
            assert disk.pages_file != epoch_file, "compaction never triggered"
            assert not epoch_file.exists(), "old page file must be unlinked"
            assert disk.garbage_ratio <= 0.3
            assert compactions.value >= 1
            assert disk.serving_store().query_many(keys) == [True] * len(keys)
            assert disk.verify() == ram_store.num_shards
        finally:
            disk.close()

    def test_generation_must_move_forward(self, tmp_path, ram_store):
        with _create(tmp_path, ram_store) as disk:
            with pytest.raises(ServiceError, match="move forward"):
                disk.commit(ram_store, 1)

    def test_geometry_change_requires_full_commit(self, tmp_path, dataset, costs, ram_store):
        other = ShardedFilterStore.build(
            dataset.positives, negatives=dataset.negatives, costs=costs,
            num_shards=2, backend="bloom-dh",
        )
        with _create(tmp_path, ram_store) as disk:
            with pytest.raises(ServiceError, match="geometry"):
                disk.commit(other, 2, rebuilt_shards=[0])
            # a full commit handles it fine
            disk.commit(other, 2)
            assert disk.num_shards == 2
            assert disk.generation == 2

    def test_undeclared_dirty_shard_is_rejected(self, tmp_path, dataset, costs, ram_store):
        with _create(tmp_path, ram_store) as disk:
            successor, rebuilt, _ = ShardedFilterStore.rebuild_from(
                disk.serving_store(), dataset.positives + ["sneaky"],
                negatives=dataset.negatives, costs=costs, backend="bloom-dh",
            )
            if len(rebuilt) < 2:
                pytest.skip("need at least two dirty shards to under-declare")
            with pytest.raises(ServiceError, match="rebuilt_shards"):
                disk.commit(successor, 2, rebuilt_shards=rebuilt[:1])

    def test_materialize_detaches_from_mapping(self, tmp_path, ram_store, probe):
        with _create(tmp_path, ram_store) as disk:
            plain = disk.materialize()
            expected = disk.serving_store().query_many(probe)
        # the disk store is closed and its mapping released; the
        # materialized store must keep answering
        assert plain.query_many(probe) == expected
        assert codec.loads(codec.dumps(plain)).query_many(probe) == expected


# --------------------------------------------------------------------- #
# MembershipService composition
# --------------------------------------------------------------------- #
class TestServiceDiskMode:
    def test_cache_budget_requires_store_path(self):
        with pytest.raises(ServiceError, match="store_path"):
            MembershipService(cache_budget=1024)

    def test_load_and_rebuild_through_disk(self, tmp_path, dataset, probe):
        service = MembershipService(
            backend="bloom-dh", num_shards=4,
            store_path=tmp_path / "svc", registry=Registry(),
        )
        ram = MembershipService(backend="bloom-dh", num_shards=4, registry=Registry())
        assert service.load(dataset.positives, dataset.negatives) == 1
        ram.load(dataset.positives, dataset.negatives)
        assert service.disk_store is not None
        assert service.disk_store.generation == 1
        assert service.query_many(probe) == ram.query_many(probe)

        keys = dataset.positives + ["svc-key"]
        assert service.rebuild(keys, dataset.negatives) == 2
        assert service.disk_store.generation == 2
        assert service.query_many(keys) == [True] * len(keys)

    def test_restart_resumes_committed_generation(self, tmp_path, dataset):
        path = tmp_path / "svc"
        first = MembershipService(
            backend="bloom-dh", num_shards=4, store_path=path, registry=Registry()
        )
        first.load(dataset.positives, dataset.negatives)
        first.rebuild(dataset.positives + ["gen2"], dataset.negatives)
        expected = first.query_many(dataset.positives + ["gen2"])
        first.disk_store.close()

        # a fresh process: same path, no snapshot — rebuild() opens the
        # committed store first and moves forward from its generation
        second = MembershipService(
            backend="bloom-dh", num_shards=4, store_path=path, registry=Registry()
        )
        generation = second.rebuild(
            dataset.positives + ["gen2"], dataset.negatives
        )
        assert generation == 3
        assert second.query_many(dataset.positives + ["gen2"]) == expected
        second.disk_store.close()

    def test_open_store_without_path_is_typed(self):
        service = MembershipService(backend="bloom-dh", registry=Registry())
        with pytest.raises(ServiceError, match="store_path"):
            service.open_store()

    def test_snapshot_round_trip_in_disk_mode(self, tmp_path, dataset, probe):
        service = MembershipService(
            backend="bloom-dh", num_shards=4,
            store_path=tmp_path / "svc", registry=Registry(),
        )
        service.load(dataset.positives, dataset.negatives)
        expected = service.query_many(probe)
        snapshot_path = tmp_path / "snapshot.repro"
        assert service.save_snapshot(snapshot_path) > 0
        # restore into a plain RAM service: frames must carry real filters,
        # not lazy disk proxies
        revived = MembershipService.from_snapshot(snapshot_path, registry=Registry())
        assert revived.query_many(probe) == expected
        service.disk_store.close()


# --------------------------------------------------------------------- #
# ReplicaPool composition
# --------------------------------------------------------------------- #
class TestReplicaPoolDiskMode:
    def test_pool_serves_and_rebuilds_off_one_store(self, tmp_path, dataset):
        probe = dataset.positives[:50] + dataset.negatives[:50]
        with ReplicaPool(
            replicas=2, backend="bloom-dh", num_shards=4,
            store_path=tmp_path / "pool", cache_budget=1 << 20,
        ) as pool:
            pool.load(dataset.positives, dataset.negatives)
            assert pool.arena is None, "disk mode must not publish an arena"
            assert pool.disk_store is not None
            assert pool.disk_store.generation == 1
            expected = pool.disk_store.serving_store().query_many(probe)
            assert pool.query_many(probe) == expected

            pool.rebuild(dataset.positives + ["pool-key"], dataset.negatives)
            assert pool.disk_store.generation == 2
            assert pool.query_many(["pool-key"]) == [True]
            assert all(
                report["generation"] == 2 for report in pool.stats_by_replica()
            )
