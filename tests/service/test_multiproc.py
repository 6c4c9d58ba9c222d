"""Tests for the multi-process serving tier (arena + replica pool).

The lifecycle tests are the load-bearing ones: shared-memory segments are
named kernel objects that outlive processes, so every path that can drop a
replica (clean stop, SIGKILL mid-load, pool close with windows in flight)
must leave ``/dev/shm`` clean — the parent owns every segment name and
unlinks it exactly once.  The generation tests pin the fleet-consistency
contract: windows never mix generations and the generation sequence each
client observes is monotone across a rebuild under load.
"""

from __future__ import annotations

import asyncio
import glob
import os
import signal
import threading
import time

import pytest

from repro.errors import CodecError, ServiceError
from repro.service.aserve import AdaptiveMicroBatcher
from repro.service.multiproc import (
    ReplicaPool,
    SharedFrameArena,
    shared_mapping_memory,
)
from repro.service.shards import ShardedFilterStore

KEYS = [f"key-{i}" for i in range(4000)]
NEGATIVES = [f"neg-{i}" for i in range(2000)]


def _leaked_segments():
    return glob.glob("/dev/shm/repro-arena-*")


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(_leaked_segments())
    yield
    leaked = [name for name in _leaked_segments() if name not in before]
    assert not leaked, f"shared-memory segments leaked: {leaked}"


@pytest.fixture
def store():
    return ShardedFilterStore.build(
        KEYS, num_shards=4, backend="bloom-dh", bits_per_key=10.0
    )


# --------------------------------------------------------------------- #
# SharedFrameArena
# --------------------------------------------------------------------- #
class TestSharedFrameArena:
    def test_publish_attach_round_trip(self, store):
        arena = SharedFrameArena.publish(store, generation=7)
        try:
            assert arena.owner and arena.generation == 7
            replica_side = SharedFrameArena.attach(arena.name)
            assert not replica_side.owner
            assert replica_side.generation == 7
            assert replica_side.frame_bytes == arena.frame_bytes
            decoded = replica_side.load_store()
            assert decoded.query_many(KEYS[:200]) == [True] * 200
            del decoded
            replica_side.dispose()
        finally:
            arena.dispose()

    def test_loaded_store_aliases_the_segment(self, store):
        """Zero-copy means mutating the segment changes the verdicts."""
        arena = SharedFrameArena.publish(store, generation=1)
        try:
            decoded = arena.load_store()
            assert decoded.query(KEYS[0])
            header = SharedFrameArena._HEADER.size
            arena._shm.buf[header : header + arena.frame_bytes] = bytes(
                arena.frame_bytes
            )
            assert decoded.query_many(KEYS[:50]) == [False] * 50
            del decoded
        finally:
            arena.dispose()

    def test_attach_rejects_garbage(self, store):
        arena = SharedFrameArena.publish(store, generation=1)
        try:
            arena._shm.buf[:4] = b"JUNK"
            with pytest.raises(CodecError, match="magic"):
                SharedFrameArena.attach(arena.name)
        finally:
            arena.dispose()

    def test_dispose_is_idempotent(self, store):
        arena = SharedFrameArena.publish(store, generation=1)
        arena.dispose()
        arena.dispose()

    def test_attach_missing_segment(self):
        with pytest.raises(FileNotFoundError):
            SharedFrameArena.attach("repro-arena-definitely-not-here")


# --------------------------------------------------------------------- #
# ReplicaPool basics
# --------------------------------------------------------------------- #
@pytest.fixture
def pool():
    pool = ReplicaPool(
        replicas=2,
        backend="bloom-dh",
        num_shards=4,
        bits_per_key=10.0,
        request_timeout=30.0,
    )
    yield pool
    pool.close()


class TestReplicaPool:
    def test_answers_match_direct_store(self, pool):
        pool.load(KEYS, negatives=NEGATIVES)
        direct = pool._builder.snapshot.store
        probe = KEYS[:300] + NEGATIVES[:300]
        answer = pool.query_batch(probe)
        assert answer.verdicts == direct.query_many(probe)
        assert answer.generation == 1
        assert pool.query(KEYS[0]) is True

    def test_rejects_before_load_and_bad_batches(self, pool):
        with pytest.raises(ServiceError, match="rejected"):
            pool.query_batch([])
        with pytest.raises(ServiceError, match="no snapshot"):
            pool.query_batch(["x"])

    def test_stats_aggregate_and_split(self, pool):
        pool.load(KEYS)
        pool.query_batch(KEYS[:100])
        pool.query_batch(KEYS[100:150])
        stats = pool.stats()
        assert stats.queries == 150
        assert stats.batches == 2
        assert stats.positives == 150
        per_replica = pool.stats_by_replica()
        assert len(per_replica) == 2
        assert sum(report["queries"] for report in per_replica) == 150
        assert {report["generation"] for report in per_replica} == {1}

    def test_metrics_carry_replica_labels(self, pool):
        from repro.obs.export import render_text

        pool.load(KEYS)
        pool.query_batch(KEYS[:10])
        text = render_text(pool.registry)
        assert 'repro_replica_windows_total{pool="' in text
        label = pool._obs_label
        assert (
            f'repro_service_queries_total{{service="{label}",replica="0"}}' in text
            or f'repro_service_queries_total{{service="{label}",replica="1"}}' in text
        )

    def test_close_is_idempotent_and_queries_fail_after(self, pool):
        pool.load(KEYS)
        pool.close()
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.query_batch(["x"])


# --------------------------------------------------------------------- #
# Lifecycle: crashes must not leak kernel objects
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_sigkilled_replica_leaks_nothing(self):
        """SIGKILL one replica mid-service: the survivors keep answering and
        closing the pool removes every segment (the parent owns the names)."""
        with ReplicaPool(
            replicas=2, backend="bloom-dh", num_shards=2, bits_per_key=10.0,
            request_timeout=5.0,
        ) as pool:
            pool.load(KEYS)
            segment = pool.arena.name
            victim = pool.replica_pids[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            answered = 0
            for _ in range(6):
                try:
                    assert pool.query_batch(KEYS[:10]).verdicts == [True] * 10
                    answered += 1
                except ServiceError:
                    pass  # the window that drew the dead replica
            assert answered >= 4
        assert not any(segment in name for name in _leaked_segments())

    def test_spawn_replicas_do_not_unlink_the_arena(self):
        """A spawn replica runs its own resource tracker; its exit must not
        take the fleet's segment with it (the attach path unregisters)."""
        with ReplicaPool(
            replicas=2, backend="bloom-dh", num_shards=2, bits_per_key=10.0,
            start_method="spawn",
        ) as pool:
            pool.load(KEYS)
            segment = f"/dev/shm/{pool.arena.name}"
            victim = pool.replica_pids[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.5)  # give a stray tracker time to misbehave
            assert os.path.exists(segment), (
                "a replica's resource tracker unlinked the live arena"
            )
            answered = 0
            for _ in range(6):
                try:
                    assert pool.query_batch(KEYS[:5]).verdicts == [True] * 5
                    answered += 1
                except ServiceError:
                    pass  # the window that drew the dead replica
            assert answered >= 4
            assert os.path.exists(segment)




# --------------------------------------------------------------------- #
# Generation consistency under rebuild
# --------------------------------------------------------------------- #
class TestGenerationConsistency:
    def test_rebuild_rolls_every_replica(self):
        with ReplicaPool(
            replicas=2, backend="bloom-dh", num_shards=2, bits_per_key=10.0
        ) as pool:
            first = pool.load(KEYS)
            second = pool.rebuild(KEYS + ["brand-new"])
            assert (first, second) == (1, 2)
            assert pool.query("brand-new") is True
            assert {r["generation"] for r in pool.stats_by_replica()} == {2}
            old_segments = [n for n in _leaked_segments() if n.endswith("-g1")]
            assert not old_segments, "generation-1 arena survived the roll"

    def test_generation_waits_for_the_fleet_roll(self, monkeypatch):
        """The builder moves before the fleet rolls; until every replica
        acks, ``generation`` must keep reporting what windows are answered
        by, so a client never reads a generation and then an older answer."""
        entered, release = threading.Event(), threading.Event()
        publish = SharedFrameArena.publish.__func__

        def held_publish(cls, store, generation, name=None):
            if generation == 2:
                entered.set()
                release.wait(timeout=60)
            return publish(cls, store, generation, name)

        monkeypatch.setattr(SharedFrameArena, "publish", classmethod(held_publish))
        with ReplicaPool(
            replicas=1, backend="bloom", num_shards=2, bits_per_key=10.0,
            request_timeout=30.0,
        ) as pool:
            pool.load(KEYS)
            first = pool.snapshot.store
            probe = KEYS[:8] + ["held-roll-key"]
            errors = []

            def roll():
                try:
                    pool.rebuild(KEYS + ["held-roll-key"])
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            worker = threading.Thread(target=roll, daemon=True)
            worker.start()
            try:
                assert entered.wait(timeout=60), "the rebuild never reached the roll"
                assert pool.snapshot.generation == 2  # the builder moved
                assert pool.generation == 1
                assert pool.stats().generation == 1
                assert pool._generation_gauge.value == 1
                answer = pool.query_batch(probe)
                assert answer.generation == 1
                assert answer.verdicts == first.query_many(probe)
            finally:
                release.set()
                worker.join(timeout=60)
            assert not worker.is_alive() and errors == []
            assert pool.generation == 2
            assert pool._generation_gauge.value == 2
            answer = pool.query_batch(probe)
            assert answer.generation == 2 and answer.verdicts[-1] is True

    def test_windows_never_mix_generations_under_load(self):
        """Rebuild while 8 async clients hammer the pool through the batcher:
        every answered window carries exactly one generation, and each
        client observes a monotone generation sequence."""
        with ReplicaPool(
            replicas=2, backend="bloom-dh", num_shards=2, bits_per_key=10.0
        ) as pool:
            pool.load(KEYS)

            async def scenario():
                generations = []

                async def client():
                    seen = []
                    async with AdaptiveMicroBatcher(
                        pool, max_batch=64, max_wait_ms=0.5
                    ) as front:
                        for _ in range(30):
                            verdicts, generation = (
                                await front.query_many_with_generation(KEYS[:16])
                            )
                            assert verdicts == [True] * 16
                            seen.append(generation)
                    generations.append(seen)

                loop = asyncio.get_running_loop()
                clients = [asyncio.ensure_future(client()) for _ in range(8)]
                for extra in range(3):
                    await loop.run_in_executor(
                        None, pool.rebuild, KEYS + [f"gen-extra-{extra}"]
                    )
                await asyncio.gather(*clients)
                return generations

            observed = asyncio.run(scenario())
            assert len(observed) == 8
            for sequence in observed:
                assert sequence == sorted(sequence), (
                    f"client observed generations out of order: {sequence}"
                )
            assert pool.generation == 4


# --------------------------------------------------------------------- #
# SO_REUSEPORT direct-accept mode
# --------------------------------------------------------------------- #
@pytest.mark.skipif(
    not hasattr(__import__("socket"), "SO_REUSEPORT"),
    reason="SO_REUSEPORT not available",
)
class TestReuseport:
    def test_replicas_accept_directly(self):
        with ReplicaPool(
            replicas=2, backend="bloom-dh", num_shards=2, bits_per_key=10.0
        ) as pool:
            pool.load(KEYS)
            host, port = pool.start_reuseport()

            async def drive():
                lines = []
                for _ in range(6):
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(f"M {KEYS[0]} {KEYS[1]} certainly-negative\n".encode())
                    await writer.drain()
                    lines.append((await reader.readline()).decode().strip())
                    writer.close()
                    await writer.wait_closed()
                return lines

            for line in asyncio.run(drive()):
                generation, *verdicts = line.split()[1:]
                assert generation == "1"
                assert verdicts[:2] == ["1", "1"]
            # the kernel spread connections over replica-resident servers
            per_replica = pool.stats_by_replica()
            assert sum(report["batches"] for report in per_replica) == 6


# --------------------------------------------------------------------- #
# smaps accounting helper
# --------------------------------------------------------------------- #
#: smaps is the Linux-only source the accounting parses; computed once so
#: the skip (and its reason) is visible in collection output instead of a
#: silent in-test bail.
SMAPS_AVAILABLE = os.path.exists(f"/proc/{os.getpid()}/smaps")


class TestSharedMappingMemory:
    @pytest.mark.skipif(
        not SMAPS_AVAILABLE,
        reason="/proc/<pid>/smaps unavailable (non-Linux or kernel without smaps)",
    )
    def test_reports_shared_arena_pages(self, store):
        arena = SharedFrameArena.publish(store, generation=1)
        try:
            buffer = bytes(arena._shm.buf)  # touch every page
            assert len(buffer) == arena.size_bytes
            accounting = shared_mapping_memory(os.getpid(), arena.name)
            assert accounting is not None
            assert accounting["rss"] >= arena.frame_bytes
        finally:
            arena.dispose()

    @pytest.mark.skipif(
        SMAPS_AVAILABLE,
        reason="smaps present; accounting covered by test_reports_shared_arena_pages",
    )
    def test_degrades_to_none_without_smaps(self, store):
        """macOS/BSD fallback: no smaps means ``None``, never an exception."""
        arena = SharedFrameArena.publish(store, generation=1)
        try:
            assert shared_mapping_memory(os.getpid(), arena.name) is None
        finally:
            arena.dispose()

    def test_absent_mapping_returns_none(self):
        assert shared_mapping_memory(os.getpid(), "no-such-segment") is None
