"""Replication tier: delta diff/apply semantics and the builder→follower wire.

Three layers of claims, tested bottom-up:

* **Frames** — ``make_delta`` captures exactly the dirty shards (O(dirty)
  bytes), ``encode``/``decode`` round-trip bit-faithfully and refuse
  corruption with typed errors, and ``apply_delta`` either assembles a store
  answering identically to a direct build or raises
  :class:`StaleBaseError` — never a silently wrong store.
* **Services** — ``apply_to_service`` hot-swaps through ``install_snapshot``
  on a :class:`MembershipService` (disk mode commits incrementally) and
  rolls a whole :class:`ReplicaPool` fleet.
* **Wire** — a :class:`BuilderPublisher` ships a full snapshot to a fresh
  follower, O(dirty) deltas to a synced one, falls back to full on NACK,
  and a :class:`FollowerClient` reconnects with backoff after connection
  loss.  The crash battery SIGKILLs a disk follower mid-apply and asserts
  it reopens on a committed generation and resyncs over the wire with zero
  wrong verdicts.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.errors import CodecError, ConfigurationError, ServiceError
from repro.obs import Registry
from repro.service import codec, diskstore
from repro.service.diskstore import DIRECTORY_NAME, DiskShardStore, _Directory
from repro.service.multiproc import ReplicaPool, SharedFrameArena
from repro.service.replication import (
    KIND_DELTA,
    KIND_FULL,
    BuilderPublisher,
    FollowerClient,
    SnapshotDelta,
    StaleBaseError,
    apply_delta,
    apply_to_service,
    decode_delta,
    encode_delta,
    full_snapshot,
    make_delta,
)
from repro.service.server import MembershipService, Snapshot
from repro.service.shards import ShardedFilterStore
from repro.workloads.shalla import generate_shalla_like

BACKEND = dict(backend="bloom", bits_per_key=12.0)


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(num_positives=300, num_negatives=200, seed=71)


@pytest.fixture(scope="module")
def probe(dataset):
    return dataset.positives + dataset.negatives + [f"repl-{i}" for i in range(100)]


def _build(keys, num_shards=4, **overrides):
    params = {**BACKEND, **overrides}
    return ShardedFilterStore.build(keys, num_shards=num_shards, **params)


def _service(num_shards=4, **kwargs):
    return MembershipService(
        num_shards=num_shards, registry=Registry(), **BACKEND, **kwargs
    )


def _successor(base_store, keys):
    store, rebuilt, skipped = ShardedFilterStore.rebuild_from(
        base_store, keys, **BACKEND
    )
    return store, rebuilt, skipped


# --------------------------------------------------------------------- #
# replace_shards
# --------------------------------------------------------------------- #
def test_replace_shards_shares_clean_filters_by_identity(dataset):
    store = _build(dataset.positives)
    patch_filter = _build(dataset.positives[:40], num_shards=1).filters[0]
    successor = store.replace_shards({1: (patch_filter, 40, 7, 123456, "bloom")})
    assert successor.filters[1] is patch_filter
    for shard in (0, 2, 3):
        assert successor.filters[shard] is store.filters[shard]
    assert successor.shard_generations[1] == 7
    assert successor.shard_key_counts[1] == 40
    assert successor.shard_fingerprints[1] == 123456
    # the original store is untouched
    assert store.shard_generations[1] == 1


def test_replace_shards_rejects_out_of_range_index(dataset):
    store = _build(dataset.positives)
    with pytest.raises(ConfigurationError, match="shard 9"):
        store.replace_shards({9: (store.filters[0], 1, 1, None, "bloom")})


# --------------------------------------------------------------------- #
# Diff / apply semantics
# --------------------------------------------------------------------- #
def test_delta_round_trip_matches_direct_rebuild(dataset, probe):
    base_store = _build(dataset.positives)
    base = Snapshot(generation=1, store=base_store, num_keys=len(dataset.positives))
    new_keys = dataset.positives + ["repl-new-key"]
    successor, rebuilt, skipped = _successor(base_store, new_keys)
    assert 0 < len(rebuilt) < base_store.num_shards

    delta = make_delta(base, successor)
    assert delta.kind == KIND_DELTA
    assert delta.dirty_shards == rebuilt
    assert delta.base_generation == 1 and delta.new_generation == 2

    decoded = decode_delta(encode_delta(delta))
    assert decoded.dirty_shards == rebuilt
    assert decoded.records == delta.records

    applied = apply_delta(base, decoded)
    assert applied.query_many(probe) == successor.query_many(probe)
    assert applied.shard_generations == successor.shard_generations
    assert applied.shard_fingerprints == successor.shard_fingerprints
    # clean shards came through by reference, not by decode
    for shard in skipped:
        assert applied.filters[shard] is base_store.filters[shard]


def test_one_dirty_shard_delta_is_o_dirty():
    """ROADMAP gate shape: 1 dirty shard of 16 ships ≤ 1/8 of full bytes.

    Needs realistically sized shards — with a handful of keys per shard the
    fixed per-shard records dominate and the ratio says nothing.
    """
    keys = [f"odirty-{i}" for i in range(8000)]
    base_store = _build(keys, num_shards=16)
    base = Snapshot(generation=1, store=base_store, num_keys=len(keys))
    changed = keys[0]
    successor, rebuilt, _ = ShardedFilterStore.rebuild_from(
        base_store, keys, changed_keys=[changed], **BACKEND
    )
    assert len(rebuilt) == 1
    delta_bytes = len(encode_delta(make_delta(base, successor)))
    full_bytes = len(encode_delta(full_snapshot(successor, 2)))
    assert delta_bytes <= full_bytes / 8, (
        f"1-dirty-shard delta is {delta_bytes}B vs {full_bytes}B full"
    )


def test_make_delta_rejects_geometry_and_backward_generation(dataset):
    base_store = _build(dataset.positives)
    base = Snapshot(generation=3, store=base_store, num_keys=len(dataset.positives))
    other_geometry = _build(dataset.positives, num_shards=8)
    with pytest.raises(ServiceError, match="geometry"):
        make_delta(base, other_geometry)
    with pytest.raises(ServiceError, match="move forward"):
        make_delta(base, base_store, new_generation=3)


def test_full_snapshot_round_trip(dataset, probe):
    store = _build(dataset.positives)
    frame = full_snapshot(store, 5)
    assert frame.kind == KIND_FULL
    decoded = decode_delta(encode_delta(frame))
    revived = apply_delta(None, decoded)
    assert revived.query_many(probe) == store.query_many(probe)


def test_apply_rejects_stale_base_generation(dataset):
    base_store = _build(dataset.positives)
    base = Snapshot(generation=1, store=base_store, num_keys=len(dataset.positives))
    successor, _, _ = _successor(base_store, dataset.positives + ["repl-x"])
    delta = make_delta(base, successor)
    wrong_base = Snapshot(generation=2, store=base_store, num_keys=1)
    with pytest.raises(StaleBaseError, match="generation"):
        apply_delta(wrong_base, delta)


def test_apply_rejects_diverged_clean_shards(dataset):
    """A follower whose 'clean' shards hold different keys must refuse."""
    base_store = _build(dataset.positives)
    base = Snapshot(generation=1, store=base_store, num_keys=len(dataset.positives))
    successor, _, _ = _successor(base_store, dataset.positives + ["repl-x"])
    delta = make_delta(base, successor)
    diverged_store = _build(dataset.positives[: len(dataset.positives) // 2])
    diverged = Snapshot(generation=1, store=diverged_store, num_keys=1)
    with pytest.raises(StaleBaseError, match="diverged"):
        apply_delta(diverged, delta)


def test_apply_to_service_without_snapshot_needs_full(dataset):
    base_store = _build(dataset.positives)
    base = Snapshot(generation=1, store=base_store, num_keys=len(dataset.positives))
    successor, _, _ = _successor(base_store, dataset.positives + ["repl-x"])
    delta = make_delta(base, successor)
    fresh = _service()
    with pytest.raises(StaleBaseError, match="full snapshot"):
        apply_to_service(fresh, delta)
    # the full frame does work on a fresh service
    generation = apply_to_service(fresh, encode_delta(full_snapshot(successor, 2)))
    assert generation == 2 and fresh.generation == 2


def test_decode_rejects_corruption(dataset):
    store = _build(dataset.positives)
    base = Snapshot(generation=1, store=store, num_keys=len(dataset.positives))
    successor, _, _ = _successor(store, dataset.positives + ["repl-x"])
    frame = bytearray(encode_delta(make_delta(base, successor)))
    with pytest.raises(CodecError, match="magic"):
        decode_delta(b"XXXX" + bytes(frame[4:]))
    with pytest.raises(CodecError, match="too short"):
        decode_delta(frame[:6])
    with pytest.raises(CodecError, match="length mismatch"):
        decode_delta(bytes(frame) + b"\x00")
    flipped = bytearray(frame)
    flipped[len(flipped) // 2] ^= 0xFF
    with pytest.raises(CodecError):
        decode_delta(bytes(flipped))
    versioned = bytearray(frame)
    versioned[4] = 99
    with pytest.raises(CodecError, match="version"):
        decode_delta(bytes(versioned))


def test_encode_rejects_malformed_deltas():
    with pytest.raises(CodecError, match="kind"):
        encode_delta(
            SnapshotDelta(
                kind=7, base_generation=0, new_generation=1, num_shards=1, router_seed=0
            )
        )
    with pytest.raises(CodecError, match="store frame"):
        encode_delta(
            SnapshotDelta(
                kind=KIND_FULL,
                base_generation=0,
                new_generation=1,
                num_shards=1,
                router_seed=0,
            )
        )


# --------------------------------------------------------------------- #
# Wire: publisher and follower
# --------------------------------------------------------------------- #
def test_publisher_follower_full_then_delta(dataset, probe):
    builder = _service()
    builder.load(dataset.positives)
    with BuilderPublisher(builder, registry=Registry()) as pub:
        host, port = pub.start()
        pub.publish()
        follower = _service()
        with FollowerClient(follower, host, port, registry=Registry()) as client:
            assert client.wait_for_generation(1, timeout=30)
            assert follower.query_many(probe) == builder.query_many(probe)
            # a fresh follower (base gen 0 unretained) got the full frame
            assert client._applied_full.value == 1

            pub.publish_rebuild(dataset.positives + ["repl-wire-key"])
            assert client.wait_for_generation(2, timeout=30)
            assert follower.generation == 2
            assert follower.query("repl-wire-key")
            assert follower.query_many(probe) == builder.query_many(probe)
            # the synced follower got an O(dirty) delta, not a full frame
            assert client._applied_delta.value == 1
            assert pub._shipped_delta.value == 1
            assert pub.follower_states()[0][1] == 2


def test_follower_nack_falls_back_to_full(dataset, probe):
    """A follower whose base diverged NACKs the delta and gets a full frame."""
    builder = _service()
    builder.load(dataset.positives)
    with BuilderPublisher(builder, registry=Registry()) as pub:
        host, port = pub.start()
        pub.publish()
        builder.rebuild(dataset.positives + ["repl-wire-key"])
        pub.publish()
        # same geometry, same generation number, different keys: the delta
        # from the builder's retained gen 1 cannot apply here
        follower = _service()
        follower.load(dataset.positives[:100])
        with FollowerClient(follower, host, port, registry=Registry()) as client:
            assert client.wait_for_generation(2, timeout=30)
            assert follower.query_many(probe) == builder.query_many(probe)
            assert client._stale.value >= 1
            assert client._applied_full.value == 1


def test_follower_reconnects_after_connection_loss(dataset):
    builder = _service()
    builder.load(dataset.positives)
    with BuilderPublisher(builder, registry=Registry()) as pub:
        host, port = pub.start()
        pub.publish()
        follower = _service()
        with FollowerClient(follower, host, port, registry=Registry()) as client:
            assert client.wait_for_generation(1, timeout=30)
            sock = client._sock
            assert sock is not None
            sock.close()  # simulate a network fault
            pub.publish_rebuild(dataset.positives + ["repl-reconnect"])
            assert client.wait_for_generation(2, timeout=30)
            assert follower.query("repl-reconnect")
            assert client.reconnects >= 1


def test_publisher_requires_snapshot_and_closes_cleanly(dataset):
    empty = _service()
    pub = BuilderPublisher(empty, registry=Registry())
    with pytest.raises(ServiceError, match="no snapshot"):
        pub.publish()
    pub.close()
    with pytest.raises(ServiceError, match="closed"):
        pub.start()


def test_replica_pool_follower_rolls_fleet(dataset, probe):
    builder = _service()
    builder.load(dataset.positives)
    with BuilderPublisher(builder, registry=Registry()) as pub:
        host, port = pub.start()
        pub.publish()
        with ReplicaPool(
            replicas=1, num_shards=4, registry=Registry(), **BACKEND
        ) as pool:
            with FollowerClient(pool, host, port, registry=Registry()) as client:
                assert client.wait_for_generation(1, timeout=60)
                assert pool.generation == 1
                assert pool.query_many(probe) == builder.query_many(probe)
                pub.publish_rebuild(dataset.positives + ["repl-pool-key"])
                assert client.wait_for_generation(2, timeout=60)
                answer = pool.query_batch(probe + ["repl-pool-key"])
                # the replica process itself answers with the builder's
                # generation — the fleet rolled, not just the parent
                assert answer.generation == 2
                assert answer.verdicts[-1] is True


def test_failed_pool_roll_does_not_reship_full_frames(dataset, probe, monkeypatch):
    """The pool's only replica dies while a delta's roll is held, so the
    builder holds generation 2 while the fleet never acked it.  The follower
    must announce the builder's generation (the base a frame applies to);
    announcing the fleet's 1 makes the publisher ship a full frame of 2,
    which the builder rejects as not moving forward, over and over."""
    entered, release = threading.Event(), threading.Event()
    publish = SharedFrameArena.publish.__func__

    def held_publish(cls, store, generation, name=None):
        if generation == 2:
            entered.set()
            release.wait(timeout=60)
        return publish(cls, store, generation, name)

    monkeypatch.setattr(SharedFrameArena, "publish", classmethod(held_publish))
    builder = _service()
    builder.load(dataset.positives)
    with BuilderPublisher(builder, registry=Registry()) as pub:
        host, port = pub.start()
        pub.publish()
        with ReplicaPool(
            replicas=1, num_shards=4, registry=Registry(), request_timeout=2.0,
            **BACKEND,
        ) as pool:
            with FollowerClient(pool, host, port, registry=Registry()) as client:
                assert client.wait_for_generation(1, timeout=60)
                full_before = pub._shipped_full.value
                pub.publish_rebuild(dataset.positives + ["repl-roll-key"])
                try:
                    assert entered.wait(timeout=60), "the delta never reached the roll"
                    replica = pool._replicas[0]
                    os.kill(replica.process.pid, signal.SIGKILL)
                    replica.process.join(timeout=30)
                    assert not replica.process.is_alive()
                finally:
                    release.set()
                # The roll times out draining the dead replica and the
                # follower NACKs the delta.
                deadline = time.monotonic() + 30
                while client._stale.value + client.reconnects == 0:
                    assert time.monotonic() < deadline, "the failed roll never surfaced"
                    time.sleep(0.05)
                time.sleep(1.0)  # a re-ship loop ships many full frames here
                assert pool.snapshot.generation == 2
                assert pool.generation == 1
                assert pub._shipped_full.value == full_before
                # The next generation applies on the builder's base and
                # respawns the fleet on it.
                pub.publish_rebuild(dataset.positives + ["repl-roll-key", "repl-roll-2"])
                assert client.wait_for_generation(3, timeout=60)
                assert pool.generation == 3
                answer = pool.query_batch(probe + ["repl-roll-2"])
                assert answer.generation == 3
                assert answer.verdicts[-1] is True


# --------------------------------------------------------------------- #
# Disk-mode followers: incremental commits and crash resync
# --------------------------------------------------------------------- #
def test_disk_follower_commits_delta_incrementally(tmp_path, dataset, probe):
    follower = _service(store_path=tmp_path / "store", cache_budget=None)
    follower.load(dataset.positives)
    before = _Directory.decode((tmp_path / "store" / DIRECTORY_NAME).read_bytes())

    builder = _service()
    builder.load(dataset.positives)
    base = builder.snapshot
    successor, rebuilt, skipped = _successor(
        builder.snapshot.store, dataset.positives + ["repl-disk-key"]
    )
    assert 0 < len(rebuilt) < 4
    delta = make_delta(base, successor)

    assert follower.apply_snapshot_delta(encode_delta(delta)) == 2
    assert follower.generation == 2
    assert follower.query("repl-disk-key")
    assert follower.query_many(probe) == successor.query_many(probe)

    after = _Directory.decode((tmp_path / "store" / DIRECTORY_NAME).read_bytes())
    assert after.generation == 2
    for shard in skipped:
        # clean shards' frames were reused in place, not rewritten
        assert after.shards[shard].start_page == before.shards[shard].start_page
        assert after.shards[shard].generation == before.shards[shard].generation
    for shard in rebuilt:
        assert after.shards[shard].start_page != before.shards[shard].start_page

    disk = follower.disk_store
    assert disk is not None and disk.verify() == 4
    disk.close()


#: Fault points before the atomic DIRECTORY rename leave the old generation;
#: from the rename on, the new one is durable (same matrix as the diskstore
#: crash battery — replication rides the identical commit protocol).
_CRASH_POINTS = (
    ("pages-synced", 1),
    ("directory-written", 1),
    ("directory-renamed", 2),
    ("before-cleanup", 2),
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="crash battery needs os.fork")
@pytest.mark.parametrize("point,survivor_generation", _CRASH_POINTS)
def test_follower_sigkilled_mid_apply_resyncs(
    tmp_path, dataset, probe, point, survivor_generation
):
    """Acceptance: a follower SIGKILL'd mid-apply reopens on a committed
    generation with zero wrong verdicts and resyncs over the wire."""
    path = tmp_path / "store"
    gen1_store = _build(dataset.positives)
    DiskShardStore.create(path, gen1_store, registry=Registry()).close()

    base = Snapshot(generation=1, store=gen1_store, num_keys=len(dataset.positives))
    gen2_keys = dataset.positives + ["repl-crash-key"]
    gen2_store, rebuilt, _ = _successor(gen1_store, gen2_keys)
    delta_bytes = encode_delta(make_delta(base, gen2_store))
    expected = {1: gen1_store.query_many(probe), 2: gen2_store.query_many(probe)}

    pid = os.fork()
    if pid == 0:
        # Child: apply the delta and die at the injected fault point; _exit
        # on any path the SIGKILL does not cover, never raise into pytest.
        try:
            victim = _service(store_path=path)
            victim.open_store()

            def hook(reached, _point=point):
                if reached == _point:
                    os.kill(os.getpid(), signal.SIGKILL)

            diskstore._FAULT_HOOK = hook
            victim.apply_snapshot_delta(delta_bytes)
            os._exit(17)  # fault point never fired
        except BaseException:
            os._exit(18)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, (
        f"child survived to status {status!r}; fault {point!r} never fired"
    )

    # The corpse's store reopens on a whole committed generation...
    survivor = _service(store_path=path)
    survivor.open_store()
    assert survivor.generation == survivor_generation
    assert survivor.snapshot.store.query_many(probe) == expected[survivor_generation]
    keys = dataset.positives if survivor_generation == 1 else gen2_keys
    assert all(survivor.snapshot.store.query(key) for key in keys)

    # ...and resyncs to the builder's current generation over the wire.
    builder = _service()
    builder.load(dataset.positives)
    with BuilderPublisher(builder, registry=Registry()) as pub:
        host, port = pub.start()
        pub.publish()
        builder.rebuild(gen2_keys)
        pub.publish()
        with FollowerClient(survivor, host, port, registry=Registry()) as client:
            assert client.wait_for_generation(2, timeout=30)
    assert survivor.generation == 2
    assert survivor.query_many(probe) == expected[2]
    survivor.disk_store.close()


# --------------------------------------------------------------------- #
# Codec interop sanity
# --------------------------------------------------------------------- #
def test_delta_patch_frames_are_ordinary_codec_frames(dataset):
    """Dirty-shard payloads are the same frames snapshots persist."""
    base_store = _build(dataset.positives)
    base = Snapshot(generation=1, store=base_store, num_keys=len(dataset.positives))
    successor, rebuilt, _ = _successor(base_store, dataset.positives + ["repl-x"])
    delta = make_delta(base, successor)
    for patch in delta.patches:
        revived = codec.loads(patch.frame)
        expected = successor.filters[patch.shard]
        assert codec.dumps(revived) == codec.dumps(expected)
