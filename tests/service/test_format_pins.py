"""Byte pins for the three per-shard record layouts.

The codec store frame, the disk ``DIRECTORY`` and the ``HDLT`` replication
frame each describe every shard by its key count, generation, key-set
fingerprint and backend name.  These tests hold the exact bytes of small
stores in all three layouts, so a change to how those records are built,
encoded or checked that moves one byte on disk or on the wire fails here.
Each pin is checked both ways: encoding produces it, and decoding it gives
the same per-shard records and verdicts and re-encodes to the same bytes.

The stores are small and deterministic (no seed but the router's), so the
bytes do not depend on ``PYTHONHASHSEED`` or on whether numpy is installed.
One store comes from a hand-assembled version-1 frame, whose fingerprints
are unknown, so the ``has_fp = 0`` form of every layout is pinned too.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core.bloom import BloomFilter
from repro.obs import Registry
from repro.service import codec
from repro.service.diskstore import DIRECTORY_NAME, DiskShardStore, _Directory
from repro.service.replication import (
    apply_delta,
    decode_delta,
    encode_delta,
    full_snapshot,
    make_delta,
)
from repro.service.server import Snapshot
from repro.service.shards import ShardedFilterStore

KEYS = [f"key-{i}" for i in range(60)]
PARAMS = dict(num_shards=3, backend="bloom", router_seed=5, bits_per_key=8.0)
PROBE = KEYS + ["key-extra"] + [f"probe-{i}" for i in range(200)]

# 347 bytes
STORE_HEX = (
    "4841424602070000014d00000003000000000000000500000005626c6f6f6d00"
    "00000000000017000000010190f2fca32cb4a708000000524841424602020000"
    "004400000000000000b800060000000000000017000006000000010002000300"
    "04000500000000000000b800000017a0cea7eebb6665970dbe5f16f4dc645254"
    "413d490ac325c6b2853b00000000000000110000000101644ef980af1078c700"
    "00004c4841424602020000003e00000000000000880006000000000000001100"
    "0006000000010002000300040005000000000000008800000011fc2f7a46e0ba"
    "2c34db817337ef51201ab7aed8415500000000000000140000000101dad76071"
    "4fe0aa500000004f4841424602020000004100000000000000a0000600000000"
    "0000001400000600000001000200030004000500000000000000a0000000142b"
    "c7ab42fbc45a5e864c8025eb783dc2450ebfc03bea0e06ce970dcf"
)

# 388 bytes
MIXED_HEX = (
    "484142460207000001760000000300000000000000050000001a6d697865643a"
    "626c6f6f6d2c626c6f6f6d2d64682c626c6f6f6d000000000000001700000001"
    "0190f2fca32cb4a708000000524841424602020000004400000000000000b800"
    "06000000000000001700000600000001000200030004000500000000000000b8"
    "00000017a0cea7eebb6665970dbe5f16f4dc645254413d490ac325c6b2853b00"
    "000000000000110000000101644ef980af1078c7000000604841424602020000"
    "0052000000000000008800060000000000000011020006000000067878686173"
    "6800000000000000000006000000010002000300040005000000000000008800"
    "000011d4c0f57e4d2e77b8b2c26635bc6ee28dc6554f65260000000000000014"
    "0000000101dad760714fe0aa500000004f484142460202000000410000000000"
    "0000a00006000000000000001400000600000001000200030004000500000000"
    "000000a0000000142bc7ab42fbc45a5e864c8025eb783dc2450ebfc03bea0e06"
    "eb6b3745"
)

# 259 bytes
DIRECTORY_HEX = (
    "44534b4401000000f60000010000000000000000020000000000000001000000"
    "0000000004000000000000000500000005626c6f6f6d000000136672616d6573"
    "2d3030303030312e7061676573000000030000000000000017000000010190f2"
    "fca32cb4a70800000005626c6f6f6d00000000000000b8000000000000000000"
    "000000000000522a7892db00000000000000110000000101644ef980af1078c7"
    "00000005626c6f6f6d0000000000000088000000000000000100000000000000"
    "4ceafb1a65000000000000001500000002015f597a87b2e3982c00000005626c"
    "6f6f6d00000000000000a800000000000000030000000000000050bd21a96896"
    "ff6254"
)

# 219 bytes
DELTA_HEX = (
    "48444c540101000000cd00000000000000010000000000000002000000030000"
    "000000000005000000000000000017000000010190f2fca32cb4a70800000005"
    "626c6f6f6d0000000000000000110000000101644ef980af1078c70000000562"
    "6c6f6f6d01000000000000001500000002015f597a87b2e3982c00000005626c"
    "6f6f6d000000504841424602020000004200000000000000a800060000000000"
    "00001500000600000001000200030004000500000000000000a8000000156a81"
    "c69bc7476d47d4a9de43f69ee2cb20f90b0f3c82f2fb6ccc90e8c3"
)

# 394 bytes
FULL_HEX = (
    "48444c5401020000017c00000000000000000000000000000002000000030000"
    "0000000000050000015c4841424602070000014e000000030000000000000005"
    "00000005626c6f6f6d0000000000000017000000010190f2fca32cb4a7080000"
    "00524841424602020000004400000000000000b8000600000000000000170000"
    "0600000001000200030004000500000000000000b800000017a0cea7eebb6665"
    "970dbe5f16f4dc645254413d490ac325c6b2853b000000000000001100000001"
    "01644ef980af1078c70000004c4841424602020000003e000000000000008800"
    "0600000000000000110000060000000100020003000400050000000000000088"
    "00000011fc2f7a46e0ba2c34db817337ef51201ab7aed8415500000000000000"
    "1500000002015f597a87b2e3982c000000504841424602020000004200000000"
    "000000a800060000000000000015000006000000010002000300040005000000"
    "00000000a8000000156a81c69bc7476d47d4a9de43f69ee2cb20f90b0f3c82f2"
    "fb6c4809973fd883eac8"
)

# 197 bytes
V1_HEX = (
    "484142460107000000b700000002000000000000000000000005626c6f6f6d00"
    "0000000000001e00000045484142460202000000370000000000000080000300"
    "0000000000001e000003000000010002000000000000008000000010f269af85"
    "03dd93f58b84fa44a4c21bebec39f019000000000000001e0000004548414246"
    "02020000003700000000000000800003000000000000001e0000030000000100"
    "0200000000000000800000001074167264877d93f6f0c573aaf4265fc894b48e"
    "cae2e233a3"
)

# 223 bytes
V1_STORE_HEX = (
    "484142460207000000d100000002000000000000000000000005626c6f6f6d00"
    "0000000000001e00000001000000000000000000000000454841424602020000"
    "003700000000000000800003000000000000001e000003000000010002000000"
    "000000008000000010f269af8503dd93f58b84fa44a4c21bebec39f019000000"
    "000000001e000000010000000000000000000000004548414246020200000037"
    "00000000000000800003000000000000001e0000030000000100020000000000"
    "0000800000001074167264877d93f6f0c573aaf4265fc894b48ecaef9e0de6"
)

# 201 bytes
V1_DIRECTORY_HEX = (
    "44534b4401000000bc0000010000000000000000010000000000000001000000"
    "0000000002000000000000000000000005626c6f6f6d000000136672616d6573"
    "2d3030303030312e706167657300000002000000000000001e00000001000000"
    "00000000000000000005626c6f6f6d0000000000000080000000000000000000"
    "00000000000045f8bb8e36000000000000001e00000001000000000000000000"
    "00000005626c6f6f6d0000000000000080000000000000000100000000000000"
    "45abc615a516a935e1"
)

# 250 bytes
V1_DELTA_HEX = (
    "48444c540101000000ec00000000000000010000000000000002000000020000"
    "00000000000001000000000000001e0000000100000000000000000000000005"
    "626c6f6f6d000000454841424602020000003700000000000000800003000000"
    "000000001e000003000000010002000000000000008000000010f269af8503dd"
    "93f58b84fa44a4c21bebec39f01901000000000000001e000000010000000000"
    "0000000000000005626c6f6f6d00000045484142460202000000370000000000"
    "0000800003000000000000001e00000300000001000200000000000000800000"
    "001074167264877d93f6f0c573aaf4265fc894b48ecad467c7c8"
)


def _records(store):
    """Per-shard (key count, generation, fingerprint, backend) of a store."""
    return list(
        zip(
            store.shard_key_counts,
            store.shard_generations,
            store.shard_fingerprints,
            store.shard_backend_names,
        )
    )


def _decoded_records(entries):
    """The same tuples, read off decoded DIRECTORY or delta records."""
    return [
        (entry.key_count, entry.generation, entry.fingerprint, entry.backend_name)
        for entry in entries
    ]


def _version_1_frame() -> bytes:
    """A version-1 store frame: per shard only a key count and a filter."""
    writer = codec._Writer()
    writer.u32(2)
    writer.u64(0)
    writer.str_field("bloom")
    for part in (KEYS[:30], KEYS[30:]):
        bloom = BloomFilter(num_bits=128, num_hashes=3)
        bloom.add_all(part)
        writer.u64(len(part))
        writer.bytes_field(codec.dumps(bloom))
    payload = writer.getvalue()
    header = codec._HEADER.pack(codec.FRAME_MAGIC, 1, codec.TAG_SHARDED_STORE, len(payload))
    return header + payload + struct.pack(">I", zlib.crc32(header[4:] + payload))


def _directory_bytes(path, store, successor=None, dirty=None) -> bytes:
    """The DIRECTORY after creating ``store`` (and committing ``successor``)."""
    disk = DiskShardStore.create(path, store, page_size=256, registry=Registry())
    try:
        if successor is not None:
            disk.commit(successor, 2, rebuilt_shards=dirty)
        return (path / DIRECTORY_NAME).read_bytes()
    finally:
        disk.close()


@pytest.fixture(scope="module")
def stores():
    store = ShardedFilterStore.build(KEYS, **PARAMS)
    mixed = ShardedFilterStore.build(KEYS, shard_backends={1: "bloom-dh"}, **PARAMS)
    successor, dirty, _ = ShardedFilterStore.rebuild_from(
        store, KEYS + ["key-extra"], backend="bloom", bits_per_key=8.0
    )
    return store, mixed, successor, dirty


def _check_store_frame(store, pinned_hex):
    pinned = bytes.fromhex(pinned_hex)
    assert codec.dumps(store).hex() == pinned_hex
    revived = codec.loads(pinned)
    assert _records(revived) == _records(store)
    assert revived.backend_name == store.backend_name
    assert revived.router_seed == store.router_seed
    assert revived.query_many(PROBE) == store.query_many(PROBE)
    assert codec.dumps(revived) == pinned


def test_store_frame(stores):
    store = stores[0]
    assert store.backend_name == "bloom"
    _check_store_frame(store, STORE_HEX)


def test_mixed_store_frame(stores):
    mixed = stores[1]
    assert mixed.backend_name == "mixed"
    assert mixed.shard_backend_names == ["bloom", "bloom-dh", "bloom"]
    _check_store_frame(mixed, MIXED_HEX)


def _check_directory(path, pinned_hex, expected):
    pinned = bytes.fromhex(pinned_hex)
    decoded = _Directory.decode(pinned)
    assert _decoded_records(decoded.shards) == _records(expected)
    assert decoded.backend_name == expected.backend_name
    assert decoded.encode() == pinned
    reopened = DiskShardStore.open(path, registry=Registry())
    try:
        view = reopened.serving_store()
        assert _records(view) == _records(expected)
        assert view.backend_name == expected.backend_name
        assert view.query_many(PROBE) == expected.query_many(PROBE)
    finally:
        reopened.close()


def test_directory_after_incremental_commit(tmp_path, stores):
    store, _, successor, dirty = stores
    assert dirty == [2]
    path = tmp_path / "store"
    assert _directory_bytes(path, store, successor, dirty).hex() == DIRECTORY_HEX
    _check_directory(path, DIRECTORY_HEX, successor)


def _check_delta(base, successor, encoded, pinned_hex):
    pinned = bytes.fromhex(pinned_hex)
    assert encoded.hex() == pinned_hex
    decoded = decode_delta(pinned)
    applied = apply_delta(base, decoded)
    assert _records(applied) == _records(successor)
    assert applied.query_many(PROBE) == successor.query_many(PROBE)
    assert encode_delta(decoded) == pinned
    return decoded


def test_delta_frame(stores):
    store, _, successor, dirty = stores
    base = Snapshot(generation=1, store=store, num_keys=len(KEYS))
    encoded = encode_delta(make_delta(base, successor))
    decoded = _check_delta(base, successor, encoded, DELTA_HEX)
    assert decoded.dirty_shards == dirty
    assert _decoded_records(decoded.records) == _records(successor)


def test_full_snapshot_frame(stores):
    successor = stores[2]
    encoded = encode_delta(full_snapshot(successor, 2))
    decoded = _check_delta(None, successor, encoded, FULL_HEX)
    assert decoded.dirty_shards == []
    assert decoded.new_generation == 2


def test_unknown_fingerprints_in_every_layout(tmp_path):
    frame = _version_1_frame()
    assert frame.hex() == V1_HEX
    store = codec.loads(frame)
    assert _records(store) == [(30, 1, None, "bloom"), (30, 1, None, "bloom")]
    _check_store_frame(store, V1_STORE_HEX)

    path = tmp_path / "store"
    assert _directory_bytes(path, store).hex() == V1_DIRECTORY_HEX
    _check_directory(path, V1_DIRECTORY_HEX, store)

    # Two decodes share no filter objects and know no fingerprints, so
    # every shard ships as dirty, each record with has_fp = 0.
    base = Snapshot(generation=1, store=codec.loads(frame), num_keys=len(KEYS))
    encoded = encode_delta(make_delta(base, store))
    decoded = _check_delta(base, store, encoded, V1_DELTA_HEX)
    assert decoded.dirty_shards == [0, 1]
    assert _decoded_records(decoded.records) == _records(store)
