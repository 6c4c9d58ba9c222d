"""Bit flips under a valid CRC: every decoder fails typed or succeeds.

The store frame, the ``HDLT`` replication frame and the disk ``DIRECTORY``
each end in a CRC-32, so random damage is caught before any field is read.
Damage made by a writer that computed the CRC afterwards (a bug, or a
hostile peer) is not: the payload checks are then all that stands between
the bytes and the program.  This property flips 1-3 payload bits of each
record, recomputes the CRC, and decodes.  The only accepted outcomes are a
successful decode or :class:`CodecError` — never ``UnicodeDecodeError``,
``struct.error`` or any other untyped exception, and never a hang on a
huge declared count.
"""

from __future__ import annotations

import zlib

import pytest

pytest.importorskip("hypothesis", reason="bit-flip property needs hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.obs import Registry
from repro.service import codec
from repro.service.diskstore import DIRECTORY_NAME, DiskShardStore, _Directory
from repro.service.replication import decode_delta, encode_delta, make_delta
from repro.service.server import Snapshot
from repro.service.shards import ShardedFilterStore

KEYS = [f"key-{i}" for i in range(60)]

#: name -> (decoder, bytes of the header before the payload)
DECODERS = {
    "store": (codec.loads, codec._HEADER.size),
    "delta": (decode_delta, codec._HEADER.size),
    "directory": (_Directory.decode, 9),
}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    store = ShardedFilterStore.build(
        KEYS, num_shards=3, backend="bloom", router_seed=5, bits_per_key=8.0,
        shard_backends={1: "bloom-dh"},
    )
    successor, dirty, _ = ShardedFilterStore.rebuild_from(
        store, KEYS + ["key-extra"], backend="bloom", bits_per_key=8.0,
        shard_backends={1: "bloom-dh"},
    )
    base = Snapshot(generation=1, store=store, num_keys=len(KEYS))
    path = tmp_path_factory.mktemp("bitflips") / "store"
    disk = DiskShardStore.create(path, store, page_size=256, registry=Registry())
    disk.commit(successor, 2, rebuilt_shards=dirty)
    disk.close()
    return {
        "store": codec.dumps(store),
        "delta": encode_delta(make_delta(base, successor)),
        "directory": (path / DIRECTORY_NAME).read_bytes(),
    }


def _flip_and_reseal(record: bytes, header_size: int, bits) -> bytes:
    """Flip payload bits, then recompute the CRC over all after the magic."""
    blob = bytearray(record)
    payload_bits = (len(record) - header_size - 4) * 8
    for bit in bits:
        bit %= payload_bits
        blob[header_size + bit // 8] ^= 1 << (bit % 8)
    blob[-4:] = zlib.crc32(bytes(blob[4:-4])).to_bytes(4, "big")
    return bytes(blob)


@given(
    name=st.sampled_from(sorted(DECODERS)),
    bits=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=3),
)
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_resealed_bit_flips_fail_typed_or_decode(records, name, bits):
    decode, header_size = DECODERS[name]
    damaged = _flip_and_reseal(records[name], header_size, bits)
    try:
        decode(damaged)
    except CodecError:
        pass


def test_resealing_alone_changes_nothing(records):
    """The harness itself: flipping a bit twice restores the record."""
    for name, (decode, header_size) in DECODERS.items():
        record = records[name]
        assert _flip_and_reseal(record, header_size, [5, 5]) == record
        decode(record)
