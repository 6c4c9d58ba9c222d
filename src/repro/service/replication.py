"""Cluster replication: O(dirty-shard) snapshot deltas over the wire.

The serving stack ends at one box without this module: rebuilds are driven
in-process and a new generation can only reach other processes through the
local shared-memory arena or a shared disk path.  Replication turns the
reproduction into a one-builder/N-follower topology:

* **Delta frames** — :func:`make_delta` diffs two generations of a
  :class:`~repro.service.shards.ShardedFilterStore` and emits a
  :class:`SnapshotDelta` carrying *only* the dirty shards' codec frames plus
  per-shard generations/fingerprints for the clean ones.  Incremental
  rebuilds already share clean shards' filter objects by identity and stamp
  per-shard key-multiset fingerprints, so the diff costs nothing beyond the
  serialization of what actually changed.  :func:`apply_delta` validates the
  clean-shard expectations against the follower's base snapshot and
  assembles the successor store; :func:`apply_to_service` swaps it in
  through the existing ``install_snapshot`` path (atomic hot-swap, and an
  O(dirty) disk commit when the follower runs the disk tier).

* **Wire protocol** — :class:`BuilderPublisher` (builder side) and
  :class:`FollowerClient` (follower side) speak a length-prefixed TCP
  protocol framed exactly like the codec (magic + version + type + length,
  CRC-32 trailer).  A follower announces its base generation in ``HELLO``;
  the publisher ships a delta from any *retained* base — state-based, so one
  frame covers any gap — and falls back to a full snapshot when the
  follower's base is too stale (or the follower NACKs an apply).  Each
  follower connection retries with exponential backoff and re-syncs from
  whatever generation it actually serves.

* **Telemetry** — ``repro_repl_*`` metric families: deltas/bytes shipped
  per kind on the publisher, deltas applied / apply latency / staleness on
  the follower, and a per-follower lag gauge the builder exports.

Frame layout (``HDLT``, version 1): the codec's envelope
(:func:`repro.service.codec._seal`) under magic ``b"HDLT"``, its kind byte
1 for a delta and 2 for a full snapshot.  Both payload kinds open with
``base_generation u64 | new_generation u64 | num_shards u32 | router_seed
u64``.  A *full* payload then carries the whole store as one nested codec
frame; a *delta* payload carries, per shard in order, ``dirty u8``, the
shard's entry (:func:`repro.service.codec._write_entry`, the bytes the disk
``DIRECTORY`` writes too) and — for dirty shards only — the shard filter's
nested codec frame.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CodecError, ServiceError
from repro.obs import Registry, default_registry
from repro.service import codec
from repro.service.codec import _Reader, _Writer
from repro.service.shards import ShardedFilterStore, ShardEntry

__all__ = [
    "DELTA_MAGIC",
    "DELTA_VERSION",
    "KIND_DELTA",
    "KIND_FULL",
    "ShardPatch",
    "SnapshotDelta",
    "StaleBaseError",
    "make_delta",
    "full_snapshot",
    "encode_delta",
    "decode_delta",
    "apply_delta",
    "apply_to_service",
    "BuilderPublisher",
    "FollowerClient",
]

#: Magic bytes opening every encoded snapshot delta.
DELTA_MAGIC = b"HDLT"
#: Current delta-frame version (the only one this module reads).
DELTA_VERSION = 1
#: Frame kind: a diff against a named base generation.
KIND_DELTA = 1
#: Frame kind: a complete store (the stale-follower fallback).
KIND_FULL = 2

#: Distinguishes publisher/follower instances inside shared metric families.
_PUBLISHER_IDS = itertools.count(1)
_FOLLOWER_IDS = itertools.count(1)


class StaleBaseError(ServiceError):
    """A delta's base generation does not match the follower's snapshot.

    The typed signal for "this delta cannot apply here": the follower's
    serving generation, shard geometry, or clean-shard state diverged from
    what the delta was diffed against.  The wire layer answers it with a
    NACK, which makes the publisher fall back to a full snapshot.
    """


@dataclass(frozen=True)
class ShardPatch:
    """One dirty shard inside a delta: its index and its codec frame (the
    shard's new entry is the delta's ``records[shard]``)."""

    shard: int
    frame: bytes


@dataclass(frozen=True)
class SnapshotDelta:
    """A decoded replication frame: either a diff or a full snapshot.

    Attributes:
        kind: :data:`KIND_DELTA` or :data:`KIND_FULL`.
        base_generation: The service generation the diff was taken against
            (0 for full snapshots, which need no base).
        new_generation: The service generation applying this frame installs.
        num_shards: Shard count of the target store.
        router_seed: Router seed of the target store (placement identity).
        records: Every shard's :class:`ShardEntry`, in shard order (delta
            kind only): the state a clean shard must already have on the
            follower, and the *new* state of a dirty one.
        patches: The dirty shards' frames, in shard order (delta kind only).
        store_frame: The whole store's codec frame (full kind only).
    """

    kind: int
    base_generation: int
    new_generation: int
    num_shards: int
    router_seed: int
    records: Tuple[ShardEntry, ...] = ()
    patches: Tuple[ShardPatch, ...] = ()
    store_frame: Optional[bytes] = None

    @property
    def dirty_shards(self) -> List[int]:
        """Shard indexes this delta replaces (empty for full snapshots)."""
        return [patch.shard for patch in self.patches]


# --------------------------------------------------------------------- #
# Diffing and applying
# --------------------------------------------------------------------- #
def make_delta(
    old_snapshot,
    new_store: ShardedFilterStore,
    new_generation: Optional[int] = None,
) -> SnapshotDelta:
    """Diff ``new_store`` against a base snapshot into a :class:`SnapshotDelta`.

    ``old_snapshot`` is anything with ``.store`` and ``.generation`` (the
    service's :class:`~repro.service.server.Snapshot` dataclass).  A shard is
    *clean* when the new store shares the base's filter object by identity —
    exactly what incremental rebuilds produce for untouched shards, across
    any number of chained generations — or when both sides carry equal
    fingerprints with matching counts/generations/backends.  Every other
    shard's filter is serialized into the delta.

    Raises:
        ServiceError: when the two stores' shard geometry (count or router
            seed) differs — a delta cannot describe a re-sharding — or when
            ``new_generation`` does not move past the base.
    """
    base_store: ShardedFilterStore = old_snapshot.store
    base_generation = int(old_snapshot.generation)
    if (
        base_store.num_shards != new_store.num_shards
        or base_store.router_seed != new_store.router_seed
    ):
        raise ServiceError(
            "cannot diff stores with different shard geometry: base has "
            f"{base_store.num_shards} shards (seed {base_store.router_seed}), "
            f"new has {new_store.num_shards} (seed {new_store.router_seed})"
        )
    if new_generation is None:
        new_generation = base_generation + 1
    if new_generation <= base_generation:
        raise ServiceError(
            f"delta generation must move forward: {new_generation} <= "
            f"base {base_generation}"
        )
    patches: List[ShardPatch] = []
    for shard, entry in enumerate(new_store.entries):
        filt = new_store.filters[shard]
        clean = base_store.filters[shard] is filt or (
            entry.fingerprint is not None
            and base_store.entries[shard].agrees_with(entry)
        )
        if not clean:
            patches.append(ShardPatch(shard, codec.dumps(filt)))
    return SnapshotDelta(
        kind=KIND_DELTA,
        base_generation=base_generation,
        new_generation=new_generation,
        num_shards=new_store.num_shards,
        router_seed=new_store.router_seed,
        records=new_store.entries,
        patches=tuple(patches),
    )


def full_snapshot(store: ShardedFilterStore, generation: int) -> SnapshotDelta:
    """Wrap a whole store as a :data:`KIND_FULL` frame (the stale fallback)."""
    if generation < 1:
        raise ServiceError(f"snapshot generation must be >= 1, got {generation}")
    return SnapshotDelta(
        kind=KIND_FULL,
        base_generation=0,
        new_generation=generation,
        num_shards=store.num_shards,
        router_seed=store.router_seed,
        store_frame=codec.dumps(store),
    )


def apply_delta(snapshot, delta: SnapshotDelta) -> ShardedFilterStore:
    """Assemble the successor store a delta describes; pure (no service swap).

    For :data:`KIND_FULL` frames the base ``snapshot`` is ignored and the
    embedded store decodes directly.  For diffs, the base snapshot must
    serve exactly ``delta.base_generation`` with matching geometry, and
    every clean shard's state must match the delta's expectation — clean
    shards are then *shared by reference* from the base store (lazy disk
    proxies included), dirty shards decode from their patch frames.

    Raises:
        StaleBaseError: base generation, geometry or clean-shard state
            mismatch (the caller should fetch a full snapshot).
        CodecError: a patch frame is corrupt or decodes to a non-filter.
    """
    if delta.kind == KIND_FULL:
        store = codec.loads(delta.store_frame)
        if not isinstance(store, ShardedFilterStore):
            raise CodecError(
                f"full-snapshot frame decodes to {type(store).__name__}, "
                "expected a ShardedFilterStore"
            )
        return store
    base_store: ShardedFilterStore = snapshot.store
    base_generation = int(snapshot.generation)
    if base_generation != delta.base_generation:
        raise StaleBaseError(
            f"delta diffs against generation {delta.base_generation} but the "
            f"follower serves {base_generation}"
        )
    if (
        base_store.num_shards != delta.num_shards
        or base_store.router_seed != delta.router_seed
    ):
        raise StaleBaseError(
            f"delta targets {delta.num_shards} shards (seed "
            f"{delta.router_seed}) but the follower store has "
            f"{base_store.num_shards} (seed {base_store.router_seed})"
        )
    dirty = {patch.shard for patch in delta.patches}
    for shard in range(delta.num_shards):
        if shard not in dirty and not delta.records[shard].agrees_with(
            base_store.entries[shard]
        ):
            raise StaleBaseError(
                f"clean shard {shard} diverged from the delta's expectation "
                "(fingerprint/count/generation/backend mismatch)"
            )
    return base_store.replace_shards(
        {
            patch.shard: (codec.loads(patch.frame), delta.records[patch.shard])
            for patch in delta.patches
        }
    )


def apply_to_service(service, delta: Union[SnapshotDelta, bytes]) -> int:
    """Apply a delta (or its encoded bytes) to a service; returns the generation.

    ``service`` is anything exposing the ``snapshot`` /
    ``install_snapshot`` surface — a :class:`~repro.service.server.\
MembershipService`, including a :class:`~repro.service.multiproc.ReplicaPool`,
    whose delta applies to the pool's snapshot.  The swap rides the
    existing ``install_snapshot`` path, so it is atomic for queries, rolls a
    pool's whole fleet, and — in disk mode — commits incrementally (only
    the dirty shards' frames are appended).

    Raises:
        StaleBaseError: the delta needs a base this service does not serve.
        CodecError: the frame (or a nested patch) is corrupt.
        ServiceError: the install itself is invalid (e.g. a generation that
            does not move the service forward).
    """
    if isinstance(delta, (bytes, bytearray, memoryview)):
        delta = decode_delta(delta)
    if delta.kind == KIND_FULL:
        store = apply_delta(None, delta)
        return service.install_snapshot(store, generation=delta.new_generation)
    snapshot = service.snapshot
    if snapshot is None:
        raise StaleBaseError(
            "the follower has no snapshot yet; it needs a full snapshot first"
        )
    store = apply_delta(snapshot, delta)
    return service.install_snapshot(
        store,
        generation=delta.new_generation,
        rebuilt_shards=delta.dirty_shards,
    )


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def encode_delta(delta: SnapshotDelta) -> bytes:
    """Serialize a :class:`SnapshotDelta` into one CRC-checked frame."""
    if delta.kind not in (KIND_DELTA, KIND_FULL):
        raise CodecError(f"unknown delta kind {delta.kind}")
    writer = _Writer()
    writer.u64(delta.base_generation)
    writer.u64(delta.new_generation)
    writer.u32(delta.num_shards)
    writer.u64(delta.router_seed)
    if delta.kind == KIND_FULL:
        if delta.store_frame is None:
            raise CodecError("a full-snapshot delta carries no store frame")
        writer.bytes_field(delta.store_frame)
    else:
        if len(delta.records) != delta.num_shards:
            raise CodecError(
                f"delta records {len(delta.records)} != shard count "
                f"{delta.num_shards}"
            )
        frames = {patch.shard: patch.frame for patch in delta.patches}
        for shard, record in enumerate(delta.records):
            frame = frames.get(shard)
            writer.u8(0 if frame is None else 1)
            codec._write_entry(writer, record)
            if frame is not None:
                writer.bytes_field(frame)
    return codec._seal(DELTA_MAGIC, DELTA_VERSION, delta.kind, writer.getvalue())


def decode_delta(data) -> SnapshotDelta:
    """Decode one delta frame; every malformation raises :class:`CodecError`."""
    _, kind, payload = codec._unseal(data, DELTA_MAGIC, (DELTA_VERSION,), "delta")
    if kind not in (KIND_DELTA, KIND_FULL):
        raise CodecError(f"unknown delta kind {kind}")
    reader = _Reader(payload)
    base_generation = reader.u64()
    new_generation = reader.u64()
    num_shards = reader.u32()
    router_seed = reader.u64()
    if new_generation <= base_generation:
        raise CodecError(
            f"delta generations do not move forward: {new_generation} <= "
            f"{base_generation}"
        )
    if num_shards < 1:
        raise CodecError("delta frame declares zero shards")
    records: List[ShardEntry] = []
    patches: List[ShardPatch] = []
    store_frame = None
    if kind == KIND_FULL:
        store_frame = bytes(reader.bytes_field())
    else:
        for shard in range(num_shards):
            is_dirty = reader.u8()
            if is_dirty not in (0, 1):
                raise CodecError(f"shard {shard} dirty flag {is_dirty} not 0/1")
            records.append(codec._read_entry(reader))
            if is_dirty:
                patches.append(ShardPatch(shard, bytes(reader.bytes_field())))
    reader.expect_end()
    return SnapshotDelta(
        kind=kind,
        base_generation=base_generation,
        new_generation=new_generation,
        num_shards=num_shards,
        router_seed=router_seed,
        records=tuple(records),
        patches=tuple(patches),
        store_frame=store_frame,
    )


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #
#: Magic bytes opening every replication wire message.
WIRE_MAGIC = b"HRPL"
WIRE_VERSION = 1
#: Largest wire message either side will accept (a full snapshot of a very
#: large store; bounded so a corrupt length field cannot demand petabytes).
_WIRE_MAX_BYTES = 1 << 31

MSG_HELLO = 1
MSG_SNAPSHOT = 2
MSG_ACK = 3
MSG_NACK = 4

#: How long a blocking socket read waits before re-checking the closed flag.
_SOCKET_TICK_SECONDS = 0.25


def _send_message(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    """Write one length-prefixed, CRC-trailed message."""
    sock.sendall(codec._seal(WIRE_MAGIC, WIRE_VERSION, msg_type, payload))


def _recv_exact(sock: socket.socket, count: int, should_stop) -> bytes:
    """Read exactly ``count`` bytes, re-checking ``should_stop`` on timeouts."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        if should_stop():
            raise ConnectionError("connection closing")
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout:
            continue
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_message(sock: socket.socket, should_stop) -> Tuple[int, bytes]:
    """Read one message; returns ``(msg_type, payload)``.

    Raises :class:`CodecError` on framing violations (bad magic, version,
    oversized length, checksum mismatch) and :class:`ConnectionError` when
    the peer goes away or ``should_stop`` turns true.
    """
    header = _recv_exact(sock, codec._HEADER.size, should_stop)
    _, msg_type, length = codec._open_header(header, WIRE_MAGIC, (WIRE_VERSION,), "wire")
    if length > _WIRE_MAX_BYTES:
        raise CodecError(f"wire message declares {length} bytes (limit {_WIRE_MAX_BYTES})")
    payload = _recv_exact(sock, length, should_stop)
    (stored_crc,) = struct.unpack(">I", _recv_exact(sock, 4, should_stop))
    codec._check_crc(header, payload, stored_crc, "wire")
    return msg_type, payload


def _pack_hello(generation: int, label: str) -> bytes:
    writer = _Writer()
    writer.u64(generation)
    writer.str_field(label)
    return writer.getvalue()


def _unpack_hello(payload: bytes) -> Tuple[int, str]:
    reader = _Reader(payload)
    generation = reader.u64()
    label = reader.str_field()
    reader.expect_end()
    return generation, label


def _pack_ack(generation: int, apply_seconds: float) -> bytes:
    writer = _Writer()
    writer.u64(generation)
    writer.f64(apply_seconds)
    return writer.getvalue()


def _unpack_ack(payload: bytes) -> Tuple[int, float]:
    reader = _Reader(payload)
    generation = reader.u64()
    seconds = reader.f64()
    reader.expect_end()
    return generation, seconds


def _pack_nack(generation: int, reason: str) -> bytes:
    writer = _Writer()
    writer.u64(generation)
    writer.str_field(reason)
    return writer.getvalue()


def _unpack_nack(payload: bytes) -> Tuple[int, str]:
    reader = _Reader(payload)
    generation = reader.u64()
    reason = reader.str_field()
    reader.expect_end()
    return generation, reason


# --------------------------------------------------------------------- #
# Builder side
# --------------------------------------------------------------------- #
@dataclass
class _FollowerState:
    """Publisher-side view of one connected follower."""

    label: str
    generation: int
    force_full: bool = False
    connected_at: float = field(default_factory=time.monotonic)


class BuilderPublisher:
    """Ships snapshot deltas from a builder service to connected followers.

    The publisher owns a listening socket; each follower connection gets a
    thread that waits for :meth:`publish` to advance the published
    generation, diffs the follower's announced base against the newest
    retained snapshot, and ships the delta (or a full snapshot when the base
    is no longer retained, the geometry diverged, or the follower NACKed).
    Because deltas are *state-based* — clean shards are matched by object
    identity and fingerprint, not by replaying a log — one frame covers any
    retained base, so a follower that missed ten publishes catches up in one
    round trip.

    Args:
        service: The builder — anything with ``snapshot``/``generation``
            (a :class:`~repro.service.server.MembershipService` or
            :class:`~repro.service.multiproc.ReplicaPool`).  The publisher
            never mutates it; call :meth:`publish` after each rebuild (or
            use :meth:`publish_rebuild`).
        retain: How many past generations stay diffable.  A follower whose
            base fell out of this window receives a full snapshot.
        registry: Metrics registry for the ``repro_repl_*`` families.
        label: Publisher label in metric children (default ``pub-<n>``).
    """

    def __init__(
        self,
        service,
        retain: int = 8,
        registry: Optional[Registry] = None,
        label: Optional[str] = None,
    ) -> None:
        if retain < 1:
            raise ServiceError("retain must be at least 1")
        self._service = service
        self._retain = retain
        self._registry = registry if registry is not None else default_registry()
        self._label = label or f"pub-{next(_PUBLISHER_IDS)}"
        self._cond = threading.Condition()
        self._retained: "OrderedDict[int, object]" = OrderedDict()
        self._offered_generation = 0
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._followers: Dict[int, _FollowerState] = {}
        self._next_follower_id = itertools.count(1)
        self._make_instruments()

    def _make_instruments(self) -> None:
        registry, label = self._registry, self._label
        shipped = registry.counter(
            "repro_repl_deltas_shipped_total",
            "Replication frames shipped to followers, by kind",
            ("publisher", "kind"),
        )
        self._shipped_delta = shipped.labels(label, "delta")
        self._shipped_full = shipped.labels(label, "full")
        sent_bytes = registry.counter(
            "repro_repl_bytes_shipped_total",
            "Encoded replication-frame bytes shipped, by kind",
            ("publisher", "kind"),
        )
        self._bytes_delta = sent_bytes.labels(label, "delta")
        self._bytes_full = sent_bytes.labels(label, "full")
        self._ship_failures = registry.counter(
            "repro_repl_ship_failures_total",
            "Follower connections dropped mid-ship (they reconnect and resync)",
            ("publisher",),
        ).labels(label)
        self._followers_gauge = registry.gauge(
            "repro_repl_followers",
            "Follower connections currently registered",
            ("publisher",),
        ).labels(label)
        self._lag_family = registry.gauge(
            "repro_repl_follower_lag",
            "Generations each follower trails the published generation by",
            ("publisher", "follower"),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the listener and start accepting followers; returns (host, port)."""
        if self._closed:
            raise ServiceError("the publisher is closed")
        if self._listener is not None:
            raise ServiceError("the publisher is already listening")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        listener.settimeout(_SOCKET_TICK_SECONDS)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"repl-accept-{self._label}", daemon=True
        )
        self._accept_thread.start()
        bound = listener.getsockname()
        return bound[0], bound[1]

    def __enter__(self) -> "BuilderPublisher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting, drop every follower connection, join the threads."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        for thread in list(self._threads):
            thread.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(self) -> int:
        """Retain the service's current snapshot and wake every follower.

        Returns the published generation.  Call after each rebuild; followers
        receive the diff from whatever base they last acknowledged.
        """
        snapshot = self._service.snapshot
        if snapshot is None:
            raise ServiceError("the builder service has no snapshot to publish")
        with self._cond:
            if self._closed:
                raise ServiceError("the publisher is closed")
            generation = snapshot.generation
            self._retained[generation] = snapshot
            self._retained.move_to_end(generation)
            while len(self._retained) > self._retain:
                self._retained.popitem(last=False)
            if generation > self._offered_generation:
                self._offered_generation = generation
            self._cond.notify_all()
        return generation

    def publish_rebuild(self, keys, **rebuild_kwargs) -> int:
        """Rebuild the builder service, then :meth:`publish` the result."""
        self._service.rebuild(keys, **rebuild_kwargs)
        return self.publish()

    def follower_states(self) -> List[Tuple[str, int]]:
        """(label, acknowledged generation) for every connected follower."""
        with self._cond:
            return [
                (state.label, state.generation)
                for state in self._followers.values()
            ]

    # ------------------------------------------------------------------ #
    # Follower connections
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._closed:
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed
            conn.settimeout(_SOCKET_TICK_SECONDS)
            thread = threading.Thread(
                target=self._serve_follower,
                args=(conn,),
                name=f"repl-ship-{self._label}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _pick_frame(self, state: _FollowerState, target) -> SnapshotDelta:
        """Choose delta-vs-full for one follower, under the condition lock."""
        base = None if state.force_full else self._retained.get(state.generation)
        if base is not None:
            try:
                return make_delta(
                    base, target.store, new_generation=target.generation
                )
            except ServiceError:
                pass  # geometry changed under the follower: fall through
        return full_snapshot(target.store, target.generation)

    def _serve_follower(self, conn: socket.socket) -> None:
        follower_id = next(self._next_follower_id)
        state: Optional[_FollowerState] = None
        try:
            msg_type, payload = _recv_message(conn, lambda: self._closed)
            if msg_type != MSG_HELLO:
                raise CodecError(f"expected HELLO, got message type {msg_type}")
            generation, label = _unpack_hello(payload)
            state = _FollowerState(label=label, generation=generation)
            lag_gauge = self._lag_family.labels(self._label, label)
            with self._cond:
                self._followers[follower_id] = state
            self._followers_gauge.inc()
            while True:
                with self._cond:
                    while not self._closed and (
                        self._offered_generation <= state.generation
                        or not self._retained
                    ):
                        self._cond.wait(_SOCKET_TICK_SECONDS)
                    if self._closed:
                        return
                    target = self._retained[next(reversed(self._retained))]
                    frame = self._pick_frame(state, target)
                encoded = encode_delta(frame)
                _send_message(conn, MSG_SNAPSHOT, encoded)
                if frame.kind == KIND_DELTA:
                    self._shipped_delta.inc()
                    self._bytes_delta.inc(len(encoded))
                else:
                    self._shipped_full.inc()
                    self._bytes_full.inc(len(encoded))
                msg_type, payload = _recv_message(conn, lambda: self._closed)
                if msg_type == MSG_ACK:
                    acked, _seconds = _unpack_ack(payload)
                    state.generation = acked
                    state.force_full = False
                elif msg_type == MSG_NACK:
                    current, _reason = _unpack_nack(payload)
                    state.generation = current
                    state.force_full = True
                else:
                    raise CodecError(
                        f"expected ACK/NACK, got message type {msg_type}"
                    )
                lag_gauge.set(
                    max(0, self._offered_generation - state.generation)
                )
        except (ConnectionError, CodecError, OSError):
            if not self._closed:
                self._ship_failures.inc()
        finally:
            if state is not None:
                with self._cond:
                    self._followers.pop(follower_id, None)
                self._followers_gauge.dec()
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            current = threading.current_thread()
            if current in self._threads:
                self._threads.remove(current)


# --------------------------------------------------------------------- #
# Follower side
# --------------------------------------------------------------------- #
class FollowerClient:
    """Keeps one follower service in sync with a :class:`BuilderPublisher`.

    A daemon thread connects, announces the generation of the follower's
    snapshot in ``HELLO``, and applies every snapshot frame the publisher
    ships — ACKing the installed generation (with the apply latency) or
    NACKing with the snapshot's generation when a frame cannot apply, which
    makes the publisher fall back to a full snapshot.  Connection failures
    retry with exponential backoff; after a reconnect the follower
    re-announces whatever snapshot it actually holds, so a crash-recovered
    process resyncs from its last committed state automatically.  A
    :class:`~repro.service.multiproc.ReplicaPool`'s snapshot leads the
    fleet's serving generation during a roll; :meth:`wait_for_generation`
    waits for the fleet.

    Args:
        service: The follower — a
            :class:`~repro.service.server.MembershipService` or
            :class:`~repro.service.multiproc.ReplicaPool` (RAM or disk
            mode; disk followers commit deltas incrementally).
        host, port: The publisher's listener address.
        label: Follower label sent in ``HELLO`` and used in metric children
            (default ``fol-<n>``).
        registry: Metrics registry for the ``repro_repl_*`` families.
        initial_backoff: First reconnect delay in seconds (doubles per
            consecutive failure).
        max_backoff: Reconnect delay ceiling in seconds.
    """

    def __init__(
        self,
        service,
        host: str,
        port: int,
        label: Optional[str] = None,
        registry: Optional[Registry] = None,
        initial_backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        if initial_backoff <= 0 or max_backoff < initial_backoff:
            raise ServiceError("need 0 < initial_backoff <= max_backoff")
        self._service = service
        self._host = host
        self._port = port
        self._label = label or f"fol-{next(_FOLLOWER_IDS)}"
        self._registry = registry if registry is not None else default_registry()
        self._initial_backoff = initial_backoff
        self._max_backoff = max_backoff
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        self._sock: Optional[socket.socket] = None
        self._cond = threading.Condition()
        self._reconnects = 0
        self._make_instruments()

    def _make_instruments(self) -> None:
        registry, label = self._registry, self._label
        applied = registry.counter(
            "repro_repl_deltas_applied_total",
            "Replication frames applied by this follower, by kind",
            ("follower", "kind"),
        )
        self._applied_delta = applied.labels(label, "delta")
        self._applied_full = applied.labels(label, "full")
        self._bytes_received = registry.counter(
            "repro_repl_bytes_received_total",
            "Encoded replication-frame bytes received",
            ("follower",),
        ).labels(label)
        self._apply_seconds = registry.histogram(
            "repro_repl_apply_seconds",
            "Wall-clock seconds from frame decode to snapshot swap",
            ("follower",),
        ).labels(label)
        self._stale = registry.counter(
            "repro_repl_stale_total",
            "Frames NACKed because they could not apply to the local base",
            ("follower",),
        ).labels(label)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "FollowerClient":
        """Start the sync thread (idempotent); returns self for chaining."""
        if self._closed:
            raise ServiceError("the follower client is closed")
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name=f"repl-follow-{self._label}", daemon=True
            )
            self._thread.start()
        return self

    def __enter__(self) -> "FollowerClient":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop syncing and drop the connection. Idempotent."""
        self._closed = True
        sock = self._sock
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    @property
    def generation(self) -> int:
        """The follower service's serving generation right now."""
        return self._service.generation

    @property
    def reconnects(self) -> int:
        """Completed reconnect attempts (0 while the first connection holds)."""
        return self._reconnects

    def wait_for_generation(self, generation: int, timeout: float = 30.0) -> bool:
        """Block until the follower serves ``generation`` (or newer).

        Returns ``True`` on success, ``False`` on timeout or close.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._service.generation < generation:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return self._service.generation >= generation
                self._cond.wait(min(remaining, _SOCKET_TICK_SECONDS))
        return True

    # ------------------------------------------------------------------ #
    # Sync loop
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        backoff = self._initial_backoff
        first = True
        while not self._closed:
            if not first:
                self._reconnects += 1
            first = False
            try:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=5.0
                )
            except OSError:
                self._sleep(backoff)
                backoff = min(backoff * 2, self._max_backoff)
                continue
            sock.settimeout(_SOCKET_TICK_SECONDS)
            self._sock = sock
            try:
                _send_message(
                    sock,
                    MSG_HELLO,
                    _pack_hello(self._base_generation(), self._label),
                )
                backoff = self._initial_backoff
                self._sync_loop(sock)
            except (ConnectionError, CodecError, OSError):
                pass  # reconnect below (with backoff)
            finally:
                self._sock = None
                try:
                    sock.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
            if not self._closed:
                self._sleep(backoff)
                backoff = min(backoff * 2, self._max_backoff)

    def _sync_loop(self, sock: socket.socket) -> None:
        while not self._closed:
            msg_type, payload = _recv_message(sock, lambda: self._closed)
            if msg_type != MSG_SNAPSHOT:
                raise CodecError(f"expected SNAPSHOT, got message type {msg_type}")
            self._bytes_received.inc(len(payload) + codec._HEADER.size + 4)
            start = time.perf_counter()
            try:
                delta = decode_delta(payload)
                generation = apply_to_service(self._service, delta)
            except (CodecError, ServiceError) as exc:
                # StaleBaseError included: report the real base generation
                # so the publisher re-bases (or falls back to a full frame).
                self._stale.inc()
                _send_message(
                    sock,
                    MSG_NACK,
                    _pack_nack(self._base_generation(), f"{type(exc).__name__}: {exc}"),
                )
                continue
            elapsed = time.perf_counter() - start
            self._apply_seconds.observe(elapsed)
            if delta.kind == KIND_DELTA:
                self._applied_delta.inc()
            else:
                self._applied_full.inc()
            with self._cond:
                self._cond.notify_all()
            _send_message(sock, MSG_ACK, _pack_ack(generation, elapsed))

    def _base_generation(self) -> int:
        """Generation of the snapshot a frame must apply to (0 before any).

        This is what ``apply_delta`` and ``install_snapshot`` check, so it is
        what ``HELLO`` and ``NACK`` announce.  A replica pool's snapshot moves
        before its fleet rolls, and stays ahead if a roll fails, so the
        pool's serving :attr:`generation` can trail this base; announcing
        that instead would make the publisher re-ship a full frame the base
        rejects as not moving forward, in a loop.
        """
        snapshot = self._service.snapshot
        return snapshot.generation if snapshot is not None else 0

    def _sleep(self, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while not self._closed:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, _SOCKET_TICK_SECONDS))
