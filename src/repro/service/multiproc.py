"""Multi-process serving tier: shared-memory shard store + replica dispatch.

One Python process saturates a single GIL-bound dispatch thread (~44k q/s in
``BENCH_async_serving.json``).  This module breaks that ceiling with a
:class:`ReplicaPool`: R worker processes each serve queries against the *same*
filter bytes, mapped once from a ``multiprocessing.shared_memory`` segment.

The pieces:

- :class:`SharedFrameArena` — the pool serializes a whole
  :class:`~repro.service.shards.ShardedFilterStore` into one codec frame laid
  out in a named shared-memory segment (the segment holds the frame and
  nothing else; each replica learns the generation from its load command).
  Replicas attach the segment and decode it with the codec's
  ``zero_copy=True`` path, so every decoded ``BitArray`` is a
  :meth:`~repro.core.bitarray.BitArray.view` over the mapping — R replicas
  pay for exactly one copy of the filter bytes.

- :class:`ReplicaPool` — a :class:`~repro.service.server.MembershipService`
  that spawns R replica processes, rolls them onto every generation it swaps
  in, and dispatches each micro-batch window to a free replica over a pipe.
  Plugged into :class:`~repro.service.aserve.AdaptiveMicroBatcher` (which
  reads the pool's ``dispatch_parallelism`` and keeps R windows in flight),
  the pool turns R cores into R concurrent engine dispatches behind one
  listener.  That dispatch is the only way a query reaches a replica, so
  the parent's registry and FPR estimator see every window, and only the
  parent builds generations.

Rebuilds stay generation-consistent across the fleet: the parent builds the
new store and swaps it in like any service, then, still under the swap
lock, publishes a fresh arena, acquires every replica (draining in-flight
windows), installs the new generation on each, and releases them — so
windows answered before the swap all carry generation G, windows after all
carry G+1, and no window ever mixes generations.  The old segment is unlinked
once every replica has detached.

Lifecycle safety: the arena owner registers a ``weakref.finalize`` (which
also runs at interpreter exit) that closes the mapping and unlinks the
segment, so a SIGKILL'd *replica* never leaks a segment — the parent owns the
name.  Attaching processes that run their own ``resource_tracker`` (spawn
start method) unregister the segment after mapping it, so a replica's tracker
can never unlink a segment the rest of the fleet still serves from
(Python < 3.13 has no ``track=False``).
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import queue
import time
import weakref
from multiprocessing import get_context, resource_tracker, shared_memory
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Optional, Sequence

from repro.errors import CodecError, ServiceError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.obs import Registry
from repro.service import codec
from repro.service.server import BatchAnswer, MembershipService
from repro.service.shards import ShardedFilterStore, _start_context

__all__ = ["SharedFrameArena", "ReplicaPool", "shared_mapping_memory"]

_ARENA_IDS = itertools.count(1)

#: How often a generation swap's drain checks for replicas that died.
_DRAIN_POLL_SECONDS = 0.05
#: Pause after a stats sweep hands back a replica it already asked, so it
#: does not spin on that token while the replicas it still needs are busy.
_STATS_RETRY_SECONDS = 0.001

#: Sticky per-process answer to "does this process share the arena owner's
#: resource tracker?".  Fork and forkserver children inherit the parent's
#: tracker pipe, so their attach registrations are idempotent set-adds that
#: the owner's ``unlink()`` later clears — they must NOT unregister (that
#: would strip the owner's crash protection).  A spawn child (or an unrelated
#: attaching process) lazily starts its *own* tracker on first use; that
#: tracker would unlink the segment when the child exits, so attach-side
#: registrations there must be withdrawn immediately.
_TRACKER_INHERITED: Optional[bool] = None


def _tracker_is_inherited() -> bool:
    global _TRACKER_INHERITED
    if _TRACKER_INHERITED is None:
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        _TRACKER_INHERITED = getattr(tracker, "_fd", None) is not None
    return _TRACKER_INHERITED


def _release_segment(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Close one process's mapping; the owner also removes the name.

    Runs from an explicit :meth:`SharedFrameArena.dispose`, from GC, or at
    interpreter exit (``weakref.finalize`` registers an atexit hook).  A
    ``BufferError`` means decoded filters still alias the mapping — the
    mapping then stays open (its pages vanish with the process) but the
    owner still unlinks the *name*, which is what leak checks observe.
    """
    with contextlib.suppress(BufferError):
        shm.close()
    if owner:
        with contextlib.suppress(FileNotFoundError):
            shm.unlink()


class SharedFrameArena:
    """One serving generation's codec frame in a named shared-memory segment.

    The segment holds the store's codec frame and nothing else: the frame's
    own header carries its magic, version and length, and a replica learns
    the generation from the command that names the segment.  The *owner*
    creates the segment with :meth:`publish` and is the only process that
    unlinks it; replicas :meth:`attach` by name and decode the frame
    zero-copy with :meth:`load_store`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        frame_bytes: int,
        owner: bool,
        generation: Optional[int] = None,
    ) -> None:
        self._shm = shm
        self._generation = generation
        self._frame_bytes = frame_bytes
        self._owner = owner
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    # ------------------------------------------------------------------ #
    # Creation
    # ------------------------------------------------------------------ #
    @classmethod
    def publish(
        cls,
        store: ShardedFilterStore,
        generation: int,
        name: Optional[str] = None,
    ) -> "SharedFrameArena":
        """Serialize ``store`` into a new owned segment; returns the arena."""
        if generation < 0:
            raise ServiceError(f"arena generation must be >= 0, got {generation}")
        frame = codec.dumps(store)
        if name is None:
            name = f"repro-arena-{os.getpid()}-{next(_ARENA_IDS)}-g{generation}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=len(frame))
        try:
            shm.buf[: len(frame)] = frame
        except Exception:
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
            raise
        return cls(shm, len(frame), owner=True, generation=generation)

    @classmethod
    def attach(cls, name: str) -> "SharedFrameArena":
        """Map an existing segment by name (non-owning)."""
        inherited = _tracker_is_inherited()
        shm = shared_memory.SharedMemory(name=name)
        if not inherited:
            with contextlib.suppress(Exception):
                resource_tracker.unregister(shm._name, "shared_memory")
        try:
            frame_bytes = codec._frame_length(shm.buf)
        except Exception:
            shm.close()
            raise
        return cls(shm, frame_bytes, owner=False)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The segment name replicas attach with."""
        return self._shm.name

    @property
    def generation(self) -> Optional[int]:
        """The generation the owner published (``None`` on the attaching
        side, which learns it from the command that names the segment)."""
        return self._generation

    @property
    def frame_bytes(self) -> int:
        """Size of the codec frame (the shared filter payload)."""
        return self._frame_bytes

    @property
    def size_bytes(self) -> int:
        """Total segment size (the frame, page-rounded on some platforms)."""
        return self._shm.size

    @property
    def owner(self) -> bool:
        """Whether this process created (and will unlink) the segment."""
        return self._owner

    def load_store(self) -> ShardedFilterStore:
        """Decode the frame zero-copy; the store aliases this mapping.

        The returned store (its ``BitArray`` payloads specifically) borrows
        the segment's buffer: drop every reference to it *before* calling
        :meth:`dispose`, or the mapping stays open until process exit.
        """
        view = self._shm.buf[: self._frame_bytes]
        store = codec.loads(view, zero_copy=True)
        if not isinstance(store, ShardedFilterStore):
            raise CodecError(
                f"arena frame decodes to {type(store).__name__}, expected a "
                "ShardedFilterStore"
            )
        return store

    def dispose(self) -> None:
        """Release the mapping now (owner: also unlink). Idempotent."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self._owner else "replica"
        return (
            f"SharedFrameArena(name={self.name!r}, generation={self._generation}, "
            f"frame_bytes={self._frame_bytes}, {role})"
        )


def shared_mapping_memory(pid: int, segment_name: str) -> Optional[Dict[str, int]]:
    """Memory accounting for one process's mapping of a named segment.

    Parses ``/proc/<pid>/smaps`` (Linux only; returns ``None`` elsewhere or
    when the mapping is absent) and sums the kernel's per-mapping counters
    for every range whose backing file matches ``segment_name``.  Returns
    bytes: ``rss`` (resident, includes pages shared with other mappers),
    ``pss`` (resident divided by the number of mappers — the fair share),
    ``private`` (pages only this process has — for a read-only filter
    mapping this should stay ~0, which is exactly the "R replicas pay for
    one copy" claim the multiproc benchmark asserts), and ``shared``.
    """
    try:
        with open(f"/proc/{pid}/smaps", "r", encoding="ascii", errors="replace") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    totals = {"rss": 0, "pss": 0, "private": 0, "shared": 0}
    found = False
    collecting = False
    fields = {
        "Rss:": "rss",
        "Pss:": "pss",
        "Private_Clean:": "private",
        "Private_Dirty:": "private",
        "Shared_Clean:": "shared",
        "Shared_Dirty:": "shared",
    }
    for line in lines:
        head = line.split(None, 1)[0] if line else ""
        if head not in fields and "-" in head:
            # A new mapping header line ("addr-addr perms offset dev inode path").
            collecting = segment_name in line
            found = found or collecting
            continue
        if collecting and head in fields:
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                totals[fields[head]] += int(parts[1]) * 1024
    return totals if found else None


# --------------------------------------------------------------------- #
# Replica worker process
# --------------------------------------------------------------------- #
def _pack_verdicts(verdicts: List[bool]):
    """Verdicts -> a compact wire payload (packed bitmap with numpy)."""
    np = vec.numpy_or_none()
    if np is None:
        return list(verdicts)
    return np.packbits(np.asarray(verdicts, dtype=bool)).tobytes()


def _unpack_verdicts(payload, count: int) -> List[bool]:
    if isinstance(payload, list):
        return payload
    np = vec.numpy_or_none()
    if np is None:  # pragma: no cover - replica has numpy, parent does not
        bits = []
        for byte in payload:
            for offset in range(7, -1, -1):
                bits.append(bool((byte >> offset) & 1))
        return bits[:count]
    return (
        np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count)
        .astype(bool)
        .tolist()
    )


def _replica_main(conn, index: int, max_batch_size: int) -> None:
    """Entry point of one replica process: serve commands from ``conn``.

    Commands are processed strictly in order, which is what makes the
    generation guarantee compositional: a ``("load", ...)`` command can never
    overtake or interleave with a ``("query", ...)`` window, so every window
    is answered entirely from one installed snapshot.
    """
    from repro.service.diskstore import DiskShardStore

    registry = Registry()
    service = MembershipService(registry=registry, max_batch_size=max_batch_size)
    arena: Optional[SharedFrameArena] = None
    disk: Optional[DiskShardStore] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        try:
            if kind == "query":
                answer = service.query_batch(message[1])
                conn.send(
                    (
                        "answer",
                        answer.generation,
                        len(answer.verdicts),
                        int(sum(answer.verdicts)),
                        _pack_verdicts(answer.verdicts),
                        answer.elapsed_seconds,
                    )
                )
            elif kind == "load":
                new_arena = SharedFrameArena.attach(message[1])
                store = new_arena.load_store()
                service.install_snapshot(store, generation=message[2])
                del store
                if arena is not None:
                    # The old snapshot died with the install; collect any
                    # stragglers so the old mapping's views are released.
                    gc.collect()
                    arena.dispose()
                arena = new_arena
                conn.send(("loaded", message[2]))
            elif kind == "load_disk":
                # Disk-tier roll: every replica maps the same committed page
                # file (cleanup=False — the pool owns orphan sweeping),
                # so the kernel page cache is the fleet's shared copy.
                new_disk = DiskShardStore.open(
                    message[1],
                    cache_budget=message[3],
                    registry=registry,
                    cleanup=False,
                )
                if new_disk.generation != message[2]:
                    generation = new_disk.generation
                    new_disk.close()
                    raise ServiceError(
                        f"disk store serves generation {generation}, "
                        f"expected {message[2]}"
                    )
                service.install_snapshot(
                    new_disk.serving_store(), generation=message[2]
                )
                if disk is not None:
                    gc.collect()
                    disk.close()
                disk = new_disk
                conn.send(("loaded", message[2]))
            elif kind == "stats":
                stats = service.stats()
                conn.send(
                    (
                        "stats",
                        {
                            "replica": index,
                            "pid": os.getpid(),
                            "generation": stats.generation,
                            "queries": stats.queries,
                            "batches": stats.batches,
                            "positives": stats.positives,
                            "rss_bytes": stats.rss_bytes,
                        },
                    )
                )
            elif kind == "stop":
                conn.send(("stopped", index))
                break
            else:
                conn.send(("error", f"unknown command {kind!r}"))
        except Exception as exc:
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except Exception:
                break
    with contextlib.suppress(Exception):
        service._snapshot = None
        gc.collect()
        if arena is not None:
            arena.dispose()
        if disk is not None:
            disk.close()
    with contextlib.suppress(Exception):
        conn.close()


class _Replica:
    """Parent-side handle for one replica process."""

    __slots__ = ("index", "process", "conn")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn


def _recv(conn, timeout: float, what: str):
    try:
        if not conn.poll(timeout):
            raise ServiceError(f"timed out after {timeout:g}s waiting for {what}")
        return conn.recv()
    except (EOFError, OSError) as exc:
        raise ServiceError(f"replica died while answering {what}") from exc


class ReplicaPool(MembershipService):
    """A :class:`MembershipService` whose queries R replica processes answer.

    The pool differs from a service in two places.  Its swap, the last step
    of :meth:`load`, :meth:`rebuild`, :meth:`install_snapshot`,
    :meth:`apply_snapshot_delta` and :meth:`open_store`, also rolls every
    replica onto the new generation; and :meth:`query_batch` sends each
    window to a free replica over a pipe.  Builds (incremental and adaptive
    rebuilds included), the disk tier, the registry, the FPR estimator and
    :meth:`stats` run the service's own code in the parent, which answers
    no query itself.  Plug a pool straight into
    :class:`~repro.service.aserve.AdaptiveMicroBatcher` or
    :class:`~repro.service.aserve.AsyncMembershipServer` and the batcher
    keeps ``replicas`` windows in flight (it reads
    :attr:`dispatch_parallelism`).

    The roll drains in-flight windows before any replica installs the new
    generation, so the window stream observes generations in monotone
    order and no window mixes two.  :attr:`snapshot`, which replication
    diffs against, moves first; :attr:`generation` reports the generation
    every replica acked.  Replicas answer from their own store copies, so
    with an estimator or adaptive policy attached the parent feeds every
    window back into the snapshot's per-shard counters and the estimator;
    without one, ``stats().shards`` reports build-time facts and
    :meth:`stats_by_replica` asks the replicas themselves.

    Args:
        replicas: Worker process count (the pool's dispatch parallelism).
        request_timeout: Seconds to wait for a free replica, and for a
            replica's answer to a window or a stats request.
        load_timeout: Seconds to wait for a replica to install a generation.
        start_method: Override the multiprocessing start method (default:
            fork while single-threaded, else forkserver, else spawn).
        options: Every :class:`MembershipService` argument, with the same
            meaning.  The pool's metric children carry
            ``service="pool-<n>"``, and the ``repro_replica_*`` families
            add one child per replica.  With ``store_path`` the replicas
            serve by mapping the same committed page file instead of a
            shared-memory arena, so the kernel page cache is the fleet's
            one copy of the filter bytes; ``cache_budget`` then bounds each
            replica's decoded shards as well as the parent's.
    """

    _LABEL_PREFIX = "pool"

    def __init__(
        self,
        replicas: int = 4,
        *,
        request_timeout: float = 30.0,
        load_timeout: float = 120.0,
        start_method: Optional[str] = None,
        **options,
    ) -> None:
        if replicas < 1:
            raise ServiceError("a replica pool needs at least 1 replica")
        self._replica_count = replicas
        self._request_timeout = request_timeout
        self._load_timeout = load_timeout
        self._start_method = start_method
        self._replicas: List[_Replica] = []
        self._free: "queue.Queue[_Replica]" = queue.Queue()
        self._arena: Optional[SharedFrameArena] = None
        #: Generation every surviving replica acked at the last completed
        #: roll; the snapshot moves first, so its generation can run ahead.
        self._fleet_generation = 0
        self._closed = False
        super().__init__(**options)

    def _make_instruments(self) -> None:
        """The service's children plus one child per replica in each
        ``repro_replica_*`` family."""
        super()._make_instruments()
        registry, label = self._registry, self._obs_label
        count = self._replica_count
        windows = registry.counter(
            "repro_replica_windows_total",
            "Micro-batch windows dispatched to each replica",
            ("pool", "replica"),
        )
        keys = registry.counter(
            "repro_replica_keys_total",
            "Keys answered by each replica",
            ("pool", "replica"),
        )
        positives = registry.counter(
            "repro_replica_positives_total",
            "Verdicts answered present by each replica",
            ("pool", "replica"),
        )
        dispatch = registry.histogram(
            "repro_replica_dispatch_seconds",
            "Round-trip time of one window through a replica (pipe + engine)",
            ("pool", "replica"),
        )
        self._replica_windows = [windows.labels(label, str(i)) for i in range(count)]
        self._replica_keys = [keys.labels(label, str(i)) for i in range(count)]
        self._replica_positives = [positives.labels(label, str(i)) for i in range(count)]
        self._replica_dispatch = [dispatch.labels(label, str(i)) for i in range(count)]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _spawn(self) -> None:
        context = (
            _start_context()
            if self._start_method is None
            else get_context(self._start_method)
        )
        for index in range(self._replica_count):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_replica_main,
                args=(child_conn, index, self._max_batch_size),
                name=f"repro-replica-{index}",
                daemon=True,
            )
            process.start()
            # Close the parent's copy of the child end so a dead replica
            # surfaces as EOF instead of a hang.
            child_conn.close()
            self._replicas.append(_Replica(index, process, parent_conn))

    def _reap_dead(self) -> None:
        """Drop replicas whose process died (e.g. SIGKILL) from the fleet.

        A dead replica can never hand its free-queue token back, so leaving
        it in ``self._replicas`` would wedge the next generation swap's
        drain.  Reaping shrinks the fleet to the survivors; a later swap
        rolls exactly those (and respawns a full fleet only if none are
        left).  Stale free-queue tokens for reaped replicas are skipped at
        acquisition time.
        """
        if all(replica.process.is_alive() for replica in self._replicas):
            return
        survivors = []
        for replica in self._replicas:
            if replica.process.is_alive():
                survivors.append(replica)
                continue
            replica.process.join(timeout=0)
            with contextlib.suppress(Exception):
                replica.conn.close()
        self._replicas = survivors

    def _drop_free_tokens(self) -> None:
        while True:
            try:
                self._free.get_nowait()
            except queue.Empty:
                return

    def _acquire_all(self) -> List[_Replica]:
        """Drain the free queue: returns once no window is in flight.

        Waits only for live replicas, reaping any that die meanwhile (a dead
        one never returns its token), then drops the stale tokens left in
        the queue.  Fails at once when none survive; the next swap respawns.
        """
        held: List[_Replica] = []
        deadline = time.monotonic() + self._request_timeout
        while True:
            self._reap_dead()
            held = [replica for replica in held if replica in self._replicas]
            if len(held) == len(self._replicas):
                self._drop_free_tokens()
                if not held:
                    raise ServiceError("every replica died before the generation swap")
                return held
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for replica in held:
                    self._free.put(replica)
                raise ServiceError(
                    "timed out draining in-flight windows before a generation swap"
                )
            try:
                replica = self._free.get(timeout=min(remaining, _DRAIN_POLL_SECONDS))
            except queue.Empty:
                continue
            if replica in self._replicas:  # else a stale token of a reaped one
                held.append(replica)

    def _exchange(
        self,
        held: Sequence[_Replica],
        command: tuple,
        kind: str,
        timeout: float,
        what: str,
    ) -> List[tuple]:
        """Send ``command`` to every held replica and read the reply each
        owes; returns their ``kind`` replies in order.

        A replica goes back on the free queue only once its reply has been
        read, so no later command can take an earlier command's reply for
        its own.  An ``("error", ...)`` reply is in protocol: that replica
        goes back, and the error is raised once every reply is read.  A
        replica whose reply times out (``timeout`` seconds each) or breaks
        the protocol is killed instead, since it would answer the next
        command with the old reply; one that died stays off the queue until
        :meth:`_reap_dead` drops it.
        """
        try:
            payload = ForkingPickler.dumps(command)
        except Exception:
            for replica in held:
                self._free.put(replica)
            raise
        for replica in held:
            with contextlib.suppress(OSError):  # a dead replica reads as EOF below
                replica.conn.send_bytes(payload)
        replies: List[tuple] = []
        failures: List[ServiceError] = []
        for replica in held:
            label = f"{what} on replica {replica.index}"
            try:
                reply = _recv(replica.conn, timeout, label)
                if reply[0] not in (kind, "error"):
                    raise ServiceError(
                        f"replica protocol violation during {label}: expected "
                        f"{kind!r}, got {reply[0]!r}"
                    )
            except ServiceError as exc:
                replica.process.kill()
                replica.process.join(timeout)
                failures.append(exc)
                continue
            self._free.put(replica)
            if reply[0] == "error":
                failures.append(ServiceError(f"replica error during {label}: {reply[1]}"))
            else:
                replies.append(reply)
        if failures:
            raise failures[0]
        return replies

    # ------------------------------------------------------------------ #
    # The roll
    # ------------------------------------------------------------------ #
    def _swap(
        self,
        generation: int,
        store: ShardedFilterStore,
        num_keys: int,
        build_params: Optional[tuple] = None,
    ) -> None:
        """Serve the new snapshot, then roll every replica onto it.

        Caller holds ``_swap_lock`` and, in disk mode, has committed the
        generation.  The roll reaps dead replicas, publishes the store as a
        new arena (in disk mode each replica reopens the committed page
        file instead), drains in-flight windows, installs the generation on
        every survivor, records it as :attr:`generation` and retires the
        previous arena.  A fleet with no survivors respawns in full.  A
        failed roll leaves :attr:`generation` at the last generation every
        replica acked, behind :attr:`snapshot`; the next swap rolls again.
        """
        if self._closed:
            raise ServiceError("the replica pool is closed")
        super()._swap(generation, store, num_keys, build_params)
        self._reap_dead()
        if self._store_path is None:
            arena = SharedFrameArena.publish(store, generation)
            command = ("load", arena.name, generation)
        else:
            arena = None
            command = ("load_disk", str(self._store_path), generation, self._cache_budget)
        try:
            if not self._replicas:
                self._spawn()
                held = list(self._replicas)
            else:
                held = self._acquire_all()
            self._exchange(
                held, command, "loaded", self._load_timeout,
                f"generation {generation} install",
            )
        except Exception:
            if arena is not None:
                arena.dispose()
            raise
        self._fleet_generation = generation
        self._generation_gauge.set(generation)
        previous, self._arena = self._arena, arena
        if previous is not None:
            # Every replica detached the old mapping before acking, so
            # the owner can drop the name; pages die with the mappings.
            previous.dispose()

    def close(self, timeout: float = 10.0) -> None:
        """Stop every replica and release the arena and the disk tier.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        for replica in self._replicas:
            with contextlib.suppress(Exception):
                replica.conn.send(("stop",))
        for replica in self._replicas:
            with contextlib.suppress(Exception):
                if replica.conn.poll(timeout):
                    replica.conn.recv()
            replica.process.join(timeout=timeout)
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(timeout=timeout)
            with contextlib.suppress(Exception):
                replica.conn.close()
        self._replicas = []
        self._drop_free_tokens()
        if self._arena is not None:
            self._arena.dispose()
            self._arena = None
        if self._disk is not None:
            self._disk.close()

    # ------------------------------------------------------------------ #
    # Query dispatch (thread-safe; called from the batcher's executor)
    # ------------------------------------------------------------------ #
    def query_batch(self, keys: "vec.BatchLike") -> BatchAnswer:
        """Dispatch one window to a free replica; returns its answer.

        Thread-safe: the free-queue hands each concurrent caller its own
        replica, so R batcher dispatch threads drive R replicas in parallel.
        The reported generation is whatever snapshot the replica served —
        one generation per window, by construction.  The window counts in
        the pool's ``repro_service_*`` children and in its replica's
        ``repro_replica_*`` children.
        """
        raw = list(keys.keys) if isinstance(keys, vec.KeyBatch) else list(keys)
        if not raw or len(raw) > self._max_batch_size:
            self._rejected_batches.inc()
            raise ServiceError(
                f"batch of {len(raw)} keys rejected; accepted sizes are "
                f"1..{self._max_batch_size}"
            )
        if self._closed:
            raise ServiceError("the replica pool is closed")
        if not self._replicas:
            raise ServiceError("the pool has no snapshot yet; call load() first")
        try:
            replica = self._free.get(timeout=self._request_timeout)
        except queue.Empty:
            raise ServiceError(
                f"no replica became free within {self._request_timeout:g}s"
            ) from None
        start = time.perf_counter()
        (reply,) = self._exchange(
            [replica], ("query", raw), "answer", self._request_timeout,
            f"window of {len(raw)} keys",
        )
        elapsed = time.perf_counter() - start
        _tag, generation, count, positives, payload, _engine_seconds = reply
        verdicts = _unpack_verdicts(payload, count)
        index = replica.index
        self._replica_windows[index].inc()
        self._replica_keys[index].inc(count)
        self._batches.inc()
        self._queries.inc(count)
        if positives:
            self._replica_positives[index].inc(positives)
            self._positives.inc(positives)
        self._replica_dispatch[index].observe(elapsed)
        self._query_seconds.observe(elapsed / max(count, 1))
        # Replicas answer from their own store copies, so the snapshot's
        # per-shard counters (the adaptive scorer's traffic evidence) and
        # the FPR estimator only see this window if the parent feeds it
        # back.  One router pass serves both.
        estimator = self._fpr
        if estimator is not None or self._adaptive is not None:
            snapshot = self._snapshot
            if snapshot is not None:
                window = keys if isinstance(keys, vec.KeyBatch) else raw
                shards = snapshot.store.record_shard_traffic(window, verdicts)
                if positives and estimator is not None and estimator.active:
                    estimator.observe_batch(
                        raw, verdicts, snapshot.store.shard_of, shards=shards
                    )
        return BatchAnswer(
            verdicts=verdicts, generation=generation, elapsed_seconds=elapsed
        )

    def query(self, key: Key) -> bool:
        """Single-key convenience (a one-key window; prefer batches)."""
        return self.query_batch([key]).verdicts[0]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """Generation every replica has acked (0 before the first load).

        The swap moves :attr:`snapshot` first and rolls the fleet after, so
        this lags it during a roll, and after a failed one, rather than
        reporting a generation that windows may not be answered by yet.
        """
        return self._fleet_generation

    @property
    def dispatch_parallelism(self) -> int:
        """Windows the front-end should keep in flight (= replica count)."""
        return self._replica_count

    @property
    def arena(self) -> Optional[SharedFrameArena]:
        """The currently published arena (``None`` before the first load,
        and always ``None`` in disk mode)."""
        return self._arena

    @property
    def replica_pids(self) -> List[int]:
        """PIDs of the live replica processes (for memory accounting)."""
        return [
            replica.process.pid
            for replica in self._replicas
            if replica.process.pid is not None
        ]

    def stats_by_replica(self) -> List[dict]:
        """One report per live replica, in index order, over the control
        channel: the generation each replica installed and what it served.

        Holds at most one replica at a time and none while waiting (a
        concurrent swap drains the same free queue), handing back at once
        the token of a replica already asked.  Raises
        :class:`~repro.errors.ServiceError` when a live replica stays busy
        for ``request_timeout``.  A replica that dies while answering, or
        is killed because its answer timed out, is skipped like any dead
        replica.
        """
        if self._closed:
            return []
        reports: Dict[int, dict] = {}
        deadline = time.monotonic() + self._request_timeout
        while True:
            wanted = [
                replica
                for replica in self._replicas
                if replica.index not in reports and replica.process.is_alive()
            ]
            if not wanted:
                return [reports[index] for index in sorted(reports)]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out after {self._request_timeout:g}s waiting for "
                    f"replicas {[replica.index for replica in wanted]} to report stats"
                )
            try:
                replica = self._free.get(timeout=min(remaining, _DRAIN_POLL_SECONDS))
            except queue.Empty:
                continue  # re-check liveness: a dead replica never frees
            if replica not in wanted:
                if replica.process.is_alive():  # else a stale token; drop it
                    self._free.put(replica)
                    time.sleep(_STATS_RETRY_SECONDS)
                continue
            try:
                (reply,) = self._exchange(
                    [replica], ("stats",), "stats", self._request_timeout, "stats"
                )
            except ServiceError:
                if replica.process.is_alive():
                    raise
                continue
            reports[replica.index] = reply[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaPool(replicas={self._replica_count}, "
            f"generation={self.generation}, closed={self._closed})"
        )
