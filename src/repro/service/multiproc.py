"""Multi-process serving tier: shared-memory shard store + replica dispatch.

One Python process saturates a single GIL-bound dispatch thread (~44k q/s in
``BENCH_async_serving.json``).  This module breaks that ceiling with a
:class:`ReplicaPool`: R worker processes each serve queries against the *same*
filter bytes, mapped once from a ``multiprocessing.shared_memory`` segment.

The pieces:

- :class:`SharedFrameArena` — the builder serializes a whole
  :class:`~repro.service.shards.ShardedFilterStore` into one codec frame laid
  out in a named shared-memory segment (a small header carries the
  generation).  Replicas attach the segment and decode it with the codec's
  ``zero_copy=True`` path, so every decoded ``BitArray`` is a
  :meth:`~repro.core.bitarray.BitArray.view` over the mapping — R replicas
  pay for exactly one copy of the filter bytes.

- :class:`ReplicaPool` — spawns R replica processes, duck-types the service
  surface the asyncio front-end needs (``query_batch`` / ``generation`` /
  ``stats`` / ``max_batch_size`` / ``registry``), and dispatches each
  micro-batch window to a free replica over a pipe.  Plugged into
  :class:`~repro.service.aserve.AdaptiveMicroBatcher` (which reads the pool's
  ``dispatch_parallelism`` and keeps R windows in flight), the pool turns R
  cores into R concurrent engine dispatches behind one listener.

- ``SO_REUSEPORT`` mode — :meth:`ReplicaPool.start_reuseport` has every
  replica run its own :class:`~repro.service.aserve.AsyncMembershipServer`
  listening on one shared port; the kernel load-balances accepted
  connections, removing the front-end process from the data path entirely.

Rebuilds stay generation-consistent across the fleet: the parent builds the
new store, publishes a fresh arena, then acquires every replica (draining
in-flight windows), installs the new generation on each, and releases them —
so windows answered before the swap all carry generation G, windows after all
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

import asyncio
import contextlib
import gc
import itertools
import os
import queue
import socket
import struct
import threading
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CodecError, ServiceError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.metrics.timing import latency_percentiles
from repro.obs import CollectedFamily, FprEstimator, Registry, Sample, default_registry
from repro.service import codec
from repro.service.adaptive import AdaptivePolicy
from repro.service.backends import BackendSpec
from repro.service.server import BatchAnswer, MembershipService
from repro.service.shards import ShardedFilterStore
from repro.service.stats import LatencyWindow, ServiceStats

__all__ = ["SharedFrameArena", "ReplicaPool", "shared_mapping_memory"]

_ARENA_IDS = itertools.count(1)
_POOL_IDS = itertools.count(1)

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

    Layout: a 24-byte header (``magic "ARNA" | version | generation u64 |
    frame length u64``) followed by the store's codec frame.  The *owner*
    (builder) creates the segment with :meth:`publish` and is the only
    process that unlinks it; replicas :meth:`attach` by name and decode the
    frame zero-copy with :meth:`load_store`.
    """

    MAGIC = b"ARNA"
    VERSION = 1
    _HEADER = struct.Struct(">4sBxxxQQ")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        generation: int,
        frame_bytes: int,
        owner: bool,
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
        total = cls._HEADER.size + len(frame)
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        try:
            shm.buf[: cls._HEADER.size] = cls._HEADER.pack(
                cls.MAGIC, cls.VERSION, generation, len(frame)
            )
            shm.buf[cls._HEADER.size : total] = frame
        except Exception:
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
            raise
        return cls(shm, generation=generation, frame_bytes=len(frame), owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedFrameArena":
        """Map an existing segment by name (non-owning)."""
        inherited = _tracker_is_inherited()
        shm = shared_memory.SharedMemory(name=name)
        if not inherited:
            with contextlib.suppress(Exception):
                resource_tracker.unregister(shm._name, "shared_memory")
        try:
            if shm.size < cls._HEADER.size:
                raise CodecError(
                    f"segment {name!r} is {shm.size} bytes, smaller than the "
                    f"{cls._HEADER.size}-byte arena header"
                )
            magic, version, generation, frame_bytes = cls._HEADER.unpack_from(shm.buf)
            if magic != cls.MAGIC:
                raise CodecError(f"bad arena magic {bytes(magic)!r} in segment {name!r}")
            if version != cls.VERSION:
                raise CodecError(f"unsupported arena version {version}")
            if cls._HEADER.size + frame_bytes > shm.size:
                raise CodecError(
                    f"arena header declares {frame_bytes} frame bytes but the "
                    f"segment holds only {shm.size - cls._HEADER.size}"
                )
        except Exception:
            shm.close()
            raise
        return cls(shm, generation=generation, frame_bytes=frame_bytes, owner=False)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The segment name replicas attach with."""
        return self._shm.name

    @property
    def generation(self) -> int:
        """The builder generation this arena carries."""
        return self._generation

    @property
    def frame_bytes(self) -> int:
        """Size of the codec frame (the shared filter payload)."""
        return self._frame_bytes

    @property
    def size_bytes(self) -> int:
        """Total segment size (header + frame, page-rounded by the kernel)."""
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
        view = self._shm.buf[self._HEADER.size : self._HEADER.size + self._frame_bytes]
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
class _ReuseportRunner:
    """A replica-local asyncio server thread for the ``SO_REUSEPORT`` mode."""

    def __init__(self, service, host: str, port: int, opts: dict) -> None:
        self._ready = threading.Event()
        self._error: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None
        self._thread = threading.Thread(
            target=self._run,
            args=(service, host, port, opts),
            name="repro-reuseport",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServiceError("reuseport listener did not start within 30s")
        if self._error is not None:
            raise ServiceError(f"reuseport listener failed: {self._error}")

    def _run(self, service, host: str, port: int, opts: dict) -> None:
        try:
            asyncio.run(self._serve(service, host, port, opts))
        except Exception as exc:  # pragma: no cover - propagated via _error
            self._error = f"{type(exc).__name__}: {exc}"
            self._ready.set()

    async def _serve(self, service, host: str, port: int, opts: dict) -> None:
        from repro.service.aserve import AsyncMembershipServer

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            async with AsyncMembershipServer(service, **opts) as server:
                _host, bound = await server.start_tcp(host, port, reuse_port=True)
                self.port = bound
                self._ready.set()
                await self._stop_event.wait()
        except Exception as exc:
            self._error = f"{type(exc).__name__}: {exc}"
            self._ready.set()

    def stop(self, timeout: float = 10.0) -> None:
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(event.set)
        self._thread.join(timeout=timeout)


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
    runner: Optional[_ReuseportRunner] = None
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
                # file (cleanup=False — the builder owns orphan sweeping),
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
            elif kind == "listen":
                if runner is not None:
                    raise ServiceError("replica is already listening")
                runner = _ReuseportRunner(service, message[1], message[2], message[3])
                conn.send(("listening", runner.port))
            elif kind == "ping":
                conn.send(("pong", index))
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
    if runner is not None:
        runner.stop()
    with contextlib.suppress(Exception):
        service._snapshot = None
        gc.collect()
        if arena is not None:
            arena.dispose()
        if disk is not None:
            disk.close()
    with contextlib.suppress(Exception):
        conn.close()


def _mp_context():
    """Start-method policy, same reasoning as ``shards._process_pool``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()  # pragma: no cover - Windows


class _Replica:
    """Parent-side handle for one replica process."""

    __slots__ = ("index", "process", "conn")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn


def _recv(conn, timeout: float, what: str):
    if not conn.poll(timeout):
        raise ServiceError(f"timed out after {timeout:.0f}s waiting for {what}")
    try:
        return conn.recv()
    except (EOFError, OSError) as exc:
        raise ServiceError(f"replica died while answering {what}") from exc


def _expect(conn, kind: str, timeout: float, what: str):
    reply = _recv(conn, timeout, what)
    if reply[0] == "error":
        raise ServiceError(f"replica error during {what}: {reply[1]}")
    if reply[0] != kind:
        raise ServiceError(f"replica protocol violation: expected {kind!r}, got {reply[0]!r}")
    return reply


class ReplicaPool:
    """R replica processes serving one shared-memory filter store.

    Duck-types the service surface of
    :class:`~repro.service.server.MembershipService` that the asyncio
    front-end consumes — plug a pool straight into
    :class:`~repro.service.aserve.AdaptiveMicroBatcher` or
    :class:`~repro.service.aserve.AsyncMembershipServer` and the batcher
    keeps ``replicas`` windows in flight (it reads
    :attr:`dispatch_parallelism`).

    The parent holds the *builder* (a private :class:`MembershipService`
    that never serves queries): :meth:`load` / :meth:`rebuild` build a store
    in the parent (incremental rebuilds included), publish it as a
    :class:`SharedFrameArena`, and roll every replica onto the new
    generation atomically — in-flight windows drain first, so the window
    stream observes generations in monotone order and no window mixes two.

    Args:
        replicas: Worker process count (the pool's dispatch parallelism).
        backend: Filter backend, as for :class:`MembershipService`.
        num_shards: Shards per generation.
        max_batch_size: Largest window :meth:`query_batch` accepts.
        router_seed: Shard-router seed (stable across generations).
        build_workers: Default parallelism for builds/rebuilds.
        registry: Metrics registry; per-replica dispatch counters live here
            and a scrape-time collector re-exports the service families
            (``repro_service_queries_total`` etc.) with a ``replica`` label,
            so one ``GET /metrics`` on the front-end aggregates the fleet.
        request_timeout: Seconds to wait for a replica's window answer.
        load_timeout: Seconds to wait for a replica to install a generation.
        start_method: Override the multiprocessing start method (default:
            fork while single-threaded, else forkserver, else spawn).
        fpr_estimator: An optional :class:`~repro.obs.FprEstimator`,
            attached to the parent-side builder.  Replicas answer the
            queries, so the parent feeds each dispatched window back into
            the estimator (and the builder store's per-shard counters) —
            the same live evidence the single-process service collects.
        adaptive_policy: An optional
            :class:`~repro.service.adaptive.AdaptivePolicy` on the builder;
            adaptive migrations then ride :meth:`rebuild`'s drain-then-roll
            swap, keeping the fleet's generation stream atomic.
        store_path: When set, generations persist through the builder's
            :class:`~repro.service.diskstore.DiskShardStore` and replicas
            serve by mapping the *same* page file instead of attaching a
            shared-memory arena — the kernel page cache becomes the fleet's
            one copy of the filter bytes, and it survives restarts.
        cache_budget: Per-replica byte budget for decoded hot shards in
            disk mode (``None`` = unbounded, ``0`` = always cold).
        backend_kwargs: Forwarded to the backend factory.
    """

    def __init__(
        self,
        replicas: int = 4,
        backend: BackendSpec = "habf",
        num_shards: int = 4,
        max_batch_size: int = 65536,
        router_seed: int = 0,
        build_workers: Optional[int] = None,
        registry: Optional[Registry] = None,
        request_timeout: float = 30.0,
        load_timeout: float = 120.0,
        start_method: Optional[str] = None,
        fpr_estimator: Optional[FprEstimator] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
        store_path=None,
        cache_budget: Optional[int] = None,
        **backend_kwargs,
    ) -> None:
        if replicas < 1:
            raise ServiceError("a replica pool needs at least 1 replica")
        self._num_replicas = replicas
        self._store_path = store_path
        self._cache_budget = cache_budget
        self._max_batch_size = max_batch_size
        self._request_timeout = request_timeout
        self._load_timeout = load_timeout
        self._start_method = start_method
        self._registry = registry if registry is not None else default_registry()
        self._builder = MembershipService(
            backend=backend,
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            router_seed=router_seed,
            build_workers=build_workers,
            registry=self._registry,
            fpr_estimator=fpr_estimator,
            adaptive_policy=adaptive_policy,
            store_path=store_path,
            cache_budget=cache_budget,
            **backend_kwargs,
        )
        self._replicas: List[_Replica] = []
        self._free: "queue.Queue[_Replica]" = queue.Queue()
        self._arena: Optional[SharedFrameArena] = None
        #: Generation every surviving replica acked at the last completed
        #: roll; the builder moves first, so its generation can run ahead.
        self._fleet_generation = 0
        self._reuseport_socket: Optional[socket.socket] = None
        self._closed = False
        self._swap_lock = threading.Lock()
        self._latency = LatencyWindow(4096)
        self._obs_label = f"pool-{next(_POOL_IDS)}"
        self._make_instruments()
        self._registry.add_collector(self._collect_replica_families)

    def _make_instruments(self) -> None:
        registry, label = self._registry, self._obs_label
        count = self._num_replicas
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
        self._rejected = registry.counter(
            "repro_service_rejected_batches_total",
            "Batch calls refused (empty or oversized)",
            ("service",),
        ).labels(label)
        # The builder's own child reports the generation it built; the
        # pool's child reports the one its fleet serves (see ``generation``).
        self._generation_gauge = registry.gauge(
            "repro_service_generation",
            "Generation currently serving (0 before the first load)",
            ("service",),
        ).labels(label)

    def _collect_replica_families(self) -> List[CollectedFamily]:
        """Scrape-time per-replica view on the *existing* service families.

        The front-end's ``GET /metrics`` thereby aggregates the whole fleet:
        ``repro_service_queries_total{service="pool-1",replica="2"}`` sits
        next to the single-process ``service="svc-N"`` children, and the
        per-replica split is the parent's own dispatch accounting (no IPC at
        scrape time).
        """
        base = (("service", self._obs_label),)

        def family(name: str, help_text: str, children) -> CollectedFamily:
            return CollectedFamily(
                name=name,
                kind="counter",
                help=help_text,
                samples=tuple(
                    Sample("", base + (("replica", str(i)),), float(child.value))
                    for i, child in enumerate(children)
                ),
            )

        return [
            family(
                "repro_service_queries_total",
                "Keys tested, scalar and batch combined",
                self._replica_keys,
            ),
            family(
                "repro_service_batches_total",
                "query_many/query_batch calls accepted",
                self._replica_windows,
            ),
            family(
                "repro_service_positives_total",
                "Membership tests answered present",
                self._replica_positives,
            ),
        ]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _spawn(self) -> None:
        context = (
            _mp_context()
            if self._start_method is None
            else __import__("multiprocessing").get_context(self._start_method)
        )
        for index in range(self._num_replicas):
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

    def _acquire_all(self) -> List[_Replica]:
        """Drain the free queue: returns once no window is in flight."""
        held = []
        deadline = time.monotonic() + self._request_timeout
        while len(held) < len(self._replicas):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for replica in held:
                    self._free.put(replica)
                raise ServiceError(
                    "timed out draining in-flight windows before a generation swap"
                )
            try:
                replica = self._free.get(timeout=remaining)
            except queue.Empty:
                continue
            if not replica.process.is_alive():
                continue  # stale token for a reaped replica
            held.append(replica)
        return held

    # ------------------------------------------------------------------ #
    # Loading and rebuilding
    # ------------------------------------------------------------------ #
    def load(
        self,
        keys: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        workers: Optional[int] = None,
    ) -> int:
        """Build the first generation, publish it, and start the replicas."""
        return self.rebuild(keys, negatives=negatives, costs=costs, workers=workers)

    def rebuild(
        self,
        keys: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        changed_keys: Optional[Sequence[Key]] = None,
        incremental: bool = True,
        workers: Optional[int] = None,
    ) -> int:
        """Build a new generation and roll every replica onto it.

        The build runs in the parent (incremental when the previous
        generation allows it, exactly like the single-process service); the
        swap acquires all replicas — draining in-flight windows — before any
        replica installs the new arena, so the answered-window stream sees
        generations in monotone order and no window mixes two.  Replicas
        that died since the last swap (e.g. SIGKILL) are reaped first, so
        the roll covers exactly the surviving fleet — an adaptive migration
        lands on every replica still serving — and a fleet with no
        survivors respawns in full.  Returns the new generation.
        """
        if self._closed:
            raise ServiceError("the replica pool is closed")
        with self._swap_lock:
            self._reap_dead()
            generation = self._builder.rebuild(
                keys,
                negatives=negatives,
                costs=costs,
                changed_keys=changed_keys,
                incremental=incremental,
                workers=workers,
            )
            self._roll_replicas(generation)
            return generation

    def _roll_replicas(self, generation: int) -> None:
        """Roll the fleet onto the builder's current snapshot.

        Caller holds ``_swap_lock`` and has already moved the builder (and,
        in disk mode, committed the generation durably).  Drains in-flight
        windows, installs the generation on every surviving replica, records
        it as the fleet's :attr:`generation`, then retires the previous arena.
        """
        if self._store_path is not None:
            # Disk tier: the builder already committed this generation
            # durably; replicas roll by reopening the path (their own mmap
            # of the same pages) instead of attaching a shared-memory arena.
            load_command = (
                "load_disk",
                str(self._store_path),
                generation,
                self._cache_budget,
            )
            arena = None
        else:
            store = self._builder.snapshot.store
            arena = SharedFrameArena.publish(store, generation)
            load_command = ("load", arena.name, generation)
        try:
            if not self._replicas:
                self._spawn()
                held = list(self._replicas)
            else:
                held = self._acquire_all()
            try:
                for replica in held:
                    replica.conn.send(load_command)
                for replica in held:
                    _expect(
                        replica.conn,
                        "loaded",
                        self._load_timeout,
                        f"generation {generation} install on replica {replica.index}",
                    )
                # Recorded while the fleet is still held, so no window
                # answered after a GEN read can come from an older one.  A
                # failed roll leaves it (and the gauge) at the last
                # generation every replica acked.
                self._fleet_generation = generation
                self._generation_gauge.set(generation)
            finally:
                for replica in held:
                    self._free.put(replica)
        except Exception:
            if arena is not None:
                arena.dispose()
            raise
        previous, self._arena = self._arena, arena
        if previous is not None:
            # Every replica detached the old mapping before acking, so
            # the owner can drop the name; pages die with the mappings.
            previous.dispose()

    def install_snapshot(
        self,
        store: ShardedFilterStore,
        num_keys: Optional[int] = None,
        generation: Optional[int] = None,
        rebuilt_shards: Optional[Sequence[int]] = None,
    ) -> int:
        """Install an externally built store on the builder and roll the fleet.

        Same contract as :meth:`MembershipService.install_snapshot` — the
        generation must move forward, and ``rebuilt_shards`` lets a disk-mode
        pool commit incrementally — followed by the same drain-then-roll swap
        :meth:`rebuild` uses, so no window ever mixes generations.  This is
        what lets a whole pool act as a replication *follower*: a
        :class:`~repro.service.replication.FollowerClient` pointed at a pool
        rolls all R replicas per applied delta.
        """
        if self._closed:
            raise ServiceError("the replica pool is closed")
        with self._swap_lock:
            self._reap_dead()
            generation = self._builder.install_snapshot(
                store,
                num_keys=num_keys,
                generation=generation,
                rebuilt_shards=rebuilt_shards,
            )
            self._roll_replicas(generation)
            return generation

    def apply_snapshot_delta(self, delta) -> int:
        """Apply a replication delta fleet-wide; returns the new generation."""
        from repro.service import replication

        return replication.apply_to_service(self, delta)

    def close(self, timeout: float = 10.0) -> None:
        """Stop every replica and release the arena. Idempotent."""
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
        while True:
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        if self._reuseport_socket is not None:
            with contextlib.suppress(OSError):
                self._reuseport_socket.close()
            self._reuseport_socket = None
        if self._arena is not None:
            self._arena.dispose()
            self._arena = None
        disk = self._builder.disk_store
        if disk is not None:
            disk.close()

    # ------------------------------------------------------------------ #
    # Query dispatch (thread-safe; called from the batcher's executor)
    # ------------------------------------------------------------------ #
    def query_batch(self, keys: "vec.BatchLike") -> BatchAnswer:
        """Dispatch one window to a free replica; returns its answer.

        Thread-safe: the free-queue hands each concurrent caller its own
        replica, so R batcher dispatch threads drive R replicas in parallel.
        The reported generation is whatever snapshot the replica served —
        one generation per window, by construction.
        """
        raw = list(keys.keys) if isinstance(keys, vec.KeyBatch) else list(keys)
        if not raw or len(raw) > self._max_batch_size:
            self._rejected.inc()
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
                f"no replica became free within {self._request_timeout:.0f}s"
            ) from None
        healthy = False
        start = time.perf_counter()
        try:
            try:
                replica.conn.send(("query", raw))
            except (BrokenPipeError, OSError) as exc:
                raise ServiceError(
                    f"replica {replica.index} is gone (broken pipe)"
                ) from exc
            reply = _expect(
                replica.conn,
                "answer",
                self._request_timeout,
                f"window of {len(raw)} keys on replica {replica.index}",
            )
            healthy = True
        finally:
            if healthy or replica.process.is_alive():
                self._free.put(replica)
        elapsed = time.perf_counter() - start
        _tag, generation, count, positives, payload, _engine_seconds = reply
        verdicts = _unpack_verdicts(payload, count)
        index = replica.index
        self._replica_windows[index].inc()
        self._replica_keys[index].inc(count)
        if positives:
            self._replica_positives[index].inc(positives)
        self._replica_dispatch[index].observe(elapsed)
        self._latency.record(elapsed / max(count, 1))
        # Replicas answer from their own store copies, so the builder's
        # per-shard counters (the adaptive scorer's traffic evidence) and
        # the FPR estimator only see this window if the parent feeds it
        # back.  One router pass serves both.
        estimator = self._builder.fpr_estimator
        if estimator is not None or self._builder.adaptive_policy is not None:
            snapshot = self._builder.snapshot
            if snapshot is not None:
                shards = snapshot.store.record_shard_traffic(raw, verdicts)
                if positives and estimator is not None and estimator.active:
                    estimator.observe_batch(
                        raw, verdicts, snapshot.store.shard_of, shards=shards
                    )
        return BatchAnswer(
            verdicts=verdicts, generation=generation, elapsed_seconds=elapsed
        )

    def query_many(self, keys: Sequence[Key]) -> List[bool]:
        """Batch membership test, in input order (one replica per call)."""
        return self.query_batch(keys).verdicts

    def query(self, key: Key) -> bool:
        """Single-key convenience (a one-key window; prefer batches)."""
        return self.query_batch([key]).verdicts[0]

    # ------------------------------------------------------------------ #
    # SO_REUSEPORT direct-accept mode
    # ------------------------------------------------------------------ #
    def start_reuseport(
        self, host: str = "127.0.0.1", port: int = 0, **server_opts
    ) -> Tuple[str, int]:
        """Have every replica accept TCP connections on one shared port.

        The parent binds (but never listens on) a ``SO_REUSEPORT`` socket to
        reserve the port for the pool's lifetime; each replica then runs its
        own :class:`~repro.service.aserve.AsyncMembershipServer` listening on
        that port with ``reuse_port=True``, and the kernel load-balances
        accepted connections across replicas — no dispatcher process in the
        data path.  ``server_opts`` are forwarded to each replica's server
        (``max_batch=...``, ``max_wait_ms=...``).  Returns ``(host, port)``.
        """
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ServiceError("SO_REUSEPORT is not available on this platform")
        if self._closed:
            raise ServiceError("the replica pool is closed")
        if not self._replicas:
            raise ServiceError("the pool has no snapshot yet; call load() first")
        reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            reserve.bind((host, port))
        except OSError:
            reserve.close()
            raise
        actual_port = reserve.getsockname()[1]
        self._reuseport_socket = reserve
        held = self._acquire_all()
        try:
            for replica in held:
                replica.conn.send(("listen", host, actual_port, dict(server_opts)))
            for replica in held:
                _expect(
                    replica.conn,
                    "listening",
                    self._load_timeout,
                    f"reuseport listener on replica {replica.index}",
                )
        finally:
            for replica in held:
                self._free.put(replica)
        return host, actual_port

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """Generation every replica has acked (0 before the first load).

        A rebuild moves the builder first and rolls the fleet after, so
        this lags :attr:`snapshot` during a roll rather than reporting a
        generation that windows may not be answered by yet.
        """
        return self._fleet_generation

    @property
    def snapshot(self):
        """The builder's serving snapshot (what the fleet was rolled onto),
        or ``None`` before the first load.  Replication diffs against this."""
        return self._builder.snapshot

    @property
    def max_batch_size(self) -> int:
        """Largest window :meth:`query_batch` accepts."""
        return self._max_batch_size

    @property
    def registry(self) -> Registry:
        """The metrics registry the pool (and its builder) report to."""
        return self._registry

    @property
    def dispatch_parallelism(self) -> int:
        """Windows the front-end should keep in flight (= replica count)."""
        return self._num_replicas

    @property
    def num_replicas(self) -> int:
        """Configured replica process count."""
        return self._num_replicas

    @property
    def arena(self) -> Optional[SharedFrameArena]:
        """The currently published arena (``None`` before the first load,
        and always ``None`` in disk mode)."""
        return self._arena

    @property
    def disk_store(self):
        """The builder's disk tier, or ``None`` (shared-memory mode)."""
        return self._builder.disk_store

    @property
    def replica_pids(self) -> List[int]:
        """PIDs of the live replica processes (for memory accounting)."""
        return [
            replica.process.pid
            for replica in self._replicas
            if replica.process.pid is not None
        ]

    @property
    def fpr_estimator(self) -> Optional[FprEstimator]:
        """The builder's live-FPR estimator, or ``None``."""
        return self._builder.fpr_estimator

    @property
    def adaptive_policy(self) -> Optional[AdaptivePolicy]:
        """The builder's adaptive backend-selection policy, or ``None``."""
        return self._builder.adaptive_policy

    def stats(self) -> ServiceStats:
        """Fleet-aggregated stats in the standard :class:`ServiceStats` shape.

        Build/rebuild counters come from the parent's builder, the
        generation from the fleet (:attr:`generation`); traffic
        counters are the parent-side dispatch accounting summed over
        replicas.  Without an estimator or adaptive policy the per-shard
        rows report build-time facts only (replica-resident counters are
        available via :meth:`stats_by_replica`); with one attached, the
        parent's window feedback keeps the builder's shard counters — and
        therefore the rows here — tracking replica traffic.
        """
        stats = self._builder.stats()
        stats.generation = self._fleet_generation
        stats.queries = sum(int(child.value) for child in self._replica_keys)
        stats.batches = sum(int(child.value) for child in self._replica_windows)
        stats.positives = sum(int(child.value) for child in self._replica_positives)
        stats.rejected_batches = int(self._rejected.value)
        samples = self._latency.samples()
        stats.latency = latency_percentiles(samples) if samples else None
        return stats

    def stats_by_replica(self) -> List[dict]:
        """Fetch each replica's own counters over the control channel.

        Acquires replicas one at a time (windows keep flowing on the rest);
        includes replica-side queries served through ``SO_REUSEPORT``
        listeners, which the parent's dispatch accounting cannot see.
        """
        if self._closed or not self._replicas:
            return []
        reports = []
        for _ in range(len(self._replicas)):
            replica = self._free.get(timeout=self._request_timeout)
            if not replica.process.is_alive():
                continue  # stale token for a dead replica; drop it
            try:
                replica.conn.send(("stats",))
                reply = _expect(
                    replica.conn,
                    "stats",
                    self._request_timeout,
                    f"stats from replica {replica.index}",
                )
                reports.append(reply[1])
            finally:
                self._free.put(replica)
        reports.sort(key=lambda report: report["replica"])
        return reports

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaPool(replicas={self._num_replicas}, "
            f"generation={self.generation}, closed={self._closed})"
        )
