"""Disk-backed shard store: page-oriented frame file + mmap cold reads.

Every shard of a :class:`~repro.service.shards.ShardedFilterStore` already
round-trips through one self-describing codec frame; this module keeps those
frames *on disk* and serves queries from an ``mmap`` of the file, so a key
set much larger than RAM answers with a bounded resident footprint.

Layout on disk (one directory per store)::

    <store_path>/
        DIRECTORY              the commit point (atomic-rename target)
        frames-000001.pages    append-only page file of codec frames

``DIRECTORY`` is a single CRC-trailed record mapping each shard id to its
*page run* in the page file::

    offset 0   magic     4 bytes  b"DSKD"
    offset 4   version   1 byte   currently 1
    offset 5   length    4 bytes  payload size (big-endian)
    offset 9   payload   page_size | store generation | page-file epoch |
                         next free page | router seed | backend name |
                         page-file name | per shard: key count, shard
                         generation, fingerprint, backend name, size bits,
                         start page, frame bytes, frame crc32
    offset -4  crc32     4 bytes  over version + length + payload

Commits are crash-safe by construction: new frames are appended (or a whole
new page file is written under a fresh name), ``fsync``\\ ed, and only then
does ``DIRECTORY`` get replaced via write-temp + ``fsync`` + atomic rename +
parent-directory ``fsync``.  A crash at any instant leaves either the old
directory (pointing at untouched old runs — appended garbage past
``next_free_page`` is simply ignored) or the new one (whose runs were synced
first).  There is no torn state to repair, only orphan files to sweep on the
next owning :meth:`DiskShardStore.open`.

Serving composes with the rest of the stack instead of forking it: each
committed generation becomes an immutable *epoch* — one ``mmap`` of the page
file plus a regular :class:`ShardedFilterStore` whose per-shard filters are
lazy proxies.  A proxy resolves through a byte-budgeted LRU of decoded
shards; a miss decodes the shard's frame straight off the mapping with
``codec.loads(..., zero_copy=True)``, so the decoded ``BitArray`` is a
:meth:`~repro.core.bitarray.BitArray.view` aliasing the file pages — cold
shards cost page-cache pages, not heap.  The epoch view plugs into
:class:`~repro.service.server.MembershipService` snapshots unchanged, which
is how the async front-end, incremental rebuilds, and the multi-process
replica pool (every replica maps the same file; the kernel shares the pages)
all gain the disk tier for free.

Incremental rebuilds stay incremental on disk: :meth:`DiskShardStore.commit`
takes the rebuilt shard list and appends only those shards' frames — clean
shards keep their existing page runs, so a one-dirty-shard rebuild writes
O(one shard) bytes.  Appends accumulate garbage (superseded runs); when the
dead fraction exceeds ``compact_ratio`` the commit finishes by rewriting the
live frames into a fresh page file (same crash-safe protocol) and unlinking
the old one — readers still holding the old mapping keep it alive through
the inode until they drop it.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CodecError, ServiceError
from repro.obs import Registry, default_registry
from repro.service import codec
from repro.service.shards import ShardedFilterStore

__all__ = ["DiskShardStore", "DirectoryEntry", "DEFAULT_PAGE_SIZE"]

#: Magic bytes opening the DIRECTORY record.
DIRECTORY_MAGIC = b"DSKD"

#: Current DIRECTORY format version.
DIRECTORY_VERSION = 1

#: The commit-point file name inside a store directory.
DIRECTORY_NAME = "DIRECTORY"

_DIRECTORY_TMP = "DIRECTORY.tmp"

#: Default page size frames are aligned to (one kernel page on most targets).
DEFAULT_PAGE_SIZE = 4096

_DISK_IDS = itertools.count(1)

#: Test-only fault injection: when set, called with a named point inside the
#: commit protocol ("pages-appended", "pages-synced", "directory-written",
#: "directory-renamed", "before-cleanup").  The crash battery SIGKILLs the
#: process at each point and asserts the store reopens consistent.
_FAULT_HOOK: Optional[Callable[[str], None]] = None


def _maybe_fault(point: str) -> None:
    hook = _FAULT_HOOK
    if hook is not None:
        hook(point)


class DirectoryEntry:
    """One shard's row in the directory: where its frame lives, and what it is."""

    __slots__ = (
        "key_count",
        "generation",
        "fingerprint",
        "backend_name",
        "size_in_bits",
        "start_page",
        "frame_bytes",
        "frame_crc",
    )

    def __init__(
        self,
        key_count: int,
        generation: int,
        fingerprint: Optional[int],
        backend_name: str,
        size_in_bits: int,
        start_page: int,
        frame_bytes: int,
        frame_crc: int,
    ) -> None:
        self.key_count = key_count
        self.generation = generation
        self.fingerprint = fingerprint
        self.backend_name = backend_name
        self.size_in_bits = size_in_bits
        self.start_page = start_page
        self.frame_bytes = frame_bytes
        self.frame_crc = frame_crc


class _Directory:
    """Decoded DIRECTORY record (immutable by convention)."""

    __slots__ = (
        "page_size",
        "generation",
        "epoch",
        "next_free_page",
        "router_seed",
        "backend_name",
        "pages_name",
        "shards",
    )

    def __init__(
        self,
        page_size: int,
        generation: int,
        epoch: int,
        next_free_page: int,
        router_seed: int,
        backend_name: str,
        pages_name: str,
        shards: Tuple[DirectoryEntry, ...],
    ) -> None:
        self.page_size = page_size
        self.generation = generation
        self.epoch = epoch
        self.next_free_page = next_free_page
        self.router_seed = router_seed
        self.backend_name = backend_name
        self.pages_name = pages_name
        self.shards = shards

    def encode(self) -> bytes:
        writer = codec._Writer()
        writer.u32(self.page_size)
        writer.u64(self.generation)
        writer.u64(self.epoch)
        writer.u64(self.next_free_page)
        writer.u64(self.router_seed)
        writer.str_field(self.backend_name)
        writer.str_field(self.pages_name)
        writer.u32(len(self.shards))
        for entry in self.shards:
            writer.u64(entry.key_count)
            writer.u32(entry.generation)
            writer.u8(1 if entry.fingerprint is not None else 0)
            writer.u64(entry.fingerprint or 0)
            writer.str_field(entry.backend_name)
            writer.u64(entry.size_in_bits)
            writer.u64(entry.start_page)
            writer.u64(entry.frame_bytes)
            writer.u32(entry.frame_crc)
        payload = writer.getvalue()
        head = codec._Writer()
        head.raw(DIRECTORY_MAGIC)
        head.u8(DIRECTORY_VERSION)
        head.u32(len(payload))
        body = head.getvalue() + payload
        # CRC over everything after the magic, so a flipped version or
        # length byte is just as loud as a flipped payload byte.
        return body + zlib.crc32(body[4:]).to_bytes(4, "big")

    @classmethod
    def decode(cls, data: bytes) -> "_Directory":
        if len(data) < 13:
            raise CodecError(
                f"directory record too short: {len(data)} bytes < minimum 13"
            )
        if bytes(data[:4]) != DIRECTORY_MAGIC:
            raise CodecError(
                f"bad directory magic {bytes(data[:4])!r} (expected {DIRECTORY_MAGIC!r})"
            )
        version = data[4]
        if version != DIRECTORY_VERSION:
            raise CodecError(f"unsupported directory version {version}")
        length = int.from_bytes(data[5:9], "big")
        if len(data) != 9 + length + 4:
            raise CodecError(
                f"directory length mismatch: header declares {length} payload "
                f"bytes but the record holds {len(data) - 13}"
            )
        stored_crc = int.from_bytes(data[-4:], "big")
        actual_crc = zlib.crc32(data[4:-4])
        if stored_crc != actual_crc:
            raise CodecError(
                f"directory checksum mismatch: stored {stored_crc:#010x}, "
                f"computed {actual_crc:#010x}"
            )
        reader = codec._Reader(data[9:-4])
        page_size = reader.u32()
        generation = reader.u64()
        epoch = reader.u64()
        next_free_page = reader.u64()
        router_seed = reader.u64()
        backend_name = bytes(reader.take(reader.u32())).decode("utf-8")
        pages_name = bytes(reader.take(reader.u32())).decode("utf-8")
        num_shards = reader.u32()
        if page_size < 1 or num_shards < 1 or next_free_page < 1:
            raise CodecError(
                "directory record is internally inconsistent "
                f"(page_size={page_size}, shards={num_shards}, "
                f"next_free_page={next_free_page})"
            )
        shards = []
        for _ in range(num_shards):
            key_count = reader.u64()
            shard_generation = reader.u32()
            has_fingerprint = reader.u8()
            fingerprint = reader.u64()
            name = bytes(reader.take(reader.u32())).decode("utf-8")
            size_in_bits = reader.u64()
            start_page = reader.u64()
            frame_bytes = reader.u64()
            frame_crc = reader.u32()
            pages = -(-frame_bytes // page_size) if frame_bytes else 0
            if frame_bytes < codec._HEADER.size + 4:
                raise CodecError(
                    f"directory declares a {frame_bytes}-byte frame, smaller "
                    "than a frame header"
                )
            if start_page + pages > next_free_page:
                raise CodecError(
                    f"shard run [{start_page}, {start_page + pages}) exceeds "
                    f"the directory's next free page {next_free_page}"
                )
            shards.append(
                DirectoryEntry(
                    key_count=key_count,
                    generation=shard_generation,
                    fingerprint=fingerprint if has_fingerprint else None,
                    backend_name=name,
                    size_in_bits=size_in_bits,
                    start_page=start_page,
                    frame_bytes=frame_bytes,
                    frame_crc=frame_crc,
                )
            )
        return cls(
            page_size=page_size,
            generation=generation,
            epoch=epoch,
            next_free_page=next_free_page,
            router_seed=router_seed,
            backend_name=backend_name,
            pages_name=pages_name,
            shards=tuple(shards),
        )


class _Epoch:
    """One committed directory plus its live mapping and serving view."""

    __slots__ = ("directory", "mm", "buf", "view", "pages_path")

    def __init__(self, directory: _Directory, mm: mmap.mmap, pages_path: Path) -> None:
        self.directory = directory
        self.mm = mm
        # A single memoryview over the mapping; frame reads slice it, so a
        # cold decode never copies the file bytes into the heap.
        self.buf = memoryview(mm)
        self.view: Optional[ShardedFilterStore] = None
        self.pages_path = pages_path


class _LazyShardFilter:
    """Filter proxy bound to one epoch's shard; decodes on first probe.

    Satisfies the duck type :meth:`ShardedFilterStore.query_many` dispatches
    on (``_contains_batch`` / ``_contains_fallback`` / ``contains_many`` /
    ``contains``) plus the ``size_in_bits`` the stats layer reads — the
    latter answered from the directory, so introspection never faults a
    cold shard in.
    """

    __slots__ = ("_owner", "_epoch", "_shard")

    def __init__(self, owner: "DiskShardStore", epoch: _Epoch, shard: int) -> None:
        self._owner = owner
        self._epoch = epoch
        self._shard = shard

    @property
    def algorithm_name(self) -> str:
        return self._epoch.directory.shards[self._shard].backend_name

    def _resolve(self):
        return self._owner._filter_for(self._epoch, self._shard)

    def contains(self, key) -> bool:
        return bool(self._resolve().contains(key))

    def __contains__(self, key) -> bool:
        return self.contains(key)

    def contains_many(self, keys) -> List[bool]:
        target = self._resolve()
        many = getattr(target, "contains_many", None)
        if many is not None:
            return many(keys)
        return [bool(target.contains(key)) for key in keys]

    def _contains_fallback(self, keys) -> List[bool]:
        target = self._resolve()
        fallback = getattr(target, "_contains_fallback", None)
        if fallback is not None:
            return fallback(keys)
        return [bool(target.contains(key)) for key in keys]

    def _contains_batch(self, batch):
        target = self._resolve()
        batch_fn = getattr(target, "_contains_batch", None)
        if batch_fn is not None:
            return batch_fn(batch)
        return None

    def size_in_bits(self) -> int:
        return self._epoch.directory.shards[self._shard].size_in_bits


class _FrameCache:
    """Byte-budgeted LRU of decoded shard filters.

    Cost is the shard's *serialized* frame size — deterministic, directory
    known, and proportional to the real footprint for copy-decoded filters
    (zero-copy decodes alias the mapping, so the budget then bounds how much
    of the mapping cache entries may pin).  ``budget=None`` means unbounded;
    ``budget=0`` disables admission entirely (every probe decodes cold).
    """

    __slots__ = ("budget", "bytes", "hits", "misses", "evictions", "_entries")

    def __init__(self, budget: Optional[int]) -> None:
        self.budget = budget
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: tuple, value: object, cost: int) -> None:
        if self.budget is not None and self.budget <= 0:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        self._entries[key] = (value, cost)
        self.bytes += cost
        if self.budget is not None:
            while self.bytes > self.budget and self._entries:
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self.bytes -= evicted_cost
                self.evictions += 1

    def prune(self, live_keys) -> None:
        """Drop entries no committed directory can reach any more."""
        live = set(live_keys)
        for key in [key for key in self._entries if key not in live]:
            _, cost = self._entries.pop(key)
            self.bytes -= cost

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0


class DiskShardStore:
    """A sharded filter store persisted as page-aligned codec frames.

    Create one from a built store with :meth:`create`, reopen it with
    :meth:`open`, publish new generations with :meth:`commit` (append-only
    for incremental rebuilds), and serve through :meth:`serving_store` — a
    regular :class:`ShardedFilterStore` whose shards decode lazily off the
    mapping through the byte-budgeted LRU.

    Args (via :meth:`create` / :meth:`open`):
        cache_budget: Max bytes of decoded shards kept hot (``None`` =
            unbounded, ``0`` = always cold).
        compact_ratio: Dead-byte fraction of the page file above which a
            commit rewrites it (default 0.5).
        registry: Metrics registry for the ``repro_disk_*`` families.
        cleanup: Sweep orphan temp/page files on open.  Pass ``False`` from
            non-owning readers (replicas) — a concurrent owner commit may
            legitimately be building files an orphan sweep would delete.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise ServiceError(
            "use DiskShardStore.create(path, store, ...) or "
            "DiskShardStore.open(path, ...)"
        )

    @classmethod
    def _new(
        cls,
        path: Path,
        cache_budget: Optional[int],
        compact_ratio: float,
        registry: Optional[Registry],
    ) -> "DiskShardStore":
        if not 0.0 < compact_ratio <= 1.0:
            raise ServiceError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        if cache_budget is not None and cache_budget < 0:
            raise ServiceError(f"cache_budget must be >= 0, got {cache_budget}")
        self = object.__new__(cls)
        self._path = path
        self._compact_ratio = compact_ratio
        self._cache = _FrameCache(cache_budget)
        self._lock = threading.Lock()
        self._commit_lock = threading.Lock()
        self._epoch: Optional[_Epoch] = None
        self._closed = False
        self._registry = registry if registry is not None else default_registry()
        self._obs_label = f"disk-{next(_DISK_IDS)}"
        self._make_instruments(cache_budget)
        return self

    def _make_instruments(self, cache_budget: Optional[int]) -> None:
        registry, label = self._registry, self._obs_label
        self._hits_counter = registry.counter(
            "repro_disk_cache_hits_total",
            "Shard probes answered by the hot decoded-shard cache",
            ("store",),
        ).labels(label)
        self._misses_counter = registry.counter(
            "repro_disk_cache_misses_total",
            "Shard probes that decoded the frame cold off the mapping",
            ("store",),
        ).labels(label)
        self._evictions_counter = registry.counter(
            "repro_disk_cache_evictions_total",
            "Decoded shards evicted to stay within the byte budget",
            ("store",),
        ).labels(label)
        self._cache_bytes_gauge = registry.gauge(
            "repro_disk_cache_bytes",
            "Serialized bytes of the decoded shards currently cached",
            ("store",),
        ).labels(label)
        self._budget_gauge = registry.gauge(
            "repro_disk_cache_budget_bytes",
            "Configured shard-cache byte budget (-1 = unbounded)",
            ("store",),
        ).labels(label)
        self._budget_gauge.set(-1 if cache_budget is None else cache_budget)
        self._mapped_gauge = registry.gauge(
            "repro_disk_mapped_bytes",
            "Bytes of the page file the serving epoch has mapped",
            ("store",),
        ).labels(label)
        self._cold_read_seconds = registry.histogram(
            "repro_disk_cold_read_seconds",
            "Latency decoding one shard frame from the mapping (cache miss)",
            ("store",),
        ).labels(label)
        self._commits_counter = registry.counter(
            "repro_disk_commits_total",
            "Directory commits (creates, incremental appends, full rewrites)",
            ("store",),
        ).labels(label)
        self._compactions_counter = registry.counter(
            "repro_disk_compactions_total",
            "Page-file rewrites triggered by the dead-byte ratio",
            ("store",),
        ).labels(label)
        self._pages_written_counter = registry.counter(
            "repro_disk_pages_written_total",
            "Pages appended or rewritten across all commits",
            ("store",),
        ).labels(label)

    # ------------------------------------------------------------------ #
    # Creation / opening
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        path,
        store: ShardedFilterStore,
        generation: int = 1,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_budget: Optional[int] = None,
        compact_ratio: float = 0.5,
        registry: Optional[Registry] = None,
    ) -> "DiskShardStore":
        """Persist ``store`` into a fresh store directory and serve it."""
        if generation < 1:
            raise ServiceError(f"store generation must be >= 1, got {generation}")
        if page_size < 64:
            raise ServiceError(f"page_size must be >= 64, got {page_size}")
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        if (path / DIRECTORY_NAME).exists():
            raise ServiceError(
                f"{path} already holds a store; open() it instead of create()"
            )
        self = cls._new(path, cache_budget, compact_ratio, registry)
        self._page_size = page_size
        with self._commit_lock:
            self._commit_full(store, generation, epoch=1)
        return self

    @classmethod
    def exists(cls, path) -> bool:
        """Whether ``path`` holds a committed store directory."""
        return (Path(path) / DIRECTORY_NAME).exists()

    @classmethod
    def open(
        cls,
        path,
        *,
        cache_budget: Optional[int] = None,
        compact_ratio: float = 0.5,
        registry: Optional[Registry] = None,
        cleanup: bool = True,
    ) -> "DiskShardStore":
        """Open an existing store directory at its last committed generation.

        Raises:
            CodecError: when the directory record or page file is corrupt,
                truncated, or internally inconsistent (a crash between the
                page-file sync and the directory rename is *not* corruption
                — the previous directory simply still rules).
            ServiceError: when ``path`` holds no store at all.
        """
        path = Path(path)
        directory_path = path / DIRECTORY_NAME
        if not directory_path.exists():
            raise ServiceError(f"{path} holds no {DIRECTORY_NAME}; create() one first")
        directory = _Directory.decode(directory_path.read_bytes())
        self = cls._new(path, cache_budget, compact_ratio, registry)
        self._page_size = directory.page_size
        self._install_epoch(directory)
        if cleanup:
            self._sweep_orphans(directory)
        return self

    def _sweep_orphans(self, directory: _Directory) -> None:
        """Remove leftovers of interrupted commits (owner-side only)."""
        with contextlib.suppress(OSError):
            (self._path / _DIRECTORY_TMP).unlink()
        for candidate in self._path.glob("frames-*.pages"):
            if candidate.name != directory.pages_name:
                with contextlib.suppress(OSError):
                    candidate.unlink()

    def _install_epoch(self, directory: _Directory) -> _Epoch:
        """Map the directory's page file and swap it in as the serving epoch."""
        pages_path = self._path / directory.pages_name
        mapped_bytes = directory.next_free_page * directory.page_size
        try:
            size = os.path.getsize(pages_path)
        except OSError as exc:
            raise CodecError(
                f"directory references missing page file {directory.pages_name!r}"
            ) from exc
        if size < mapped_bytes:
            raise CodecError(
                f"page file {directory.pages_name!r} holds {size} bytes but the "
                f"directory expects at least {mapped_bytes} (truncated file)"
            )
        with open(pages_path, "rb") as handle:
            mm = mmap.mmap(handle.fileno(), mapped_bytes, access=mmap.ACCESS_READ)
        epoch = _Epoch(directory, mm, pages_path)
        epoch.view = ShardedFilterStore.from_parts(
            filters=[
                _LazyShardFilter(self, epoch, shard)
                for shard in range(len(directory.shards))
            ],
            router_seed=directory.router_seed,
            backend_name=directory.backend_name,
            shard_key_counts=[entry.key_count for entry in directory.shards],
            shard_generations=[entry.generation for entry in directory.shards],
            shard_fingerprints=[entry.fingerprint for entry in directory.shards],
            shard_backend_names=[entry.backend_name for entry in directory.shards],
        )
        self._epoch = epoch
        self._mapped_gauge.set(mapped_bytes)
        with self._lock:
            self._cache.prune(
                (shard, entry.generation, entry.frame_crc)
                for shard, entry in enumerate(directory.shards)
            )
            self._cache_bytes_gauge.set(self._cache.bytes)
        return epoch

    # ------------------------------------------------------------------ #
    # Commit protocol
    # ------------------------------------------------------------------ #
    @staticmethod
    def _shard_entry(
        store: ShardedFilterStore,
        shard: int,
        frame: Optional[bytes],
        start_page: int,
        previous: Optional[DirectoryEntry],
    ) -> DirectoryEntry:
        if frame is None:
            assert previous is not None
            return previous
        size = getattr(store.filters[shard], "size_in_bits", None)
        return DirectoryEntry(
            key_count=store.shard_key_counts[shard],
            generation=store.shard_generations[shard],
            fingerprint=store.shard_fingerprints[shard],
            backend_name=store.shard_backend_names[shard],
            size_in_bits=int(size()) if callable(size) else 0,
            start_page=start_page,
            frame_bytes=len(frame),
            frame_crc=zlib.crc32(frame),
        )

    def _write_directory(self, directory: _Directory) -> None:
        record = directory.encode()
        tmp = self._path / _DIRECTORY_TMP
        with open(tmp, "wb") as handle:
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
        _maybe_fault("directory-written")
        os.replace(tmp, self._path / DIRECTORY_NAME)
        _maybe_fault("directory-renamed")
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        with contextlib.suppress(OSError):
            fd = os.open(self._path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _pages_of(self, frame_bytes: int) -> int:
        return -(-frame_bytes // self._page_size)

    def _commit_full(
        self, store: ShardedFilterStore, generation: int, epoch: int
    ) -> None:
        """Write every shard's frame into a fresh page file, then swap."""
        page_size = self._page_size
        pages_name = f"frames-{epoch:06d}.pages"
        pages_path = self._path / pages_name
        entries: List[DirectoryEntry] = []
        next_page = 0
        with open(pages_path, "wb") as handle:
            for shard in range(store.num_shards):
                frame = codec.dumps(store.filters[shard])
                entries.append(
                    self._shard_entry(store, shard, frame, next_page, None)
                )
                handle.write(frame)
                pages = self._pages_of(len(frame))
                padding = pages * page_size - len(frame)
                if padding:
                    handle.write(b"\x00" * padding)
                next_page += pages
            _maybe_fault("pages-appended")
            handle.flush()
            os.fsync(handle.fileno())
        _maybe_fault("pages-synced")
        directory = _Directory(
            page_size=page_size,
            generation=generation,
            epoch=epoch,
            next_free_page=next_page,
            router_seed=store.router_seed,
            backend_name=store.backend_name,
            pages_name=pages_name,
            shards=tuple(entries),
        )
        self._write_directory(directory)
        _maybe_fault("before-cleanup")
        previous = self._epoch
        self._install_epoch(directory)
        if previous is not None and previous.pages_path.name != pages_name:
            with contextlib.suppress(OSError):
                previous.pages_path.unlink()
        self._commits_counter.inc()
        self._pages_written_counter.inc(next_page)

    def _commit_append(
        self,
        store: ShardedFilterStore,
        generation: int,
        dirty: Sequence[int],
    ) -> None:
        """Append only the dirty shards' frames behind the current epoch."""
        current = self._epoch
        assert current is not None
        old = current.directory
        frames: Dict[int, bytes] = {
            shard: codec.dumps(store.filters[shard]) for shard in sorted(set(dirty))
        }
        page_size = self._page_size
        next_page = old.next_free_page
        entries: List[DirectoryEntry] = []
        starts: Dict[int, int] = {}
        for shard in sorted(frames):
            starts[shard] = next_page
            next_page += self._pages_of(len(frames[shard]))
        for shard in range(store.num_shards):
            frame = frames.get(shard)
            if frame is None and store.shard_generations[shard] != old.shards[shard].generation:
                raise ServiceError(
                    f"shard {shard} was not in rebuilt_shards but its generation "
                    f"moved ({old.shards[shard].generation} -> "
                    f"{store.shard_generations[shard]}); commit it as dirty"
                )
            entries.append(
                self._shard_entry(
                    store, shard, frame, starts.get(shard, 0), old.shards[shard]
                )
            )
        with open(current.pages_path, "r+b") as handle:
            handle.seek(old.next_free_page * page_size)
            for shard in sorted(frames):
                frame = frames[shard]
                handle.write(frame)
                padding = self._pages_of(len(frame)) * page_size - len(frame)
                if padding:
                    handle.write(b"\x00" * padding)
            _maybe_fault("pages-appended")
            handle.flush()
            os.fsync(handle.fileno())
        _maybe_fault("pages-synced")
        directory = _Directory(
            page_size=page_size,
            generation=generation,
            epoch=old.epoch,
            next_free_page=next_page,
            router_seed=store.router_seed,
            backend_name=store.backend_name,
            pages_name=old.pages_name,
            shards=tuple(entries),
        )
        self._write_directory(directory)
        _maybe_fault("before-cleanup")
        self._install_epoch(directory)
        self._commits_counter.inc()
        self._pages_written_counter.inc(next_page - old.next_free_page)

    def commit(
        self,
        store: ShardedFilterStore,
        generation: int,
        rebuilt_shards: Optional[Sequence[int]] = None,
    ) -> int:
        """Persist ``store`` as the next generation; returns it.

        ``rebuilt_shards`` (the list :meth:`ShardedFilterStore.rebuild_from`
        returns) turns the commit incremental: only those shards' frames are
        appended, every other shard keeps its page run — which also means
        clean shards' filters are never serialized, so a store whose clean
        shards are this store's own lazy proxies commits without faulting
        them in.  ``None`` (or a list covering every shard) writes a full
        fresh page file.  Either way the directory rename is the atomic
        commit point, and the in-memory store swaps to the new epoch only
        after it — a failed or killed commit leaves both the file state and
        this process serving the previous generation.
        """
        if self._closed:
            raise ServiceError("the disk store is closed")
        with self._commit_lock:
            current = self._epoch
            if current is None:
                raise ServiceError("store was never created; use create()")
            old = current.directory
            if generation <= old.generation:
                raise ServiceError(
                    f"store generation must move forward: {generation} <= "
                    f"committed {old.generation}"
                )
            geometry_changed = (
                store.num_shards != len(old.shards)
                or store.router_seed != old.router_seed
            )
            full = (
                rebuilt_shards is None
                or len(set(rebuilt_shards)) >= store.num_shards
            )
            if geometry_changed and not full:
                raise ServiceError(
                    "store geometry changed (shards or router seed); an "
                    "incremental commit cannot describe that — pass "
                    "rebuilt_shards=None"
                )
            if full:
                self._commit_full(store, generation, epoch=old.epoch + 1)
            else:
                self._commit_append(store, generation, rebuilt_shards)
                if self.garbage_ratio > self._compact_ratio:
                    self._compact()
            return generation

    def _compact(self) -> None:
        """Rewrite the live frames into a fresh page file (same generation)."""
        current = self._epoch
        assert current is not None
        old = current.directory
        page_size = self._page_size
        epoch = old.epoch + 1
        pages_name = f"frames-{epoch:06d}.pages"
        pages_path = self._path / pages_name
        entries: List[DirectoryEntry] = []
        next_page = 0
        with open(pages_path, "wb") as handle:
            for shard, entry in enumerate(old.shards):
                offset = entry.start_page * page_size
                frame = bytes(current.buf[offset : offset + entry.frame_bytes])
                start = next_page
                handle.write(frame)
                pages = self._pages_of(len(frame))
                padding = pages * page_size - len(frame)
                if padding:
                    handle.write(b"\x00" * padding)
                next_page += pages
                entries.append(
                    DirectoryEntry(
                        key_count=entry.key_count,
                        generation=entry.generation,
                        fingerprint=entry.fingerprint,
                        backend_name=entry.backend_name,
                        size_in_bits=entry.size_in_bits,
                        start_page=start,
                        frame_bytes=entry.frame_bytes,
                        frame_crc=entry.frame_crc,
                    )
                )
            _maybe_fault("pages-appended")
            handle.flush()
            os.fsync(handle.fileno())
        _maybe_fault("pages-synced")
        directory = _Directory(
            page_size=page_size,
            generation=old.generation,
            epoch=epoch,
            next_free_page=next_page,
            router_seed=old.router_seed,
            backend_name=old.backend_name,
            pages_name=pages_name,
            shards=tuple(entries),
        )
        self._write_directory(directory)
        _maybe_fault("before-cleanup")
        previous = self._epoch
        self._install_epoch(directory)
        if previous is not None:
            with contextlib.suppress(OSError):
                previous.pages_path.unlink()
        self._compactions_counter.inc()
        self._pages_written_counter.inc(next_page)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _filter_for(self, epoch: _Epoch, shard: int):
        """Resolve one shard's decoded filter through the LRU (thread-safe)."""
        entry = epoch.directory.shards[shard]
        key = (shard, entry.generation, entry.frame_crc)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits_counter.inc()
                return cached
            self._misses_counter.inc()
        start = time.perf_counter()
        offset = entry.start_page * epoch.directory.page_size
        frame = epoch.buf[offset : offset + entry.frame_bytes]
        decoded = codec.loads(frame, zero_copy=True)
        self._cold_read_seconds.observe(time.perf_counter() - start)
        with self._lock:
            before = self._cache.evictions
            self._cache.put(key, decoded, entry.frame_bytes)
            evicted = self._cache.evictions - before
            if evicted:
                self._evictions_counter.inc(evicted)
            self._cache_bytes_gauge.set(self._cache.bytes)
        return decoded

    def serving_store(self) -> ShardedFilterStore:
        """The current epoch's store view (lazy shards; plug into snapshots)."""
        epoch = self._require_epoch()
        return epoch.view

    def materialize(self) -> ShardedFilterStore:
        """Decode every shard into a plain in-RAM store (no mapping aliases).

        This is what :meth:`MembershipService.save_snapshot` serializes in
        disk mode — proxies cannot cross the codec, real filters can.
        """
        epoch = self._require_epoch()
        directory = epoch.directory
        filters = []
        for entry in directory.shards:
            offset = entry.start_page * directory.page_size
            frame = bytes(epoch.buf[offset : offset + entry.frame_bytes])
            filters.append(codec.loads(frame))
        return ShardedFilterStore.from_parts(
            filters=filters,
            router_seed=directory.router_seed,
            backend_name=directory.backend_name,
            shard_key_counts=[entry.key_count for entry in directory.shards],
            shard_generations=[entry.generation for entry in directory.shards],
            shard_fingerprints=[entry.fingerprint for entry in directory.shards],
            shard_backend_names=[entry.backend_name for entry in directory.shards],
        )

    def verify(self) -> int:
        """Scrub every shard: directory CRC vs frame bytes, full decode.

        Returns the number of shards checked; raises :class:`CodecError` on
        the first mismatch.  (Normal reads already CRC-check through the
        codec; this is the explicit offline scrub.)
        """
        epoch = self._require_epoch()
        directory = epoch.directory
        for shard, entry in enumerate(directory.shards):
            offset = entry.start_page * directory.page_size
            frame = bytes(epoch.buf[offset : offset + entry.frame_bytes])
            crc = zlib.crc32(frame)
            if crc != entry.frame_crc:
                raise CodecError(
                    f"shard {shard} frame checksum mismatch: directory has "
                    f"{entry.frame_crc:#010x}, file has {crc:#010x}"
                )
            codec.loads(frame)
        return len(directory.shards)

    def _require_epoch(self) -> _Epoch:
        epoch = self._epoch
        if epoch is None or self._closed:
            raise ServiceError("the disk store is closed")
        return epoch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """The store directory."""
        return self._path

    @property
    def page_size(self) -> int:
        """Bytes per page (fixed at create time)."""
        return self._page_size

    @property
    def generation(self) -> int:
        """The committed store generation currently serving."""
        return self._require_epoch().directory.generation

    @property
    def num_shards(self) -> int:
        """Shards in the committed directory."""
        return len(self._require_epoch().directory.shards)

    @property
    def mapped_bytes(self) -> int:
        """Bytes of the page file the serving epoch has mapped."""
        directory = self._require_epoch().directory
        return directory.next_free_page * directory.page_size

    @property
    def live_bytes(self) -> int:
        """Page-rounded bytes of the frames the directory references."""
        directory = self._require_epoch().directory
        return sum(
            self._pages_of(entry.frame_bytes) * directory.page_size
            for entry in directory.shards
        )

    @property
    def garbage_ratio(self) -> float:
        """Dead fraction of the page file (superseded runs from appends)."""
        mapped = self.mapped_bytes
        if not mapped:
            return 0.0
        return 1.0 - self.live_bytes / mapped

    @property
    def pages_file(self) -> Path:
        """Path of the current page file (for memory accounting in tests)."""
        return self._require_epoch().pages_path

    @property
    def cache_budget(self) -> Optional[int]:
        """Configured decoded-shard cache budget in bytes."""
        return self._cache.budget

    def cache_stats(self) -> Dict[str, int]:
        """Point-in-time cache counters (hits/misses/evictions/bytes/entries)."""
        with self._lock:
            return {
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
                "bytes": self._cache.bytes,
                "entries": len(self._cache),
            }

    def close(self) -> None:
        """Drop the cache and release the mapping. Idempotent.

        Serving snapshots still holding this store's views keep the mapping
        alive through their buffer references; the close is then deferred to
        their collection (same contract as the shared-memory arena).
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._cache.clear()
            self._cache_bytes_gauge.set(0)
        epoch, self._epoch = self._epoch, None
        if epoch is not None:
            epoch.view = None
            epoch.buf = None
            with contextlib.suppress(BufferError):
                epoch.mm.close()
        self._mapped_gauge.set(0)

    def __enter__(self) -> "DiskShardStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._epoch is None:
            return f"DiskShardStore(path={str(self._path)!r}, closed)"
        directory = self._epoch.directory
        return (
            f"DiskShardStore(path={str(self._path)!r}, "
            f"generation={directory.generation}, shards={len(directory.shards)}, "
            f"mapped_bytes={self.mapped_bytes})"
        )
