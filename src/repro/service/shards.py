"""Key-sharded filter store: N independently-built filters behind one router.

Sharding serves three purposes the single-filter core cannot:

* **construction scale** — TPJO construction is superlinear-ish in practice;
  building N filters over N-times-smaller key sets is faster and bounds the
  per-filter hash-family pressure; independent shards also parallelise
  (``build(..., workers=N)`` constructs them on a process or thread pool,
  process workers handing finished shards back as codec frames);
* **rebuild granularity** — the serving layer swaps whole stores atomically,
  and per-shard key-set fingerprints let a rebuild skip every shard whose
  keys did not change (:meth:`ShardedFilterStore.rebuild_from`);
* **batch locality** — ``query_many`` routes a batch once and answers it
  with one two-round program across the HABF shards it touches, or with one
  engine call per shard group for other backends: the pattern a gateway
  checking a page full of URLs produces.

The router hashes keys with a hash that is *independent* of every filter's
own hash family (a salted xxhash), so shard placement never correlates with
filter false positives.  The same per-key hash also feeds the shard
*fingerprint* — an order-independent 64-bit digest of a shard's key multiset
— so detecting which shards a new key set dirties costs nothing beyond the
routing pass that partitions it.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.habf import contains_window, probe_signature
from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key, mix64, normalize_key
from repro.hashing.primitives import xxhash
from repro.obs import default_registry, stage
from repro.service.backends import BUILTIN_BACKENDS, BackendSpec, resolve_backend
from repro.service.stats import ShardStats

#: Salt separating the fingerprint digest from the routing hash (same 64-bit
#: xxhash pass, different mixes), so placement and fingerprints stay
#: statistically independent.
_FINGERPRINT_SALT = 0x4650_5244_4947_5354  # "FPRDIGST"
_MASK64 = (1 << 64) - 1


#: A batch holding at most this many keys per shard it touches skips the
#: array engine: :meth:`ShardedFilterStore.query_many` answers each shard
#: group with the filter's scalar loop.  The per-shard engine loop pays a
#: fixed setup per shard group (plus a little per window) and the scalar
#: loop pays per key, so what decides is the keys per group, not the
#: window size: an 8-key window over 8 shards holds groups of one or two
#: keys, while a single filter's 16-key batch is one group, where the
#: engine is up to twice as fast.  An HABF store's window program pays its
#: setup once per window instead; the table below was measured against the
#: per-shard loop, so its ``habf`` and ``f-habf`` rows overstate the
#: engine's cost on 4 and 8 shards, and the cut stays where every backend
#: agrees.
#:
#: Engine time over scalar time (above 1 the scalar loop is faster), 50k
#: Shalla-like keys (seed 3), 10 bits/key, the wire benchmark's traffic mix,
#: median of 5 rounds of 120 windows per size, 2-vCPU VM.  On 1 shard the
#: columns are window sizes; on 4 and 8 shards (windows of 4-16 and 8-24
#: keys) they bucket windows by mean keys per touched shard:
#:
#:   shards          1            4                  8
#:   keys/group    2     3    1.5-2  2-3    1.5-2  2-2.5  2.5-3
#:   habf        1.89  1.70   2.11  1.81    2.13   1.97   1.80
#:   f-habf      1.66  1.35   1.56  1.20    1.58   1.39   1.19
#:   bloom       2.05  2.10   2.44  2.38    2.56   2.52   2.39
#:   bloom-dh    1.42  1.18   1.16  0.94    1.11   1.01   0.87
#:   xor         1.32  1.13   1.28  1.00    1.39   1.21   1.00
#:   wbf         2.51  2.15   3.01  2.27    3.18   2.71   2.26
#:   lbf         1.10  1.02   1.07  1.01    1.05   1.01   0.97
#:   slbf        1.30  1.10   1.14  1.04    1.13   1.05   0.99
#:   adabf       1.14  1.08   1.11  1.01    1.10   1.06   1.01
#:
#: Two is the largest whole number of keys per group at which no registered
#: backend's scalar loop is slower on 1, 4 or 8 shards.  bloom-dh breaks
#: even there: a second run on 8 shards, in quarter-key buckets, read 1.02
#: for means of 1.75-2 and 0.96 for 2-2.25.  Verdicts are the same either
#: way: scalar ``contains`` is the oracle the engine is pinned to.
SCALAR_KEYS_PER_GROUP = 2


@dataclass(frozen=True)
class ShardEntry:
    """What the manifest records about one shard.

    The codec store frame, the disk ``DIRECTORY`` and the replication delta
    all write these four facts per shard, with the same bytes
    (:func:`repro.service.codec._write_entry`).  ``fingerprint`` is the
    order-independent digest of the shard's key multiset, or ``None`` when
    unknown (a version-1 frame).
    """

    key_count: int
    generation: int
    fingerprint: Optional[int]
    backend_name: str

    def same_keys(self, other: "ShardEntry") -> bool:
        """The incremental-rebuild test: ``other`` certainly holds this
        shard's keys on its backend.  An unknown fingerprint is never
        certain; generations are not compared."""
        return (
            self.fingerprint is not None
            and self.fingerprint == other.fingerprint
            and self.key_count == other.key_count
            and self.backend_name == other.backend_name
        )

    def agrees_with(self, other: "ShardEntry") -> bool:
        """The replication check on clean shards: counts, generations and
        backend names agree, and fingerprints too when both sides know
        them."""
        if (
            self.fingerprint is not None
            and other.fingerprint is not None
            and self.fingerprint != other.fingerprint
        ):
            return False
        return (
            self.key_count == other.key_count
            and self.generation == other.generation
            and self.backend_name == other.backend_name
        )


class EmptyShardFilter:
    """Filter for a shard that received no keys: rejects everything.

    (Contrast :class:`repro.kvstore.filter_policy.NoFilterPolicy`'s
    always-contains filter, which is the safe default when a *table* has no
    filter; a membership shard with no keys genuinely holds nothing.)
    """

    algorithm_name = "empty"

    def contains(self, key: Key) -> bool:
        return False

    def __contains__(self, key: Key) -> bool:
        return False

    def contains_many(self, keys: Iterable[Key]) -> List[bool]:
        return [False for _ in keys]

    def _contains_batch(self, batch):
        np = vec.numpy_or_none()
        return np.zeros(len(batch), dtype=bool)

    def size_in_bits(self) -> int:
        return 0


def _resolved(filt):
    """The filter that answers for ``filt``: a disk tier's lazy shard
    resolves through its cache (one lookup); any other filter is itself."""
    resolve = getattr(filt, "resolve", None)
    return filt if resolve is None else resolve()


def _group_positions(shards: Sequence[int]) -> Dict[int, List[int]]:
    """Shard -> the positions routed to it, in input order."""
    groups: Dict[int, List[int]] = {}
    for position, shard in enumerate(shards):
        groups.setdefault(shard, []).append(position)
    return groups


class ShardRouter:
    """Deterministic key → shard mapping, independent of filter hashing."""

    def __init__(self, num_shards: int, seed: int = 0) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        self._num_shards = num_shards
        self._salt = mix64(seed ^ 0x5348_4152_4453_4545)  # "SHARDSEE"

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def seed_salt(self) -> int:
        return self._salt

    def shard_of(self, key: Key) -> int:
        """Return the shard index ``key`` routes to."""
        return mix64(xxhash(normalize_key(key)) ^ self._salt) % self._num_shards

    def route(self, key: Key) -> Tuple[int, int]:
        """Shard index plus the key's fingerprint contribution.

        Both derive from one xxhash evaluation: the placement mixes the hash
        with the router salt, the fingerprint contribution mixes it with a
        fixed digest salt.  Summing contributions (mod 2^64) over a shard's
        keys yields an order-independent digest of its key multiset.
        """
        value = xxhash(normalize_key(key))
        return (
            mix64(value ^ self._salt) % self._num_shards,
            mix64(value ^ _FINGERPRINT_SALT),
        )

    def shard_of_many(self, batch: "vec.KeyBatch"):
        """Vector form of :meth:`shard_of` over an encoded batch.

        Returns an int64 ndarray of shard indexes; requires numpy (callers
        gate on the engine and fall back to per-key routing without it).
        The partition is memoised on the batch like a hash pass, so the
        query path and the FPR estimator's shadow sampling share one router
        evaluation per window.
        """
        cache_key = ("shards", self._salt, self._num_shards)
        cached = batch.cache.get(cache_key)
        if cached is not None:
            return cached
        np = vec.numpy_or_none()
        values = vec.hash_batch(xxhash, batch)
        salted = vec.mix64(values ^ np.uint64(self._salt))
        result = (salted % np.uint64(self._num_shards)).astype(np.int64)
        batch.cache[cache_key] = result
        return result


def _build_shard_frame(
    backend_name: str,
    backend_kwargs: dict,
    keys: List[Key],
    negatives: List[Key],
    costs: Optional[Dict[Key, float]],
) -> bytes:
    """Process-pool worker: build one shard's filter, return its codec frame.

    The policy is re-instantiated inside the worker from its registered name
    (policy objects never cross the process boundary), and the finished
    filter crosses back as one self-describing codec frame — the same bytes
    a snapshot would hold, so "parallel-buildable" and "persistable" are the
    same property.
    """
    from repro.service import codec
    from repro.service.backends import get_backend

    policy = get_backend(backend_name, **backend_kwargs)
    return codec.dumps(policy.create_filter(keys, negatives=negatives, costs=costs))


def _observe_build_seconds(backend_name: str, seconds: float) -> None:
    """Record one (re)build's filter-construction time on the global registry.

    Builds run off the query hot path, so the get-or-create lookup per call
    is fine; the process-global registry is used unconditionally because the
    store is built by classmethods that have no injected registry to honour.
    """
    default_registry().histogram(
        "repro_filter_build_seconds",
        "Wall-clock seconds constructing shard filters per (re)build",
        ("backend",),
    ).labels(backend_name).observe(seconds)


def _start_context():
    """The multiprocessing context for build workers and replica processes.

    ``fork`` is cheapest and — unlike ``forkserver``/``spawn`` — never
    re-imports ``__main__`` (so it works from a REPL or a stdin script),
    but forking a *multithreaded* process can deadlock children on locks
    some other thread held at fork time, and a hot rebuild runs exactly
    there: next to live query threads.  So: fork while the process is still
    single-threaded (always safe), forkserver once threads exist (forks
    from a clean single-threaded server process), default context (spawn)
    where neither is available.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()  # pragma: no cover - Windows


class ShardedFilterStore:
    """A fixed set of filters, one per shard, built by a shared backend.

    Build one with :meth:`build` (``workers=N`` constructs independent
    shards concurrently); rebuild only the shards whose key sets changed
    with :meth:`rebuild_from`; query with :meth:`query` / :meth:`query_many`;
    persist with :func:`repro.service.codec.dumps` (the whole store is one
    frame, including every shard's :class:`ShardEntry`) and revive with
    ``loads``.

    ``entries`` holds one :class:`ShardEntry` per filter, in shard order.
    The store-level :attr:`backend_name` is the entries' common backend
    name, or ``"mixed"`` when they differ.
    """

    def __init__(
        self,
        filters: Sequence[object],
        router_seed: int,
        entries: Sequence[ShardEntry],
    ) -> None:
        if not filters:
            raise ConfigurationError("a sharded store needs at least one shard")
        self._filters: List[object] = list(filters)
        self._entries: Tuple[ShardEntry, ...] = tuple(entries)
        num_shards = len(self._filters)
        if len(self._entries) != num_shards:
            raise ConfigurationError(
                f"{len(self._entries)} shard entries for {num_shards} shards"
            )
        self._router = ShardRouter(num_shards, seed=router_seed)
        self._router_seed = router_seed
        names = {entry.backend_name for entry in self._entries}
        self._backend_name = names.pop() if len(names) == 1 else "mixed"
        self._queries = [0] * num_shards
        self._positives = [0] * num_shards
        # Counter updates are read-modify-write; the serving layer queries
        # from multiple threads, so they need their own lock (queries
        # themselves touch only immutable filter state and stay lock-free).
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _partition(
        router: ShardRouter,
        keys: Sequence[Key],
        negatives: Sequence[Key],
        costs: Optional[Mapping[Key, float]],
    ) -> Tuple[List[List[Key]], List[List[Key]], List[Optional[dict]], List[int]]:
        """Split keys/negatives/costs per shard and digest each key set.

        With numpy available, placement and fingerprint contributions come
        from one vectorized xxhash pass (bit-identical to the scalar
        :meth:`ShardRouter.route`, like every engine twin) — this matters
        because the partition runs on *every* rebuild, including incremental
        ones that then rebuild only a single shard.
        """
        num_shards = router.num_shards
        shard_keys: List[List[Key]] = [[] for _ in range(num_shards)]
        fingerprints = [0] * num_shards
        np = vec.numpy_or_none()
        if np is not None and len(keys):
            batch = keys if isinstance(keys, vec.KeyBatch) else vec.KeyBatch(list(keys))
            values = vec.hash_batch(xxhash, batch)
            shards = (
                vec.mix64(values ^ np.uint64(router.seed_salt))
                % np.uint64(num_shards)
            ).astype(np.int64)
            contributions = vec.mix64(values ^ np.uint64(_FINGERPRINT_SALT))
            digests = np.zeros(num_shards, dtype=np.uint64)
            np.add.at(digests, shards, contributions)  # uint64 addition wraps
            fingerprints = [int(value) for value in digests]
            for key, shard in zip(batch.keys, shards.tolist()):
                shard_keys[shard].append(key)
        else:
            for key in keys:
                shard, contribution = router.route(key)
                shard_keys[shard].append(key)
                fingerprints[shard] = (fingerprints[shard] + contribution) & _MASK64
        shard_negatives: List[List[Key]] = [[] for _ in range(num_shards)]
        if negatives:
            negatives = list(negatives)
            if np is not None:
                routed = router.shard_of_many(vec.KeyBatch(negatives)).tolist()
            else:
                routed = [router.shard_of(key) for key in negatives]
            for key, shard in zip(negatives, routed):
                shard_negatives[shard].append(key)
        shard_costs: List[Optional[dict]] = [None] * num_shards
        if costs:
            shard_costs = [
                {key: costs[key] for key in group if key in costs}
                for group in shard_negatives
            ]
        return shard_keys, shard_negatives, shard_costs, fingerprints

    @classmethod
    def _build_filters(
        cls,
        backend: BackendSpec,
        backend_kwargs: dict,
        policy,
        shard_keys: List[List[Key]],
        shard_negatives: List[List[Key]],
        shard_costs: List[Optional[dict]],
        shards: Sequence[int],
        workers: Optional[int],
    ) -> Dict[int, object]:
        """Build the filters for ``shards``, optionally on a worker pool.

        A *built-in* backend name builds on process workers, which
        re-instantiate the backend and ship finished shards back as codec
        frames — true CPU parallelism, what rebuild latency cares about.
        Anything else (a policy instance, or a custom ``register_backend``
        name, which may not resolve inside a forkserver/spawn worker's fresh
        interpreter) builds on threads that share the policy object and
        skip serialization.
        """
        built: Dict[int, object] = {}
        pending = []
        for shard in shards:
            if shard_keys[shard]:
                pending.append(shard)
            else:
                built[shard] = EmptyShardFilter()
        pool_size = min(workers or 1, len(pending))
        if pool_size <= 1:
            for shard in pending:
                built[shard] = policy.create_filter(
                    shard_keys[shard],
                    negatives=shard_negatives[shard],
                    costs=shard_costs[shard],
                )
            return built
        if isinstance(backend, str) and backend in BUILTIN_BACKENDS:
            from repro.service import codec

            with ProcessPoolExecutor(
                max_workers=pool_size, mp_context=_start_context()
            ) as executor:
                futures = {
                    shard: executor.submit(
                        _build_shard_frame,
                        backend,
                        backend_kwargs,
                        shard_keys[shard],
                        shard_negatives[shard],
                        shard_costs[shard],
                    )
                    for shard in pending
                }
                for shard, future in futures.items():
                    built[shard] = codec.loads(future.result())
        else:
            with ThreadPoolExecutor(
                max_workers=pool_size, thread_name_prefix="shard-build"
            ) as executor:
                futures = {
                    shard: executor.submit(
                        policy.create_filter,
                        shard_keys[shard],
                        negatives=shard_negatives[shard],
                        costs=shard_costs[shard],
                    )
                    for shard in pending
                }
                for shard, future in futures.items():
                    built[shard] = future.result()
        return built

    @classmethod
    def _plan_backends(
        cls,
        num_shards: int,
        backend: BackendSpec,
        backend_kwargs: dict,
        shard_backends: Optional[Mapping[int, object]],
    ) -> List[Tuple[BackendSpec, dict, object, str]]:
        """Resolve the (spec, kwargs, policy, name) that serves each shard.

        ``shard_backends`` maps shard index → an override: either a backend
        spec (which inherits the call's ``backend_kwargs``) or a
        ``(spec, kwargs)`` pair that carries exactly its own kwargs.  Shards
        without an override use the call-level backend.  One policy instance
        is shared per distinct (spec, kwargs), so a homogeneous store still
        resolves exactly one policy and overridden shards build as
        deterministically as any other.
        """
        overrides = dict(shard_backends) if shard_backends else {}
        for shard in overrides:
            if not 0 <= int(shard) < num_shards:
                raise ConfigurationError(
                    f"shard_backends names shard {shard}, but the store has "
                    f"{num_shards} shards"
                )
        cache: Dict[object, Tuple[object, str]] = {}

        def _resolve(spec: BackendSpec, kwargs: dict) -> Tuple[object, str]:
            params = tuple(sorted(kwargs.items()))
            cache_key = (spec, params) if isinstance(spec, str) else (id(spec), params)
            entry = cache.get(cache_key)
            if entry is None:
                policy = resolve_backend(spec, **kwargs)
                entry = (policy, getattr(policy, "name", type(policy).__name__))
                cache[cache_key] = entry
            return entry

        plan: List[Tuple[BackendSpec, dict, object, str]] = []
        for shard in range(num_shards):
            override = overrides.get(shard)
            if override is None:
                spec, kwargs = backend, backend_kwargs
            elif isinstance(override, tuple):
                spec, kwargs = override[0], dict(override[1])
            else:
                spec, kwargs = override, dict(backend_kwargs)
            policy, name = _resolve(spec, kwargs)
            plan.append((spec, kwargs, policy, name))
        return plan

    @classmethod
    def _build_planned(
        cls,
        plan: List[Tuple[BackendSpec, dict, object, str]],
        shard_keys: List[List[Key]],
        shard_negatives: List[List[Key]],
        shard_costs: List[Optional[dict]],
        shards: Sequence[int],
        workers: Optional[int],
    ) -> Dict[int, object]:
        """Build filters for ``shards``, grouping them by planned policy.

        Each group runs through :meth:`_build_filters` under its own
        backend, so worker-pool semantics and the per-backend
        build-seconds histogram behave identically whether the store is
        homogeneous or mixed.
        """
        built: Dict[int, object] = {}
        groups: Dict[int, List[int]] = {}
        for shard in shards:
            groups.setdefault(id(plan[shard][2]), []).append(shard)
        for members in groups.values():
            spec, kwargs, policy, name = plan[members[0]]
            start = time.perf_counter()
            built.update(
                cls._build_filters(
                    spec,
                    kwargs,
                    policy,
                    shard_keys,
                    shard_negatives,
                    shard_costs,
                    members,
                    workers,
                )
            )
            _observe_build_seconds(name, time.perf_counter() - start)
        return built

    @classmethod
    def build(
        cls,
        keys: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        num_shards: int = 4,
        backend: BackendSpec = "habf",
        router_seed: int = 0,
        workers: Optional[int] = None,
        shard_backends: Optional[Mapping[int, object]] = None,
        **backend_kwargs,
    ) -> "ShardedFilterStore":
        """Partition ``keys`` across ``num_shards`` filters and build each one.

        Negative keys (and their costs) are routed to the same shards their
        hashes select, so each shard's filter is steered only by the negatives
        it can actually be queried with.

        ``workers`` > 1 builds shards concurrently (see
        :meth:`_build_filters` for processes versus threads); the result is
        bit-identical to a sequential build because every backend constructs
        deterministically from its shard's keys.  ``shard_backends``
        overrides the backend per shard (see :meth:`_plan_backends`); when
        the resulting shards diverge the store-level name becomes
        ``"mixed"`` and the per-shard names survive codec round-trips.
        """
        keys = list(keys)
        if not keys:
            raise ConfigurationError("cannot build a sharded store from an empty key set")
        plan = cls._plan_backends(num_shards, backend, backend_kwargs, shard_backends)
        router = ShardRouter(num_shards, seed=router_seed)
        shard_keys, shard_negatives, shard_costs, fingerprints = cls._partition(
            router, keys, negatives, costs
        )
        built = cls._build_planned(
            plan,
            shard_keys,
            shard_negatives,
            shard_costs,
            range(num_shards),
            workers,
        )
        return cls(
            [built[shard] for shard in range(num_shards)],
            router_seed,
            [
                ShardEntry(len(group), 1, fingerprint, planned[3])
                for group, fingerprint, planned in zip(shard_keys, fingerprints, plan)
            ],
        )

    @classmethod
    def rebuild_from(
        cls,
        previous: "ShardedFilterStore",
        keys: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        backend: BackendSpec = "habf",
        changed_keys: Optional[Iterable[Key]] = None,
        workers: Optional[int] = None,
        shard_backends: Optional[Mapping[int, object]] = None,
        **backend_kwargs,
    ) -> Tuple["ShardedFilterStore", List[int], List[int]]:
        """Build a successor store, reconstructing only the dirty shards.

        A shard is dirty when its key-set fingerprint (or key count) differs
        from ``previous``, when ``previous`` has no fingerprint for it (e.g.
        a version-1 snapshot), when ``changed_keys`` routes to it — the
        hint lets callers force shards whose *negatives or costs* changed,
        which the positive-key fingerprint cannot see — or when the planned
        backend name differs from the one that built it (an adaptive
        migration).  Clean shards share the previous store's filter objects
        (immutable, so sharing is safe) and keep their per-shard generation;
        dirty shards rebuild (on ``workers`` like :meth:`build`) and
        increment it.

        Returns ``(store, rebuilt_shards, skipped_shards)``.
        """
        keys = list(keys)
        if not keys:
            raise ConfigurationError("cannot rebuild a sharded store from an empty key set")
        router = previous._router
        plan = cls._plan_backends(
            router.num_shards, backend, backend_kwargs, shard_backends
        )
        shard_keys, shard_negatives, shard_costs, fingerprints = cls._partition(
            router, keys, negatives, costs
        )
        # Each shard's new keys under its old generation: a clean shard
        # keeps this entry as it is, a dirty one moves the generation on.
        fresh = [
            ShardEntry(len(group), entry.generation, fingerprint, planned[3])
            for group, entry, fingerprint, planned in zip(
                shard_keys, previous.entries, fingerprints, plan
            )
        ]
        dirty = {
            shard
            for shard, entry in enumerate(previous.entries)
            if not entry.same_keys(fresh[shard])
        }
        if changed_keys is not None:
            for key in changed_keys:
                dirty.add(router.shard_of(key))
        built = cls._build_planned(
            plan,
            shard_keys,
            shard_negatives,
            shard_costs,
            sorted(dirty),
            workers,
        )
        filters: List[object] = []
        for shard, entry in enumerate(fresh):
            if shard in dirty:
                filters.append(built[shard])
                fresh[shard] = replace(entry, generation=entry.generation + 1)
            else:
                filters.append(previous.filters[shard])
        store = cls(filters, previous.router_seed, fresh)
        rebuilt = sorted(dirty)
        skipped = [shard for shard in range(router.num_shards) if shard not in dirty]
        return store, rebuilt, skipped

    def replace_shards(
        self, replacements: Mapping[int, Tuple[object, ShardEntry]]
    ) -> "ShardedFilterStore":
        """A successor store with ``replacements`` swapped in, rest shared.

        ``replacements`` maps shard index → ``(filter, entry)``.  Untouched
        shards share this store's filter objects by identity and keep their
        entries — the assembly the replication tier uses to apply an
        O(dirty-shard) delta on a follower (clean shards may be lazy disk
        proxies; they pass through untouched and stay cold).
        """
        num_shards = self.num_shards
        filters = list(self._filters)
        entries = list(self._entries)
        for shard, (filt, entry) in replacements.items():
            if not 0 <= shard < num_shards:
                raise ConfigurationError(
                    f"replacement names shard {shard}, but the store has "
                    f"{num_shards} shards"
                )
            filters[shard] = filt
            entries[shard] = entry
        return ShardedFilterStore(filters, self._router_seed, entries)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards (fixed at build time)."""
        return len(self._filters)

    @property
    def router_seed(self) -> int:
        """Seed the router derives its placement salt from."""
        return self._router_seed

    @property
    def backend_name(self) -> str:
        """Name of the backend the shard filters were built with."""
        return self._backend_name

    @property
    def filters(self) -> List[object]:
        """The per-shard filters, in shard order (shared, not copied)."""
        return self._filters

    @property
    def entries(self) -> Tuple[ShardEntry, ...]:
        """Every shard's :class:`ShardEntry`, in shard order."""
        return self._entries

    @property
    def shard_key_counts(self) -> List[int]:
        """Positive keys per shard at build time."""
        return [entry.key_count for entry in self._entries]

    @property
    def shard_generations(self) -> List[int]:
        """Per-shard rebuild counters (a shard's generation only moves when
        that shard is actually reconstructed; contrast the service-level
        generation, which moves on every snapshot swap)."""
        return [entry.generation for entry in self._entries]

    @property
    def shard_fingerprints(self) -> List[Optional[int]]:
        """Order-independent digests of each shard's key multiset (``None``
        when unknown, e.g. a store decoded from a version-1 frame)."""
        return [entry.fingerprint for entry in self._entries]

    @property
    def shard_backend_names(self) -> List[str]:
        """Registered backend name serving each shard, in shard order.

        Homogeneous stores repeat :attr:`backend_name`; adaptive migrations
        make entries diverge, at which point the store-level name reads
        ``"mixed"`` and these names are what the codec persists.
        """
        return [entry.backend_name for entry in self._entries]

    def shard_stats(self) -> List[ShardStats]:
        """Point-in-time copies of the per-shard counters."""
        with self._stats_lock:
            counters = list(zip(self._queries, self._positives))
        return [
            ShardStats(
                shard=shard,
                num_keys=entry.key_count,
                queries=queries,
                positives=positives,
                size_in_bits=self._filter_bits(shard),
                generation=entry.generation,
                backend=entry.backend_name,
            )
            for shard, (entry, (queries, positives)) in enumerate(
                zip(self._entries, counters)
            )
        ]

    def num_keys(self) -> int:
        """Total positive keys across all shards."""
        return sum(entry.key_count for entry in self._entries)

    def _filter_bits(self, shard: int) -> int:
        size = getattr(self._filters[shard], "size_in_bits", None)
        return int(size()) if callable(size) else 0

    def size_in_bits(self) -> int:
        """Total serialized filter payload across shards, in bits."""
        return sum(self._filter_bits(shard) for shard in range(len(self._filters)))

    def size_in_bytes(self) -> int:
        """Total filter payload in bytes (rounded up per shard).

        This is the footprint replicas share when the store is served from a
        :class:`~repro.service.multiproc.SharedFrameArena` — the multiproc
        benchmark compares per-extra-replica RSS growth against it.
        """
        return sum(
            (self._filter_bits(shard) + 7) // 8 for shard in range(len(self._filters))
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def shard_of(self, key: Key) -> int:
        """Expose the routing decision (useful for debugging placement)."""
        return self._router.shard_of(key)

    def shards_of_many(self, batch: "vec.KeyBatch"):
        """Vectorized routing for an encoded batch, or ``None`` without numpy.

        One router pass over the whole batch; callers that need a shard per
        key (the FPR estimator shadow-sampling a large positive batch) use
        this instead of re-hashing each key through :meth:`shard_of`.
        """
        if vec.numpy_or_none() is None:
            return None
        return self._router.shard_of_many(batch)

    def query(self, key: Key) -> bool:
        """Membership test for one key against its shard's filter."""
        shard = self._router.shard_of(key)
        answer = self._filters[shard].contains(key)
        with self._stats_lock:
            self._queries[shard] += 1
            if answer:
                self._positives[shard] += 1
        return answer

    def query_many(self, keys: "vec.BatchLike") -> List[bool]:
        """Batch membership test, in input order.

        With numpy available the whole batch is encoded once and the shard
        partition is one router pass.  Callers that already hold an encoded
        :class:`~repro.hashing.vectorized.KeyBatch` (the asyncio
        micro-batcher encodes its flush window before dispatch) may pass it
        directly and the encoding is reused.  An HABF store then answers
        the whole window with one two-round program across the shards it
        touches; any other store answers each shard's group with one engine
        call, sharing the encoded sub-batch with the filter's array program
        (see :meth:`_query_many_vectorized`) — unless the batch holds at
        most :data:`SCALAR_KEYS_PER_GROUP` keys per shard it touches.  Such
        a batch skips the engine: each group is answered by the filter's
        scalar loop, and the encoding serves only the router pass (which
        the FPR estimator's feed then reuses).  Without numpy every batch
        takes that scalar path, routed per key.
        """
        np = vec.numpy_or_none()
        if np is None:
            keys = list(keys.keys) if isinstance(keys, vec.KeyBatch) else list(keys)
            shards = [self._router.shard_of(key) for key in keys]
            return self._query_groups_scalar(keys, _group_positions(shards))
        batch = keys if isinstance(keys, vec.KeyBatch) else vec.KeyBatch(list(keys))
        if not len(batch):
            return []
        per_group = SCALAR_KEYS_PER_GROUP
        if len(batch) <= per_group * len(self._filters):
            groups = _group_positions(self._router.shard_of_many(batch).tolist())
            if len(batch) <= per_group * len(groups):
                return self._query_groups_scalar(batch.keys, groups)
        return self._query_many_vectorized(np, batch)

    def _query_groups_scalar(
        self, keys: List[Key], groups: Dict[int, List[int]]
    ) -> List[bool]:
        """Scalar path of :meth:`query_many`: one call per shard group.

        Each group resolves its filter once — a disk tier's shard is looked
        up in its cache once per group, not once per key — and groups run
        in ascending shard order, as on the engine path, so that cache sees
        the same load order whichever path answers.
        """
        results: List[bool] = [False] * len(keys)
        for shard in sorted(groups):
            positions = groups[shard]
            filt = self._filters[shard]
            shard_keys = [keys[position] for position in positions]
            with stage("shard_probe", shard=shard, backend=self._backend_name):
                scalar = getattr(filt, "_contains_fallback", None) or getattr(
                    filt, "contains_many", None
                )
                if scalar is not None:
                    answers = scalar(shard_keys)
                else:
                    answers = [filt.contains(key) for key in shard_keys]
            hits = 0
            for position, answer in zip(positions, answers):
                results[position] = bool(answer)
                if answer:
                    hits += 1
            with self._stats_lock:
                self._queries[shard] += len(positions)
                self._positives[shard] += hits
        return results

    def _query_many_vectorized(self, np, batch: "vec.KeyBatch") -> List[bool]:
        """Engine path of :meth:`query_many`: one partition, one gather.

        Each touched shard's filter is resolved once, in ascending shard
        order (a disk tier's shard is looked up in its cache once per
        window).  When every resolved filter is an HABF of one probe
        signature, or an empty shard, one two-round program answers the
        whole window (:func:`repro.core.habf.contains_window`); any other
        store answers shard by shard.  The counters take two ``bincount``
        passes (:meth:`_tally`).
        """
        shards = self._router.shard_of_many(batch)
        touched = np.unique(shards).tolist()
        filters = [_resolved(self._filters[shard]) for shard in touched]
        signatures = {
            probe_signature(filt)
            for filt in filters
            if not isinstance(filt, EmptyShardFilter)
        }
        if len(signatures) <= 1 and None not in signatures:
            results = self._query_window(np, batch, shards, touched, filters)
        else:
            results = self._query_shards(np, batch, shards, touched, filters)
        self._tally(np, shards, results)
        return results.tolist()

    def _tally(self, np, shards, hits) -> None:
        """Add one window to the per-shard counters: ``shards`` routes each
        key, ``hits`` (a bool array) holds its verdict."""
        size = len(self._filters)
        queries = np.bincount(shards, minlength=size)
        positives = np.bincount(shards[hits], minlength=size)
        with self._stats_lock:
            for shard in np.flatnonzero(queries).tolist():
                self._queries[shard] += int(queries[shard])
                self._positives[shard] += int(positives[shard])

    def _query_window(self, np, batch, shards, touched, filters):
        """One window program over every touched HABF shard; rows of empty
        shards answer False."""
        habfs: List[object] = []
        slot = np.full(len(self._filters), -1, dtype=np.intp)
        for shard, filt in zip(touched, filters):
            if not isinstance(filt, EmptyShardFilter):
                slot[shard] = len(habfs)
                habfs.append(filt)
        owners = slot[shards]
        results = np.zeros(len(batch), dtype=bool)
        with stage("shard_probe", shards=len(touched), backend=self._backend_name):
            if habfs:
                rows = np.flatnonzero(owners >= 0)
                sub = batch if rows.size == len(batch) else batch.take(rows)
                results[rows] = contains_window(
                    habfs, sub, owners[rows] if len(habfs) > 1 else None
                )
        return results

    def _query_shards(self, np, batch, shards, touched, filters):
        """One engine call per touched shard, on its take of the window."""
        results = np.zeros(len(batch), dtype=bool)
        for shard, filt in zip(touched, filters):
            positions = np.flatnonzero(shards == shard)
            sub = batch.take(positions)
            with stage("shard_probe", shard=shard, backend=self._backend_name):
                answers = None
                batch_fn = getattr(filt, "_contains_batch", None)
                if batch_fn is not None:
                    answers = batch_fn(sub)
                if answers is None:
                    contains_many = getattr(filt, "contains_many", None)
                    if contains_many is not None:
                        answers = np.asarray(contains_many(sub.keys), dtype=bool)
                    else:
                        answers = np.fromiter(
                            (filt.contains(key) for key in sub.keys),
                            dtype=bool,
                            count=len(sub.keys),
                        )
            results[positions] = answers
        return results

    def record_shard_traffic(self, keys: "vec.BatchLike", verdicts: Sequence[bool]):
        """Fold externally-answered traffic into the per-shard counters.

        The multi-process pool answers queries inside replica processes,
        whose stores never touch the parent's counters; the parent feeds
        each dispatched window back through this so adaptive scoring sees
        per-shard queries/positives for replica traffic too.  Returns the
        routed shard per key (an int64 ndarray with numpy, a plain list
        without) so callers can hand the same routing pass to the FPR
        estimator instead of re-hashing the window.
        """
        np = vec.numpy_or_none()
        if np is not None:
            batch = keys if isinstance(keys, vec.KeyBatch) else vec.KeyBatch(list(keys))
            if not len(batch):
                return np.zeros(0, dtype=np.int64)
            shards = self._router.shard_of_many(batch)
            self._tally(np, shards, np.asarray(verdicts, dtype=bool))
            return shards
        plain = list(keys.keys) if isinstance(keys, vec.KeyBatch) else list(keys)
        shards = [self._router.shard_of(key) for key in plain]
        with self._stats_lock:
            for shard, verdict in zip(shards, verdicts):
                self._queries[shard] += 1
                if verdict:
                    self._positives[shard] += 1
        return shards

    def __contains__(self, key: Key) -> bool:
        return self.query(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedFilterStore(shards={self.num_shards}, backend={self._backend_name!r}, "
            f"keys={self.num_keys()})"
        )
