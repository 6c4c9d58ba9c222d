"""Asyncio serving front-end with adaptive micro-batching.

The batch engine (PR 2/3) answers a 10^5-key batch 4–14x faster than the
scalar loop, but a network front-end only sees that speedup if concurrent
scalar requests actually reach the engine *as batches*.  This module closes
that gap with three pieces, all stdlib-only:

* :class:`AdaptiveMicroBatcher` — a coalescing queue in front of
  :meth:`~repro.service.server.MembershipService.query_batch`.  Concurrent
  ``await front.query(key)`` calls park on futures; a single flusher task
  collects a window of up to ``max_batch`` keys, dispatches the whole window
  as one engine call on a worker thread, and resolves every waiter with its
  verdict plus the generation that answered.  The window deadline *adapts*
  to the observed arrival rate (see below).
* :class:`AsyncMembershipServer` — a plain TCP line protocol plus an
  optional minimal HTTP/1.1 handler, both feeding the micro-batcher, so any
  number of connections share one engine dispatch stream.
* :class:`repro.service.stats.MicroBatchStats` — batch-size / wait-time /
  queue-depth percentiles, read from the batcher's registry histograms and
  surfaced through ``stats()`` next to the service's own counters.

Window policy (the "adaptive" part)
-----------------------------------

A window opens at the first pending key and closes at the earliest of:

1. **full** — the window holds ``max_batch`` keys;
2. **adaptive deadline** — the projected time to fill ``max_batch`` at the
   EWMA arrival rate, clamped to ``[min_wait_ms, max_wait_ms]``.  Dense
   traffic shortens the deadline (no reason to wait — the batch fills
   anyway); sparse traffic is capped at ``max_wait_ms`` so a lonely key
   never waits longer than a few milliseconds;
3. **quiet queue** — a scheduler tick passes with no new arrivals and at
   least ``min_wait_ms`` has elapsed.  Closed-loop callers (each awaiting
   its answer before sending the next key) would otherwise pay the full
   deadline for nothing: once every in-flight caller has enqueued, waiting
   longer cannot grow the window.

Generation consistency: the flusher hands the whole window to
``query_batch``, which reads the snapshot reference exactly once — so a
window never straddles a hot rebuild, and every waiter learns which
generation answered it.

Concurrency model: all batcher state is touched only from the event-loop
thread; the engine dispatch runs on a single worker thread, so new arrivals
keep coalescing while a batch is being answered (pipelining).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import itertools
import json
import urllib.parse
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ServiceError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.obs import (
    CONTENT_TYPE as _METRICS_CONTENT_TYPE,
)
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    Registry,
    Tracer,
    current_trace,
    default_registry,
    render_text,
    stage,
)
from repro.service.server import BatchAnswer, MembershipService
from repro.service.stats import MicroBatchStats, ServiceStats

__all__ = ["AdaptiveMicroBatcher", "AsyncMembershipServer"]

#: Floor used when converting a near-instant window into an arrival rate, so
#: one burst that coalesced in microseconds does not produce an absurd EWMA.
_MIN_WINDOW_SECONDS = 50e-6
#: EWMA smoothing factor for the arrival-rate estimate.
_RATE_SMOOTHING = 0.3

#: Distinguishes batcher instances inside shared metric families (the same
#: scheme the service uses with ``service="svc-<n>"``).
_BATCHER_IDS = itertools.count(1)


class _Span:
    """One caller's request inside a flush window: keys + the waiting future.

    Multi-key requests stay contiguous — a span is never split across two
    windows, so every request is answered by exactly one generation.  Spans
    that arrive with numpy available carry their :class:`~repro.hashing.\
vectorized.KeyBatch` encoding, which the flusher reuses via
    ``KeyBatch.concat`` instead of re-normalising the keys.
    """

    __slots__ = ("keys", "future", "batch")

    def __init__(self, keys: List[Key], future: "asyncio.Future", batch=None) -> None:
        self.keys = keys
        self.future = future
        self.batch = batch


class AdaptiveMicroBatcher:
    """Coalesce concurrent membership queries into engine-sized batches.

    Args:
        service: The :class:`~repro.service.server.MembershipService` to
            dispatch against (must be loaded before the first query).
        max_batch: Window size cap; also the bypass threshold — a single
            ``query_many`` request of at least this many keys is already a
            full batch and dispatches directly, skipping the queue.
        max_wait_ms: Hard cap on how long a window may stay open.
        min_wait_ms: Floor on the window (0 = flush as soon as the queue
            goes quiet; raise it to trade latency for larger batches under
            sparse open-loop traffic).
        dispatch_parallelism: How many flush windows may be in flight at
            once, each on a thread of the batcher's own dispatch pool.
            Defaults to the service's ``dispatch_parallelism`` attribute
            when it has one (a
            :class:`~repro.service.multiproc.ReplicaPool` reports its
            replica count) and 1 otherwise.  At 1 — the in-process default —
            dispatches are serialized exactly as before; the GIL makes more
            threads pointless for single-process CPU-bound work.  Above 1
            the flusher hands each window to a dispatch task and immediately
            starts collecting the next, so R replica processes answer R
            windows concurrently.
        tracer: Mints one trace per flush window (stages ``queue_wait``,
            ``window_assembly``, ``engine_dispatch``, and — inside the store
            — ``shard_probe``).  Defaults to a tracer on the service's
            registry with span logging off; pass your own to attach a
            ``span_log``.

    Use as an async context manager, or call :meth:`aclose` explicitly; the
    flusher task starts lazily on the first query.
    """

    def __init__(
        self,
        service: MembershipService,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        min_wait_ms: float = 0.0,
        tracer: Optional[Tracer] = None,
        dispatch_parallelism: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        service_cap = getattr(service, "max_batch_size", None)
        if service_cap is not None and max_batch > service_cap:
            raise ConfigurationError(
                f"max_batch={max_batch} exceeds the service's max_batch_size="
                f"{service_cap}; the service would reject every full window"
            )
        if min_wait_ms < 0 or max_wait_ms < min_wait_ms:
            raise ConfigurationError("need 0 <= min_wait_ms <= max_wait_ms")
        if dispatch_parallelism is None:
            dispatch_parallelism = int(getattr(service, "dispatch_parallelism", 1))
        if dispatch_parallelism < 1:
            raise ConfigurationError("dispatch_parallelism must be at least 1")
        self._parallelism = dispatch_parallelism
        self._service = service
        self._max_batch = max_batch
        self._max_wait = max_wait_ms / 1e3
        self._min_wait = min_wait_ms / 1e3
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_parallelism, thread_name_prefix="aserve-dispatch"
        )
        self._inflight: set = set()
        self._inflight_sem: Optional[asyncio.Semaphore] = None
        self._spans: Deque[_Span] = deque()
        self._pending_keys = 0
        self._arrivals = 0
        self._rate_ewma = 0.0
        self._closed = False
        self._flusher: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._more: Optional[asyncio.Event] = None
        registry = getattr(service, "registry", None)
        self._registry: Registry = registry if registry is not None else default_registry()
        self._tracer = tracer if tracer is not None else Tracer(registry=self._registry)
        self._obs_label = f"mb-{next(_BATCHER_IDS)}"
        self._make_instruments()

    def _make_instruments(self) -> None:
        """Bind this batcher's label children in the shared metric families."""
        registry, label = self._registry, self._obs_label
        flushes = registry.counter(
            "repro_batch_flushes_total",
            "Flush windows by outcome: full (hit max_batch), timer "
            "(deadline/quiet queue), empty (every waiter cancelled)",
            ("batcher", "kind"),
        )
        self._full_flushes = flushes.labels(label, "full")
        self._timer_flushes = flushes.labels(label, "timer")
        self._empty_flushes = flushes.labels(label, "empty")
        self._coalesced_keys = registry.counter(
            "repro_batch_coalesced_keys_total",
            "Keys answered through dispatched windows",
            ("batcher",),
        ).labels(label)
        self._bypassed_batches = registry.counter(
            "repro_batch_bypassed_total",
            "Engine-sized requests that skipped the coalescing queue",
            ("batcher",),
        ).labels(label)
        self._cancelled_callers = registry.counter(
            "repro_batch_cancelled_callers_total",
            "Waiters dropped because their future was cancelled",
            ("batcher",),
        ).labels(label)
        self._batch_size_hist = registry.histogram(
            "repro_batch_size",
            "Keys per dispatched window",
            ("batcher",),
            buckets=DEFAULT_SIZE_BUCKETS,
        ).labels(label)
        self._window_seconds_hist = registry.histogram(
            "repro_batch_window_seconds",
            "How long flush windows stayed open collecting callers",
            ("batcher",),
        ).labels(label)
        self._depth_hist = registry.histogram(
            "repro_batch_queue_depth",
            "Pending keys when a flush window closed",
            ("batcher",),
            buckets=DEFAULT_SIZE_BUCKETS,
        ).labels(label)
        wait_gauge = registry.gauge(
            "repro_batch_current_wait_seconds",
            "The adaptive window deadline right now",
            ("batcher",),
        ).labels(label)
        # Weakly bound so the registry's child (whose callback closes over
        # this reference) never pins the batcher — and through it the service
        # and its filters — for the life of the process.
        ref = weakref.ref(self)

        def _current_wait() -> float:
            batcher = ref()
            return batcher.current_wait_seconds if batcher is not None else 0.0

        wait_gauge.set_function(_current_wait)

    # ------------------------------------------------------------------ #
    # Public query surface
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> MembershipService:
        """The wrapped service (shared, not copied)."""
        return self._service

    @property
    def registry(self) -> Registry:
        """The metrics registry this batcher (and its service) report to."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The tracer minting one trace per flush window."""
        return self._tracer

    @property
    def max_batch(self) -> int:
        """Window size cap / direct-dispatch threshold."""
        return self._max_batch

    @property
    def current_wait_seconds(self) -> float:
        """The adaptive window deadline right now (see module docstring)."""
        if self._rate_ewma <= 0.0:
            return self._max_wait
        expected_fill = self._max_batch / self._rate_ewma
        return min(self._max_wait, max(self._min_wait, expected_fill))

    async def query(self, key: Key) -> bool:
        """Membership test for one key, answered from a coalesced window."""
        verdicts, _generation = await self._submit([key])
        return verdicts[0]

    async def query_with_generation(self, key: Key) -> Tuple[bool, int]:
        """Like :meth:`query`, also reporting the generation that answered."""
        verdicts, generation = await self._submit([key])
        return verdicts[0], generation

    async def query_many(self, keys: Sequence[Key]) -> List[bool]:
        """Batch membership test, in input order (one generation per call)."""
        verdicts, _generation = await self.query_many_with_generation(keys)
        return verdicts

    async def query_many_with_generation(
        self, keys: Sequence[Key]
    ) -> Tuple[List[bool], int]:
        """Like :meth:`query_many`, also reporting the answering generation.

        Requests of at least ``max_batch`` keys are already engine-sized and
        bypass the coalescing queue entirely.
        """
        keys = list(keys)
        if not keys:
            raise ServiceError("batch of 0 keys rejected; coalesce needs at least 1")
        if len(keys) >= self._max_batch:
            self._ensure_open()
            answer = await self._dispatch(keys)
            self._bypassed_batches.inc()
            return answer.verdicts, answer.generation
        batch = vec.KeyBatch(keys) if vec.numpy_or_none() is not None else None
        return await self._submit(keys, batch)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "AdaptiveMicroBatcher":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Flush every pending waiter, stop the flusher, release the
        dispatch pool."""
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._flusher is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._flusher
            self._flusher = None
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def batching_stats(self) -> MicroBatchStats:
        """Point-in-time micro-batcher counters and distributions.

        Every field is a view over this batcher's registry instrument
        children (``flushes`` derives as full + timer — every successful
        dispatch is exactly one of the two); the percentile fields are the
        histogram children's exact percentiles, so ``queue_depth`` samples
        the pending keys once per flush, as ``/metrics`` does.
        """
        full = int(self._full_flushes.value)
        timer = int(self._timer_flushes.value)
        return MicroBatchStats(
            flushes=full + timer,
            full_flushes=full,
            timer_flushes=timer,
            empty_flushes=int(self._empty_flushes.value),
            coalesced_keys=int(self._coalesced_keys.value),
            bypassed_batches=int(self._bypassed_batches.value),
            cancelled_callers=int(self._cancelled_callers.value),
            current_wait_ms=self.current_wait_seconds * 1e3,
            batch_size=self._batch_size_hist.percentiles(),
            wait=self._window_seconds_hist.percentiles(),
            queue_depth=self._depth_hist.percentiles(),
        )

    def stats(self) -> ServiceStats:
        """The wrapped service's stats with :class:`MicroBatchStats` attached."""
        stats = self._service.stats()
        stats.batching = self.batching_stats()
        return stats

    # ------------------------------------------------------------------ #
    # Internals (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("the micro-batcher is closed")

    def _ensure_flusher(self) -> None:
        self._ensure_open()
        if self._flusher is None or self._flusher.done():
            self._wake = asyncio.Event()
            self._more = asyncio.Event()
            if self._parallelism > 1 and self._inflight_sem is None:
                self._inflight_sem = asyncio.Semaphore(self._parallelism)
            self._flusher = asyncio.get_running_loop().create_task(
                self._run(), name="aserve-flusher"
            )

    async def _submit(self, keys: List[Key], batch=None) -> Tuple[List[bool], int]:
        self._ensure_flusher()
        future = asyncio.get_running_loop().create_future()
        self._spans.append(_Span(keys, future, batch))
        self._pending_keys += len(keys)
        self._arrivals += 1
        self._wake.set()
        self._more.set()
        return await future

    async def _dispatch(self, request) -> BatchAnswer:
        loop = asyncio.get_running_loop()
        if current_trace() is not None:
            # run_in_executor does not propagate contextvars to the worker
            # thread (asyncio.to_thread does, but only exists on 3.9+ with a
            # per-call thread); copying the context carries the active trace
            # into the engine so shard_probe stages land on the same trace.
            context = contextvars.copy_context()
            return await loop.run_in_executor(
                self._executor, context.run, self._service.query_batch, request
            )
        return await loop.run_in_executor(
            self._executor, self._service.query_batch, request
        )

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self._closed and not self._spans:
                break
            await self._wake.wait()
            if self._closed and not self._spans:
                break
            window_start = loop.time()
            if not self._closed:
                await self._collect_window(loop, window_start)
            await self._flush(loop.time() - window_start)

    async def _collect_window(self, loop, window_start: float) -> None:
        """Hold the window open per the policy in the module docstring."""
        deadline = window_start + self.current_wait_seconds
        min_deadline = window_start + self._min_wait
        while not self._closed and self._pending_keys < self._max_batch:
            now = loop.time()
            if now >= deadline:
                break
            arrivals_before = self._arrivals
            self._more.clear()
            # One scheduler tick: let every ready caller enqueue.
            await asyncio.sleep(0)
            if self._arrivals != arrivals_before:
                continue  # still draining a burst
            now = loop.time()
            if now >= min_deadline:
                break  # quiet queue past the window floor: flush now
            # Quiet but inside the floor: park until an arrival or the floor
            # elapses (deadline >= min_deadline always, by the clamp above).
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._more.wait(), timeout=min_deadline - now)

    async def _flush(self, waited_seconds: float) -> None:
        self._depth_hist.observe(float(self._pending_keys))
        spans: List[_Span] = []
        taken_keys = 0
        while self._spans:
            span = self._spans[0]
            if spans and taken_keys + len(span.keys) > self._max_batch:
                break  # next span starts the following window, intact
            self._spans.popleft()
            self._pending_keys -= len(span.keys)
            if span.future.cancelled():
                self._cancelled_callers.inc()
                continue
            spans.append(span)
            taken_keys += len(span.keys)
        if not self._spans and not self._closed:
            self._wake.clear()
        if not spans:
            self._empty_flushes.inc()
            return
        instant_rate = taken_keys / max(waited_seconds, _MIN_WINDOW_SECONDS)
        if self._rate_ewma <= 0.0:
            self._rate_ewma = instant_rate
        else:
            self._rate_ewma += _RATE_SMOOTHING * (instant_rate - self._rate_ewma)
        tracer = self._tracer
        trace = tracer.begin()
        with tracer.activate(trace):
            tracer.record_stage(trace, "queue_wait", waited_seconds, keys=taken_keys)
            with stage("window_assembly", spans=len(spans)):
                request = self._assemble(spans)
            if self._parallelism <= 1:
                try:
                    with stage("engine_dispatch", keys=taken_keys):
                        answer = await self._dispatch(request)
                except Exception as exc:  # ServiceError (no snapshot yet) included
                    self._fail_window(spans, exc)
                    return
                self._settle_window(spans, answer, taken_keys, waited_seconds)
                return
        # Pipelined dispatch: hand the window to a task and immediately go
        # back to collecting the next one.  The semaphore bounds windows in
        # flight to the dispatch parallelism, so a slow engine backs traffic
        # up into (larger) windows instead of unbounded tasks.
        await self._inflight_sem.acquire()
        task = asyncio.get_running_loop().create_task(
            self._dispatch_window(trace, spans, request, taken_keys, waited_seconds)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _dispatch_window(
        self, trace, spans: List[_Span], request, taken_keys: int, waited_seconds: float
    ) -> None:
        """One in-flight window: dispatch, then settle its waiters."""
        tracer = self._tracer
        try:
            with tracer.activate(trace):
                try:
                    with stage("engine_dispatch", keys=taken_keys):
                        answer = await self._dispatch(request)
                except Exception as exc:
                    self._fail_window(spans, exc)
                    return
            self._settle_window(spans, answer, taken_keys, waited_seconds)
        finally:
            self._inflight_sem.release()

    def _fail_window(self, spans: List[_Span], exc: Exception) -> None:
        for span in spans:
            if not span.future.done():
                span.future.set_exception(exc)

    def _settle_window(
        self, spans: List[_Span], answer, taken_keys: int, waited_seconds: float
    ) -> None:
        self._coalesced_keys.inc(taken_keys)
        if taken_keys >= self._max_batch:
            self._full_flushes.inc()
        else:
            self._timer_flushes.inc()
        self._batch_size_hist.observe(float(taken_keys))
        self._window_seconds_hist.observe(waited_seconds)
        offset = 0
        for span in spans:
            count = len(span.keys)
            if span.future.cancelled():
                self._cancelled_callers.inc()
            else:
                span.future.set_result(
                    (answer.verdicts[offset : offset + count], answer.generation)
                )
            offset += count

    def _assemble(self, spans: List[_Span]):
        """Build the engine request for a window, reusing span encodings."""
        if vec.numpy_or_none() is None:
            return [key for span in spans for key in span.keys]
        parts: List[vec.KeyBatch] = []
        pending: List[Key] = []
        for span in spans:
            if span.batch is not None:
                if pending:
                    parts.append(vec.KeyBatch(pending))
                    pending = []
                parts.append(span.batch)
            else:
                pending.extend(span.keys)
        if pending:
            parts.append(vec.KeyBatch(pending))
        return parts[0] if len(parts) == 1 else vec.KeyBatch.concat(parts)


# --------------------------------------------------------------------- #
# Network front-ends
# --------------------------------------------------------------------- #
class _RawBody:
    """A pre-encoded HTTP body with an explicit content type (non-JSON)."""

    __slots__ = ("data", "content_type")

    def __init__(self, data: bytes, content_type: str) -> None:
        self.data = data
        self.content_type = content_type


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
}
#: Largest request body the HTTP handler will buffer.  Generous for any sane
#: query_many batch (the service's own max_batch_size rejects oversized key
#: counts), while bounding what one connection can make the process hold.
_HTTP_MAX_BODY_BYTES = 1 << 20
#: Stream buffer limit for both listeners.  asyncio's default readline limit
#: is 64 KiB, which a legitimate multi-key ``M`` line can exceed; this cap
#: bounds one line/body at the same size the HTTP handler accepts.
_STREAM_LIMIT_BYTES = _HTTP_MAX_BODY_BYTES
#: Larger body cap applied to ``POST /rebuild`` only — a pushed key set is
#: legitimately bigger than a query batch.  ``readexactly`` is not bounded by
#: the stream ``limit`` (only ``readline`` is), so a per-path cap works.
_REBUILD_MAX_BODY_BYTES = 8 << 20
#: Most keys one pushed rebuild may carry across keys/negatives/changed_keys,
#: bounding the build work a single operator request can demand.
_REBUILD_MAX_KEYS = 1_000_000
#: Fields a rebuild spec (the ``R`` command / ``POST /rebuild`` JSON) accepts.
_REBUILD_FIELDS = frozenset(
    {"keys", "negatives", "costs", "changed_keys", "incremental"}
)


class AsyncMembershipServer:
    """TCP (and optional HTTP/1.1) membership serving over a micro-batcher.

    Every connection's requests feed the same :class:`AdaptiveMicroBatcher`,
    so concurrent clients coalesce into shared engine batches.  Both
    protocols are specified in ``docs/SERVING.md``; in short:

    TCP line protocol (UTF-8, newline-terminated, whitespace-delimited keys)::

        Q <key>              -> V <generation> <0|1>
        M <key> <key> ...    -> V <generation> <0|1> <0|1> ...
        R <json spec>        -> R <new generation>   (operator-pushed rebuild)
        GEN                  -> G <generation>
        STATS                -> S <one-line JSON of ServiceStats>
        METRICS              -> Prometheus exposition text, terminated by a
                                line holding a single "."
        PING                 -> PONG
        anything invalid     -> E <message>

    HTTP endpoints (JSON responses except ``/metrics``, which serves the
    Prometheus text format)::

        GET  /query?key=K        GET /generation      GET /stats
        GET  /metrics            (Prometheus text exposition)
        POST /query_many         (body: JSON list or newline-delimited keys)
        POST /rebuild            (body: JSON rebuild spec; returns the new
                                  generation — see docs/SERVING.md)

    Responses use content-length framing and default to ``Connection:
    close``; a client that sends an explicit ``Connection: keep-alive``
    request header gets a ``keep-alive`` response and may reuse the socket
    for its next request.  Error responses always close.

    The rebuild spec is a JSON object: ``{"keys": [...]}`` required, plus
    optional ``"negatives"``, ``"costs"`` (key → float), ``"changed_keys"``
    (forces those keys' shards dirty) and ``"incremental"`` (default true).
    Builds run on a worker thread, so queries keep flowing — and keep
    answering from the old generation — until the swap.

    Args:
        service: The loaded service to serve.
        batcher: An existing micro-batcher to share; by default a private
            one is created from ``**batcher_opts``.
        **batcher_opts: Forwarded to :class:`AdaptiveMicroBatcher`.
    """

    def __init__(
        self,
        service: MembershipService,
        batcher: Optional[AdaptiveMicroBatcher] = None,
        **batcher_opts,
    ) -> None:
        self._service = service
        self._owns_batcher = batcher is None
        self._batcher = batcher or AdaptiveMicroBatcher(service, **batcher_opts)
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: set = set()

    @property
    def batcher(self) -> AdaptiveMicroBatcher:
        """The micro-batcher every connection dispatches through."""
        return self._batcher

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Start the line-protocol listener; returns the bound (host, port)."""
        server = await asyncio.start_server(
            self._handle_tcp, host, port, limit=_STREAM_LIMIT_BYTES
        )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_http(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Start the HTTP/1.1 listener; returns the bound (host, port)."""
        server = await asyncio.start_server(
            self._handle_http, host, port, limit=_STREAM_LIMIT_BYTES
        )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def __aenter__(self) -> "AsyncMembershipServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Stop the listeners, then drain and close the micro-batcher.

        A batcher passed in by the caller is shared, not owned: it keeps
        serving in-process callers after the network front-end shuts down.
        """
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # Python < 3.12 wait_closed() does not wait for handler tasks; close
        # lingering connections explicitly so none outlive the batcher.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if self._owns_batcher:
            await self._batcher.aclose()

    def _track_connection(self) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)

    # ------------------------------------------------------------------ #
    # TCP line protocol
    # ------------------------------------------------------------------ #
    async def _handle_tcp(self, reader, writer) -> None:
        self._track_connection()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line overran the stream limit; the buffered remainder is
                    # unusable, so answer with an error and drop the peer.
                    writer.write(
                        f"E line exceeds {_STREAM_LIMIT_BYTES} bytes\n".encode()
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    response = await self._dispatch_line(
                        line.decode("utf-8", errors="replace").strip()
                    )
                except ServiceError as exc:
                    response = "E " + " ".join(str(exc).split())
                if response is None:
                    continue
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            pass  # server shutdown; ending quietly keeps 3.11 streams silent
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch_line(self, line: str) -> Optional[str]:
        if not line:
            return None
        parts = line.split()
        command = parts[0].upper()
        if command == "PING":
            return "PONG"
        if command == "GEN":
            return f"G {self._service.generation}"
        if command == "STATS":
            return "S " + json.dumps(asdict(self._batcher.stats()))
        if command == "METRICS":
            # Multi-line response: the exposition text (which ends with a
            # newline), then a line holding a single "." as the terminator —
            # line-oriented clients read until they see it.
            return render_text(self._batcher.registry) + "."
        if command == "Q":
            if len(parts) != 2:
                return "E Q takes exactly one key"
            verdict, generation = await self._batcher.query_with_generation(parts[1])
            return f"V {generation} {int(verdict)}"
        if command == "M":
            if len(parts) < 2:
                return "E M takes at least one key"
            verdicts, generation = await self._batcher.query_many_with_generation(
                parts[1:]
            )
            return f"V {generation} " + " ".join(str(int(v)) for v in verdicts)
        if command == "R":
            # The spec is JSON, so re-split with maxsplit=1 to keep it intact
            # (the whitespace-normalising split above would still work for
            # compact JSON, but not for pretty-printed specs).
            _, _, spec_text = line.partition(" ")
            if not spec_text.strip():
                return "E R takes a JSON rebuild spec"
            spec = self._parse_rebuild_spec(spec_text)
            generation = await self._run_rebuild(spec)
            return f"R {generation}"
        return f"E unknown command {parts[0]!r}"

    # ------------------------------------------------------------------ #
    # Operator-pushed rebuilds (shared by the R command and POST /rebuild)
    # ------------------------------------------------------------------ #
    def _parse_rebuild_spec(self, text: str) -> dict:
        """Validate a rebuild spec; every malformation raises ServiceError."""
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"rebuild spec is not valid JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise ServiceError("rebuild spec must be a JSON object")
        unknown = set(spec) - _REBUILD_FIELDS
        if unknown:
            raise ServiceError(
                f"unknown rebuild fields: {', '.join(sorted(unknown))}"
            )
        keys = spec.get("keys")
        if not isinstance(keys, list) or not keys:
            raise ServiceError('rebuild spec needs a non-empty "keys" list')
        negatives = spec.get("negatives", [])
        if not isinstance(negatives, list):
            raise ServiceError('"negatives" must be a list')
        changed = spec.get("changed_keys")
        if changed is not None and not isinstance(changed, list):
            raise ServiceError('"changed_keys" must be a list')
        costs = spec.get("costs")
        if costs is not None and not isinstance(costs, dict):
            raise ServiceError('"costs" must be an object of key -> cost')
        incremental = spec.get("incremental", True)
        if not isinstance(incremental, bool):
            raise ServiceError('"incremental" must be a boolean')
        total = len(keys) + len(negatives) + (len(changed) if changed else 0)
        if total > _REBUILD_MAX_KEYS:
            raise ServiceError(
                f"rebuild spec carries {total} keys; the limit is "
                f"{_REBUILD_MAX_KEYS}"
            )
        try:
            parsed_costs = (
                {str(key): float(value) for key, value in costs.items()}
                if costs
                else None
            )
        except (TypeError, ValueError):
            raise ServiceError('"costs" values must be numbers') from None
        return {
            "keys": [str(key) for key in keys],
            "negatives": [str(key) for key in negatives],
            "costs": parsed_costs,
            "changed_keys": (
                [str(key) for key in changed] if changed is not None else None
            ),
            "incremental": incremental,
        }

    async def _run_rebuild(self, spec: dict) -> int:
        """Run a validated rebuild on a worker thread; returns the generation.

        The build is CPU work that must not block the event loop — queries
        keep coalescing and dispatching (answered by the old generation)
        while it runs; the swap itself is the service's atomic hot-swap.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(
                self._service.rebuild,
                spec["keys"],
                negatives=spec["negatives"],
                costs=spec["costs"],
                changed_keys=spec["changed_keys"],
                incremental=spec["incremental"],
            ),
        )

    # ------------------------------------------------------------------ #
    # Minimal HTTP/1.1
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _discard_remaining(reader) -> None:
        """Best-effort drain of unread request bytes before closing.

        Closing a socket with unread data in its receive buffer makes the
        kernel send RST instead of FIN, which can destroy the error response
        still in flight to the client.  Draining is bounded (a few stream
        limits, short per-read timeout) so one misbehaving peer cannot pin
        the handler.
        """
        remaining = 4 * _STREAM_LIMIT_BYTES
        with contextlib.suppress(asyncio.TimeoutError, ConnectionResetError):
            while remaining > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(65536, remaining)), timeout=0.5
                )
                if not chunk:
                    return
                remaining -= len(chunk)

    async def _write_http_response(
        self, reader, writer, status: int, payload, keep_alive: bool = False
    ) -> None:
        """Emit one complete, content-length-framed response.

        Every response carries an explicit ``Connection`` header.  With
        ``keep_alive=False`` (the default, and all error paths) the header
        says ``close`` and the shutdown order matters: ``write_eof`` sends
        FIN right after the body (so the client sees a clean
        end-of-response), then any input the handler never read — an
        oversized line, an over-limit body, a pipelined second request — is
        drained before the ``finally`` closes the socket, because closing
        with unread bytes in the receive buffer makes the kernel send RST,
        which can destroy the response still in flight.  With
        ``keep_alive=True`` the header says ``keep-alive`` and the socket is
        left open for the client's next request — content-length framing
        tells the client exactly where this response ends.

        ``payload`` is JSON-encoded unless it is a :class:`_RawBody`, which
        carries pre-encoded bytes and their content type (the ``/metrics``
        exposition).
        """
        if isinstance(payload, _RawBody):
            data = payload.data
            content_type = payload.content_type
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()
        if keep_alive:
            return
        with contextlib.suppress(OSError, RuntimeError):
            writer.write_eof()
        await self._discard_remaining(reader)

    async def _handle_http(self, reader, writer) -> None:
        self._track_connection()
        try:
            while await self._serve_one_http(reader, writer):
                pass
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # pragma: no cover - torn-down connection
        except asyncio.CancelledError:
            pass  # server shutdown; ending quietly keeps 3.11 streams silent
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_one_http(self, reader, writer) -> bool:
        """Serve one request; returns whether the connection stays open.

        Keep-alive is opt-in: only a request carrying an explicit
        ``Connection: keep-alive`` header gets a ``keep-alive`` response and
        a reusable socket.  Requests without the header — including
        HTTP/1.1 pipelining attempts — keep the original
        one-response-then-EOF behaviour, and every error path closes.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            # Request line overran the stream limit; the buffered rest of
            # the connection is unusable, so answer and hang up.
            await self._write_http_response(
                reader,
                writer,
                414,
                {"error": f"request line exceeds {_STREAM_LIMIT_BYTES} bytes"},
            )
            return False
        if not request_line:
            return False  # peer left (or finished a keep-alive exchange)
        pieces = request_line.decode("latin-1").split()
        if len(pieces) < 2:
            await self._write_http_response(
                reader, writer, 400, {"error": "malformed request line"}
            )
            return False
        method, target = pieces[0].upper(), pieces[1]
        content_length = 0
        connection_header = ""
        while True:
            try:
                header = await reader.readline()
            except ValueError:
                await self._write_http_response(
                    reader,
                    writer,
                    431,
                    {"error": f"header line exceeds {_STREAM_LIMIT_BYTES} bytes"},
                )
                return False
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                with contextlib.suppress(ValueError):
                    content_length = int(value.strip())
            elif name == "connection":
                connection_header = value.strip().lower()
        keep_alive = connection_header == "keep-alive"
        if content_length < 0:
            # The declared length is nonsense, so the body (if any) was
            # never read: answer (which drains it), hang up.
            await self._write_http_response(
                reader, writer, 400, {"error": "negative Content-Length"}
            )
            return False
        path = target.partition("?")[0]
        max_body = (
            _REBUILD_MAX_BODY_BYTES if path == "/rebuild" else _HTTP_MAX_BODY_BYTES
        )
        if content_length > max_body:
            await self._write_http_response(
                reader,
                writer,
                413,
                {"error": f"request body exceeds {max_body} bytes"},
            )
            return False
        try:
            body = (
                await reader.readexactly(content_length)
                if content_length
                else b""
            )
        except asyncio.IncompleteReadError as exc:
            # EOF inside the body: everything sent was consumed, so the
            # response goes out over an already-drained connection.
            await self._write_http_response(
                reader,
                writer,
                400,
                {
                    "error": (
                        "request body truncated: Content-Length "
                        f"{content_length}, received {len(exc.partial)}"
                    )
                },
            )
            return False
        status, payload = await self._http_response(method, target, body)
        keep_alive = keep_alive and status == 200
        await self._write_http_response(
            reader, writer, status, payload, keep_alive=keep_alive
        )
        return keep_alive

    async def _http_response(self, method: str, target: str, body: bytes):
        path, _, query = target.partition("?")
        try:
            if method == "GET" and path == "/query":
                values = urllib.parse.parse_qs(query).get("key", [])
                if len(values) != 1:
                    return 400, {"error": "exactly one ?key= parameter required"}
                verdict, generation = await self._batcher.query_with_generation(
                    values[0]
                )
                return 200, {
                    "key": values[0],
                    "member": verdict,
                    "generation": generation,
                }
            if method == "GET" and path == "/generation":
                return 200, {"generation": self._service.generation}
            if method == "GET" and path == "/stats":
                return 200, asdict(self._batcher.stats())
            if method == "GET" and path == "/metrics":
                text = render_text(self._batcher.registry)
                return 200, _RawBody(text.encode("utf-8"), _METRICS_CONTENT_TYPE)
            if method == "POST" and path == "/query_many":
                text = body.decode("utf-8", errors="replace").strip()
                if text.startswith("["):
                    keys = [str(key) for key in json.loads(text)]
                else:
                    keys = [line for line in text.splitlines() if line]
                if not keys:
                    return 400, {"error": "request body contained no keys"}
                verdicts, generation = await self._batcher.query_many_with_generation(
                    keys
                )
                return 200, {"members": verdicts, "generation": generation}
            if method == "POST" and path == "/rebuild":
                spec = self._parse_rebuild_spec(
                    body.decode("utf-8", errors="replace")
                )
                generation = await self._run_rebuild(spec)
                return 200, {
                    "generation": generation,
                    "num_keys": len(spec["keys"]),
                }
        except (ServiceError, json.JSONDecodeError) as exc:
            return 400, {"error": str(exc)}
        return 404, {"error": f"no route for {method} {path}"}
