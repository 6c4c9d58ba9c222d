"""Dependency-free metrics core: counters, gauges, histograms, registries.

One instrumentation layer for every subsystem (service, shard store,
micro-batcher, LSM read path) instead of the hand-rolled per-module stat
dataclasses they grew independently.  The design follows the Prometheus
client-library data model without importing it:

* an **instrument** is a named family (``repro_service_queries_total``) with
  a fixed tuple of label names; ``labels(...)`` returns (or creates) the
  **child** for one label-value tuple, and children carry the actual values;
* a :class:`Registry` owns instruments by family name; :func:`default_registry`
  is the process-global one, and tests (or services that want isolated
  numbers) inject their own;
* increments are lock-safe and cheap — one small per-child lock around a
  float add — so instrumented code can sit next to the hash hot path; the
  obs overhead benchmark (``benchmarks/test_obs_overhead.py``) gates the
  end-to-end cost at ≤5% of async-serving throughput;
* every histogram child also keeps its last :data:`RECENT_SAMPLES`
  observations, so ``stats()`` reads exact p50/p95/p99 from the same
  instrument whose buckets ``/metrics`` exports;
* :class:`NullRegistry` hands out no-op instruments, so "instrumentation
  disabled" is a constructor argument, not a code path fork.

Exposition (the Prometheus text format) lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.metrics.timing import LatencyPercentiles, histogram_quantile, latency_percentiles

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "NullRegistry",
    "CollectedFamily",
    "Sample",
    "default_registry",
    "null_registry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "RECENT_SAMPLES",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Histogram buckets for latencies in seconds: 100us .. 10s, roughly
#: logarithmic, matching the scales the serving layer actually produces.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Histogram buckets for counted sizes (batch sizes, queue depths).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
    4096.0,
)

#: Most recent observations each histogram child keeps for exact percentiles.
RECENT_SAMPLES = 4096

_INF = float("inf")


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label or ""):
            raise ConfigurationError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate label names in {names!r}")
    return names


@dataclass(frozen=True)
class Sample:
    """One exposition line: a metric name suffix, label pairs and a value.

    ``suffix`` is appended to the family name (histograms emit ``_bucket``,
    ``_sum`` and ``_count`` series; counters and gauges use the empty
    suffix).
    """

    suffix: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


@dataclass(frozen=True)
class CollectedFamily:
    """A metric family as the exporter consumes it."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: Tuple[Sample, ...]


class _CounterChild:
    """The value cell for one label set of a :class:`Counter`."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters are monotone)."""
        if amount < 0:
            raise ConfigurationError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    """The value cell for one label set of a :class:`Gauge`.

    A gauge either holds a set value or derives it from a callback
    (:meth:`set_function`), which is how point-in-time process facts —
    uptime, RSS, the adaptive batch deadline — are exported without a
    writer thread.
    """

    __slots__ = ("_lock", "_value", "_function")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._function = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._function = None
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, function: Callable[[], float]) -> None:
        """Evaluate ``function`` at every read/scrape instead of a stored value."""
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            if function is None:
                return self._value
        try:
            return float(function())
        except Exception:
            # A scrape must never die because one callback did (e.g. a
            # platform without /proc); expose 0 and keep serving.
            return 0.0


class _HistogramChild:
    """Cumulative bucket counts + sum/count for one label set, plus the last
    :data:`RECENT_SAMPLES` observations for exact percentiles."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count", "_recent")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds  # strictly increasing, +Inf excluded
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._recent: Deque[float] = deque(maxlen=RECENT_SAMPLES)

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan: bucket lists are short (<20) and typical observations
        # land in the first few buckets, which beats bisect's call overhead.
        index = 0
        for bound in self._bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._recent.append(value)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Tuple[Tuple[float, ...], List[int], float, int]:
        """(bucket bounds, per-bucket counts, sum, count) — one consistent read."""
        with self._lock:
            return self._bounds, list(self._counts), self._sum, self._count

    def approx_quantile(self, q: float) -> float:
        """Prometheus-style quantile estimate from the bucket counts."""
        bounds, counts, _total, count = self.snapshot()
        if count == 0:
            return 0.0
        return histogram_quantile(q, list(bounds) + [_INF], counts)

    def percentiles(self) -> Optional[LatencyPercentiles]:
        """Exact p50/p95/p99 over the last :data:`RECENT_SAMPLES`
        observations, or ``None`` before the first one.

        The window is copied under the lock :meth:`observe` appends under,
        so a reader racing writers summarises one consistent window.
        """
        with self._lock:
            window = list(self._recent)
        return latency_percentiles(window) if window else None


class _Instrument:
    """Shared family machinery: name, help, label names, child map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._children_lock = threading.Lock()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values, **kwvalues):
        """The child for one label-value tuple (created on first use)."""
        if values and kwvalues:
            raise ConfigurationError("pass label values positionally or by name, not both")
        if kwvalues:
            try:
                values = tuple(kwvalues[name] for name in self.labelnames)
            except KeyError as exc:
                raise ConfigurationError(
                    f"{self.name} labels are {self.labelnames}, missing {exc}"
                ) from None
            if len(kwvalues) != len(self.labelnames):
                raise ConfigurationError(
                    f"{self.name} labels are {self.labelnames}, got {tuple(kwvalues)}"
                )
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"{self.name} takes {len(self.labelnames)} label values, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._children_lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def _default_child(self):
        """The unlabelled child (only valid for label-less instruments)."""
        return self.labels()

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._children_lock:
            return list(self._children.items())

    def collect(self) -> CollectedFamily:
        samples: List[Sample] = []
        for values, child in self.children():
            labels = tuple(zip(self.labelnames, values))
            samples.extend(self._samples_for(labels, child))
        return CollectedFamily(
            name=self.name, kind=self.kind, help=self.help, samples=tuple(samples)
        )

    def _samples_for(self, labels, child) -> Iterable[Sample]:  # pragma: no cover
        raise NotImplementedError


class Counter(_Instrument):
    """A monotone counter family; children only ever increase."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (label-less instruments only)."""
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def _samples_for(self, labels, child) -> Iterable[Sample]:
        return (Sample("", labels, child.value),)


class Gauge(_Instrument):
    """A point-in-time value family; children move both ways."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_function(self, function: Callable[[], float]) -> None:
        self._default_child().set_function(function)

    @property
    def value(self) -> float:
        return self._default_child().value

    def _samples_for(self, labels, child) -> Iterable[Sample]:
        return (Sample("", labels, child.value),)


class Histogram(_Instrument):
    """A bucketed distribution family (cumulative ``le`` buckets, sum, count)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets if bound != _INF)
        if not bounds:
            raise ConfigurationError("a histogram needs at least one finite bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count

    def approx_quantile(self, q: float) -> float:
        return self._default_child().approx_quantile(q)

    def percentiles(self) -> Optional[LatencyPercentiles]:
        return self._default_child().percentiles()

    def _samples_for(self, labels, child) -> Iterable[Sample]:
        bounds, counts, total, count = child.snapshot()
        cumulative = 0
        samples: List[Sample] = []
        for bound, bucket_count in zip(list(bounds) + [_INF], counts):
            cumulative += bucket_count
            le = "+Inf" if bound == _INF else _format_bound(bound)
            samples.append(Sample("_bucket", labels + (("le", le),), float(cumulative)))
        samples.append(Sample("_sum", labels, total))
        samples.append(Sample("_count", labels, float(count)))
        return samples


def _format_bound(bound: float) -> str:
    return str(int(bound)) if bound == int(bound) else repr(bound)


@dataclass
class _Collector:
    """A scrape-time callback producing families the registry does not own.

    The membership service registers one to export per-shard counters as a
    *live view* of the current snapshot's :class:`~repro.service.stats.ShardStats`
    (shard counters reset when a rebuild swaps the store in, exactly like
    the ``stats()`` API; Prometheus treats that as an ordinary counter
    reset).  The callback is held through a weak reference when it is a
    bound method, so a collected-away service silently drops out of the
    scrape instead of leaking.
    """

    ref: object  # weakref.WeakMethod | callable

    def resolve(self) -> Optional[Callable[[], Iterable[CollectedFamily]]]:
        if isinstance(self.ref, weakref.WeakMethod):
            return self.ref()
        return self.ref  # type: ignore[return-value]


class Registry:
    """Owns instruments by family name; the unit /metrics exposes.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: asking for
    an existing family name returns the existing instrument after checking
    that the kind and label names agree, so any number of service instances
    can share one family and differ only by label values.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[_Collector] = []

    # ------------------------------------------------------------------ #
    # Instrument creation
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def add_collector(self, callback: Callable[[], Iterable[CollectedFamily]]) -> None:
        """Register a scrape-time family producer (weakly, for bound methods)."""
        ref = (
            weakref.WeakMethod(callback)
            if hasattr(callback, "__self__")
            else callback
        )
        with self._lock:
            self._collectors.append(_Collector(ref))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def collect(self) -> List[CollectedFamily]:
        """Every family — owned instruments first, then live collectors.

        Families with the same name are merged by the exporter; dead weak
        collectors are pruned as a side effect.
        """
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        families = [instrument.collect() for instrument in instruments]
        dead: List[_Collector] = []
        for collector in collectors:
            callback = collector.resolve()
            if callback is None:
                dead.append(collector)
                continue
            families.extend(callback())
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors if c not in dead]
        return families


class _NullChild:
    """Absorbs every instrument operation; reads as zero (percentiles as
    ``None``)."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, function) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def approx_quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> None:
        return None

    def snapshot(self):
        return (), [], 0.0, 0

    @property
    def value(self) -> float:
        return 0.0

    @property
    def sum(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0


class _NullInstrument(_NullChild):
    """A no-op instrument: ``labels(...)`` returns the shared null child."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.help = ""
        self.labelnames = ()

    def labels(self, *values, **kwvalues) -> "_NullInstrument":
        return self

    def children(self):
        return []

    def collect(self) -> CollectedFamily:
        return CollectedFamily(name=self.name, kind=self.kind, help="", samples=())


class NullRegistry(Registry):
    """Instrumentation off: hands out no-op instruments and collects nothing.

    Pass one as ``registry=`` to make a subsystem run with zero telemetry
    bookkeeping — the overhead benchmark's baseline, and an escape hatch for
    deployments that want the last percent of throughput back.
    """

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name, help="", labelnames=()):  # type: ignore[override]
        return _NullInstrument(name, "counter")

    def gauge(self, name, help="", labelnames=()):  # type: ignore[override]
        return _NullInstrument(name, "gauge")

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS):  # type: ignore[override]
        return _NullInstrument(name, "histogram")

    def add_collector(self, callback) -> None:  # type: ignore[override]
        pass

    def collect(self) -> List[CollectedFamily]:  # type: ignore[override]
        return []


_DEFAULT = Registry()
_NULL = NullRegistry()


def default_registry() -> Registry:
    """The process-global registry every subsystem reports to by default."""
    return _DEFAULT


def null_registry() -> NullRegistry:
    """The shared no-op registry (``registry=`` for instrumentation-off)."""
    return _NULL
