"""Unified telemetry layer: metrics registry, exposition, tracing, live FPR.

Every serving subsystem (the membership service, the sharded store, the
micro-batcher, the LSM filter builds) reports through this package instead
of growing its own counters:

* :mod:`repro.obs.core` — dependency-free :class:`Counter` / :class:`Gauge`
  / :class:`Histogram` instruments with label sets, a process-global
  :func:`default_registry` plus injectable :class:`Registry` instances, and
  a :class:`NullRegistry` that turns instrumentation off wholesale;
* :mod:`repro.obs.export` — the Prometheus text exposition
  (:func:`render_text`), mounted at ``GET /metrics`` and behind the
  ``METRICS`` line command by :mod:`repro.service.aserve`;
* :mod:`repro.obs.trace` — span IDs minted at the front-end and carried
  through the batcher → service → shard store → backend probe path, with
  per-stage histograms and an optional sampled structured-JSON span log;
* :mod:`repro.obs.fpr_estimator` — live observed-FPR and cost-weighted
  error per shard, by shadow-sampling positive verdicts against the build
  key set (the paper's Figures 10–13 metrics, computed from real traffic).

``docs/OBSERVABILITY.md`` catalogues the metric names and shows the whole
layer end to end.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.core import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    RECENT_SAMPLES,
    CollectedFamily,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    Sample,
    default_registry,
    null_registry,
)
from repro.obs.export import CONTENT_TYPE, parse_families, render_text
from repro.obs.fpr_estimator import FprEstimator, ShardFprEstimate
from repro.obs.trace import (
    ActiveTrace,
    Tracer,
    current_trace,
    span_log_to_jsonl,
    stage,
)

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
    "render_text",
    "parse_families",
    "CONTENT_TYPE",
    "Tracer",
    "ActiveTrace",
    "stage",
    "current_trace",
    "span_log_to_jsonl",
    "FprEstimator",
    "ShardFprEstimate",
    "install_process_metrics",
]

#: Anchor for the process-uptime gauge (first import of the obs layer).
_PROCESS_START = time.monotonic()


def install_process_metrics(registry: Optional[Registry] = None) -> None:
    """Register process-level gauges (uptime, RSS) on ``registry``.

    Idempotent: the gauges are function-backed, so re-installing simply
    re-binds the same callbacks.  Called on the default registry at import,
    so a bare ``GET /metrics`` always carries process context.
    """
    registry = registry if registry is not None else default_registry()
    from repro.metrics.memory import process_rss_bytes

    uptime = registry.gauge(
        "repro_process_uptime_seconds",
        "Seconds since the telemetry layer was first imported",
    )
    uptime.set_function(lambda: time.monotonic() - _PROCESS_START)
    rss = registry.gauge(
        "repro_process_resident_bytes",
        "Resident set size of this process (0 when the platform hides it)",
    )
    rss.set_function(lambda: float(process_rss_bytes() or 0))


install_process_metrics(default_registry())
