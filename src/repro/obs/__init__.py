"""repro.obs — observability: metrics, tracing, exposition.

The package turns the monitor from a post-hoc black box into a live
service surface, in three layers that all ship null twins so disabled
observability costs one ``is None`` check on the hot path:

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket
  histograms with labels, behind :class:`MetricsRegistry` (live) and
  :class:`NullRegistry` (no-op).
* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` ring buffer
  over monitor phases, session flushes, shard drains, merges and journal
  I/O, exportable as a Chrome ``chrome://tracing`` JSON trace.
* :mod:`repro.obs.expo` — Prometheus text rendering, ``json_dump``
  snapshots, a validating parser, and a stdlib ``/metrics`` server.

Everything is wired through :class:`ObsSpec` (the grouped option you
hand to ``open_session(obs=...)``) and the resulting
:class:`Observability` bundle; :mod:`repro.obs.bridge` mirrors the
native ``MonitorCounters``/``IoStats``/``UnitKernelStats``/``MergeStats``
ledgers into registry gauges at scrape time, and
:class:`ObservabilityHooks` records the stream-level metrics the session
feeds it directly (updates, burst sizes, top-k changes, SK).
"""

from __future__ import annotations

from repro.obs.bridge import attach_observability
from repro.obs.expo import (
    MetricsServer,
    json_dump,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.hooks import ObservabilityHooks
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.spec import Observability, ObsSpec, coerce_observability
from repro.obs.trace import NullTracer, Span, Tracer, write_chrome_trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "NullRegistry",
    "NullTracer",
    "ObsSpec",
    "Observability",
    "ObservabilityHooks",
    "Span",
    "Tracer",
    "attach_observability",
    "coerce_observability",
    "json_dump",
    "parse_prometheus",
    "render_prometheus",
    "write_chrome_trace",
]

