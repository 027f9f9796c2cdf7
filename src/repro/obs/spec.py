"""ObsSpec and the Observability bundle.

``ObsSpec`` is the user-facing grouped option (what you pass to
``open_session(obs=...)`` or ``ctup simulate --metrics``); an
``Observability`` is the live bundle built from it — a registry plus a
tracer plus the optional exposition port — that gets attached to
monitors, journals and sessions.

Disabled observability is represented by ``None`` (nothing attached at
all), so the hot path's only cost is one ``is None`` check.  A spec
with everything off coerces to ``None`` for exactly that reason, and
``attach_observability`` leaves a monitor detached from a bundle whose
sinks are both null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["ObsSpec", "Observability", "coerce_observability"]


@dataclass(frozen=True, slots=True)
class ObsSpec:
    """Grouped observability options for ``open_session(obs=...)``.

    metrics
        Collect registry metrics (phase histograms, session counters,
        bridged ledger gauges).
    trace
        Record spans into the in-memory ring buffer (export with
        :func:`repro.obs.write_chrome_trace` or ``--trace-out``).
    serve_port
        When set, serve ``/metrics`` (Prometheus text) and
        ``/metrics.json`` on ``127.0.0.1:<port>`` for the session's
        lifetime; ``0`` picks an ephemeral port.  Implies metrics.
    trace_capacity
        Ring-buffer size; oldest spans drop once it fills.
    """

    metrics: bool = True
    trace: bool = False
    serve_port: int | None = None
    trace_capacity: int = 4096

    def enabled(self) -> bool:
        return self.metrics or self.trace or self.serve_port is not None


class Observability:
    """A live registry + tracer pair shared by one session's components."""

    __slots__ = (
        "registry",
        "tracer",
        "serve_port",
        "_phase_hist",
        "_phase_children",
        "_sync_callbacks",
    )

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        serve_port: int | None = None,
    ) -> None:
        self.registry: MetricsRegistry | NullRegistry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.tracer: Tracer | NullTracer = tracer if tracer is not None else NULL_TRACER
        self.serve_port = serve_port
        self._phase_hist = self.registry.histogram(
            "ctup_phase_seconds",
            "Time spent per monitor phase, by scheme.",
            labelnames=("scheme", "phase"),
        )
        #: the histogram's child per (scheme, phase), bound on first use.
        self._phase_children: dict[tuple[str, str], Any] = {}
        self._sync_callbacks: list[Callable[[], None]] = []

    @classmethod
    def from_spec(cls, spec: ObsSpec) -> "Observability | None":
        """Build the live bundle, or ``None`` when everything is off."""
        if not spec.enabled():
            return None
        want_metrics = spec.metrics or spec.serve_port is not None
        registry = MetricsRegistry() if want_metrics else NULL_REGISTRY
        tracer = Tracer(spec.trace_capacity) if spec.trace else NULL_TRACER
        return cls(registry=registry, tracer=tracer, serve_port=spec.serve_port)

    def phase(
        self,
        scheme: str,
        phase: str,
        start_s: float,
        duration_s: float,
        **args: object,
    ) -> None:
        """Record one already-timed monitor phase (maintain/access/...)."""
        tracer = self.tracer
        child = self._phase_children.get((scheme, phase))
        if child is None:
            child = self._phase_hist.labels(scheme=scheme, phase=phase)
            self._phase_children[(scheme, phase)] = child
        child.observe(duration_s)
        if tracer.enabled:
            tracer.record(phase, "monitor", start_s, duration_s, scheme=scheme, **args)

    def control_event(
        self,
        scheme: str,
        kind: str,
        epoch: int,
        start_s: float,
        duration_s: float,
    ) -> None:
        """Record one applied reconfiguration event (see repro.control):
        the epoch gauge, a per-kind counter, and a span."""
        self.registry.gauge(
            "ctup_epoch", "Current reconfiguration epoch, by scheme.",
            labelnames=("scheme",),
        ).labels(scheme=scheme).set(float(epoch))
        self.registry.counter(
            "ctup_control_events_total",
            "Control events applied, by kind.",
            labelnames=("kind",),
        ).labels(kind=kind).inc()
        self.tracer.record(
            "control.apply", "control", start_s, duration_s,
            scheme=scheme, kind=kind, epoch=epoch,
        )

    def add_sync(self, callback: Callable[[], None]) -> None:
        """Register a callback run before every exposition snapshot."""
        self._sync_callbacks.append(callback)

    def sync(self) -> None:
        """Refresh bridged ledger metrics (gauges mirroring counters)."""
        for callback in self._sync_callbacks:
            callback()


def coerce_observability(
    obs: "ObsSpec | Observability | None",
) -> Observability | None:
    """Normalize the ``obs=`` argument to a live bundle or ``None``."""
    if obs is None:
        return None
    if isinstance(obs, ObsSpec):
        return Observability.from_spec(obs)
    if isinstance(obs, Observability):
        return obs
    raise TypeError(
        f"obs= takes an ObsSpec, an Observability, or None (got {type(obs).__name__})"
    )
