"""Bridging the monitor's native ledgers into registry metrics.

The schemes already account for their work in dataclass ledgers —
``MonitorCounters`` on the monitor, ``IoStats`` on the place store,
``UnitKernelStats`` on the unit index, ``MergeStats`` on the sharded
merger.  Those stay the source of truth; the bridge *mirrors* them into
registry gauges (named ``ctup_<ledger>_<field>`` with a ``scheme``
label) on demand, so a ``/metrics`` scrape always reconciles exactly
with what the Python API reports.

``attach_observability`` is the one sanctioned way to hang an
:class:`~repro.obs.spec.Observability` bundle on a monitor: monitors
are snapshottable (every attribute a monitor binds after construction
is declared in ``STATE_FIELDS`` or ``TRANSIENT_FIELDS``), so the
transient ``obs`` handle is assigned from out here rather than from
monitor methods.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.monitor import CTUPMonitor
    from repro.obs.registry import MetricsRegistry, NullRegistry
    from repro.obs.spec import Observability

__all__ = ["attach_observability"]


def attach_observability(monitor: "CTUPMonitor", obs: "Observability") -> None:
    """Attach the bundle to a monitor (and any shard children).

    Also registers a sync callback so every exposition snapshot
    refreshes the bridged ledger gauges first; the callback binds its
    gauge children once, here. A bundle whose registry and tracer are
    both null records nothing, so the monitor stays detached and its
    phases read no clock.
    """
    if not obs.registry.enabled and not obs.tracer.enabled:
        return
    monitor.obs = obs
    for shard in getattr(monitor, "shards", ()):
        shard.monitor.obs = obs
    if obs.registry.enabled:
        obs.add_sync(_LedgerMirror(obs.registry, monitor))


def _ledgers(monitor: "CTUPMonitor") -> dict[str, object]:
    """The monitor's ledgers now, by gauge family name.

    For a :class:`~repro.shard.monitor.ShardedMonitor` these are the
    *merged* ledgers (that is where the monitoring work lives — the
    top-level counters only track stream totals), plus the merger stats.
    """
    merged_counters = getattr(monitor, "merged_counters", None)
    if callable(merged_counters):
        ledgers: dict[str, object] = {
            "ctup_monitor_counters": merged_counters(),
            "ctup_io_stats": monitor.merged_io(),  # type: ignore[attr-defined]
            "ctup_unit_kernel_stats": monitor.merged_unit_stats(),  # type: ignore[attr-defined]
        }
    else:
        ledgers = {
            "ctup_monitor_counters": monitor.counters,
            "ctup_io_stats": monitor.store.io_stats,
            "ctup_unit_kernel_stats": monitor.units.stats,
        }
    merger = getattr(monitor, "merger", None)
    if merger is not None:
        ledgers["ctup_merge_stats"] = merger.stats
    return ledgers


_HELP = {
    "ctup_monitor_counters": "MonitorCounters ledger, mirrored field by field.",
    "ctup_io_stats": "IoStats page-level I/O ledger, mirrored field by field.",
    "ctup_unit_kernel_stats": (
        "UnitKernelStats prefilter ledger, mirrored field by field."
    ),
    "ctup_merge_stats": "Global top-k MergeStats ledger, mirrored field by field.",
}


class _LedgerMirror:
    """One monitor's ledger gauges, every child bound at construction."""

    def __init__(
        self, registry: "MetricsRegistry | NullRegistry", monitor: "CTUPMonitor"
    ) -> None:
        self.monitor = monitor
        scheme = monitor.name
        #: per ledger family, (field name, gauge child) in field order.
        self._fields: dict[str, list[tuple[str, Any]]] = {}
        for name, ledger in _ledgers(monitor).items():
            family = registry.gauge(
                name, _HELP[name], labelnames=("scheme", "field")
            )
            self._fields[name] = [
                (f.name, family.labels(scheme=scheme, field=f.name))
                for f in fields(ledger)  # type: ignore[arg-type]
            ]
        self._deliveries: tuple[Any, Any] | None = None
        if getattr(monitor, "merger", None) is not None:
            deliveries = registry.gauge(
                "ctup_shard_deliveries",
                "Routing outcomes: full (maintain+access) vs sync-only deliveries.",
                labelnames=("kind",),
            )
            self._deliveries = (
                deliveries.labels(kind="full"),
                deliveries.labels(kind="sync"),
            )

    def __call__(self) -> None:
        """Set every gauge from the ledgers as they are now."""
        for name, ledger in _ledgers(self.monitor).items():
            for field_name, child in self._fields[name]:
                child.set(float(getattr(ledger, field_name)))
        if self._deliveries is not None:
            full, sync = self._deliveries
            full.set(float(self.monitor.full_deliveries))  # type: ignore[attr-defined]
            sync.set(float(self.monitor.sync_deliveries))  # type: ignore[attr-defined]
