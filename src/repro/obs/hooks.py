"""ObservabilityHooks: the session's stream metrics.

The bridge (:mod:`repro.obs.bridge`) mirrors the monitor's *ledgers*;
this class records the *stream* — events the ledgers cannot see, like
updates fed, batch sizes, top-k movement and the current SK — as true
registry counters/histograms, updated live as the session runs.  A
:class:`~repro.engine.session.MonitorSession` builds one when an
Observability bundle is attached and calls it directly; without a
bundle the session makes no such calls at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.events import TopKChange
    from repro.core.metrics import UpdateReport
    from repro.model import LocationUpdate
    from repro.obs.spec import Observability

__all__ = ["ObservabilityHooks"]

#: Batch-size buckets: powers of two up to the largest burst a session
#: realistically coalesces.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


class ObservabilityHooks:
    """Records session events onto an Observability bundle.

    Every metric here is label-less, and its one child is bound when the
    hooks are built, so the session's families are exported (at 0) from
    then on and no event looks a child up. Bursts flushed are the
    ``ctup_session_batch_size`` histogram's count; access phases run are
    the ``access`` count of ``ctup_phase_seconds``.
    """

    def __init__(self, obs: "Observability") -> None:
        registry = obs.registry
        self._updates = registry.counter(
            "ctup_session_updates_total",
            "Location updates fed into the session.",
        ).labels()
        self._changes = registry.counter(
            "ctup_session_topk_changes_total",
            "Times the top-k result (or SK) moved.",
        ).labels()
        self._cells = registry.counter(
            "ctup_session_cells_accessed_total",
            "Cells touched by session access phases.",
        ).labels()
        self._batch_size = registry.histogram(
            "ctup_session_batch_size",
            "Flushed burst sizes, in raw updates.",
            buckets=_BATCH_BUCKETS,
        ).labels()
        self._sk = registry.gauge(
            "ctup_session_sk",
            "Current SK (the k-th smallest safety; +Inf below k places).",
        ).labels()
        #: the report the SK gauge was last set from: a flushed burst's
        #: updates share one report, so the burst sets the gauge once.
        self._sk_report: "UpdateReport | None" = None

    def on_update_start(self, update: "LocationUpdate") -> None:
        """An update entered the session, before any work."""
        self._updates.inc()

    def on_update_end(self, update: "LocationUpdate", report: "UpdateReport") -> None:
        """The update's work is complete; in batch mode once per update
        of the flushed burst, with the burst's shared report."""
        if report is not self._sk_report:
            self._sk_report = report
            self._sk.set(report.sk)

    def on_batch_flush(
        self, updates: Sequence["LocationUpdate"], report: "UpdateReport"
    ) -> None:
        """A burst was flushed through the monitor (batch mode only)."""
        self._batch_size.observe(float(len(updates)))

    def on_topk_change(self, change: "TopKChange") -> None:
        """The top-k result (or SK) moved."""
        self._changes.inc()

    def on_refresh(self, accessed: int) -> None:
        """An access phase ran, touching ``accessed`` cells."""
        self._cells.inc(float(accessed))
