"""The monitoring-session facade.

``sim.py``, the examples, the persistence demo and the bench timeline
all used to hand-roll the same plumbing: initialize the monitor, track
result changes, maybe batch the ingest, maybe audit periodically.
:class:`MonitorSession` wires those layers once, around **any** scheme:

>>> session = MonitorSession(monitor, batch_size=32, audit_every=500)
>>> session.start()                 # InitReport (None if restored)
>>> for update in stream:
...     session.feed(update)
>>> session.flush()                 # drain a partial burst
>>> session.monitor.top_k()

Result changes reach callers through one path,
``session.tracker.subscribe(callback)``; metrics and spans come from an
attached :class:`~repro.obs.Observability` bundle.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, ContextManager, Iterable

from repro.core.audit import audit_monitor
from repro.core.batch import BatchProcessor
from repro.core.events import ChangeTracker
from repro.core.metrics import InitReport, UpdateReport
from repro.core.monitor import CTUPMonitor
from repro.core.units import LOCATION_TOLERANCE2
from repro.model import LocationUpdate, Point
from repro.state.journal import JournalRecord, UpdateJournal
from repro.state.recovery import CheckpointPolicy, CheckpointStore
from repro.state.snapshot import snapshot_monitor

if TYPE_CHECKING:
    from repro.control.events import EpochReport
    from repro.obs.expo import MetricsServer
    from repro.obs.hooks import ObservabilityHooks
    from repro.obs.spec import Observability


class UpdateRejected(ValueError):
    """An update :meth:`MonitorSession.feed` refuses: its unit id is
    unknown, a coordinate is not finite, or its ``old_location`` is not
    where the session last put the unit. It is rejected before it is
    journaled or buffered, so the session and its checkpoint directory
    are left exactly as they were."""


class MonitorSession:
    """A monitor plus batching, change tracking, audits and metrics."""

    def __init__(
        self,
        monitor: CTUPMonitor,
        *,
        batch_size: int = 0,
        audit_every: int = 0,
        track_changes: bool = True,
        checkpoint: CheckpointPolicy | None = None,
        journal: UpdateJournal | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        """``batch_size`` > 0 buffers updates and flushes them through
        the phase API as exact bursts: each burst is move-coalesced and
        applied by one ``apply_burst`` (BasicCTUP and OptCTUP run it
        through ``apply_chains``: batched endpoint passes plus a scalar
        Table I/II replay of each chain step, scalar because numpy's
        per-call cost dominates on the few cells a step touches), then
        refreshed once.
        ``audit_every`` > 0 runs the invariant auditor every that many
        updates (it costs a brute-force pass — useful in soak tests,
        off by default). ``track_changes=False`` skips the per-update
        result diffing entirely — for measurement loops (the bench
        harness) where reading ``top_k()`` after every update would
        perturb the I/O counters being measured.

        ``checkpoint`` attaches a checkpoint directory: every ingested
        update is journaled (write-ahead in single mode, on buffering in
        batch mode), snapshots are written per the policy, and ``close()``
        writes one more. The
        session *appends* to whatever journal the directory holds —
        wiping stale state from an earlier, unrelated run is the
        caller's job (``repro.api.open_session`` does it on any
        non-resuming start). ``journal`` hands over that directory's
        journal already open (recovery opens it before the monitor
        exists); without it the session opens the journal itself.

        ``obs`` attaches a live :class:`~repro.obs.Observability`
        bundle: the monitor (and any shard children), the journal and
        the session's stream metrics are instrumented, and when the
        bundle carries a serve port a ``/metrics`` endpoint runs for the
        session's lifetime (pass ``obs=ObsSpec(...)`` to
        ``open_session`` to build the bundle). Result changes go to
        ``tracker.subscribe`` callbacks."""
        if batch_size < 0:
            raise ValueError("batch_size cannot be negative")
        if audit_every < 0:
            raise ValueError("audit_every cannot be negative")
        self.monitor = monitor
        self.batch_size = batch_size
        self.audit_every = audit_every
        self.track_changes = track_changes
        self.tracker = ChangeTracker(monitor)
        self.audit_problems: list[str] = []
        self.updates_processed = 0
        self.init_report: InitReport | None = None
        self._batcher = BatchProcessor(monitor) if batch_size else None
        self._pending: list[LocationUpdate] = []
        #: each buffered unit's position after its last buffered update.
        self._pending_at: dict[int, Point] = {}
        self._started = False
        self.checkpoint_policy = checkpoint
        self._checkpoint_store = (
            CheckpointStore(checkpoint.directory) if checkpoint else None
        )
        if journal is not None and checkpoint is None:
            raise ValueError("a journal needs its checkpoint policy")
        self._journal = (
            journal
            if journal is not None or self._checkpoint_store is None
            else UpdateJournal(self._checkpoint_store.journal_path)
        )
        #: journal seq of the last *applied* record — what a snapshot
        #: taken now refers to, and where replay resumes after it.
        self._applied_seq = 0
        self._flushes_done = 0
        self._replaying = False
        self.observability = obs
        self._metrics_server: "MetricsServer | None" = None
        #: the stream metrics, called directly; ``None`` without obs.
        self._obs_hooks: "ObservabilityHooks | None" = None
        if obs is not None:
            # local imports: repro.obs sits above repro.engine's core
            # dependencies; importing it lazily keeps the layering loose.
            from repro.obs.bridge import attach_observability
            from repro.obs.hooks import ObservabilityHooks

            attach_observability(monitor, obs)
            if self._journal is not None:
                self._journal.attach_observability(obs)
            self._obs_hooks = ObservabilityHooks(obs)
            if obs.serve_port is not None:
                from repro.obs.expo import MetricsServer

                self._metrics_server = MetricsServer(
                    obs.registry, port=obs.serve_port, sync=obs.sync
                ).start()

    # -- wiring -----------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether ``start()`` has run."""
        return self._started

    @property
    def batcher(self) -> BatchProcessor | None:
        """The burst processor (``None`` in single-update mode) — its
        ``batches_processed`` / ``updates_processed`` counters are the
        batching diagnostics."""
        return self._batcher

    @property
    def journal(self) -> UpdateJournal | None:
        """The attached update journal (``None`` without a policy)."""
        return self._journal

    @property
    def applied_seq(self) -> int:
        """Journal seq of the last applied record (0 without a journal)."""
        return self._applied_seq

    @property
    def pending_updates(self) -> int:
        """Updates buffered but not yet flushed (0 in single mode)."""
        return len(self._pending)

    # -- observability ----------------------------------------------------

    @property
    def metrics_server(self) -> "MetricsServer | None":
        """The running ``/metrics`` endpoint (``None`` unless serving)."""
        return self._metrics_server

    def sync_metrics(self) -> None:
        """Refresh the bridged ledger gauges from the monitor's counters."""
        if self.observability is not None:
            self.observability.sync()

    def metrics_text(self) -> str:
        """The registry in Prometheus text format (synced first)."""
        if self.observability is None:
            raise RuntimeError("session has no observability attached")
        from repro.obs.expo import render_prometheus

        self.observability.sync()
        return render_prometheus(self.observability.registry)

    def metrics_json(self) -> dict[str, object]:
        """A plain-dict snapshot of the registry (synced first)."""
        if self.observability is None:
            raise RuntimeError("session has no observability attached")
        from repro.obs.expo import json_dump

        self.observability.sync()
        return json_dump(self.observability.registry)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> InitReport | None:
        """Initialize the monitor (or adopt an already-running one).

        Returns the :class:`InitReport`, or ``None`` when the monitor
        was already initialized (e.g. restored from a checkpoint) — the
        tracker is then primed on the current result instead.
        """
        if self._started:
            raise RuntimeError("session already started")
        if self.monitor.initialized:
            if self.track_changes:
                self.tracker.prime()
        elif self.track_changes:
            self.init_report = self.tracker.initialize()
        else:
            self.init_report = self.monitor.initialize()
        self._started = True
        return self.init_report

    def feed(self, update: LocationUpdate) -> UpdateReport | None:
        """Ingest one update.

        In single mode, processes it and returns its report. In batch
        mode, buffers it and returns the burst report when the buffer
        reaches ``batch_size`` (``None`` otherwise). Raises
        :class:`UpdateRejected` — before anything is journaled — for an
        unknown unit id, a non-finite coordinate, or an ``old_location``
        away from the unit's position as of the pending buffer (its last
        buffered ``new_location``, else its tracked position). Any of
        these would otherwise fail every later resume of the directory.
        """
        units = self.monitor.units
        if update.unit_id not in units:
            raise UpdateRejected(f"unknown unit {update.unit_id}")
        for point in (update.old_location, update.new_location):
            if not (math.isfinite(point.x) and math.isfinite(point.y)):
                raise UpdateRejected(
                    f"unit {update.unit_id}: non-finite coordinate {point}"
                )
        at = self._pending_at.get(update.unit_id)
        if at is None:
            at = units.location_of(update.unit_id)
        if at.squared_distance_to(update.old_location) > LOCATION_TOLERANCE2:
            raise UpdateRejected(
                f"unit {update.unit_id}: stale old location "
                f"{update.old_location}, the unit is at {at}"
            )
        if not self._started:
            self.start()
        if self._obs_hooks is not None:
            self._obs_hooks.on_update_start(update)
        if self._batcher is not None:
            if self._journal is not None and not self._replaying:
                self._journal.append_update(update, batched=True)
            self._pending.append(update)
            self._pending_at[update.unit_id] = update.new_location
            if len(self._pending) >= self.batch_size:
                return self.flush()
            return None
        # write-ahead: journal first, mark applied only once processed.
        seq = 0
        if self._journal is not None and not self._replaying:
            seq = self._journal.append_update(update, batched=False)
        report = self.monitor.process(update)
        self._complete([update], report, batched=False)
        if seq:
            self._applied_seq = seq
        self._flush_boundary()
        return report

    def flush(self) -> UpdateReport | None:
        """Process any buffered updates now (no-op in single mode)."""
        if self._batcher is None or not self._pending:
            return None
        batch, self._pending = self._pending, []
        self._pending_at.clear()
        with self._span("session.flush", "session", updates=len(batch)):
            report = self._batcher.process_batch(batch)
        self._complete(batch, report, batched=True)
        # the marker is written *after* the burst applied: a snapshot at
        # this seq never refers into the middle of a batch.
        if self._journal is not None and not self._replaying:
            self._applied_seq = self._journal.append_flush()
        self._flush_boundary()
        return report

    def run(self, updates: Iterable[LocationUpdate]) -> int:
        """Feed a whole stream (plus a final flush); returns the count."""
        count = 0
        for update in updates:
            self.feed(update)
            count += 1
        self.flush()
        return count

    def apply_control(self, event: object) -> "EpochReport":
        """Apply a reconfiguration event at a batch boundary — the one
        way an event is both applied and journaled.

        Refuses an event :func:`repro.control.check_control` rejects
        before anything moves: once journaled, it would fail every later
        resume of the directory. Then flushes any buffered burst
        (control events only ever apply between batches — the same
        consistent-cut rule as snapshots), journals the event
        write-ahead, applies it through
        :func:`repro.control.apply_control`, and primes the change
        tracker on the new world. Returns the
        :class:`~repro.control.events.EpochReport`; its ``flushed`` is
        the burst report of that flush (``None`` when nothing was
        pending).
        """
        # local import: repro.control sits above repro.engine's core deps.
        from repro.control.apply import check_control
        from repro.control.events import encode_event

        check_control(self.monitor, event)
        if not self._started:
            self.start()
        flushed = self.flush()
        seq = 0
        if self._journal is not None and not self._replaying:
            seq = self._journal.append_control(encode_event(event))
        report = self.monitor.apply_control(event)
        if seq:
            self._applied_seq = seq
        if self.track_changes:
            # the world changed under the tracker: re-prime rather than
            # report a spurious top-k "change".
            self.tracker.prime()
        return report if flushed is None else replace(report, flushed=flushed)

    # -- checkpointing & recovery -----------------------------------------

    def checkpoint(self) -> Path:
        """Write a snapshot of the current state; returns its path.

        Flushes any buffered burst first — snapshots are only taken at
        batch boundaries (the sharded consistent-cut rule, and the only
        points the journal's flush markers line up with).
        """
        if self._checkpoint_store is None:
            raise RuntimeError("session has no checkpoint policy")
        self.flush()
        with self._span("checkpoint.write", "state", seq=self._applied_seq):
            document = snapshot_monitor(
                self.monitor,
                journal_seq=self._applied_seq,
                session={"updates_processed": self.updates_processed},
            )
            path = self._checkpoint_store.write_snapshot(document)
        obs = self.observability
        if obs is not None:
            obs.registry.counter(
                "ctup_checkpoints_total", "Checkpoint snapshots written."
            ).inc()
        return path

    def adopt_resume_state(
        self, *, updates_processed: int, applied_seq: int
    ) -> None:
        """Install snapshot-carried session metadata (recovery step 4)."""
        self.updates_processed = updates_processed
        self._applied_seq = applied_seq

    def replay(self, records: Iterable[JournalRecord]) -> int:
        """Re-feed journaled records through the ordinary pipeline.

        Journaling and checkpointing are suppressed (the records are
        already durable); change tracking and audits still run, so the
        replayed prefix performs exactly the reads the uninterrupted run
        performed. Returns the number of updates applied. The session
        must use the same ``batch_size`` as the run that wrote the
        journal — buffered records then auto-flush at the same
        boundaries, and each flush marker's explicit ``flush()`` is a
        no-op on the already-drained buffer.
        """
        if not self._started:
            raise RuntimeError("start() the session before replaying")
        self._replaying = True
        applied = 0
        try:
            for record in records:
                if record.is_flush:
                    self.flush()
                elif record.is_control:
                    from repro.control.events import decode_event

                    assert record.control is not None
                    self.apply_control(decode_event(record.control))
                else:
                    assert record.update is not None
                    self.feed(record.update)
                    applied += 1
                self._applied_seq = record.seq
        finally:
            self._replaying = False
        return applied

    def close(self) -> None:
        """Flush, write the closing snapshot (with a checkpoint policy),
        stop the metrics endpoint, and release the journal handle
        (idempotent)."""
        self.flush()
        if (
            self.checkpoint_policy is not None
            and self._started
            and self.monitor.initialized
        ):
            self.checkpoint()
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
        if self._journal is not None:
            # make the tail durable even when no closing snapshot ran —
            # a crash right after close() must lose nothing.
            self._journal.sync()
            self._journal.close()

    def __enter__(self) -> "MonitorSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _flush_boundary(self) -> None:
        """Periodic-checkpoint bookkeeping, shared by both ingest modes."""
        if self._replaying or self.checkpoint_policy is None:
            return
        self._flushes_done += 1
        every = self.checkpoint_policy.every_batches
        if every and self._flushes_done % every == 0:
            self.checkpoint()

    # -- internals --------------------------------------------------------

    def _span(self, name: str, cat: str, **args: object) -> ContextManager[object]:
        """A tracer span around a region, or a no-op without a bundle."""
        obs = self.observability
        return nullcontext() if obs is None else obs.tracer.span(name, cat, **args)

    def _complete(
        self,
        updates: list[LocationUpdate],
        report: UpdateReport,
        batched: bool,
    ) -> None:
        hooks = self._obs_hooks
        if hooks is not None:
            hooks.on_refresh(report.cells_accessed)
            for update in updates:
                hooks.on_update_end(update, report)
            if batched:
                hooks.on_batch_flush(updates, report)
        if self.track_changes:
            change = self.tracker.observe(updates[-1].timestamp)
            if change is not None and hooks is not None:
                hooks.on_topk_change(change)
        before = self.updates_processed
        self.updates_processed += len(updates)
        if self.audit_every and (
            self.updates_processed // self.audit_every
            > before // self.audit_every
        ):
            self.audit_problems.extend(audit_monitor(self.monitor))
