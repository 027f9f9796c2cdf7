"""Checkpoint directories and crash recovery.

A checkpoint directory is owned WAL-style by one monitoring run::

    checkpoints/
      journal.jsonl            # the append-only update journal
      snapshot-000000000060.json   # snapshot at journal seq 60
      snapshot-000000000120.json   # newer snapshots accumulate

:class:`CheckpointStore` handles the layout (atomic snapshot writes via
temp-file rename); :class:`RecoveryManager` turns the directory back
into a live, bit-identically resumed session: restore the latest
snapshot, re-pin counters after the change tracker primes, replay the
journal tail through the ordinary session pipeline, continue.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.model import Place, Unit
from repro.state.journal import UpdateJournal
from repro.state.snapshot import SnapshotError, restore_monitor

if TYPE_CHECKING:
    from repro.engine.session import MonitorSession
    from repro.obs.spec import Observability

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where a session writes snapshots.

    ``every_batches`` > 0 snapshots after every that many flush
    boundaries (a batch flush, or one update in single mode); 0 disables
    periodic snapshots. Closing the session always writes a final
    snapshot. The journal is always written — it is what makes the
    *tail* after the last snapshot recoverable.
    """

    directory: str | Path
    every_batches: int = 0

    def __post_init__(self) -> None:
        if self.every_batches < 0:
            raise ValueError("every_batches cannot be negative")


class CheckpointStore:
    """Filesystem layout of one checkpoint directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.jsonl"

    def snapshot_paths(self) -> list[Path]:
        """All snapshot files, oldest first (names sort by journal seq)."""
        return sorted(
            p
            for p in self.directory.glob(
                f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"
            )
            if p.is_file()
        )

    def write_snapshot(self, document: dict[str, Any]) -> Path:
        """Atomically persist a snapshot document (write temp, fsync,
        rename) — the rename alone is atomic but not durable; a crash
        right after it may expose an empty file to recovery."""
        seq = int(document.get("journal_seq", 0))
        path = self.directory / f"{_SNAPSHOT_PREFIX}{seq:012d}{_SNAPSHOT_SUFFIX}"
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(document))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        return path

    def latest(self) -> dict[str, Any] | None:
        """The newest snapshot document, or ``None`` when there is none."""
        paths = self.snapshot_paths()
        if not paths:
            return None
        try:
            return json.loads(paths[-1].read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise SnapshotError(
                f"corrupt snapshot file {paths[-1].name}: {error}"
            ) from None

    def wipe(self) -> None:
        """Delete all snapshots and the journal (fresh-run ownership).

        A non-resuming run owns its checkpoint directory the way a
        database owns its WAL: stale state from an earlier run must not
        leak into the new journal's sequence numbering.
        """
        for path in self.snapshot_paths():
            path.unlink()
        if self.journal_path.exists():
            self.journal_path.unlink()


class RecoveryManager:
    """Resume a monitoring session from a checkpoint directory.

    The resume sequence (each step matters for bit-identity):

    1. restore the latest snapshot into a fresh monitor
       (:func:`restore_monitor` — structures, caches, counters);
    2. build the session with the same checkpoint policy and start it —
       starting primes the change tracker, and that priming read may
       touch storage and the merge layer;
    3. re-pin the counters (``restore_counter_state``) to erase the
       priming perturbation;
    4. adopt the session metadata (updates processed, journal position);
    5. replay the journal tail through the ordinary pipeline with
       journaling and checkpointing suppressed — tracker observation and
       audits still run, reproducing the uninterrupted run's reads;
    6. hand the session back, live.

    With no snapshot but a non-empty journal, the monitor initializes
    from scratch and the whole journal replays (steps 3–4 collapse: a
    fresh initialization needs no re-pinning). The resumed session must
    use the same ``batch_size`` as the journaled run — flush markers
    only line up at the same burst boundaries.
    """

    def __init__(
        self,
        policy: CheckpointPolicy,
        *,
        places: Sequence[Place],
        units: Iterable[Unit],
    ) -> None:
        self.policy = policy
        self.store = CheckpointStore(policy.directory)
        self.places = places
        self.units = list(units)

    def resume_session(
        self,
        *,
        fresh_monitor: Callable[[], Any],
        batch_size: int = 0,
        audit_every: int = 0,
        track_changes: bool = True,
        obs: "Observability | None" = None,
    ) -> "MonitorSession":
        """The full resume sequence; returns a *started* session.

        ``fresh_monitor`` builds the monitor for the no-snapshot-yet
        case (journal-only recovery, or a completely empty directory).
        ``obs`` is handed to the session, so the restore and the journal
        replay are traced and the recovered monitor comes out
        instrumented.
        """
        from repro.engine.session import MonitorSession

        document = self.store.latest()
        # the session's journal, opened first: its one scan of the file
        # serves the control events folded into the place set, and the
        # tail replayed below.
        journal = UpdateJournal(self.store.journal_path)
        try:
            if document is None:
                monitor = fresh_monitor()
            else:
                span = (
                    nullcontext()
                    if obs is None
                    else obs.tracer.span(
                        "recovery.restore",
                        cat="state",
                        seq=int(document.get("journal_seq", 0)),
                    )
                )
                with span:
                    monitor = self._restore(document, journal)
            session = MonitorSession(
                monitor,
                batch_size=batch_size,
                audit_every=audit_every,
                track_changes=track_changes,
                checkpoint=self.policy,
                journal=journal,
                obs=obs,
            )
        except BaseException:
            journal.close()
            raise
        session.start()
        if document is not None:
            # erase the tracker-priming perturbation (step 3).
            monitor.restore_counter_state(document["state"])
            meta = document.get("session", {})
            session.adopt_resume_state(
                updates_processed=int(meta.get("updates_processed", 0)),
                applied_seq=int(document.get("journal_seq", 0)),
            )
            journal.continue_after(session.applied_seq)
        tail = journal.tail(session.applied_seq)
        span = (
            nullcontext()
            if obs is None
            else obs.tracer.span(
                "recovery.replay", cat="state", records=len(tail)
            )
        )
        with span:
            session.replay(tail)
        if obs is not None:
            obs.registry.counter(
                "ctup_recovery_replays_total",
                "Journal-tail replays performed on resume.",
            ).inc()
        return session

    def _restore(self, document: dict[str, Any], journal: UpdateJournal) -> Any:
        return restore_monitor(
            document,
            places=self._folded_places(
                int(document.get("journal_seq", 0)), journal
            ),
            units=self.units,
        )

    def _folded_places(
        self, journal_seq: int, journal: UpdateJournal
    ) -> Sequence[Place]:
        """The place set in force at ``journal_seq``.

        The snapshot's config already carries post-control ``k`` /
        granularity, and its exported plan the shard layout — but the
        *place catalog* reaches :func:`restore_monitor` as a plain list,
        typically the workload's original one. Any catalog mutations the
        journal records before the snapshot cut must be folded in first,
        or the rebuilt store (and its fingerprint) describes the wrong
        world. ``journal`` is the directory's open journal.
        """
        if journal_seq <= 0:
            return self.places
        # local imports: repro.control sits above repro.state.
        from repro.control.events import decode_event
        from repro.control.replay import fold_places

        events = [
            decode_event(record.control)
            for record in journal.control_records()
            if record.seq <= journal_seq
        ]
        if not events:
            return self.places
        return fold_places(self.places, events)
