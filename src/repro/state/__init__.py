"""The universal monitor state layer.

Every scheme's mutable state — unit positions, per-scheme structures,
storage-cache contents and all work counters — sits behind one monitor
contract (:class:`~repro.core.monitor.CTUPMonitor`'s ``export_state`` /
``restore_state``), one versioned snapshot document
(:func:`snapshot_monitor` / :func:`restore_monitor`), one append-only
update journal (:class:`UpdateJournal`) and one recovery driver
(:class:`RecoveryManager`). Restoring the latest snapshot and
replaying the journal tail resumes a monitoring run to a bit-identical
state: same top-k, same ``SK``, same counters as the uninterrupted run.
"""

from repro.state.codec import decode_config, encode_config
from repro.state.journal import JournalCorrupted, JournalRecord, UpdateJournal
from repro.state.recovery import (
    CheckpointPolicy,
    CheckpointStore,
    RecoveryManager,
)
from repro.state.snapshot import (
    FORMAT_VERSION,
    SnapshotError,
    restore_monitor,
    snapshot_monitor,
)
from repro.storage import fingerprint_places

__all__ = [
    "FORMAT_VERSION",
    "CheckpointPolicy",
    "CheckpointStore",
    "JournalCorrupted",
    "JournalRecord",
    "RecoveryManager",
    "SnapshotError",
    "UpdateJournal",
    "decode_config",
    "encode_config",
    "fingerprint_places",
    "restore_monitor",
    "snapshot_monitor",
]
