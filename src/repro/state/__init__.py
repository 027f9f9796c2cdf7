"""The universal monitor state layer.

Every scheme's mutable state — unit positions, per-scheme structures,
storage-cache contents and all work counters — sits behind one
scheme-agnostic protocol (:class:`Snapshottable`), one versioned
snapshot document (:func:`snapshot_monitor` / :func:`restore_monitor`),
one append-only update journal (:class:`UpdateJournal`) and one recovery
driver (:class:`RecoveryManager`). Restoring the latest snapshot and
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
    Snapshottable,
    SnapshotError,
    fingerprint_places,
    restore_monitor,
    snapshot_monitor,
)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointPolicy",
    "CheckpointStore",
    "JournalCorrupted",
    "JournalRecord",
    "RecoveryManager",
    "SnapshotError",
    "Snapshottable",
    "UpdateJournal",
    "decode_config",
    "encode_config",
    "fingerprint_places",
    "restore_monitor",
    "snapshot_monitor",
]
