"""Snapshot documents: one format for every scheme.

A snapshot is a JSON-codable dict::

    {
      "format": 2,
      "scheme": "opt",                  # which monitor wrote it
      "config": {...},                  # every CTUPConfig field
      "places_fingerprint": "...",      # content hash of the place set
      "fingerprint_version": 3,         # column-bytes place hash
      "journal_seq": 1234,              # the journal record this cut sits at
      "session": {"updates_processed": N},
      "state": {...},                   # the monitor's export_state() payload
    }

The place set is static input and is identified by fingerprint, never
embedded: restoring against a different place set must fail loudly
rather than resume with silently wrong safeties. The fingerprint is
:func:`repro.storage.fingerprint_places` (exact: it hashes the
coordinates' bytes), and a document written with another fingerprint
version does not restore. Every document carries both fields: one
without them does not restore either.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.monitor import CTUPMonitor
from repro.model import Unit
from repro.shard.monitor import ShardedMonitor
from repro.state.codec import decode_config, encode_config
from repro.storage import FINGERPRINT_VERSION

#: version of the snapshot *document* (the envelope); the per-monitor
#: ``state`` payload is versioned separately by ``STATE_VERSION``.
FORMAT_VERSION = 2


class SnapshotError(RuntimeError):
    """The snapshot cannot be produced or applied to the supplied inputs."""


def snapshot_monitor(
    monitor: CTUPMonitor,
    *,
    journal_seq: int = 0,
    session: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Capture a running monitor as a format-2 snapshot document.

    ``journal_seq`` records the journal position this cut corresponds to
    (0 when no journal is attached); ``session`` carries session-level
    metadata (``updates_processed``) restored alongside the monitor.
    """
    try:
        state = monitor.export_state()
    except ValueError as error:
        raise SnapshotError(str(error)) from error
    return {
        "format": FORMAT_VERSION,
        "scheme": state["scheme"],
        "config": encode_config(monitor.config),
        "places_fingerprint": monitor.store.fingerprint,
        "fingerprint_version": FINGERPRINT_VERSION,
        "journal_seq": journal_seq,
        # which reconfiguration epoch this cut belongs to (see
        # repro.control); informational at the envelope level — the
        # authoritative copy restores from the state payload.
        "epoch": monitor.epoch,
        "session": dict(session or {}),
        "state": state,
    }


def _verify_fingerprint(
    document: Mapping[str, Any], monitor: CTUPMonitor
) -> None:
    if not {"places_fingerprint", "fingerprint_version"} <= document.keys():
        raise SnapshotError("snapshot carries no place fingerprint")
    version = document["fingerprint_version"]
    if version != FINGERPRINT_VERSION:
        raise SnapshotError(
            f"unsupported place fingerprint version {version!r}"
        )
    if monitor.store.fingerprint != document["places_fingerprint"]:
        raise SnapshotError(
            "snapshot was taken against a different place set"
        )


def restore_monitor(
    document: Mapping[str, Any],
    *,
    places: Any,
    units: Iterable[Unit],
) -> Any:
    """Rebuild a monitor from a snapshot document and the static inputs.

    The document's own ``scheme`` and ``config`` decide what gets built
    — they are the authoritative record of the checkpointed run; the
    caller supplies the static place set and the fleet (unit positions
    are overwritten by the restore).

    The restored monitor is ready for ``process()`` immediately — no
    initialization pass runs.
    """
    fmt = document.get("format")
    if fmt != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format {fmt!r} "
            f"(this build reads format {FORMAT_VERSION})"
        )
    try:
        config = decode_config(document["config"])
        scheme = document["scheme"]
        state = document["state"]
        if scheme == ShardedMonitor.name:
            shard_fields = state["scheme_state"]
            monitor = ShardedMonitor(
                config,
                places,
                units,
                shards=[int(s) for s in shard_fields["plan"]],
                scheme=shard_fields["scheme_name"],
            )
        else:
            from repro.api import SCHEMES

            try:
                cls = SCHEMES[scheme]
            except KeyError:
                raise SnapshotError(f"unknown scheme {scheme!r}") from None
            monitor = cls(config, places, units)
        _verify_fingerprint(document, monitor)
        monitor.restore_state(state)
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"cannot restore snapshot: {error}") from error
    return monitor
