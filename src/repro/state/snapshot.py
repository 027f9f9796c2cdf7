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
version does not restore.

Schemes without a paged store (``ExtentCTUP``) omit the fingerprint —
they carry their place data in construction arguments, and a mismatch
surfaces as a restore error instead.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.model import Place, Unit
from repro.shard.monitor import ShardedMonitor
from repro.state.codec import decode_config, encode_config
from repro.storage import FINGERPRINT_VERSION, fingerprint_places

#: version of the snapshot *document* (the envelope); the per-monitor
#: ``state`` payload is versioned separately by ``STATE_VERSION``.
FORMAT_VERSION = 2


class SnapshotError(RuntimeError):
    """The snapshot cannot be produced or applied to the supplied inputs."""


@runtime_checkable
class Snapshottable(Protocol):
    """The structural contract every checkpointable monitor satisfies.

    ``CTUPMonitor`` (and with it every registered scheme plus the
    sharded wrapper) implements it by inheritance; standalone schemes
    like ``ExtentCTUP`` implement it structurally.
    """

    def state_fields(self) -> tuple[str, ...]:
        """Declared names of all checkpointed attributes."""
        ...

    def transient_fields(self) -> tuple[str, ...]:
        """Declared names of attributes rebuilt (not stored) on restore."""
        ...

    def export_state(self) -> dict[str, Any]:
        """The full mutable state as a JSON-codable document."""
        ...

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Adopt a state document on a freshly constructed monitor."""
        ...

    def restore_counter_state(self, state: Mapping[str, Any]) -> None:
        """Re-pin caches and counters (also used post-resume-priming)."""
        ...


def snapshot_monitor(
    monitor: Snapshottable,
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
    document: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "scheme": state["scheme"],
        "config": encode_config(monitor.config),  # type: ignore[attr-defined]
        "journal_seq": journal_seq,
        # which reconfiguration epoch this cut belongs to (see
        # repro.control); informational at the envelope level — the
        # authoritative copy restores from the state payload.
        "epoch": getattr(monitor, "epoch", 0),
        "session": dict(session or {}),
        "state": state,
    }
    store = getattr(monitor, "store", None)
    if store is not None:
        document["places_fingerprint"] = store.fingerprint
        document["fingerprint_version"] = FINGERPRINT_VERSION
    return document


def _verify_fingerprint(
    document: Mapping[str, Any], monitor: Any, places: Iterable[Place]
) -> None:
    expected = document.get("places_fingerprint")
    if expected is None:
        return
    version = document.get("fingerprint_version", FINGERPRINT_VERSION)
    if version != FINGERPRINT_VERSION:
        raise SnapshotError(
            f"unsupported place fingerprint version {version!r}"
        )
    store = getattr(monitor, "store", None)
    actual = store.fingerprint if store is not None else fingerprint_places(places)
    if actual != expected:
        raise SnapshotError(
            "snapshot was taken against a different place set"
        )


def restore_monitor(
    document: Mapping[str, Any],
    *,
    places: Any,
    units: Iterable[Unit],
    factory: Callable | None = None,
) -> Any:
    """Rebuild a monitor from a snapshot document and the static inputs.

    The document's own ``scheme`` and ``config`` decide what gets built
    — they are the authoritative record of the checkpointed run; the
    caller supplies the static place set and the fleet (unit positions
    are overwritten by the restore). Pass ``factory`` for schemes
    outside the registry (the extensions): it is called as
    ``factory(config, places, units)`` and must produce a monitor of the
    snapshotted scheme.

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
        if factory is not None:
            monitor = factory(config, places, units)
        elif scheme == ShardedMonitor.name:
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
                raise SnapshotError(
                    f"unknown scheme {scheme!r}; pass factory= for "
                    "unregistered schemes"
                ) from None
            monitor = cls(config, places, units)
        _verify_fingerprint(document, monitor, places)
        monitor.restore_state(state)
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"cannot restore snapshot: {error}") from error
    return monitor
