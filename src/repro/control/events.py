"""The control-event vocabulary and its journal codec.

Every live reconfiguration is one of six event kinds. Events are plain
frozen dataclasses so they can be journaled (see :func:`encode_event`),
compared in tests, and replayed deterministically during recovery.

The codec is JSON-dict shaped to match the update journal's record
style: ``{"kind": ..., ...payload}``. A :class:`~repro.model.Place` is
encoded field-by-field (``{"id", "x", "y", "required", "kind"}``) so a
journal line never depends on pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Union

from repro.core.metrics import UpdateReport
from repro.model import Place, Point


@dataclass(frozen=True, slots=True)
class PlaceAdded:
    """A new place enters the catalog."""

    place: Place


@dataclass(frozen=True, slots=True)
class PlaceRemoved:
    """A place leaves the catalog."""

    place_id: int


@dataclass(frozen=True, slots=True)
class PlaceReweighted:
    """A place's required protection changes (location and id stay)."""

    place_id: int
    required_protection: int


@dataclass(frozen=True, slots=True)
class KChanged:
    """The answer size changes; ``k = 0`` suspends reporting."""

    k: int


@dataclass(frozen=True, slots=True)
class GridRetuned:
    """The grid granularity changes (always a rebuild — every cell
    boundary, page assignment, and bound moves at once)."""

    granularity: int


@dataclass(frozen=True, slots=True)
class ShardPlanChanged:
    """The shard count (and optionally the placement strategy) changes.

    Only meaningful on a :class:`~repro.shard.monitor.ShardedMonitor`;
    plain monitors reject it.
    """

    shards: int
    strategy: str = "striped"


ControlEvent = Union[
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
    KChanged,
    GridRetuned,
    ShardPlanChanged,
]


@dataclass(frozen=True, slots=True)
class EpochReport:
    """The receipt of one control application.

    ``rebuilt`` says whether the scheme fell back to a from-scratch
    rebuild of its derived state; the cost triple (``cells_accessed``,
    ``places_loaded``, ``page_reads``) is the work the application
    itself performed — measured around the ledger-neutral wrapper, so
    it is visible here even though the monitor's own counters do not
    move. ``flushed`` is the report of the burst a session flushed
    before applying the event (``None`` when nothing was pending).
    """

    epoch: int
    kind: str
    rebuilt: bool
    seconds: float
    cells_accessed: int
    places_loaded: int
    page_reads: int
    sk: float
    flushed: UpdateReport | None = None


def _encode_place(place: Place) -> dict[str, Any]:
    return {
        "id": place.place_id,
        "x": place.location.x,
        "y": place.location.y,
        "required": place.required_protection,
        "kind": place.kind,
    }


def _decode_place(payload: Mapping[str, Any]) -> Place:
    return Place(
        place_id=int(payload["id"]),
        location=Point(float(payload["x"]), float(payload["y"])),
        required_protection=int(payload["required"]),
        kind=str(payload.get("kind", "place")),
    )


def encode_event(event: ControlEvent) -> dict[str, Any]:
    """The JSON-safe journal payload of ``event``."""
    if isinstance(event, PlaceAdded):
        return {"kind": "place_added", "place": _encode_place(event.place)}
    if isinstance(event, PlaceRemoved):
        return {"kind": "place_removed", "place_id": event.place_id}
    if isinstance(event, PlaceReweighted):
        return {
            "kind": "place_reweighted",
            "place_id": event.place_id,
            "required": event.required_protection,
        }
    if isinstance(event, KChanged):
        return {"kind": "k_changed", "k": event.k}
    if isinstance(event, GridRetuned):
        return {"kind": "grid_retuned", "granularity": event.granularity}
    if isinstance(event, ShardPlanChanged):
        return {
            "kind": "shard_plan_changed",
            "shards": event.shards,
            "strategy": event.strategy,
        }
    raise TypeError(f"not a control event: {event!r}")


def decode_event(payload: Mapping[str, Any]) -> ControlEvent:
    """Inverse of :func:`encode_event`."""
    kind = payload.get("kind")
    if kind == "place_added":
        return PlaceAdded(_decode_place(payload["place"]))
    if kind == "place_removed":
        return PlaceRemoved(int(payload["place_id"]))
    if kind == "place_reweighted":
        return PlaceReweighted(
            int(payload["place_id"]), int(payload["required"])
        )
    if kind == "k_changed":
        return KChanged(int(payload["k"]))
    if kind == "grid_retuned":
        return GridRetuned(int(payload["granularity"]))
    if kind == "shard_plan_changed":
        return ShardPlanChanged(
            int(payload["shards"]), str(payload.get("strategy", "striped"))
        )
    raise ValueError(f"unknown control event kind: {kind!r}")


def event_kind(event: ControlEvent) -> str:
    """The journal ``kind`` tag of ``event`` (for reports and metrics)."""
    return encode_event(event)["kind"]
