"""Folding journaled place events into a place list.

Recovery builds a monitor from a snapshot whose ``config`` captures the
``k`` / granularity in force at checkpoint time — but the *place set*
reaches :func:`~repro.state.snapshot.restore_monitor` as a plain list,
typically the workload's original one. When the journal records catalog
mutations that happened before the snapshot, the list must be brought
forward first; :func:`fold_places` does exactly that fold.

Only place events fold. ``k_changed`` / ``grid_retuned`` are already
baked into the snapshot's encoded config, and ``shard_plan_changed``
into its exported plan, so folding them here would double-apply. The
list's order does not matter: a store lays any place set out in
place-id order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.control.events import (
    ControlEvent,
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
)
from repro.model import Place


def fold_places(
    places: Sequence[Place], events: Iterable[ControlEvent]
) -> list[Place]:
    """``places`` after applying the place events in ``events``, in order.

    Other events are ignored (see module docstring).
    """
    table: dict[int, Place] = {}
    for place in places:
        if place.place_id in table:
            raise ValueError(f"duplicate place id {place.place_id}")
        table[place.place_id] = place
    for event in events:
        if isinstance(event, PlaceAdded):
            pid = event.place.place_id
            if pid in table:
                raise ValueError(f"place {pid} already exists")
            table[pid] = event.place
        elif isinstance(event, PlaceRemoved):
            if event.place_id not in table:
                raise ValueError(f"no such place {event.place_id}")
            del table[event.place_id]
        elif isinstance(event, PlaceReweighted):
            old = table.get(event.place_id)
            if old is None:
                raise ValueError(f"no such place {event.place_id}")
            table[event.place_id] = Place(
                place_id=old.place_id,
                location=old.location,
                required_protection=event.required_protection,
                kind=old.kind,
            )
    return list(table.values())
