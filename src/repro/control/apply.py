"""Applying a control event to a live monitor.

:func:`apply_control` is the single entry point of the control plane.
One application is always the same steps:

0. **Check** — :func:`check_control` refuses an event that cannot
   apply to the current world, before anything moves.
1. **World patch** — mutate the ground truth the event names: the place
   catalog (the store's mutators), the config's ``k``, the grid
   granularity, the shard plan.
2. **Scheme patch** — ask the monitor to absorb the change into its
   derived state incrementally (the ``_control_*`` hooks). A hook
   returning ``False``, and every :class:`GridRetuned`, takes the
   documented fallback: rebuild the derived state from scratch over the
   patched world (:meth:`_rebuild_in_place`). The event and the scheme
   decide the path; both must leave the answer the oracle gives over
   the post-event world, and the test suite checks exactly that.
3. **Epoch bump** — ``monitor.epoch += 1``; snapshots and reports carry
   the epoch so a recovery can tell which world a record belongs to.
4. **Ledger neutrality** — all work done above is measured, billed to
   the returned :class:`~repro.control.events.EpochReport`, and then
   erased from the monitor's own counters, so reconfiguring mid-run
   never perturbs the benchmark ledgers of the run itself.

Control events apply only *between* batches — the engine session
(:meth:`repro.engine.session.MonitorSession.apply_control`, the one
place an event is checked and journaled) flushes any buffered updates
first, and the sharded monitor refuses to resnapshot or reshard with
deliveries still queued.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping

from repro.control.events import (
    ControlEvent,
    EpochReport,
    GridRetuned,
    KChanged,
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
    ShardPlanChanged,
    event_kind,
)
from repro.model import Place

if TYPE_CHECKING:
    from repro.core.monitor import CTUPMonitor

def check_control(monitor: "CTUPMonitor", event: object) -> None:
    """Raise unless ``event`` applies to ``monitor``'s current world: a
    new place must have a fresh id and lie in the space, a
    removed or reweighted place must exist, a required protection, ``k``
    and granularity must be valid, a sharded monitor's grid needs a cell
    per shard, and a shard plan needs a sharded monitor. Raises
    ``TypeError`` for an object that is not a control event or an added
    place that is not a :class:`~repro.model.Place`, ``ValueError``
    otherwise, and changes nothing."""
    store = monitor.store
    if isinstance(event, PlaceAdded):
        place = event.place
        if not isinstance(place, Place):
            raise TypeError(f"expected a Place, got {type(place).__name__}")
        if store.has_place(place.place_id):
            raise ValueError(f"duplicate place id {place.place_id}")
        monitor.grid.cell_of(place.location)
    elif isinstance(event, (PlaceRemoved, PlaceReweighted)):
        if not store.has_place(event.place_id):
            raise ValueError(f"no such place {event.place_id}")
        if isinstance(event, PlaceReweighted) and event.required_protection < 0:
            raise ValueError("required_protection cannot be negative")
    elif isinstance(event, KChanged):
        monitor.config.replace(k=event.k)
    elif isinstance(event, GridRetuned):
        monitor.config.replace(granularity=event.granularity)
        plan = getattr(monitor, "plan", None)
        if plan is not None and plan.n_shards > event.granularity**2:
            # a sharded monitor keeps its shards, and each needs a cell.
            raise ValueError(
                f"{plan.n_shards} shards cannot all own a cell of a "
                f"{event.granularity}x{event.granularity} grid"
            )
    elif isinstance(event, ShardPlanChanged):
        if not hasattr(monitor, "_control_reshard"):
            raise ValueError("shard_plan_changed applies only to sharded monitors")
        # local import: repro.control sits above repro.shard.
        from repro.shard.plan import plan_for

        plan_for(monitor.grid, event.shards, event.strategy)
    else:
        raise TypeError(f"not a control event: {event!r}")


def _patch_world_and_scheme(monitor: "CTUPMonitor", event: ControlEvent) -> bool:
    """Steps 1 and 2; returns whether the scheme absorbed the event
    incrementally (``False`` means the caller must rebuild)."""
    store = monitor.store
    if isinstance(event, PlaceAdded):
        cell = store.add_place(event.place)
        return monitor._control_place_added(event.place, cell)
    if isinstance(event, PlaceRemoved):
        cell = store.cell_of_place(event.place_id)
        old = store.remove_place(event.place_id)
        return monitor._control_place_removed(old, cell)
    if isinstance(event, PlaceReweighted):
        cell = store.cell_of_place(event.place_id)
        old = store.reweight(event.place_id, event.required_protection)
        new = store.peek_place(event.place_id)
        return monitor._control_place_reweighted(old, new, cell)
    if isinstance(event, KChanged):
        monitor.config = monitor.config.replace(k=event.k)
        return monitor._control_k_changed()
    if isinstance(event, GridRetuned):
        # every cell boundary, page assignment and bound moves at once —
        # there is no incremental patch, by design.
        monitor._retune_grid(event.granularity)
        return False
    # a shard plan change: check_control refused it on a plain monitor.
    reshard = getattr(monitor, "_control_reshard")
    return reshard(event.shards, event.strategy)


def _ledger_cost(
    monitor: "CTUPMonitor", token: Mapping[str, object]
) -> tuple[int, int, int]:
    """(cells_accessed, places_loaded, page_reads) spent since ``token``.

    A sharded monitor's work snapshot carries the *merged* ledgers (its
    own counters never move); prefer those when present.
    """
    if "merged_counters" in token:
        counters = monitor.merged_counters() - token["merged_counters"]
        io = monitor.merged_io() - token["merged_io"]
    else:
        counters = monitor.counters - token["counters"]
        io = monitor.store.io_stats - token["io"]
    return (
        int(counters.cells_accessed),
        int(counters.places_loaded),
        int(io.page_reads),
    )


def apply_control(monitor: "CTUPMonitor", event: ControlEvent) -> EpochReport:
    """Apply ``event`` to ``monitor``; returns the epoch receipt."""
    monitor._require_initialized()
    check_control(monitor, event)
    kind = event_kind(event)
    start = time.perf_counter()
    token = monitor._control_work_snapshot()
    absorbed = _patch_world_and_scheme(monitor, event)
    if not absorbed:
        monitor._rebuild_in_place()
    monitor.epoch += 1
    cells, places, reads = _ledger_cost(monitor, token)
    # read the report's SK *inside* the neutral window — schemes that
    # fetch place records lazily (naive) touch storage to answer it.
    sk = monitor.sk()
    monitor._control_work_restore(token)
    elapsed = time.perf_counter() - start
    if monitor.obs is not None:
        monitor.obs.control_event(
            monitor.name, kind, monitor.epoch, start, elapsed
        )
    return EpochReport(
        epoch=monitor.epoch,
        kind=kind,
        rebuilt=not absorbed,
        seconds=elapsed,
        cells_accessed=cells,
        places_loaded=places,
        page_reads=reads,
        sk=sk,
    )
