"""Batch update processing and exact move coalescing.

Location updates arrive in bursts — one wireless poll cycle can deliver
dozens. Processing them one by one runs the access phase after *every*
message even though the answer is only read after the burst.
:class:`BatchProcessor` applies a whole batch's maintain phase first
(``apply_update`` calls commute across updates) and runs one
``refresh()`` at the end.

On top of the deferred access phase, the processor **coalesces** a
burst before applying it: all moves of one unit collapse into a single
:class:`~repro.model.CoalescedMove` carrying the full waypoint chain.
Why this is exact:

* maintain-phase applications commute across *different* units, so
  regrouping the burst by unit changes no state;
* for one unit, position tracking and maintained-safety adjustment
  telescope over the chain — only the endpoints matter — while Table
  I/II bound maintenance is *not* a function of the endpoints (``P→P``
  decreases, so a chain ``P→P→P`` must decrease twice) and is therefore
  folded step by step over the waypoints.

BasicCTUP and OptCTUP opt into the chain-aware path
(:func:`apply_chains`) by overriding ``CTUPMonitor._apply_burst``;
everything else replays the raw updates and stays exactly per-update.
Either way the burst is exact, not approximate: the final ``refresh()``
restores the result invariant before any answer is read. What changes
is the cost — a cell whose bound dips below SK and recovers within one
burst is never touched, and a unit reporting m times costs one
maintained-table scan instead of m.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.metrics import UpdateReport
from repro.core.monitor import CTUPMonitor
from repro.core.units import LOCATION_TOLERANCE2
from repro.model import CoalescedMove, LocationUpdate, Point

if TYPE_CHECKING:
    from repro.core.basic import BasicCTUP
    from repro.core.opt import OptCTUP


def coalesce_burst(updates: Sequence[LocationUpdate]) -> list[CoalescedMove]:
    """Group a burst into one waypoint chain per unit.

    Chains come out in first-appearance order of their units, each
    holding that unit's raw updates in arrival order. The chain contract
    is validated here: every update's ``old_location`` must equal its
    predecessor's ``new_location`` (same squared-distance tolerance as
    ``UnitIndex.apply``), otherwise the stream itself is inconsistent
    and the error should surface before any state is touched.
    """
    chains: dict[int, list[LocationUpdate]] = {}
    for update in updates:
        chain = chains.get(update.unit_id)
        if chain is None:
            chains[update.unit_id] = [update]
            continue
        previous = chain[-1].new_location
        if previous.squared_distance_to(update.old_location) > LOCATION_TOLERANCE2:
            raise ValueError(
                f"update for unit {update.unit_id} carries old location "
                f"{update.old_location} but the burst already moved it "
                f"to {previous}"
            )
        chain.append(update)
    return [
        CoalescedMove(unit_id, tuple(chain))
        for unit_id, chain in chains.items()
    ]


def replay_chain_steps(
    monitor: "BasicCTUP | OptCTUP",
    moves: Sequence[CoalescedMove],
    olds: Sequence[Point],
) -> None:
    """Table I/II bound maintenance for every step of every chain.

    ``olds`` holds each chain's tracked start position (what
    ``UnitIndex.apply_moves`` returned). Step ``t`` runs from the
    previous waypoint to ``raws[t].new_location``: exactly the (tracked
    old, new) pair ``_apply`` hands ``_adjust_bounds`` when it replays
    that raw update, through the same call. Running the chains one
    after another instead of in arrival order changes nothing: a
    step's bound deltas are integer-valued float adds, which commute
    exactly, and DecHash is keyed per ``(unit, cell)``, so each key
    only ever sees its own chain's steps, in order.

    This is the per-step loop of :func:`apply_chains`; reprolint
    RPL010 keeps observability out of it.
    """
    radius = monitor.config.protection_range
    adjust = monitor._adjust_bounds
    for move, previous in zip(moves, olds):
        unit_id = move.unit_id
        for raw in move.raws:
            adjust(unit_id, previous, raw.new_location, radius)
            previous = raw.new_location


def apply_chains(
    monitor: "BasicCTUP | OptCTUP", moves: Sequence[CoalescedMove]
) -> int:
    """BasicCTUP's and OptCTUP's maintain phase for one coalesced burst.

    Positions and maintained safeties telescope over a chain, so they
    see the chain endpoints only: ``UnitIndex.apply_moves`` writes every
    endpoint in one pass, and the maintained table absorbs all endpoint
    moves in one ``(rows, moves)`` broadcast instead of one
    ``apply_unit_move`` scan per move. Table I/II does not telescope
    (``P→P`` decreases, and DecHash toggles on every crossing), so
    :func:`replay_chain_steps` runs it for every chain step.

    The result is bit-identical to replaying the burst one update at a
    time and refreshing once, apart from the skipped work that
    coalescing reports. Returns that skipped work: the raw updates
    minus the chains, which ``apply_burst`` charges as
    ``coalesced_updates``.
    """
    olds = monitor.units.apply_moves(moves)
    old_x = np.array([p.x for p in olds], dtype=np.float64)
    old_y = np.array([p.y for p in olds], dtype=np.float64)
    new_x = np.array([m.last_new.x for m in moves], dtype=np.float64)
    new_y = np.array([m.last_new.y for m in moves], dtype=np.float64)
    rows = monitor.maintained.apply_unit_moves(
        old_x, old_y, new_x, new_y, monitor.config.protection_range
    )
    scanned = rows * len(moves)
    monitor.counters.maintained_scans += scanned
    # two point-in-disk tests (old and new endpoint) per scanned row.
    monitor.counters.distance_rows += 2 * scanned
    replay_chain_steps(monitor, moves, olds)
    return sum(m.raw_count for m in moves) - len(moves)


class BatchProcessor:
    """Exact burst processing on top of any CTUP monitor.

    Every burst is move-coalesced and applied through
    ``monitor.apply_burst``, then refreshed once. To replay a burst one
    update at a time instead, call ``monitor.apply_update`` per update
    and then ``monitor.refresh()``: the results are identical.
    """

    def __init__(self, monitor: CTUPMonitor) -> None:
        if not isinstance(monitor, CTUPMonitor):
            raise TypeError(
                "batch processing requires a CTUPMonitor, got "
                f"{type(monitor).__name__}"
            )
        self.monitor = monitor
        self.batches_processed = 0
        self.updates_processed = 0
        #: unit transitions actually applied after coalescing — the
        #: spread to ``updates_processed`` is the raw/coalesced split.
        self.moves_processed = 0

    def process_batch(self, updates: Sequence[LocationUpdate]) -> UpdateReport:
        """Apply a burst of updates; the result is current afterwards.

        Returns one report covering the whole batch: ``unit_id`` is
        ``None`` (a burst has no single mover), ``batch_size`` counts
        the raw updates and ``coalesced_size`` the unit transitions that
        remained after coalescing.

        An empty batch is a documented no-op: nothing is applied, no
        counter moves, and an empty report (``batch_size == 0``) carrying
        the current SK is returned — session-level batchers can flush
        quiet poll cycles without guarding.
        """
        monitor = self.monitor
        if not updates:
            return UpdateReport(
                sk=monitor.sk(), batch_size=0, coalesced_size=0
            )
        counters = monitor.counters
        maintain_before = counters.time_maintain_s
        access_before = counters.time_access_s
        moves = coalesce_burst(updates)
        monitor.apply_burst(moves)
        n_moves = len(moves)
        accessed = monitor.refresh()
        self.batches_processed += 1
        self.updates_processed += len(updates)
        self.moves_processed += n_moves
        return UpdateReport(
            sk=monitor.sk(),
            cells_accessed=accessed,
            maintain_seconds=counters.time_maintain_s - maintain_before,
            access_seconds=counters.time_access_s - access_before,
            batch_size=len(updates),
            coalesced_size=n_moves,
        )
