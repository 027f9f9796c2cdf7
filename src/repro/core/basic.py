"""BasicCTUP (§III): dark and illuminated cells.

Every grid cell is either *dark* — the monitor knows only a lower bound
on the safeties of the places inside it — or *illuminated* — all its
places are held in memory with exact safeties. The scheme guarantees
that every cell containing a top-k unsafe place is illuminated, so the
answer can always be read off the maintained places.

Per location update (§III-C):

1. adjust the safeties of all maintained places,
2. adjust the lower bound of every affected dark cell per Table I,
3. illuminate every dark cell whose bound fell below ``SK``,
4. darken every illuminated cell that holds no top-k place.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.core.batch import apply_chains
from repro.core.config import CTUPConfig
from repro.core.monitor import CTUPMonitor
from repro.core.tables import TABLE1_PACKED
from repro.core.topk import MaintainedPlaces
from repro.geometry import Point
from repro.grid.cellstate import (
    CellState,
    access_below_sk,
    export_cell_states,
    restore_cell_states,
)
from repro.grid.partition import CellId
from repro.model import CoalescedMove, LocationUpdate, Place, SafetyRecord, Unit


class BasicCTUP(CTUPMonitor):
    """The basic grid-bound scheme of Section III."""

    name = "basic"

    STATE_FIELDS = ("cell_states", "maintained")

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
    ) -> None:
        super().__init__(config, places, units)
        #: per-cell state for cells that contain at least one place;
        #: empty cells can never hold an unsafe place and stay implicit.
        self.cell_states: dict[CellId, CellState] = {}
        self.maintained = MaintainedPlaces()

    # -- initialization (§III-B) -----------------------------------------

    def _build_initial_state(self) -> None:
        for cell in self.store.occupied_cells():
            arrays = self.store.cell_arrays(cell)
            ap, compared = self.units.ap_counts_near(
                arrays.xs, arrays.ys, self.grid.cell_rect(cell)
            )
            safeties = ap - arrays.required
            self.counters.distance_rows += len(arrays) * compared
            self.counters.places_loaded += len(arrays)
            self.cell_states[cell] = CellState(
                lower_bound=float(safeties.min()),
                place_count=len(arrays),
            )
        # illuminate cells in increasing bound order until SK covers the rest.
        by_bound = sorted(
            self.cell_states, key=lambda c: self.cell_states[c].lower_bound
        )
        for cell in by_bound:
            if self.sk() <= self.cell_states[cell].lower_bound:
                break
            self._illuminate(cell)

    # -- update (§III-C) --------------------------------------------------

    def _apply(self, update: LocationUpdate) -> None:
        old = self.units.apply(update)
        new = update.new_location
        radius = self.config.protection_range

        # Step 1: maintained places cross the old/new protection disks.
        scanned = self.maintained.apply_unit_move(old, new, radius)
        self.counters.maintained_scans += scanned
        # two point-in-disk tests (old and new position) per scanned place.
        self.counters.distance_rows += 2 * scanned

        # Step 2: Table I on every affected dark cell.
        self._adjust_bounds(update.unit_id, old, new, radius)

    def _apply_burst(self, moves: Sequence[CoalescedMove]) -> int:
        """Chain-aware maintain phase: :func:`repro.core.batch.apply_chains`.

        Position tracking and the maintained-table scan see only each
        chain's endpoints (intermediate applies cancel exactly); Table I
        runs per chain step, through :meth:`_adjust_bounds`, because its
        deltas are path-dependent (``P→P`` decreases, so a
        three-waypoint ``P`` chain decreases twice).
        """
        return apply_chains(self, moves)

    def _refresh(self) -> int:
        # Step 3: illuminate dark cells whose bound fell below SK.
        accessed = access_below_sk(
            self.cell_states, self.sk, self._illuminate, skip_illuminated=True
        )
        # Step 4: darken illuminated cells that hold no top-k place.
        self._darken_unneeded()
        return accessed

    def _adjust_bounds(
        self, unit_id: int, old: Point, new: Point, radius: float
    ) -> None:
        """Table I on every dark cell the move reclassifies (Table I has
        no per-unit state, so ``unit_id`` is unused; the signature is
        OptCTUP's, for :func:`repro.core.batch.replay_chain_steps`)."""
        # the stencil classifies both disks against the few candidate
        # cells (cells touching neither disk are N -> N and never
        # emitted); TABLE1_PACKED is indexed old * 3 + new.
        states = self.cell_states
        counters = self.counters
        for cell, code_old, code_new in self.grid.stencil(radius).classify_move(
            old, new
        ):
            state = states.get(cell)
            if state is None or state.illuminated:
                continue
            delta = TABLE1_PACKED[code_old * 3 + code_new]
            if delta > 0:
                state.increase(delta)
                counters.lb_increments += 1
            elif delta < 0:
                state.decrease(-delta)
                counters.lb_decrements += 1

    def _darken_unneeded(self) -> None:
        """Step 4: discard illuminated cells without a top-k place."""
        top_cells = {
            self.grid.linear(self.grid.cell_of(record.place.location))
            for record in self.top_k()
        }
        for cell, state in self.cell_states.items():
            if not state.illuminated:
                continue
            linear = self.grid.linear(cell)
            if linear in top_cells:
                continue
            min_removed = self.maintained.remove_cell(linear)
            state.illuminated = False
            # the discard happens with exact knowledge: the tightest
            # sound bound is the cell's current minimum safety.
            state.lower_bound = min_removed
            self.counters.cells_darkened += 1

    def _illuminate(self, cell: CellId) -> None:
        """Load a cell's places and track them exactly."""
        state = self.cell_states[cell]
        places, arrays = self.store.read_cell_with_arrays(cell)
        ap, compared = self.units.ap_counts_near(
            arrays.xs, arrays.ys, self.grid.cell_rect(cell)
        )
        safeties = ap - arrays.required
        self.maintained.insert_batch(
            places,
            safeties,
            self.grid.linear(cell),
            (arrays.ids, arrays.xs, arrays.ys),
        )
        state.illuminated = True
        state.access_count += 1
        self.counters.cells_accessed += 1
        self.counters.places_loaded += len(places)
        self.counters.distance_rows += len(places) * compared

    # -- reconfiguration (repro.control) ----------------------------------

    def _reset_scheme_state(self) -> None:
        self.cell_states = {}
        self.maintained = MaintainedPlaces()

    def _control_place_added(self, place: Place, cell: CellId) -> bool:
        safety = (
            float(self.units.ap_of_point(place.location))
            - place.required_protection
        )
        state = self.cell_states.get(cell)
        if state is None:
            # a previously empty cell: exact knowledge, tightest bound.
            self.cell_states[cell] = CellState(
                lower_bound=safety, place_count=1
            )
        elif state.illuminated:
            self.maintained.insert(place, safety, self.grid.linear(cell))
            state.place_count += 1
        else:
            # dark: the new minimum is at least min(old bound, safety).
            state.lower_bound = min(state.lower_bound, safety)
            state.place_count += 1
        self._refresh()
        return True

    def _control_place_removed(self, place: Place, cell: CellId) -> bool:
        state = self.cell_states[cell]
        if state.illuminated:
            self.maintained.remove_id(place.place_id)
        # a dark cell's bound stays sound: removing a place can only
        # raise the true minimum.
        state.place_count -= 1
        if state.place_count == 0:
            # an empty cell must look exactly like one that never had
            # places (the store already dropped its directory entry).
            del self.cell_states[cell]
        self._refresh()
        return True

    def _control_place_reweighted(
        self, old: Place, new: Place, cell: CellId
    ) -> bool:
        shift = new.required_protection - old.required_protection
        state = self.cell_states[cell]
        if state.illuminated:
            pid = new.place_id
            self.maintained.remove_id(pid)
            self.maintained.insert(
                new,
                float(self.units.ap_of_point(new.location))
                - new.required_protection,
                self.grid.linear(cell),
            )
        elif shift > 0:
            # safety = ap - required dropped by `shift`; lowering the
            # bound by the same amount keeps it sound.
            state.decrease(shift)
        # shift < 0 on a dark cell: safeties only rose, bound stays sound.
        self._refresh()
        return True

    # -- result -----------------------------------------------------------

    def top_k(self) -> list[SafetyRecord]:
        return self.maintained.top_k(self.config.k)

    def partial_top_k(self, m: int) -> list[SafetyRecord]:
        # every place of every illuminated cell is maintained, and every
        # dark-cell place sits at or above its cell bound >= SK — so the
        # maintained table can answer the prefix query for any m.
        return self.maintained.top_k(m)

    def sk(self) -> float:
        return self.maintained.sk(self.config.k)

    def topk_ids(self) -> list[int]:
        return self.maintained.topk_ids(self.config.k)

    def result_version(self) -> int:
        return self.maintained.result_version(self.config.k)

    # -- checkpointing ----------------------------------------------------

    def _export_scheme_state(self) -> dict[str, Any]:
        return {
            "cell_states": export_cell_states(self.cell_states, self.grid),
            "maintained": self.maintained.export_rows(),
        }

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        self.cell_states = restore_cell_states(
            fields["cell_states"], self.grid
        )
        self.maintained = MaintainedPlaces()
        self.maintained.restore_rows(
            fields["maintained"], self.store, self.grid
        )

    # -- diagnostics --------------------------------------------------------

    def illuminated_cells(self) -> set[CellId]:
        """Currently illuminated cells (tests and examples)."""
        return {
            cell
            for cell, state in self.cell_states.items()
            if state.illuminated
        }
