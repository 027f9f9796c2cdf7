"""OptCTUP (§IV): per-place maintenance, DOO and the Δ slack.

OptCTUP fixes the three drawbacks of BasicCTUP:

* **Drawback 1** (bounds decrease unnecessarily) — the Decrease Once
  Optimization: a (unit, cell) pair in :class:`DecHash` blocks repeated
  decreases for the same unit (Table II).
* **Drawback 2** (too many places in memory) — cells are never
  illuminated wholesale; only places whose safety was below ``SK + Δ``
  at the last access of their cell are maintained, and each cell's
  lower bound covers its *non-maintained* places only.
* **Drawback 3** (flashing) — after accessing a cell its bound is at
  least ``SK + Δ``, so it takes Δ further decreases before the cell can
  demand attention again.

A cell access recounts AP for the cell's places. Most units that reach
the cell have not moved since its last access, so each cell keeps its
AP column (:class:`CachedAP`) together with the units that moved near
it since, and an access counts only those units again.

Setting ``config.use_doo = False`` keeps everything except DOO (bounds
then follow Table I), which is exactly the ablation of Fig. 8.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.batch import apply_chains
from repro.core.config import CTUPConfig
from repro.core.dechash import DecHash
from repro.core.monitor import CTUPMonitor
from repro.core.tables import (
    ACT_INSERT,
    ACT_REMOVE,
    TABLE1_PACKED,
    TABLE2_PACKED,
)
from repro.core.topk import MaintainedPlaces, kth_smallest
from repro.core.units import UnitIndex
from repro.geometry import Point, Rect
from repro.grid.cellstate import (
    CellState,
    access_below_sk,
    export_cell_states,
    restore_cell_states,
)
from repro.grid.partition import CellId
from repro.model import CoalescedMove, LocationUpdate, Place, SafetyRecord, Unit
from repro.storage.placestore import CellArrays


#: the fewest units a recount must compare for its column to be kept.
#: Below it a recount costs little more than numpy's fixed per-call
#: overhead, which a change pays as well, and the room (half the count)
#: is too small to outlive the moves between two accesses of the cell:
#: on the paper's 150-unit fleet (about 16 units per cell) caches
#: ended before their next access seven times out of eight and made
#: accesses slower (MEASURED.md, "Lazy per-cell AP").
MIN_CACHED_REACH = 32


class CachedAP:
    """A cell's AP column as of its last computation, and the units
    that moved near the cell since.

    ``moved`` maps each such unit id to the unit's position when the
    column was computed. Maintain records a unit at the first of its
    moves whose Table I/II pass touches the cell, with that move's
    ``old`` position: a move that does not touch the cell keeps the
    unit's disk out of the cell's reach on both sides, so the first
    recorded ``old`` contributes exactly what the position as of the
    computation did. An access then adds, per recorded unit, its
    contribution now minus its contribution then
    (:meth:`~repro.core.units.UnitIndex.ap_change_near`), which equals
    a recount bit for bit.

    The change compares each recorded unit up to twice, a recount every
    unit reaching the cell. So the cache ends (the cell's
    ``CellState.ap`` goes back to ``None`` and the next access
    recounts) once recording one more unit would make
    ``2 * len(moved)`` reach the number of units the last recount
    compared; ``room`` is how many units may be recorded.
    """

    __slots__ = ("column", "room", "filtered", "moved")

    def __init__(self, column: np.ndarray, reach: int) -> None:
        """The cache of ``column``, which a recount over ``reach`` units
        just gave."""
        #: int32 AP of the cell's places, row-aligned with its CellArrays.
        self.column = column.astype(np.int32)
        self.room = (reach - 1) // 2
        #: whether the change must run the reach filter, because some
        #: place lies outside the cell's rectangle (by rounding at its
        #: edge); found out at the first change (most caches of a small
        #: fleet end before one).
        self.filtered: bool | None = None
        self.moved: dict[int, Point] = {}

    def change(
        self, units: UnitIndex, arrays: CellArrays, rect: Rect
    ) -> tuple[np.ndarray, int]:
        """The recorded units' change to the column, and the rows compared
        (:meth:`~repro.core.units.UnitIndex.ap_change_near`)."""
        if self.filtered is None:
            self.filtered = len(arrays) > 0 and not (
                arrays.xs.min() >= rect.xmin
                and arrays.xs.max() <= rect.xmax
                and arrays.ys.min() >= rect.ymin
                and arrays.ys.max() <= rect.ymax
            )
        return units.ap_change_near(
            arrays.xs, arrays.ys, rect, self.moved, filtered=self.filtered
        )


class OptCTUP(CTUPMonitor):
    """The optimized scheme of Section IV."""

    name = "opt"

    STATE_FIELDS = ("cell_states", "maintained", "dechash")

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
    ) -> None:
        super().__init__(config, places, units)
        self.cell_states: dict[CellId, CellState] = {}
        self.maintained = MaintainedPlaces()
        self.dechash = DecHash()

    # -- initialization (§IV-D) -------------------------------------------

    def _build_initial_state(self) -> None:
        # Step 1: exact per-cell minima become the initial bounds (and
        # the computed AP columns the cells' first caches).
        for cell in self.store.occupied_cells():
            arrays = self.store.cell_arrays(cell)
            state = CellState(place_count=len(arrays))
            safeties = self._cell_ap(cell, state, arrays) - arrays.required
            state.lower_bound = float(safeties.min())
            self.counters.places_loaded += len(arrays)
            self.cell_states[cell] = state
        # Step 2: access cells in increasing bound order, keeping their
        # places *temporarily* (scratch arrays, not the maintained
        # table), until SK covers the rest.
        accessed: list[tuple[CellId, list[Place], CellArrays, np.ndarray]] = []
        scratch: list[np.ndarray] = []
        sk = self._running_sk(scratch)
        by_bound = sorted(
            self.cell_states, key=lambda c: self.cell_states[c].lower_bound
        )
        for cell in by_bound:
            if sk <= self.cell_states[cell].lower_bound:
                break
            places, arrays = self.store.read_cell_with_arrays(cell)
            ap = self._cell_ap(cell, self.cell_states[cell], arrays)
            safeties = (ap - arrays.required).astype(np.float64)
            accessed.append((cell, places, arrays, safeties))
            scratch.append(safeties)
            sk = self._running_sk(scratch)
            self.counters.cells_accessed += 1
            self.counters.places_loaded += len(places)
        # Step 3: keep only the Δ band (MaintainedPlaces.insert_band);
        # the dropped minima become the bounds.
        for cell, places, arrays, safeties in accessed:
            state = self.cell_states[cell]
            state.access_count += 1
            state.lower_bound = self.maintained.insert_band(
                places,
                arrays,
                safeties,
                self.grid.linear(cell),
                sk,
                self.config.delta,
            )
        # Step 4 of the paper: DecHash starts empty.
        self.dechash.clear()

    def _running_sk(self, scratch: list[np.ndarray]) -> float:
        """The SK over the safeties in ``scratch`` (init and cell access)."""
        if not scratch:
            return math.inf
        return kth_smallest(np.concatenate(scratch), self.config.k)

    # -- update (§IV-E) -----------------------------------------------------

    def _apply(self, update: LocationUpdate) -> None:
        old = self.units.apply(update)
        new = update.new_location
        radius = self.config.protection_range

        # Step 1: adjust the safeties of the maintained places.
        scanned = self.maintained.apply_unit_move(old, new, radius)
        self.counters.maintained_scans += scanned
        # two point-in-disk tests (old and new position) per scanned place.
        self.counters.distance_rows += 2 * scanned

        # Step 2: Table II (Table I when DOO is disabled) on every cell
        # intersecting the old or new protection region.
        self._adjust_bounds(update.unit_id, old, new, radius)

    def _apply_burst(self, moves: Sequence[CoalescedMove]) -> int:
        """Chain-aware maintain phase: :func:`repro.core.batch.apply_chains`.

        Like BasicCTUP, but the per-step replay runs Table II: DecHash
        transitions are path-dependent (a mid-chain ``→F`` re-arms a
        decrease), so every waypoint step goes through
        :meth:`_adjust_bounds` while positions and the maintained scan
        use the chain endpoints only.
        """
        return apply_chains(self, moves)

    def _refresh(self) -> int:
        # Step 3: access every cell whose bound fell below SK.
        return access_below_sk(
            self.cell_states, self.sk, self._access_cell, skip_illuminated=False
        )

    def _adjust_bounds(
        self, unit_id: int, old: Point, new: Point, radius: float
    ) -> None:
        # the stencil classifies both disks against the few candidate
        # cells (N -> N cells are never emitted: they carry no Table
        # I/II action); the packed tables are indexed old * 3 + new.
        # Every emitted cell with a cached AP column records the unit
        # (CachedAP), or drops the cache once it is full.
        states = self.cell_states
        counters = self.counters
        dechash = self.dechash
        use_doo = self.config.use_doo
        stencil = self.grid.stencil(radius)
        for cell, code_old, code_new in stencil.classify_move(old, new):
            state = states.get(cell)
            if state is None:
                continue
            cache = state.ap
            if cache is not None and unit_id not in cache.moved:
                if len(cache.moved) < cache.room:
                    cache.moved[unit_id] = old
                else:
                    state.ap = None
            packed = code_old * 3 + code_new
            if use_doo:
                in_hash = dechash.contains(unit_id, cell)
                delta, action = TABLE2_PACKED[in_hash][packed]
                if action == ACT_INSERT:
                    if dechash.insert(unit_id, cell):
                        counters.dechash_inserts += 1
                    elif delta < 0:
                        # the pair was unexpectedly present: decreasing
                        # again would double-count this unit, skip it.
                        delta = 0
                elif action == ACT_REMOVE:
                    if dechash.remove(unit_id, cell):
                        counters.dechash_removes += 1
                if in_hash and delta == 0 and TABLE1_PACKED[packed] < 0:
                    counters.doo_suppressed += 1
            else:
                delta = TABLE1_PACKED[packed]
            if delta > 0:
                state.increase(delta)
                counters.lb_increments += 1
            elif delta < 0:
                state.decrease(-delta)
                counters.lb_decrements += 1

    def _cell_ap(
        self, cell: CellId, state: CellState, arrays: CellArrays
    ) -> np.ndarray:
        """The cell's AP column, current as of now.

        With a cached column, only the recorded units are counted again
        (:meth:`~repro.core.units.UnitIndex.ap_change_near`); without
        one, every unit reaching the cell is, and the result becomes
        the cache if that recount compared at least
        :data:`MIN_CACHED_REACH` units. ``distance_rows`` is charged
        for the rows compared. The returned array may be the cache's
        own: read it, do not write it.
        """
        rect = self.grid.cell_rect(cell)
        cache = state.ap
        if cache is None:
            ap, rows = self.units.ap_counts_near(arrays.xs, arrays.ys, rect)
            if rows >= MIN_CACHED_REACH:
                state.ap = CachedAP(ap, rows)
        else:
            ap = cache.column
            rows = 0
            if cache.moved:
                change, rows = cache.change(self.units, arrays, rect)
                ap += change
                cache.moved = {}
        self.counters.distance_rows += len(arrays) * rows
        return ap

    def _access_cell(self, cell: CellId) -> None:
        """Reload a cell: exact safeties, adjust SK, keep the Δ band.

        The cell's rows are replaced by its fresh safeties, trimmed
        before they are appended: SK is taken over the remaining and the
        fresh safeties, and only the Δ band (which holds every place
        ``<= SK``) is kept, its bound being the minimum of the rest. The
        cell's DecHash pairs are cleared (the new bound is exact, so
        every unit is re-armed for one future decrease).
        """
        state = self.cell_states[cell]
        linear = self.grid.linear(cell)
        self.maintained.remove_cell(linear)
        places, arrays = self.store.read_cell_with_arrays(cell)
        safeties = self._cell_ap(cell, state, arrays) - arrays.required
        sk = self._running_sk([self.maintained.safeties(), safeties])
        state.lower_bound = self.maintained.insert_band(
            places, arrays, safeties, linear, sk, self.config.delta
        )
        self.dechash.clear_cell(cell)
        state.access_count += 1
        self.counters.cells_accessed += 1
        self.counters.places_loaded += len(places)

    # -- reconfiguration (repro.control) ------------------------------------

    def _reset_scheme_state(self) -> None:
        self.cell_states = {}
        self.maintained = MaintainedPlaces()
        self.dechash = DecHash()

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
        else:
            # OptCTUP never illuminates wholesale — the cheap sound move
            # is to fold the new place under the cell's bound; the next
            # access promotes it into the maintained band if warranted.
            state.lower_bound = min(state.lower_bound, safety)
            state.place_count += 1
            state.ap = None
        self._refresh()
        return True

    def _control_place_removed(self, place: Place, cell: CellId) -> bool:
        state = self.cell_states[cell]
        if place.place_id in self.maintained:
            self.maintained.remove_id(place.place_id)
        # otherwise the place sat under the cell bound; removing it can
        # only raise the true minimum, so the bound stays sound.
        state.place_count -= 1
        state.ap = None
        if state.place_count == 0:
            # an empty cell must look exactly like one that never had
            # places; drop its DecHash pairs with it.
            del self.cell_states[cell]
            self.dechash.clear_cell(cell)
        self._refresh()
        return True

    def _control_place_reweighted(
        self, old: Place, new: Place, cell: CellId
    ) -> bool:
        shift = new.required_protection - old.required_protection
        state = self.cell_states[cell]
        state.ap = None
        if new.place_id in self.maintained:
            self.maintained.remove_id(new.place_id)
            self.maintained.insert(
                new,
                float(self.units.ap_of_point(new.location))
                - new.required_protection,
                self.grid.linear(cell),
            )
        elif shift > 0:
            # safety = ap - required dropped by `shift` for a place the
            # bound covers; lower the bound by the same amount.
            state.decrease(shift)
        # shift < 0 on a covered place: safeties only rose, bound sound.
        self._refresh()
        return True

    # -- result -------------------------------------------------------------

    def top_k(self) -> list[SafetyRecord]:
        return self.maintained.top_k(self.config.k)

    def partial_top_k(self, m: int) -> list[SafetyRecord]:
        # the maintained table holds every place below SK (plus the Δ
        # slack), so any prefix of its result order is answerable and
        # everything untracked is >= SK — the partial-query contract.
        return self.maintained.top_k(m)

    def sk(self) -> float:
        return self.maintained.sk(self.config.k)

    def topk_ids(self) -> list[int]:
        return self.maintained.topk_ids(self.config.k)

    def result_version(self) -> int:
        return self.maintained.result_version(self.config.k)

    # -- checkpointing ----------------------------------------------------

    def _export_scheme_state(self) -> dict[str, Any]:
        ny = self.grid.ny
        return {
            "cell_states": export_cell_states(self.cell_states, self.grid),
            "maintained": self.maintained.export_rows(),
            "dechash": self.dechash.export_pairs(self.grid),
            # the caches as [linear cell, room, [[unit, x, y], ...]]:
            # the recorded positions, not the column, which restore
            # rebuilds (a recount minus the recorded units' change).
            "ap_cache": [
                [
                    cell[0] * ny + cell[1],
                    state.ap.room,
                    [[uid, p.x, p.y] for uid, p in state.ap.moved.items()],
                ]
                for cell, state in self.cell_states.items()
                if state.ap is not None
            ],
        }

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        self.cell_states = restore_cell_states(
            fields["cell_states"], self.grid
        )
        self.maintained = MaintainedPlaces()
        self.maintained.restore_rows(
            fields["maintained"], self.store, self.grid
        )
        self.dechash = DecHash.from_pairs(fields["dechash"], self.grid)
        for linear, room, moved_rows in fields["ap_cache"]:
            cell = self.grid.from_linear(int(linear))
            # unaccounted reads: restore_counter_state re-pins the
            # counters and unit stats the recounts below perturb.
            arrays = CellArrays(self.store.peek_cell(cell))
            rect = self.grid.cell_rect(cell)
            cache = CachedAP(*self.units.ap_counts_near(arrays.xs, arrays.ys, rect))
            cache.room = int(room)
            if moved_rows:
                cache.moved = {
                    int(uid): Point(float(x), float(y))
                    for uid, x, y in moved_rows
                }
                cache.column -= cache.change(self.units, arrays, rect)[0]
            self.cell_states[cell].ap = cache
