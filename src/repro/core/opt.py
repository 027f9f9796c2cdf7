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
from repro.geometry import Point
from repro.grid.cellstate import (
    CellState,
    access_below_sk,
    export_cell_states,
    restore_cell_states,
)
from repro.grid.partition import CellId
from repro.model import CoalescedMove, LocationUpdate, Place, SafetyRecord, Unit
from repro.storage.placestore import CellArrays


class OptCTUP(CTUPMonitor):
    """The optimized scheme of Section IV."""

    name = "opt"

    STATE_FIELDS = ("cell_states", "maintained", "dechash", "_delta")

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
        #: the live Δ. Starts at the configured value; may be retuned at
        #: runtime (see :mod:`repro.core.adaptive`) — any non-negative
        #: value is sound, Δ only shapes the maintain/access trade-off.
        self._delta = float(config.delta)

    @property
    def delta(self) -> float:
        """The live Δ slack used by cell-access trimming."""
        return self._delta

    @delta.setter
    def delta(self, value: float) -> None:
        if value < 0:
            raise ValueError("delta cannot be negative")
        self._delta = float(value)

    # -- initialization (§IV-D) -------------------------------------------

    def _build_initial_state(self) -> None:
        # Step 1: exact per-cell minima become the initial bounds.
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
            ap, compared = self.units.ap_counts_near(
                arrays.xs, arrays.ys, self.grid.cell_rect(cell)
            )
            safeties = (ap - arrays.required).astype(np.float64)
            accessed.append((cell, places, arrays, safeties))
            scratch.append(safeties)
            sk = self._running_sk(scratch)
            self.counters.cells_accessed += 1
            self.counters.places_loaded += len(places)
            self.counters.distance_rows += len(places) * compared
        # Step 3: keep only the Δ band (MaintainedPlaces.insert_band);
        # the dropped minima become the bounds.
        for cell, places, arrays, safeties in accessed:
            state = self.cell_states[cell]
            state.access_count += 1
            state.lower_bound = self.maintained.insert_band(
                places, arrays, safeties, self.grid.linear(cell), sk, self.delta
            )
        # Step 4 of the paper: DecHash starts empty.
        self.dechash.clear()

    def _running_sk(self, scratch: list[np.ndarray]) -> float:
        """The SK over the safeties in ``scratch`` (init and cell access).

        Overridable: the threshold variant (§VII) monitors against a
        fixed safety threshold instead of the k-th smallest value.
        """
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
        states = self.cell_states
        counters = self.counters
        dechash = self.dechash
        use_doo = self.config.use_doo
        for cell, code_old, code_new in self.grid.stencil(radius).classify_move(
            old, new
        ):
            state = states.get(cell)
            if state is None:
                continue
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
        ap, compared = self.units.ap_counts_near(
            arrays.xs, arrays.ys, self.grid.cell_rect(cell)
        )
        safeties = ap - arrays.required
        sk = self._running_sk([self.maintained.safeties(), safeties])
        state.lower_bound = self.maintained.insert_band(
            places, arrays, safeties, linear, sk, self.delta
        )
        self.dechash.clear_cell(cell)
        state.access_count += 1
        self.counters.cells_accessed += 1
        self.counters.places_loaded += len(places)
        self.counters.distance_rows += len(places) * compared

    # -- reconfiguration (repro.control) ------------------------------------

    def _reset_scheme_state(self) -> None:
        self.cell_states = {}
        self.maintained = MaintainedPlaces()
        self.dechash = DecHash()
        # _delta is a tuning knob, not derived state: it survives rebuilds.

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
        self._refresh()
        return True

    def _control_place_removed(self, place: Place, cell: CellId) -> bool:
        state = self.cell_states[cell]
        if place.place_id in self.maintained:
            self.maintained.remove_id(place.place_id)
        # otherwise the place sat under the cell bound; removing it can
        # only raise the true minimum, so the bound stays sound.
        state.place_count -= 1
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

    # -- checkpointing ----------------------------------------------------

    def _export_scheme_state(self) -> dict[str, Any]:
        return {
            "cell_states": export_cell_states(self.cell_states, self.grid),
            "maintained": self.maintained.export_rows(),
            "dechash": self.dechash.export_pairs(self.grid),
            "delta": self._delta,
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
        delta = float(fields["delta"])
        if delta < 0:
            raise ValueError("delta cannot be negative")
        self._delta = delta
