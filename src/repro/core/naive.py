"""The naïve baseline (§VI): recompute everything on every update.

On each location update the safety of *all* places is recomputed and the
top-k re-extracted. The recomputation walks the grid cell by cell and —
like the proposed schemes — only compares each cell's places against the
units whose protection region can reach the cell; that keeps the
comparison fair (all three schemes share one safety kernel) while the
naïve scheme still does O(|P|) work and a full storage scan per update.

Under the phase API the maintain phase is just the unit move and the
whole recomputation is the access phase — so burst processing (defer
``refresh()`` to the end of a batch) collapses N full scans into one.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import CTUPConfig
from repro.core.metrics import InitReport
from repro.core.monitor import CTUPMonitor
from repro.core.topk import kth_smallest, topk_rows
from repro.geometry import Rect
from repro.model import LocationUpdate, Place, SafetyRecord, Unit


class NaiveCTUP(CTUPMonitor):
    """Full recomputation per update."""

    name = "naive"

    STATE_FIELDS = ("_ids", "_safety")
    TRANSIENT_FIELDS = ("_plan",)

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
    ) -> None:
        super().__init__(config, places, units)
        self._ids = np.empty(0, dtype=np.int64)
        self._safety = np.empty(0, dtype=np.float64)
        #: per-cell recomputation plan: (cell id, rect, row range).
        self._plan: list[tuple[object, Rect, int, int]] = []

    def _build_initial_state(self) -> None:
        ids = []
        row = 0
        for cell in self.store.occupied_cells():
            arrays = self.store.cell_arrays(cell)
            ids.append(arrays.ids)
            self._plan.append(
                (cell, self.grid.cell_rect(cell), row, row + len(arrays))
            )
            row += len(arrays)
            self.counters.places_loaded += len(arrays)
        if ids:
            self._ids = np.concatenate(ids)
        self._safety = np.empty(len(self._ids), dtype=np.float64)
        self._recompute()

    def _init_report(self, elapsed: float) -> InitReport:
        # the naïve counters charge the initial scan as a plain
        # recomputation, not as cell accesses; report the true figures.
        return InitReport(
            seconds=elapsed,
            cells_accessed=len(self._plan),
            places_loaded=len(self._ids),
            sk=self.sk(),
        )

    def _recompute(self) -> None:
        for cell, rect, lo, hi in self._plan:
            arrays = self.store.cell_arrays(cell)
            ap, compared = self.units.ap_counts_near(arrays.xs, arrays.ys, rect)
            self._safety[lo:hi] = ap - arrays.required
            self.counters.distance_rows += (hi - lo) * compared
        self.counters.places_loaded += len(self._ids)

    def _apply(self, update: LocationUpdate) -> None:
        self.units.apply(update)

    def _refresh(self) -> int:
        self._recompute()
        self.counters.cells_accessed += len(self._plan)
        return len(self._plan)

    def _reset_scheme_state(self) -> None:
        # _build_initial_state appends to the plan — it must start empty.
        self._ids = np.empty(0, dtype=np.int64)
        self._safety = np.empty(0, dtype=np.float64)
        self._plan = []

    def top_k(self) -> list[SafetyRecord]:
        return self.partial_top_k(self.config.k)

    def partial_top_k(self, m: int) -> list[SafetyRecord]:
        # all safeties are in memory: any prefix length is answerable.
        rows = topk_rows(self._ids, self._safety, m)
        return [
            SafetyRecord(self._place_at(row), float(self._safety[row]))
            for row in rows.tolist()
        ]

    def topk_ids(self) -> list[int]:
        # from the in-memory columns: no storage read for the records.
        return self._ids[topk_rows(self._ids, self._safety, self.config.k)].tolist()

    def _place_at(self, row: int) -> Place:
        """Fetch the :class:`Place` record behind a result row.

        The naïve scheme keeps no place objects in memory (it only needs
        them when the result is actually read), so this re-reads the
        owning cell from the lower storage level.
        """
        for cell, _rect, lo, hi in self._plan:
            if lo <= row < hi:
                return self.store.read_cell(cell)[row - lo]
        raise IndexError(f"row {row} not in any cell")

    def sk(self) -> float:
        if self.config.k <= 0:
            return -math.inf
        if len(self._safety) == 0:
            return math.inf
        return kth_smallest(self._safety, self.config.k)

    # -- checkpointing ----------------------------------------------------

    def _export_scheme_state(self) -> dict[str, Any]:
        return {
            "ids": [int(i) for i in self._ids],
            "safety": [float(s) for s in self._safety],
        }

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        # the recomputation plan is derived from the store layout; the
        # exported rows must be laid out on it.
        ids: list[np.ndarray] = []
        row = 0
        self._plan = []
        for cell in self.store.occupied_cells():
            arrays = self.store.cell_arrays(cell)
            ids.append(arrays.ids)
            self._plan.append(
                (cell, self.grid.cell_rect(cell), row, row + len(arrays))
            )
            row += len(arrays)
        self._ids = (
            np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
        )
        safety = np.array(fields["safety"], dtype=np.float64)
        if fields["ids"] != self._ids.tolist() or len(safety) != len(self._ids):
            raise ValueError(
                "the snapshot's place rows do not follow the store's place-id layout"
            )
        self._safety = safety
