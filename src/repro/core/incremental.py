"""An incremental full-table baseline (ablation, not in the paper).

The paper dismisses "maintaining the base table" (the safety of every
place) as prohibitively costly. The fair strongest version of that idea
is implemented here: keep all |P| safeties in memory and, per update,
adjust only the places inside the old or new protection disk — O(|P|)
scan per update instead of the naïve O(|P|·|U|) recomputation, but still
touching every place's coordinates on every update and holding the full
table in memory. The ablation bench compares it against the grid-bound
schemes to show that the paper's cell bounds buy more than incrementality
alone.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import CTUPConfig
from repro.core.metrics import InitReport
from repro.core.monitor import CTUPMonitor
from repro.core.topk import kth_smallest, topk_rows
from repro.model import LocationUpdate, Place, SafetyRecord, Unit


class IncrementalNaiveCTUP(CTUPMonitor):
    """Full in-memory safety table with incremental maintenance."""

    name = "incremental"

    STATE_FIELDS = ("_ids", "_safety", "_init_cells")
    TRANSIENT_FIELDS = ("_xs", "_ys", "_place_by_id")

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
    ) -> None:
        super().__init__(config, places, units)
        self._ids = np.empty(0, dtype=np.int64)
        self._xs = np.empty(0, dtype=np.float64)
        self._ys = np.empty(0, dtype=np.float64)
        self._safety = np.empty(0, dtype=np.float64)
        self._place_by_id: dict[int, Place] = {}
        self._init_cells = 0

    def _build_initial_state(self) -> None:
        ids, xs, ys, required = [], [], [], []
        cells = self.store.occupied_cells()
        self._init_cells = len(cells)
        for cell in cells:
            places, arrays = self.store.read_cell_with_arrays(cell)
            ids.append(arrays.ids)
            xs.append(arrays.xs)
            ys.append(arrays.ys)
            required.append(arrays.required)
            for place in places:
                self._place_by_id[place.place_id] = place
        if ids:
            self._ids = np.concatenate(ids)
            self._xs = np.concatenate(xs)
            self._ys = np.concatenate(ys)
            req = np.concatenate(required)
            ap = self.units.ap_counts(self._xs, self._ys)
            self._safety = ap.astype(np.float64) - req
            self.counters.distance_rows += len(self._ids) * len(self.units)
        self.counters.places_loaded += len(self._ids)

    def _init_report(self, elapsed: float) -> InitReport:
        return InitReport(
            seconds=elapsed,
            cells_accessed=self._init_cells,
            places_loaded=len(self._ids),
            sk=self.sk(),
            maintained_places=len(self._ids),
        )

    def _apply(self, update: LocationUpdate) -> None:
        old = self.units.apply(update)
        new = update.new_location
        r2 = self.config.protection_range ** 2
        dxo = self._xs - old.x
        dyo = self._ys - old.y
        was = dxo * dxo + dyo * dyo <= r2
        dxn = self._xs - new.x
        dyn = self._ys - new.y
        now = dxn * dxn + dyn * dyn <= r2
        self._safety += now.astype(np.float64) - was.astype(np.float64)
        self.counters.maintained_scans += len(self._ids)
        # two distance evaluations (old, new) per place:
        self.counters.distance_rows += 2 * len(self._ids)

    def _refresh(self) -> int:
        # the full table is always exact — nothing to access.
        return 0

    def _reset_scheme_state(self) -> None:
        self._ids = np.empty(0, dtype=np.int64)
        self._xs = np.empty(0, dtype=np.float64)
        self._ys = np.empty(0, dtype=np.float64)
        self._safety = np.empty(0, dtype=np.float64)
        self._place_by_id = {}
        self._init_cells = 0

    def top_k(self) -> list[SafetyRecord]:
        return self.partial_top_k(self.config.k)

    def partial_top_k(self, m: int) -> list[SafetyRecord]:
        # the full safety table lives in memory: any prefix length works.
        rows = topk_rows(self._ids, self._safety, m)
        return [
            SafetyRecord(
                self._place_by_id[int(self._ids[row])], float(self._safety[row])
            )
            for row in rows.tolist()
        ]

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
            "init_cells": self._init_cells,
        }

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        # the coordinate columns and the place lookup are derived from
        # the place set; rebuild them by re-reading the store, whose
        # layout the exported rows must follow.
        ids, xs, ys = [], [], []
        self._place_by_id = {}
        for cell in self.store.occupied_cells():
            places, arrays = self.store.read_cell_with_arrays(cell)
            ids.append(arrays.ids)
            xs.append(arrays.xs)
            ys.append(arrays.ys)
            for place in places:
                self._place_by_id[place.place_id] = place
        if ids:
            self._ids = np.concatenate(ids)
            self._xs = np.concatenate(xs)
            self._ys = np.concatenate(ys)
        else:
            self._ids = np.empty(0, dtype=np.int64)
            self._xs = np.empty(0, dtype=np.float64)
            self._ys = np.empty(0, dtype=np.float64)
        safety = np.array(fields["safety"], dtype=np.float64)
        if fields["ids"] != self._ids.tolist() or len(safety) != len(self._ids):
            raise ValueError(
                "the snapshot's place rows do not follow the store's place-id layout"
            )
        self._safety = safety
        self._init_cells = int(fields["init_cells"])
