"""Decaying protection (§VII, second future-work direction).

"The protection of unit to a place can be modeled as a decaying
function, i.e. the farther away, the less protected." Protection
becomes ``w(d)`` (1 at distance 0, 0 beyond the range R) and safety the
real-valued ``Σ_u w(d(u, p)) - RP(p)``.

The grid machinery survives the generalisation with two changes:

* maintained safeties change by ``w(d_new) - w(d_old)`` per unit move;
* cell bounds decrease by a *bound on the possible loss*: a unit moving
  a distance ``m`` can reduce any place's protection by at most
  ``max_loss(m)`` (the weight function's modulus of continuity), and by
  no more than the largest weight it could have exerted on the cell at
  all, ``w(mindist(old, cell))``.

DOO does not carry over unchanged (decrements are fractional and
per-move, not per-membership-flip), so this monitor uses the
conservative decrement rule only; the Δ slack works exactly as in
OptCTUP. With the step weight the scheme degenerates to integer
safeties and matches the core monitors — the test suite checks that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import CTUPConfig
from repro.core.monitor import CTUPMonitor
from repro.core.topk import MaintainedPlaces, kth_smallest
from repro.geometry import Circle, Point
from repro.geometry.distance import point_rect_distance
from repro.grid.cellstate import (
    CellState,
    access_below_sk,
    export_cell_states,
    restore_cell_states,
)
from repro.grid.partition import CellId
from repro.model import LocationUpdate, Place, SafetyRecord, Unit
from repro.storage.placestore import CellArrays


@dataclass(frozen=True)
class DecayModel:
    """A protection-weight profile.

    ``weight`` maps distances (numpy array) to protection weights in
    ``[0, 1]``, zero at and beyond the protection range. ``max_loss``
    bounds how much one unit's contribution to any single place can drop
    when the unit moves a given distance.
    """

    name: str
    weight: Callable[[np.ndarray], np.ndarray]
    max_loss: Callable[[float], float]

    def weight_at(self, distance: float) -> float:
        """Scalar convenience wrapper around ``weight``."""
        return float(self.weight(np.array([distance]))[0])


def linear_decay(radius: float) -> DecayModel:
    """Protection falling linearly from 1 (at the unit) to 0 (at R)."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def weight(d: np.ndarray) -> np.ndarray:
        return np.clip(1.0 - d / radius, 0.0, 1.0)

    def max_loss(move: float) -> float:
        # w is (1/R)-Lipschitz, and no loss can exceed the full weight.
        return min(1.0, move / radius)

    return DecayModel("linear", weight, max_loss)


def step_decay(radius: float) -> DecayModel:
    """The paper's core model as a decay profile: 1 inside R, 0 outside."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def weight(d: np.ndarray) -> np.ndarray:
        return (d <= radius).astype(np.float64)

    def max_loss(move: float) -> float:
        return 1.0 if move > 0 else 0.0

    return DecayModel("step", weight, max_loss)


class DecayCTUP(CTUPMonitor):
    """Top-k unsafe places under a decaying protection function."""

    name = "decay"

    STATE_FIELDS = ("cell_states", "maintained", "decay")

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
        decay: DecayModel | None = None,
    ) -> None:
        super().__init__(config, places, units)
        self.decay = decay or linear_decay(config.protection_range)
        self.cell_states: dict[CellId, CellState] = {}
        self.maintained = MaintainedPlaces()

    # -- initialization ----------------------------------------------------

    def _build_initial_state(self) -> None:
        for cell in self.store.occupied_cells():
            arrays = self.store.cell_arrays(cell)
            protection, compared = self.units.weighted_protection_near(
                arrays.xs, arrays.ys, self.grid.cell_rect(cell), self.decay.weight
            )
            safeties = protection - arrays.required
            self.counters.distance_rows += len(arrays) * compared
            self.counters.places_loaded += len(arrays)
            self.cell_states[cell] = CellState(
                lower_bound=float(safeties.min()),
                place_count=len(arrays),
            )
        accessed: list[tuple[CellId, list[Place], CellArrays, np.ndarray]] = []
        scratch: list[np.ndarray] = []
        sk = math.inf
        by_bound = sorted(
            self.cell_states, key=lambda c: self.cell_states[c].lower_bound
        )
        for cell in by_bound:
            if sk <= self.cell_states[cell].lower_bound:
                break
            places, arrays, safeties = self._evaluate_cell(cell)
            accessed.append((cell, places, arrays, safeties))
            scratch.append(safeties)
            sk = kth_smallest(np.concatenate(scratch), self.config.k)
        for cell, places, arrays, safeties in accessed:
            state = self.cell_states[cell]
            state.access_count += 1
            state.lower_bound = self.maintained.insert_band(
                places, arrays, safeties, self.grid.linear(cell), sk, self.config.delta
            )

    def _evaluate_cell(
        self, cell: CellId
    ) -> tuple[list[Place], CellArrays, np.ndarray]:
        places, arrays = self.store.read_cell_with_arrays(cell)
        protection, compared = self.units.weighted_protection_near(
            arrays.xs, arrays.ys, self.grid.cell_rect(cell), self.decay.weight
        )
        safeties = (protection - arrays.required).astype(np.float64)
        self.counters.cells_accessed += 1
        self.counters.places_loaded += len(places)
        self.counters.distance_rows += len(places) * compared
        return places, arrays, safeties

    # -- update -------------------------------------------------------------

    def _apply(self, update: LocationUpdate) -> None:
        old = self.units.apply(update)
        new = update.new_location

        scanned = self.maintained.apply_unit_move_weighted(
            old, new, self.decay.weight
        )
        self.counters.maintained_scans += scanned
        self.counters.distance_rows += 2 * scanned

        self._decay_bounds(old, new, self.config.protection_range)

    def _refresh(self) -> int:
        return access_below_sk(
            self.cell_states, self.sk, self._access_cell, skip_illuminated=False
        )

    def _decay_bounds(self, old: Point, new: Point, radius: float) -> None:
        """Lower every reachable cell's bound by the possible loss."""
        move = old.distance_to(new)
        loss_by_move = self.decay.max_loss(move)
        if loss_by_move <= 0:
            return
        old_disk = Circle(old, radius)
        for cell in self.grid.cells_touching_circle(old_disk):
            state = self.cell_states.get(cell)
            if state is None:
                continue
            # the unit cannot take away more weight than it could exert
            # on the cell's closest point before the move.
            reach = self.decay.weight_at(
                point_rect_distance(old, self.grid.cell_rect(cell))
            )
            loss = min(loss_by_move, reach)
            if loss > 0:
                state.decrease(loss)
                self.counters.lb_decrements += 1

    def _access_cell(self, cell: CellId) -> None:
        state = self.cell_states[cell]
        linear = self.grid.linear(cell)
        self.maintained.remove_cell(linear)
        places, arrays, safeties = self._evaluate_cell(cell)
        merged = np.concatenate([safeties, self.maintained.safeties()])
        sk = min(self.sk(), kth_smallest(merged, self.config.k))
        state.lower_bound = self.maintained.insert_band(
            places, arrays, safeties, linear, sk, self.config.delta
        )
        state.access_count += 1

    # -- result ---------------------------------------------------------------

    def top_k(self) -> list[SafetyRecord]:
        return self.maintained.top_k(self.config.k)

    def sk(self) -> float:
        return self.maintained.sk(self.config.k)

    # -- checkpointing ----------------------------------------------------

    def _export_scheme_state(self) -> dict[str, Any]:
        # the decay model holds callables and cannot itself be
        # serialized; its name is recorded so a restore into a monitor
        # constructed with a *different* profile is rejected.
        return {
            "decay": self.decay.name,
            "cell_states": export_cell_states(self.cell_states, self.grid),
            "maintained": self.maintained.export_rows(),
        }

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        if fields["decay"] != self.decay.name:
            raise ValueError(
                "snapshot decay profile does not match the constructed "
                "monitor"
            )
        self.cell_states = restore_cell_states(
            fields["cell_states"], self.grid
        )
        self.maintained = MaintainedPlaces()
        self.maintained.restore_rows(
            fields["maintained"], self.store, self.grid
        )
