"""Brute-force ground truth for the monitors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.model import LocationUpdate, Place, SafetyRecord, Unit


@dataclass(slots=True)
class TopKValidation:
    """Outcome of validating one reported top-k result."""

    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class Oracle:
    """An independent, trivially-correct CTUP implementation.

    Keeps its own copy of the unit fleet, recomputes all safeties with a
    vectorised scan on demand, and validates monitor output. Being
    separate from :class:`repro.core.units.UnitIndex` and the monitors'
    kernels, a shared bug would have to be implemented twice to slip by.
    """

    def __init__(self, places: Sequence[Place], units: Iterable[Unit]) -> None:
        self._places = list(places)
        self._place_by_id = {p.place_id: p for p in self._places}
        if len(self._place_by_id) != len(self._places):
            raise ValueError("duplicate place ids")
        self._unit_pos: dict[int, tuple[float, float]] = {}
        ranges = set()
        for u in units:
            self._unit_pos[u.unit_id] = (u.location.x, u.location.y)
            ranges.add(u.protection_range)
        if len(ranges) != 1:
            raise ValueError("units must share one protection range")
        self._radius = ranges.pop()
        self._xs = np.array([p.location.x for p in self._places])
        self._ys = np.array([p.location.y for p in self._places])
        self._required = np.array(
            [p.required_protection for p in self._places], dtype=np.float64
        )
        self._ids = np.array([p.place_id for p in self._places], dtype=np.int64)

    def apply(self, update: LocationUpdate) -> None:
        """Track a unit move."""
        if update.unit_id not in self._unit_pos:
            raise KeyError(f"unknown unit {update.unit_id}")
        self._unit_pos[update.unit_id] = (
            update.new_location.x,
            update.new_location.y,
        )

    def safeties(self) -> dict[int, float]:
        """Exact safety of every place under current unit positions."""
        values = self._safety_vector()
        return {
            int(pid): float(s) for pid, s in zip(self._ids, values)
        }

    def _safety_vector(self) -> np.ndarray:
        if not self._places:
            return np.empty(0)
        ux = np.array([x for x, _ in self._unit_pos.values()])
        uy = np.array([y for _, y in self._unit_pos.values()])
        r2 = self._radius * self._radius
        dx = self._xs[:, None] - ux[None, :]
        dy = self._ys[:, None] - uy[None, :]
        ap = np.count_nonzero(dx * dx + dy * dy <= r2, axis=1)
        return ap - self._required

    def sk(self, k: int) -> float:
        """The true safety of the k-th unsafe place: ``-inf`` for
        ``k <= 0``, ``inf`` past the last place."""
        if k <= 0:
            return -math.inf
        values = self._safety_vector()
        if len(values) < k:
            return math.inf
        return float(np.partition(values, k - 1)[k - 1])

    def top_k(self, k: int) -> list[SafetyRecord]:
        """The true top-k, ties broken by place id."""
        values = self._safety_vector()
        order = np.lexsort((self._ids, values))[: min(k, len(values))]
        return [
            SafetyRecord(self._places[int(i)], float(values[int(i)]))
            for i in order
        ]

    def validate(self, reported: Sequence[SafetyRecord], k: int) -> TopKValidation:
        """Judge a reported top-k result against ground truth."""
        problems: list[str] = []
        truth = self.safeties()
        expected_size = min(k, len(self._places))
        if len(reported) != expected_size:
            problems.append(
                f"result has {len(reported)} records, expected {expected_size}"
            )
        seen: set[int] = set()
        for record in reported:
            pid = record.place_id
            if pid in seen:
                problems.append(f"place {pid} reported twice")
            seen.add(pid)
            if pid not in truth:
                problems.append(f"place {pid} does not exist")
                continue
            if truth[pid] != record.safety:
                problems.append(
                    f"place {pid}: reported safety {record.safety}, "
                    f"true safety {truth[pid]}"
                )
        true_sk = self.sk(k)
        if reported and not problems:
            reported_max = max(r.safety for r in reported)
            if reported_max != true_sk and math.isfinite(true_sk):
                problems.append(
                    f"k-th reported safety {reported_max} != true SK {true_sk}"
                )
            must_include = {pid for pid, s in truth.items() if s < true_sk}
            missing = must_include - seen
            if missing:
                problems.append(
                    f"places strictly below SK missing from result: "
                    f"{sorted(missing)[:10]}"
                )
        return TopKValidation(ok=not problems, problems=problems)
