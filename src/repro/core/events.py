"""Result-change events.

A CTUP deployment wants to *act* when the answer changes — dispatch a
patrol when a place becomes top-k unsafe, stand down when it leaves.
:class:`ChangeTracker` wraps any monitor, diffs the result after every
update and invokes subscribers with a :class:`TopKChange`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.metrics import InitReport
from repro.core.monitor import CTUPMonitor
from repro.model import LocationUpdate, SafetyRecord


@dataclass(frozen=True, slots=True)
class TopKChange:
    """The delta between two consecutive top-k results."""

    timestamp: float
    #: records for places that are newly top-k unsafe.
    entered: tuple[SafetyRecord, ...]
    #: records (with their last known safety) that left the top-k.
    left: tuple[SafetyRecord, ...]
    sk_before: float
    sk_after: float

    @property
    def sk_changed(self) -> bool:
        return self.sk_before != self.sk_after


ChangeCallback = Callable[[TopKChange], None]


@dataclass
class ChangeTracker:
    """Drives a monitor and notifies subscribers on every result change."""

    monitor: CTUPMonitor
    _subscribers: list[ChangeCallback] = field(default_factory=list)
    _last: dict[int, SafetyRecord] = field(default_factory=dict)
    _last_sk: float = float("inf")
    #: the monitor's result version as of the last diff (or prime).
    _last_version: int = -1
    changes_seen: int = 0

    def subscribe(self, callback: ChangeCallback) -> None:
        """Register a callback invoked once per changed result."""
        self._subscribers.append(callback)

    def initialize(self) -> InitReport:
        """Initialize the monitor and remember the first result.

        Returns the monitor's :class:`InitReport` so callers don't have
        to re-derive the initialization cost.
        """
        report = self.monitor.initialize()
        self.prime()
        return report

    def prime(self) -> None:
        """Snapshot the current result as the diffing baseline.

        For attaching a tracker to a monitor that is already running
        (restored from a checkpoint, driven elsewhere) without replaying
        its history as one giant change.
        """
        self._last_version = self.monitor.result_version()
        self._last = {r.place_id: r for r in self.monitor.top_k()}
        self._last_sk = self.monitor.sk()

    def process(self, update: LocationUpdate) -> TopKChange | None:
        """Process one update; returns the change if the result moved."""
        self.monitor.process(update)
        return self.observe(update.timestamp)

    def observe(self, timestamp: float = 0.0) -> TopKChange | None:
        """Diff the monitor's *current* result against the last one seen.

        For callers that drive the monitor themselves (the simulation
        shell, batch processors) and only want the change detection.
        Returns ``None`` at once while the monitor's
        :meth:`~repro.core.monitor.CTUPMonitor.result_version` is the
        one last seen: the result cannot have moved. Otherwise SK and
        the result ids are compared; the records are only built when
        one of them moved.
        """
        version = self.monitor.result_version()
        if version == self._last_version:
            return None
        self._last_version = version
        sk = self.monitor.sk()
        if sk == self._last_sk and self._last.keys() == set(self.monitor.topk_ids()):
            return None
        current = {r.place_id: r for r in self.monitor.top_k()}
        entered = tuple(
            current[pid] for pid in sorted(current.keys() - self._last.keys())
        )
        left = tuple(
            self._last[pid] for pid in sorted(self._last.keys() - current.keys())
        )
        change = TopKChange(
            timestamp=timestamp,
            entered=entered,
            left=left,
            sk_before=self._last_sk,
            sk_after=sk,
        )
        self._last = current
        self._last_sk = sk
        self.changes_seen += 1
        for callback in self._subscribers:
            callback(change)
        return change
