"""Per-update time-series collection.

Averages hide dynamics: a monitor that is cheap on average but spikes
whenever SK shifts behaves very differently operationally from a flat
one. :class:`Timeline` records per-update samples (SK, maintained size,
cells accessed, wall time) while a monitor consumes a stream, and
summarises them (quantiles, spike counts, drift).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.metrics import UpdateReport
from repro.core.monitor import CTUPMonitor
from repro.model import LocationUpdate


@dataclass(slots=True)
class TimelineSummary:
    """Aggregates over one recorded run."""

    updates: int
    sk_start: float
    sk_end: float
    sk_min: float
    sk_changes: int
    maintained_mean: float
    maintained_max: int
    accesses_total: int
    #: updates that accessed at least one cell.
    updates_with_access: int
    update_ms_p50: float
    update_ms_p95: float
    update_ms_max: float


@dataclass
class Timeline:
    """Sampled per-update history of one monitor."""

    sk: list[float] = field(default_factory=list)
    maintained: list[int] = field(default_factory=list)
    accesses: list[int] = field(default_factory=list)
    update_seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sk)

    def record(self, monitor: CTUPMonitor, updates: Iterable[LocationUpdate]) -> None:
        """Drive ``monitor`` over ``updates``, sampling after each one."""
        for update in updates:
            start = time.perf_counter()
            report = monitor.process(update)
            self.sample(monitor, report, time.perf_counter() - start)

    def sample(
        self, monitor: CTUPMonitor, report: UpdateReport, seconds: float
    ) -> None:
        """Sample ``monitor`` once per raw update ``report`` covers.

        ``seconds`` is the caller's wall time for the work ``report``
        covers. A burst report covers ``report.batch_size`` raw updates:
        its cell accesses are charged once, to the first, and its time
        is split evenly over all of them.
        """
        maintained = monitor.maintained_count()
        n = report.batch_size
        for i in range(n):
            self.sk.append(report.sk)
            self.maintained.append(maintained)
            self.accesses.append(report.cells_accessed if i == 0 else 0)
            self.update_seconds.append(seconds / n)

    def summary(self) -> TimelineSummary:
        """Aggregate the recorded run."""
        if not self.sk:
            raise ValueError("nothing recorded")
        sk = self.sk
        ms = np.array(self.update_seconds) * 1e3
        changes = sum(1 for a, b in zip(sk, sk[1:]) if a != b)
        return TimelineSummary(
            updates=len(sk),
            sk_start=sk[0],
            sk_end=sk[-1],
            sk_min=min(sk),
            sk_changes=changes,
            maintained_mean=float(np.mean(self.maintained)),
            maintained_max=max(self.maintained),
            accesses_total=sum(self.accesses),
            updates_with_access=sum(1 for a in self.accesses if a > 0),
            update_ms_p50=float(np.percentile(ms, 50)),
            update_ms_p95=float(np.percentile(ms, 95)),
            update_ms_max=float(ms.max()),
        )

    def sparkline(self, values: list[float] | None = None, width: int = 60) -> str:
        """A text sparkline of a series (defaults to maintained size)."""
        series = values if values is not None else [float(v) for v in self.maintained]
        if not series:
            return ""
        blocks = "▁▂▃▄▅▆▇█"
        arr = np.asarray(series, dtype=np.float64)
        finite = arr[np.isfinite(arr)]
        if len(finite) == 0:
            return "·" * min(width, len(series))
        low, high = float(finite.min()), float(finite.max())
        span = high - low or 1.0
        if len(arr) > width:
            # average-pool down to the display width.
            edges = np.linspace(0, len(arr), width + 1, dtype=int)
            arr = np.array(
                [
                    arr[a:b][np.isfinite(arr[a:b])].mean()
                    if np.isfinite(arr[a:b]).any()
                    else math.nan
                    for a, b in zip(edges, edges[1:])
                ]
            )
        chars = []
        for value in arr:
            if not math.isfinite(value):
                chars.append("·")
            else:
                index = int((value - low) / span * (len(blocks) - 1))
                chars.append(blocks[index])
        return "".join(chars)
