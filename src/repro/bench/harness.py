"""Monitor execution and measurement."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api import SCHEMES
from repro.bench.workload import Workload
from repro.core import CTUPConfig
from repro.core.metrics import InitReport, MonitorCounters
from repro.core.units import UnitKernelStats
from repro.engine.session import MonitorSession
from repro.storage.iostats import IoStats
from repro.validate import Oracle


@dataclass
class RunResult:
    """Measurements from one monitor over one workload."""

    algorithm: str
    init: InitReport
    counters: MonitorCounters
    #: counters restricted to the update phase (init work subtracted).
    update_counters: MonitorCounters
    io: IoStats
    #: reachability-prefilter work (candidate vs reachable units).
    unit_stats: UnitKernelStats
    #: prefilter work restricted to the update phase.
    update_unit_stats: UnitKernelStats
    n_updates: int
    wall_seconds: float
    final_sk: float
    validated: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def init_ms(self) -> float:
        return self.init.seconds * 1e3

    @property
    def avg_update_ms(self) -> float:
        if self.n_updates == 0:
            return 0.0
        return self.wall_seconds / self.n_updates * 1e3

    @property
    def avg_maintain_ms(self) -> float:
        if self.n_updates == 0:
            return 0.0
        return self.counters.time_maintain_s / self.n_updates * 1e3

    @property
    def avg_access_ms(self) -> float:
        if self.n_updates == 0:
            return 0.0
        return self.counters.time_access_s / self.n_updates * 1e3

    @property
    def cells_per_update(self) -> float:
        if self.n_updates == 0:
            return 0.0
        init_cells = self.init.cells_accessed
        return (self.counters.cells_accessed - init_cells) / self.n_updates


def run_monitor(
    algorithm: str,
    config: CTUPConfig,
    workload: Workload,
    updates: int | None = None,
    validate: bool = True,
) -> RunResult:
    """Initialize a monitor, replay the stream, measure, and self-check.

    When ``validate`` is on, the final reported top-k is checked against
    the brute-force oracle — every benchmark run doubles as an
    end-to-end correctness test.
    """
    try:
        factory = SCHEMES[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"pick one of {sorted(SCHEMES)}"
        ) from None
    monitor = factory(config, workload.places, workload.units)
    init = monitor.initialize()
    after_init = monitor.counters.snapshot()
    after_init_units = monitor.units.stats.snapshot()
    stream = workload.stream if updates is None else workload.stream.prefix(updates)
    # change tracking is off: reading top_k() after every update would
    # charge result-view I/O to the measured run.
    session = MonitorSession(monitor, track_changes=False)
    session.start()
    start = time.perf_counter()
    n = session.run(stream)
    wall = time.perf_counter() - start
    validated = False
    if validate:
        oracle = Oracle(workload.places, workload.units)
        for update in stream:
            oracle.apply(update)
        verdict = oracle.validate(monitor.top_k(), config.k)
        if not verdict.ok:
            raise AssertionError(
                f"{algorithm} reported an invalid top-k after {n} updates: "
                f"{verdict.problems[:5]}"
            )
        validated = True
    return RunResult(
        algorithm=algorithm,
        init=init,
        counters=monitor.counters.snapshot(),
        update_counters=monitor.counters.snapshot() - after_init,
        io=monitor.store.io_stats.snapshot(),
        unit_stats=monitor.units.stats.snapshot(),
        update_unit_stats=monitor.units.stats.snapshot() - after_init_units,
        n_updates=n,
        wall_seconds=wall,
        final_sk=monitor.sk(),
        validated=validated,
    )
