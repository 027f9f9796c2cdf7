"""Monitor execution and measurement."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api import SCHEMES
from repro.bench.workload import Workload
from repro.core import CTUPConfig
from repro.core.metrics import InitReport, MonitorCounters
from repro.engine.session import MonitorSession
from repro.obs import Observability, attach_observability
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
    n_updates: int
    wall_seconds: float
    final_sk: float
    #: Fig. 9's split of the update cost: the ``ctup_phase_seconds``
    #: ``maintain`` / ``access`` sums, per update.
    avg_maintain_ms: float = 0.0
    avg_access_ms: float = 0.0
    validated: bool = False

    @property
    def avg_update_ms(self) -> float:
        if self.n_updates == 0:
            return 0.0
        return self.wall_seconds / self.n_updates * 1e3

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
    stream = workload.stream if updates is None else workload.stream.prefix(updates)
    # phase time lives only in an observability bundle: a registry-only
    # one (no tracer, no session hooks) times maintain and access.
    obs = Observability()
    attach_observability(monitor, obs)
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

    def phase_ms(phase: str) -> float:
        seconds = obs.registry.value(
            "ctup_phase_seconds", scheme=monitor.name, phase=phase
        )
        return seconds / n * 1e3 if n else 0.0

    return RunResult(
        algorithm=algorithm,
        init=init,
        counters=monitor.counters.snapshot(),
        update_counters=monitor.counters.snapshot() - after_init,
        io=monitor.store.io_stats.snapshot(),
        n_updates=n,
        wall_seconds=wall,
        final_sk=monitor.sk(),
        avg_maintain_ms=phase_ms("maintain"),
        avg_access_ms=phase_ms("access"),
        validated=validated,
    )
