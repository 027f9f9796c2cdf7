"""A turnkey simulation shell.

Everything an end-to-end run needs — a mobility model generating live
updates, a monitor consuming them, change tracking, per-update
timelines, periodic self-audits — wired together behind one loop:

>>> sim = Simulation.from_scenario("downtown", k=10)
>>> outcome = sim.run(updates=2_000)
>>> outcome.final_topk[0], outcome.summary.update_ms_p95

The heavy lifting lives in :class:`repro.engine.MonitorSession`; the
shell adds live generation, timeline collection and the outcome record,
so examples, notebooks and quick experiments don't re-implement the
plumbing. The benchmark harness stays separate because measurement
wants recorded, replayable streams rather than live generation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.timeline import Timeline, TimelineSummary
from repro.core import CTUPConfig
from repro.core.events import TopKChange
from repro.core.monitor import CTUPMonitor
from repro.engine import MonitorSession
from repro.model import SafetyRecord
from repro.obs.spec import Observability, ObsSpec, coerce_observability
from repro.workloads import build_scenario
from repro.workloads.stream import Mobility


@dataclass
class SimulationOutcome:
    """What a finished run produced."""

    updates: int
    final_topk: list[SafetyRecord]
    final_sk: float
    summary: TimelineSummary
    changes: list[TopKChange]
    audit_problems: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.audit_problems


class Simulation:
    """Live mobility + a monitoring session in one loop."""

    def __init__(
        self,
        monitor: CTUPMonitor,
        mobility: Mobility,
        audit_every: int = 0,
        batch_size: int = 0,
        session: MonitorSession | None = None,
        obs: "ObsSpec | Observability | None" = None,
    ) -> None:
        """``audit_every`` > 0 runs the invariant auditor every that
        many updates; ``batch_size`` > 0 ingests the live stream in
        exact bursts (both forwarded to the session). Pass ``session``
        to adopt a pre-built (e.g. checkpoint-resumed) session driving
        ``monitor`` instead of constructing a fresh one; ``obs``
        attaches observability (:class:`repro.obs.ObsSpec`) when the
        shell builds the session itself."""
        self.monitor = monitor
        self.mobility = mobility
        self.session = session or MonitorSession(
            monitor,
            batch_size=batch_size,
            audit_every=audit_every,
            obs=coerce_observability(obs),
        )
        self.timeline = Timeline()
        self.changes: list[TopKChange] = []
        self.session.tracker.subscribe(self.changes.append)

    @property
    def audit_every(self) -> int:
        return self.session.audit_every

    @classmethod
    def from_scenario(
        cls,
        name: str,
        k: int = 15,
        delta: int = 4,
        protection_range: float = 0.1,
        granularity: int | None = None,
        n_places: int = 6_000,
        n_units: int = 60,
        seed: int = 0,
        scheme: str = "opt",
        shards: int = 0,
        audit_every: int = 0,
        batch_size: int = 0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        obs: "ObsSpec | Observability | None" = None,
    ) -> "Simulation":
        """Build a ready-to-run simulation from a named scenario.

        ``scheme`` (a registered name) and ``shards`` (0 = unsharded)
        are handed to :func:`repro.api.open_session`.
        ``checkpoint_dir`` makes the run durable (journal + snapshots
        every ``checkpoint_every`` flush boundaries, one on close);
        ``resume=True`` recovers the directory instead of starting
        fresh. Resume only works with the *same* scenario knobs (name,
        seed, sizes, batch size): the scenario's mobility model is
        deterministic, so the already-journaled prefix is regenerated
        and discarded to fast-forward live generation to where the
        recovered run stopped. ``obs`` attaches observability
        (:class:`repro.obs.ObsSpec`) to the session either way.
        """
        from repro.api import DurabilitySpec, open_session
        from repro.core.tuning import suggest_granularity

        world = build_scenario(
            name,
            seed=seed,
            n_places=n_places,
            n_units=n_units,
            protection_range=protection_range,
            stream_length=0,
        )
        config = CTUPConfig(
            k=k,
            delta=delta,
            protection_range=protection_range,
            granularity=granularity
            or suggest_granularity(n_places, protection_range),
        )
        session = open_session(
            scheme,
            places=world.places,
            units=world.units,
            config=config,
            shard=shards,
            batch_size=batch_size,
            audit_every=audit_every,
            durability=None
            if checkpoint_dir is None
            else DurabilitySpec(
                checkpoint_dir, every=checkpoint_every, resume=resume
            ),
            obs=obs,
        )
        replayed = session.updates_processed + session.pending_updates
        if resume and replayed:
            for _ in world.mobility.updates(replayed):
                pass
        return cls(session.monitor, world.mobility, session=session)

    def run(self, updates: int) -> SimulationOutcome:
        """Generate and process ``updates`` live messages."""
        if updates <= 0:
            raise ValueError("updates must be positive")
        session = self.session
        if not session.started:
            session.start()
        problems_before = len(session.audit_problems)
        processed = 0
        # ingest time since the last report: a burst's sample covers the
        # feeds that buffered it as well as the one that flushed it.
        seconds = 0.0
        for update in self.mobility.updates(updates):
            start = time.perf_counter()
            report = session.feed(update)
            seconds += time.perf_counter() - start
            if report is not None:
                self.timeline.sample(self.monitor, report, seconds)
                seconds = 0.0
            processed += 1
        start = time.perf_counter()
        report = session.flush()
        if report is not None:
            seconds += time.perf_counter() - start
            self.timeline.sample(self.monitor, report, seconds)
        return SimulationOutcome(
            updates=processed,
            final_topk=self.monitor.top_k(),
            final_sk=self.monitor.sk(),
            summary=self.timeline.summary(),
            changes=list(self.changes),
            audit_problems=session.audit_problems[problems_before:],
        )
