"""The benchmark's workloads and the sessions they open.

Every workload uses the Table III defaults (k=15, Δ=6, protection
range 0.1, a 10×10 grid), scheme ``opt``, |P| = 15 000 uniform places,
road-network mobility from :func:`repro.bench.build_workload` and
``track_changes=True``. Inputs come from the seed alone; the program
only ever sees the generated places, units and stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.api import DurabilitySpec, ObsSpec, ShardSpec, open_session
from repro.bench import Workload, build_workload
from repro.core import CTUPConfig
from repro.engine import MonitorSession

N_PLACES = 15_000
#: Table III defaults. Burst kernels stay at their default (off): bursts
#: run the scalar chain fold plus one deferred access phase per burst.
CONFIG = CTUPConfig()
#: snapshot cadence of the durable workload, in flushed bursts.
SNAPSHOT_EVERY = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: its input size and the session it opens."""

    name: str
    #: why the workload exists (printed with every run).
    why: str
    n_units: int
    #: updates per pass; a multiple of ``burst`` so no burst is partial.
    stream_length: int
    #: independent input instances per run, drawn from the seed; the
    #: run aggregates over them so one seed's road network does not
    #: decide the figures.
    instances: int
    #: updates per flushed burst; 0 feeds and processes one at a time.
    burst: int = 0
    shards: int = 0
    #: journal + snapshots in a checkpoint directory, then crash/resume.
    durable: bool = False
    #: ``ObsSpec()`` metrics on, scraped (``sync_metrics``) once per burst.
    obs: bool = False

    def __post_init__(self) -> None:
        if self.burst and self.stream_length % self.burst:
            raise ValueError(f"{self.name}: stream must hold whole bursts")

    def inputs(self, seed: int) -> list[Workload]:
        """Places, units and update stream of every instance, generated
        from ``seed`` alone."""
        return [
            build_workload(
                n_units=self.n_units,
                n_places=N_PLACES,
                protection_range=CONFIG.protection_range,
                stream_length=self.stream_length,
                seed=seed * self.instances + j,
            )
            for j in range(self.instances)
        ]

    def open(
        self, inputs: Workload, checkpoint_dir: Path, *, resume: bool = False
    ) -> MonitorSession:
        """The session a user would open for this workload (not started
        unless ``resume``: a resumed session comes back live)."""
        return open_session(
            "opt",
            places=inputs.places,
            units=inputs.units,
            config=CONFIG,
            shard=ShardSpec(shards=self.shards) if self.shards else None,
            durability=(
                DurabilitySpec(
                    checkpoint_dir, every=SNAPSHOT_EVERY, resume=resume
                )
                if self.durable
                else None
            ),
            obs=ObsSpec() if self.obs else None,
            batch_size=self.burst,
            track_changes=True,
        )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "paper-single",
            why=(
                "the paper's reference configuration (Fig. 4): per-update "
                "maintain and access do all the work; the burst path, "
                "journal, shards and obs are bypassed"
            ),
            n_units=150,
            stream_length=900,
            instances=10,
        ),
        WorkloadSpec(
            "scale-burst32",
            why=(
                "ROADMAP's scale profile: burst maintain and one deferred "
                "access phase per burst do the work; units report at most "
                "once per burst, so coalescing saves nothing"
            ),
            n_units=1_000,
            stream_length=1_600,
            instances=4,
            burst=32,
        ),
        WorkloadSpec(
            "scale-burst32-s4",
            why=(
                "the same inputs as scale-burst32 through repro.shard "
                "(4 shards, serial drain): its throughput against "
                "scale-burst32 decides whether sharding stays"
            ),
            n_units=1_000,
            stream_length=1_600,
            instances=4,
            burst=32,
            shards=4,
        ),
        WorkloadSpec(
            "fleet24-durable",
            why=(
                "the production setup, durable and observed: 24 units fill "
                "fewer than 32 burst slots, so bursts share work; journal "
                "writes while running, journal reads and replay on resume"
            ),
            n_units=24,
            stream_length=2_560,
            instances=8,
            burst=32,
            durable=True,
            obs=True,
        ),
    )
}
