"""repro — a reproduction of "On Monitoring the top-k Unsafe Places".

Zhang, Du and Hu (ICDE 2008) define the Continuous Top-k Unsafe Places
(CTUP) query: as protecting units (police cars) stream location updates,
continuously report the k places whose safety — actual protection minus
required protection — is smallest. This package implements the paper's
two schemes (BasicCTUP, OptCTUP with the Decrease Once Optimization),
the naïve baseline, the substrates they rest on (grid partition,
two-level storage, network-based moving-object workload) and the full
benchmark harness reproducing the paper's evaluation.

Quickstart (the ``repro.api`` facade is the supported entry point)::

    from repro import CTUPConfig, generate_places, generate_units, open_session
    from repro.workloads import RandomWalkMobility, record_stream

    config = CTUPConfig(k=10)
    places = generate_places(5000, seed=1)
    units = generate_units(100, config.protection_range, seed=2)
    session = open_session("opt", places=places, units=units, config=config)
    session.start()
    for update in record_stream(RandomWalkMobility(units, seed=3), 1000):
        session.feed(update)
    session.flush()
    print(session.monitor.top_k()[0])

``make_monitor(..., shard=ShardSpec(shards=4))`` swaps in the sharded
execution layer (:mod:`repro.shard`) behind the same contract, and
``open_session(..., obs=ObsSpec(metrics=True))`` attaches the
observability layer (:mod:`repro.obs`).
"""

from repro.api import (
    DurabilitySpec,
    ShardSpec,
    make_monitor,
    open_session,
)
from repro.obs import Observability, ObsSpec
from repro.core import (
    BasicCTUP,
    ChangeTracker,
    CTUPConfig,
    CTUPMonitor,
    NaiveCTUP,
    OptCTUP,
    TopKChange,
)
from repro.engine import MonitorSession, UpdateRejected
from repro.geometry import Circle, Point, Rect
from repro.model import LocationUpdate, Place, SafetyRecord, Unit
from repro.shard import GlobalTopK, ShardedMonitor, ShardPlan, ShardRouter
from repro.validate import Oracle
from repro.workloads import generate_places, generate_units

__version__ = "9.0.0"

__all__ = [
    "CTUPConfig",
    "CTUPMonitor",
    "NaiveCTUP",
    "BasicCTUP",
    "OptCTUP",
    "ShardedMonitor",
    "ShardPlan",
    "ShardRouter",
    "GlobalTopK",
    "make_monitor",
    "open_session",
    "ShardSpec",
    "DurabilitySpec",
    "ObsSpec",
    "Observability",
    "MonitorSession",
    "UpdateRejected",
    "ChangeTracker",
    "TopKChange",
    "Place",
    "Unit",
    "LocationUpdate",
    "SafetyRecord",
    "Point",
    "Rect",
    "Circle",
    "Oracle",
    "generate_places",
    "generate_units",
    "__version__",
]
