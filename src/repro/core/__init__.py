"""The CTUP monitors — the paper's primary contribution.

Three interchangeable schemes implement the
:class:`~repro.core.monitor.CTUPMonitor` contract:

* :class:`~repro.core.naive.NaiveCTUP` — full recomputation (§VI baseline);
* :class:`~repro.core.basic.BasicCTUP` — dark/illuminated cells (§III);
* :class:`~repro.core.opt.OptCTUP` — DOO + Δ-slack per-place maintenance (§IV).
"""

from repro.core.config import CTUPConfig
from repro.core.dechash import DecHash
from repro.core.events import ChangeTracker, TopKChange
from repro.core.metrics import InitReport, MonitorCounters, UpdateReport
from repro.core.monitor import CTUPMonitor
from repro.core.naive import NaiveCTUP
from repro.core.basic import BasicCTUP
from repro.core.opt import OptCTUP
from repro.core.incremental import IncrementalNaiveCTUP
from repro.core.batch import BatchProcessor
from repro.core.audit import audit_monitor
from repro.core.tuning import suggest_granularity
from repro.core.topk import MaintainedPlaces
from repro.core.units import UnitIndex

__all__ = [
    "CTUPConfig",
    "CTUPMonitor",
    "NaiveCTUP",
    "BasicCTUP",
    "OptCTUP",
    "IncrementalNaiveCTUP",
    "BatchProcessor",
    "audit_monitor",
    "suggest_granularity",
    "DecHash",
    "MaintainedPlaces",
    "UnitIndex",
    "MonitorCounters",
    "InitReport",
    "UpdateReport",
    "ChangeTracker",
    "TopKChange",
]
