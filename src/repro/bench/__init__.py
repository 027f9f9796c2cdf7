"""Benchmark harness.

Builds paper-shaped workloads (road-network fleet + random places),
drives any monitor over a recorded stream, and reports both wall-clock
and machine-independent counters. The per-figure experiment definitions
live in :mod:`repro.experiments`; this package is the machinery they
share with the ``benchmarks/`` pytest suite and the CLI.
"""

from repro.bench.workload import Workload, build_workload
from repro.bench.harness import RunResult, run_monitor
from repro.bench.reporting import format_table
from repro.bench.timeline import Timeline, TimelineSummary

__all__ = [
    "Workload",
    "build_workload",
    "RunResult",
    "run_monitor",
    "format_table",
    "Timeline",
    "TimelineSummary",
]
