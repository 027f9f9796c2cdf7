"""Observability overhead budget: the disabled path against a null bundle.

Runs the same stream with ``obs=None`` (the shipped disabled path — one
``is None`` branch per phase, no clock read) and with a null-sink
``Observability`` bundle (the session's hooks execute into no-op twins;
the monitor leaves a bundle that records nothing unattached, so its
phases stay unclocked), in interleaved pairs, and fails when the median
of the per-pair wall-time ratios exceeds 1.03.

CLI (also wired into CI as the ``obs-smoke`` budget step)::

    python benchmarks/obs_overhead.py   # exit 1 past the budget
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.bench import build_workload
from repro.core import CTUPConfig

K = 5


def _started_session(workload, config, obs):
    from repro.api import make_monitor
    from repro.engine.session import MonitorSession

    monitor = make_monitor(
        "opt", places=workload.places, units=workload.units, config=config
    )
    session = MonitorSession(monitor, track_changes=False, obs=obs)
    session.start()
    return session


#: a 3% budget needs the two variants timed under the same host load.
#: Each pair runs two sessions over one 4,000-update stream (~0.3 s per
#: session on a 2-core host), alternating every 100 updates and which
#: variant goes first; two whole runs back to back differed by ±5%.
_OVERHEAD_PARAMS = dict(n_units=200, n_places=2_000, stream_length=4_000, seed=7)
_CHUNK = 100


def _pair_ratio(workload, config, null_bundle) -> float:
    """Null-bundle / off wall time of one interleaved pair."""
    sessions = {
        "off": _started_session(workload, config, None),
        "null": _started_session(workload, config, null_bundle),
    }
    spent = {"off": 0.0, "null": 0.0}
    updates = list(workload.stream)
    for n, at in enumerate(range(0, len(updates), _CHUNK)):
        chunk = updates[at : at + _CHUNK]
        for variant in ("off", "null") if n % 2 == 0 else ("null", "off"):
            start = time.perf_counter()
            sessions[variant].run(chunk)
            spent[variant] += time.perf_counter() - start
    return spent["null"] / spent["off"]


def run_obs_overhead(
    pairs: int = 11, threshold: float = 0.03
) -> tuple[bool, str]:
    """A/B the disabled-observability hot path against a null bundle.

    Times ``pairs`` interleaved pairs (:func:`_pair_ratio`) and gates
    on the median of their ratios, which ignores the pairs a scheduler
    hiccup hit. Returns ``(ok, report)``.
    """
    from repro.obs.registry import NULL_REGISTRY
    from repro.obs.spec import Observability
    from repro.obs.trace import NULL_TRACER

    workload = build_workload(**_OVERHEAD_PARAMS)
    config = CTUPConfig(k=K)
    null_bundle = Observability(registry=NULL_REGISTRY, tracer=NULL_TRACER)
    _pair_ratio(workload, config, null_bundle)  # warm caches once
    ratios = [_pair_ratio(workload, config, null_bundle) for _ in range(pairs)]
    ratio = statistics.median(ratios)
    low, _, high = statistics.quantiles(ratios, n=4)
    ok = ratio <= 1.0 + threshold
    report = (
        f"obs overhead: null-bundle / off ratio {ratio:.3f}, "
        f"quartiles {low:.3f}-{high:.3f} "
        f"(budget {1.0 + threshold:.2f}) [median of {pairs} pairs]"
    )
    return ok, report


def main() -> int:
    ok, report = run_obs_overhead()
    print(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
