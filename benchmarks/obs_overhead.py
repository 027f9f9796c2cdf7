"""Observability overhead budget: the disabled path against a null bundle.

Runs the same stream with ``obs=None`` (the shipped disabled path — one
``is None`` branch per phase) and with a null-sink ``Observability``
bundle (every instrumentation call executes, into no-op twins), and
fails when the min-of-repeats wall time diverges past 3%.

CLI (also wired into CI as the ``obs-smoke`` budget step)::

    python benchmarks/obs_overhead.py   # exit 1 past the budget
"""

from __future__ import annotations

import sys
import time

from repro.bench import build_workload
from repro.core import CTUPConfig

K = 5


def _timed_session_run(workload, config, obs) -> float:
    from repro.api import make_monitor
    from repro.engine.session import MonitorSession

    monitor = make_monitor(
        "opt", places=workload.places, units=workload.units, config=config
    )
    session = MonitorSession(monitor, track_changes=False, obs=obs)
    session.start()
    start = time.perf_counter()
    session.run(workload.stream)
    return time.perf_counter() - start


#: a ~4 ms run cannot discriminate a 3% budget from scheduler noise, so
#: the A/B runs a 400-update stream.
_OVERHEAD_PARAMS = dict(n_units=200, n_places=2_000, stream_length=400, seed=7)


def run_obs_overhead(
    repeats: int = 7, threshold: float = 0.03
) -> tuple[bool, str]:
    """A/B the disabled-observability hot path against a null bundle.

    Interleaves the two variants ``repeats`` times and compares the
    fastest run of each — min-of-repeats is the standard way to strip
    scheduler noise from a same-process A/B. Returns ``(ok, report)``.
    """
    from repro.obs.registry import NULL_REGISTRY
    from repro.obs.spec import Observability
    from repro.obs.trace import NULL_TRACER

    workload = build_workload(**_OVERHEAD_PARAMS)
    config = CTUPConfig(k=K)
    null_bundle = Observability(registry=NULL_REGISTRY, tracer=NULL_TRACER)
    off: list[float] = []
    nulled: list[float] = []
    _timed_session_run(workload, config, None)  # warm caches once
    for _ in range(repeats):
        off.append(_timed_session_run(workload, config, None))
        nulled.append(_timed_session_run(workload, config, null_bundle))
    ratio = min(nulled) / min(off) if min(off) else float("inf")
    ok = ratio <= 1.0 + threshold
    report = (
        f"obs overhead: off {min(off) * 1e3:.1f} ms, "
        f"null-bundle {min(nulled) * 1e3:.1f} ms, "
        f"ratio {ratio:.3f} (budget {1.0 + threshold:.2f}) "
        f"[min of {repeats}]"
    )
    return ok, report


def main() -> int:
    ok, report = run_obs_overhead()
    print(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
