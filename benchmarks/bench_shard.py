"""Sharded-execution benchmark: fan-out routing and the global merge.

Runs the OptCTUP scheme over a pinned-seed workload unsharded (``mono``)
and sharded (``s1``, ``s4``), prints one summary line per mode, and
checks that the modes agree.

The deterministic counters tell the sharding story directly:
``sync_deliveries`` vs ``full_deliveries`` is the routing win (most
shards only sync unit positions), and ``merge_refills`` /
``merge_records_pulled`` is the cost of recombining partial top-k lists.
``updates_per_s`` is printed for information only.

CLI (also wired into CI as a smoke job)::

    python benchmarks/bench_shard.py --smoke   # exit 1 if the modes disagree

Running under pytest executes the smoke profile and the same checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import build_workload
from repro.core import CTUPConfig
from repro.engine.session import MonitorSession
from repro.api import ShardSpec, make_monitor
from repro.validate import Oracle

SCHEME = "opt"

#: execution modes: shard count; 0 shards = the plain scheme.
MODES = {"mono": 0, "s1": 1, "s4": 4}

#: pinned workloads.
PROFILES = {
    "smoke": dict(n_units=200, n_places=2_000, stream_length=30, seed=7),
    "default": dict(n_units=1_000, n_places=15_000, stream_length=200, seed=7),
}
K = 5


def machine_metadata() -> dict:
    import platform

    import numpy as np

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }


def _run_mode(workload, config: CTUPConfig, shards: int) -> dict:
    monitor = make_monitor(
        SCHEME,
        places=workload.places,
        units=workload.units,
        config=config,
        shard=ShardSpec(shards=shards),
    )
    monitor.initialize()
    sharded = shards != 0
    counters_of = monitor.merged_counters if sharded else monitor.counters.snapshot
    after_init = counters_of()
    session = MonitorSession(monitor, track_changes=False)
    session.start()
    start = time.perf_counter()
    n = session.run(workload.stream)
    wall = time.perf_counter() - start
    c = counters_of() - after_init
    metrics = {
        "wall_seconds": round(wall, 4),
        "updates_per_s": round(n / wall, 1) if wall else 0.0,
        "cells_accessed": c.cells_accessed,
        "distance_rows": c.distance_rows,
        "final_sk": monitor.sk(),
    }
    if sharded:
        metrics.update(
            full_deliveries=monitor.full_deliveries,
            sync_deliveries=monitor.sync_deliveries,
            merge_refills=monitor.merger.stats.refills,
            merge_records_pulled=monitor.merger.stats.records_pulled,
        )
    return metrics


def run_profile(name: str, validate: bool = True) -> dict:
    params = PROFILES[name]
    workload = build_workload(**params)
    config = CTUPConfig(k=K)
    modes = {
        mode: _run_mode(workload, config, shards)
        for mode, shards in MODES.items()
    }
    if validate:
        oracle = Oracle(workload.places, workload.units)
        for update in workload.stream:
            oracle.apply(update)
        true_sk = oracle.sk(K)
        for mode, metrics in modes.items():
            if metrics["final_sk"] != true_sk:
                raise AssertionError(
                    f"{name}/{mode}: final SK {metrics['final_sk']} "
                    f"!= oracle {true_sk}"
                )
    return {"workload": {**params, "k": K}, "schemes": {SCHEME: modes}}


def run_bench(profiles: list[str], validate: bool = True) -> dict:
    return {
        "machine": machine_metadata(),
        "profiles": {name: run_profile(name, validate) for name in profiles},
    }


def _summary_lines(doc: dict) -> list[str]:
    lines = []
    for profile, prof in doc["profiles"].items():
        modes = prof["schemes"][SCHEME]
        mono = modes["mono"]
        for mode, m in modes.items():
            detail = ""
            if "full_deliveries" in m:
                total = m["full_deliveries"] + m["sync_deliveries"]
                detail = (
                    f"  full {m['full_deliveries']}/{total} "
                    f"refills {m['merge_refills']}"
                )
            lines.append(
                f"{profile:8} {mode:5} {m['updates_per_s']:9.1f} up/s "
                f"({m['wall_seconds'] / mono['wall_seconds'] if mono['wall_seconds'] else 1:4.2f}x mono wall, "
                f"sk {'==' if m['final_sk'] == mono['final_sk'] else '!='})"
                f"{detail}"
            )
    return lines


def check_modes(doc: dict) -> None:
    """Raise ``AssertionError`` unless the smoke modes agree."""
    modes = doc["profiles"]["smoke"]["schemes"][SCHEME]
    mono = modes["mono"]
    for mode, m in modes.items():
        # every execution mode reports the exact same SK.
        assert m["final_sk"] == mono["final_sk"], mode
    # one shard performs exactly the unsharded work.
    assert modes["s1"]["cells_accessed"] == mono["cells_accessed"]
    assert modes["s1"]["distance_rows"] == mono["distance_rows"]
    assert modes["s1"]["sync_deliveries"] == 0
    # routing pays off: most deliveries are cheap unit-position syncs.
    assert modes["s4"]["sync_deliveries"] > modes["s4"]["full_deliveries"]


# -- pytest entry point (the CI smoke job runs this file directly) --------


def test_shard_smoke_modes_agree():
    check_modes(run_bench(["smoke"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run only the fast smoke profile"
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the final-SK oracle validation",
    )
    args = parser.parse_args(argv)

    profiles = ["smoke"] if args.smoke else ["smoke", "default"]
    doc = run_bench(profiles, validate=not args.no_validate)
    print(json.dumps(doc["machine"], sort_keys=True))
    for line in _summary_lines(doc):
        print(line)

    check_modes(doc)  # an AssertionError exits non-zero
    return 0


if __name__ == "__main__":
    sys.exit(main())
