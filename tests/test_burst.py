"""Burst execution equivalence: coalescing and kernels change cost, not results.

The burst engine promises three executions of the same update stream are
interchangeable:

(a) **per-update** — ``BatchProcessor(coalesce=False)``, every raw update
    applied through ``apply_update`` (the pre-coalescing behaviour);
(b) **coalesced-scalar** — duplicate-unit moves collapse into waypoint
    chains, applied by the schemes' scalar chain folds;
(c) **coalesced-vectorised** — the same chains run through the
    ``repro.core.kernels`` numpy passes (``config.burst_kernels``).

(b) and (c) must be *fully* bit-identical: results, every logical
counter, the exported scheme state. (a) is bit-identical in results and
in every counter except the ones that measure exactly the work
coalescing exists to skip (:data:`COALESCING_COUNTERS`).

The property runs every registered scheme, plain and behind a sharded
monitor (1 and 4 shards), over streams whose bursts are guaranteed to
contain duplicate-unit chains.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES
from repro.core import CTUPConfig
from repro.core.batch import BatchProcessor
from repro.model import LocationUpdate, Point, Unit
from repro.shard import ShardedMonitor
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)

#: counters that may legitimately differ between per-update and
#: coalesced executions — exactly the work coalescing skips: chain
#: interiors are neither scanned against the maintained table
#: (``maintained_scans`` and its ``distance_rows`` charge) nor applied
#: as individual updates (``coalesced_updates`` reports the skips;
#: per-shard ``updates_processed`` counts *delivered* raw updates, and a
#: chain is delivered whole to every shard its steps touch).
COALESCING_COUNTERS = {
    "coalesced_updates",
    "maintained_scans",
    "distance_rows",
    "updates_processed",
}

PLACES = generate_places(220, seed=31)
FLEET = 10
STREAM_LEN = 72


def _logical(counters: Any) -> dict[str, Any]:
    """Counter fields minus wall-clock timings."""
    return {
        f.name: getattr(counters, f.name)
        for f in dataclasses.fields(counters)
        if not f.name.startswith("time_")
    }


def _strip_times(state: dict[str, Any]) -> dict[str, Any]:
    """An ``export_state()`` document with timing fields removed, so
    two executions can be compared bit-for-bit."""
    out = dict(state)
    out["counters"] = {
        k: v for k, v in state["counters"].items() if not k.startswith("time_")
    }
    if "scheme_state" in out and isinstance(out["scheme_state"], dict):
        scheme = dict(out["scheme_state"])
        if "shards" in scheme:
            scheme["shards"] = [
                _strip_times(child) for child in scheme["shards"]
            ]
        out["scheme_state"] = scheme
    return out


def _stream(seed: int) -> list:
    units = generate_units(FLEET, 0.1, seed=seed)
    return record_stream(
        RandomWalkMobility(units, step=0.05, seed=seed + 1), STREAM_LEN
    )


def _run(
    scheme: str,
    shards: int,
    *,
    coalesce: bool,
    kernels: bool,
    seed: int,
    batch_size: int,
) -> dict[str, Any]:
    config = CTUPConfig(
        k=4,
        delta=2,
        protection_range=0.1,
        granularity=5,
        burst_kernels=kernels,
    )
    units = generate_units(FLEET, config.protection_range, seed=seed)
    if shards == 0:
        monitor: Any = SCHEMES[scheme](config, PLACES, units)
    else:
        monitor = ShardedMonitor(
            config, PLACES, units, shards=shards, scheme=scheme
        )
    monitor.initialize()
    processor = BatchProcessor(monitor, coalesce=coalesce)
    processor.run_stream(_stream(seed), batch_size=batch_size)
    out = {
        "pairs": [(r.place_id, r.safety) for r in monitor.top_k()],
        "sk": monitor.sk(),
        "counters": _logical(monitor.counters),
        "state": _strip_times(monitor.export_state()),
        "moves": processor.moves_processed,
    }
    if shards:
        out["merged"] = _logical(monitor.merged_counters())
        out["deliveries"] = (monitor.full_deliveries, monitor.sync_deliveries)
    return out


def _counter_diff(d1: dict[str, Any], d2: dict[str, Any]) -> set[str]:
    return {k for k in d1 if d1[k] != d2[k]}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("shards", [0, 1, 4], ids=["plain", "s1", "s4"])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from([8, 24]),
)
def test_burst_modes_are_bit_identical(scheme, shards, seed, batch_size):
    a = _run(
        scheme, shards, coalesce=False, kernels=False,
        seed=seed, batch_size=batch_size,
    )
    b = _run(
        scheme, shards, coalesce=True, kernels=False,
        seed=seed, batch_size=batch_size,
    )
    c = _run(
        scheme, shards, coalesce=True, kernels=True,
        seed=seed, batch_size=batch_size,
    )

    # the workload must actually exercise coalescing: with a 10-unit
    # fleet and bursts of >= 8 every batch repeats units. Schemes with a
    # chain-aware maintain phase (and the sharded wrapper, which chains
    # at the routing layer) additionally report the skipped work; plain
    # naive/incremental replay chains raw-for-raw and skip nothing.
    assert b["moves"] < a["moves"]
    if shards or scheme in ("basic", "opt"):
        assert b["counters"]["coalesced_updates"] > 0

    # results: identical across all three modes.
    assert a["pairs"] == b["pairs"] == c["pairs"]
    assert a["sk"] == b["sk"] == c["sk"]

    # (b) vs (c): the vectorised kernels are bit-identical in *every*
    # observable — counters, exported cell/maintained/DecHash state,
    # shard deliveries.
    assert b["counters"] == c["counters"], _counter_diff(
        b["counters"], c["counters"]
    )
    assert b["state"] == c["state"]
    if shards:
        assert b["merged"] == c["merged"], _counter_diff(
            b["merged"], c["merged"]
        )
        assert b["deliveries"] == c["deliveries"]

    # (a) vs (b): differences confined to the coalescing counters.
    diff = _counter_diff(a["counters"], b["counters"])
    assert diff <= COALESCING_COUNTERS, diff
    if shards:
        merged_diff = _counter_diff(a["merged"], b["merged"])
        assert merged_diff <= COALESCING_COUNTERS, merged_diff


def test_registry_covers_the_expected_schemes():
    """The property above iterates the live registry; pin the floor so a
    scheme silently dropping out of ``SCHEMES`` fails loudly here."""
    assert {"naive", "basic", "opt", "incremental"} <= set(SCHEMES)


@pytest.mark.parametrize("scheme", ["basic", "opt"])
def test_boundary_chain_matches_scalar(scheme):
    """A chain along the space edge ``x = 1.0`` with ``R`` equal to the
    cell width: the first step's candidate block stops at column 9
    (``floor(0.9 / 0.1) == 9``) although the distance test would call
    column 8 partial. The scalar path leaves column 8 out of that step;
    the kernels must too (a workload-derived example: unit 20 of
    ``build_workload(n_units=24, seed=5)``, burst 28)."""
    config = CTUPConfig(k=4, protection_range=0.1, granularity=10)
    start = Point(1.0, 0.7401547888905604)
    chain = [
        start,
        Point(1.0, 0.7361547888905604),
        Point(0.992083644302236, 0.7364443757023944),
    ]
    units = [Unit(0, start, config.protection_range)]
    burst = [
        LocationUpdate(0, old, new, timestamp=step)
        for step, (old, new) in enumerate(zip(chain, chain[1:]))
    ]
    runs = []
    for kernels in (False, True):
        monitor = SCHEMES[scheme](
            dataclasses.replace(config, burst_kernels=kernels), PLACES, units
        )
        monitor.initialize()
        BatchProcessor(monitor).process_batch(burst)
        runs.append(
            (_logical(monitor.counters), _strip_times(monitor.export_state()))
        )
    (scalar_counters, scalar_state), (kernel_counters, kernel_state) = runs
    assert kernel_counters == scalar_counters, _counter_diff(
        scalar_counters, kernel_counters
    )
    assert kernel_state == scalar_state
