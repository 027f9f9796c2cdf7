"""Burst execution equivalence: coalescing changes cost, not results.

A burst runs through ``BatchProcessor``: its updates are coalesced into
one waypoint chain per unit and applied by one ``apply_burst``
(BasicCTUP and OptCTUP through ``repro.core.batch.apply_chains``), then
refreshed once. The reference is per-update replay written out here:
``apply_update`` for every raw update of the burst, then one
``refresh()``.

The two must be bit-identical in results, in the exported cell,
maintained and DecHash state, and in every counter except the ones that
measure exactly the work coalescing exists to skip
(:data:`COALESCING_COUNTERS`). The property runs every registered
scheme and OptCTUP without DOO, plain and behind a sharded monitor (1
and 4 shards), over streams whose bursts are guaranteed to contain
duplicate-unit chains.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES
from repro.core import CTUPConfig, OptCTUP
from repro.core.batch import BatchProcessor, coalesce_burst
from repro.model import LocationUpdate, Point, Unit
from repro.shard import ShardedMonitor
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)
from tests.conftest import result_pairs

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
CONFIG = CTUPConfig(k=4, delta=2, protection_range=0.1, granularity=5)

#: scheme variants on top of the registry: OptCTUP with DOO off (Table I
#: bounds).
VARIANTS: dict[str, tuple[CTUPConfig, Callable]] = {
    "opt-nodoo": (dataclasses.replace(CONFIG, use_doo=False), OptCTUP),
}

#: schemes whose own ``_apply_burst`` folds chains (and so reports the
#: skipped work); naive and incremental replay chains raw-for-raw.
CHAIN_AWARE = {"basic", "opt", "opt-nodoo"}


def _comparable(state: dict[str, Any]) -> dict[str, Any]:
    """An ``export_state()`` document minus the fields that
    count coalescing itself (the skipped-work counters and the sharded
    wrapper's per-chain delivery counts)."""
    out = dict(state)
    out["counters"] = {
        k: v
        for k, v in state["counters"].items()
        if k not in COALESCING_COUNTERS
    }
    out["unit_stats"] = {
        k: v for k, v in state["unit_stats"].items()
        if k != "coalesced_updates"
    }
    scheme = dict(out["scheme_state"])
    if "shards" in scheme:
        scheme["shards"] = [_comparable(child) for child in scheme["shards"]]
        del scheme["full_deliveries"], scheme["sync_deliveries"]
    out["scheme_state"] = scheme
    return out


def _stream(seed: int) -> list:
    units = generate_units(FLEET, 0.1, seed=seed)
    return record_stream(
        RandomWalkMobility(units, step=0.05, seed=seed + 1), STREAM_LEN
    )


def _monitor(scheme: str, shards: int, seed: int) -> Any:
    config, factory = VARIANTS.get(scheme, (CONFIG, SCHEMES.get(scheme)))
    units = generate_units(FLEET, config.protection_range, seed=seed)
    if shards == 0:
        monitor: Any = factory(config, PLACES, units)
    else:
        monitor = ShardedMonitor(
            config, PLACES, units, shards=shards, scheme=factory
        )
    monitor.initialize()
    return monitor


def _bursts(seed: int, batch_size: int) -> list[list[LocationUpdate]]:
    stream = _stream(seed)
    return [
        stream[i : i + batch_size] for i in range(0, len(stream), batch_size)
    ]


def _replay(monitor: Any, bursts: list[list[LocationUpdate]]) -> None:
    """The reference: every raw update applied on its own, then one
    access phase per burst. SK is read after each burst, as
    ``process_batch`` does for its report (on a sharded monitor the read
    runs the merge, whose statistics are part of the exported state)."""
    for burst in bursts:
        for update in burst:
            monitor.apply_update(update)
        monitor.refresh()
        monitor.sk()


def _outcome(monitor: Any) -> dict[str, Any]:
    out = {
        "pairs": result_pairs(monitor),
        "sk": monitor.sk(),
        "counters": monitor.counters.as_dict(),
        "state": _comparable(monitor.export_state()),
    }
    if isinstance(monitor, ShardedMonitor):
        out["merged"] = monitor.merged_counters().as_dict()
    return out


def _counter_diff(d1: dict[str, Any], d2: dict[str, Any]) -> set[str]:
    return {k for k in d1 if d1[k] != d2[k]}


@pytest.mark.parametrize("scheme", sorted(SCHEMES) + sorted(VARIANTS))
@pytest.mark.parametrize("shards", [0, 1, 4], ids=["plain", "s1", "s4"])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from([8, 24]),
)
def test_burst_modes_are_bit_identical(scheme, shards, seed, batch_size):
    bursts = _bursts(seed, batch_size)
    reference = _monitor(scheme, shards, seed)
    _replay(reference, bursts)
    burst_monitor = _monitor(scheme, shards, seed)
    processor = BatchProcessor(burst_monitor)
    for burst in bursts:
        processor.process_batch(burst)
    a, b = _outcome(reference), _outcome(burst_monitor)

    # the workload must actually exercise coalescing: with a 10-unit
    # fleet and bursts of >= 8 every batch repeats units, and the skips
    # reported are exactly chain length minus one, summed. The sharded
    # wrapper chains at the routing layer, so it reports them too.
    chain_skips = sum(
        move.raw_count - 1 for burst in bursts for move in coalesce_burst(burst)
    )
    assert chain_skips > 0
    assert processor.moves_processed == processor.updates_processed - chain_skips
    expected = chain_skips if shards or scheme in CHAIN_AWARE else 0
    assert b["counters"]["coalesced_updates"] == expected
    assert a["counters"]["coalesced_updates"] == 0

    # results and the exported scheme state: identical.
    assert a["pairs"] == b["pairs"]
    assert a["sk"] == b["sk"]
    assert a["state"] == b["state"]

    # counters: differences confined to the coalescing counters.
    diff = _counter_diff(a["counters"], b["counters"])
    assert diff <= COALESCING_COUNTERS, diff
    if shards:
        merged_diff = _counter_diff(a["merged"], b["merged"])
        assert merged_diff <= COALESCING_COUNTERS, merged_diff


@pytest.mark.parametrize("scheme", ["basic", "opt"])
def test_boundary_chain_matches_replay(scheme):
    """A chain along the space edge ``x = 1.0`` with ``R`` equal to the
    cell width: the first step's candidate block stops at column 9
    (``floor(0.9 / 0.1) == 9``) although the distance test would call
    column 8 partial. Per-update processing leaves column 8 out of that
    step; the burst path must too (a workload-derived example: unit 20 of
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
    reference = SCHEMES[scheme](config, PLACES, units)
    reference.initialize()
    _replay(reference, [burst])
    monitor = SCHEMES[scheme](config, PLACES, units)
    monitor.initialize()
    BatchProcessor(monitor).process_batch(burst)
    a, b = _outcome(reference), _outcome(monitor)
    diff = _counter_diff(a["counters"], b["counters"])
    assert diff <= COALESCING_COUNTERS, diff
    assert b["counters"]["coalesced_updates"] == 1
    assert a["state"] == b["state"]


class CallCounter:
    """An obs bundle that counts every call made through it: each
    attribute, the tracer and registry included, is the counter itself,
    and so is what a call returns (a span opens and closes as one)."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name: str) -> "CallCounter":
        return self

    def __call__(self, *args: Any, **kwargs: Any) -> "CallCounter":
        self.calls += 1
        return self

    def __enter__(self) -> "CallCounter":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


def _chained_burst(units: list[Unit], n_moves: int) -> list[LocationUpdate]:
    """A burst moving the first ``n_moves`` units, unit ``i`` through
    ``i % 3 + 1`` short steps."""
    burst = []
    for i, unit in enumerate(units[:n_moves]):
        at = unit.location
        for step in range(i % 3 + 1):
            to = Point(abs(at.x - 0.03), abs(at.y - 0.02))
            burst.append(LocationUpdate(unit.unit_id, at, to, float(step)))
            at = to
    return burst


@pytest.mark.parametrize("scheme", ["basic", "opt"])
def test_obs_calls_do_not_grow_with_the_burst(scheme):
    """One ``apply_burst`` + ``refresh`` makes as many calls into an
    attached bundle for 2 moves as for 32, chains included: the burst
    pass (``apply_chains``, ``UnitIndex.apply_moves``, the maintained
    table's ``apply_unit_moves``, the Table I/II replay) is observed
    around, never per move or per step."""
    calls = {}
    for n_moves in (2, 32):
        units = generate_units(32, CONFIG.protection_range, seed=37)
        burst = _chained_burst(units, n_moves)
        monitor = SCHEMES[scheme](CONFIG, PLACES, units)
        monitor.initialize()
        monitor.obs = counter = CallCounter()
        moves = coalesce_burst(burst)
        assert len(moves) == n_moves < len(burst)
        monitor.apply_burst(moves)
        monitor.refresh()
        calls[n_moves] = counter.calls
    assert calls[2] == calls[32] > 0
