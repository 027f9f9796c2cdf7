"""Shared fixtures for the test suite.

The "small" workload family keeps unit tests fast (hundreds of places,
dozens of units, short streams). Everything is seeded — a failing test
replays exactly.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import pytest

from repro.api import make_monitor
from repro.core import CTUPConfig
from repro.model import Unit
from repro.shard import ShardedMonitor
from repro.validate import Oracle
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)


@pytest.fixture
def small_config() -> CTUPConfig:
    return CTUPConfig(k=5, delta=3, protection_range=0.1, granularity=8)


@pytest.fixture
def small_places():
    return generate_places(600, seed=11)


@pytest.fixture
def small_units(small_config):
    return generate_units(30, small_config.protection_range, seed=12)


@pytest.fixture
def small_stream(small_units):
    mobility = RandomWalkMobility(small_units, step=0.03, seed=13)
    return record_stream(mobility, 150)


@pytest.fixture
def small_oracle(small_places, small_units):
    return Oracle(small_places, small_units)


def assert_valid_topk(oracle: Oracle, monitor, k: int) -> None:
    """Assert the monitor's current result is a valid top-k set."""
    verdict = oracle.validate(monitor.top_k(), k)
    assert verdict.ok, verdict.problems


@contextmanager
def off_the_record(monitor):
    """Read a monitor's result without moving its I/O accounting.

    The naive scheme fetches result records from storage, so a test
    reading ``top_k()`` would change the buffer pool and the I/O
    counters that a resumed twin is compared on. The stores' caches and
    counters are put back on exit."""
    stores = [monitor.store]
    if isinstance(monitor, ShardedMonitor):
        stores += [shard.monitor.store for shard in monitor.shards]
    saved = [(s.export_cache_state(), s.io_stats.snapshot()) for s in stores]
    try:
        yield
    finally:
        for store, (cache, io) in zip(stores, saved):
            if store.io_stats != io:  # every read moves a counter
                store.restore_cache_state(cache)
                store.io_stats.restore(io)


def build(scheme, config, places, units, shards=0):
    """An initialized monitor of ``scheme``, sharded when ``shards``."""
    monitor = make_monitor(
        scheme, places=places, units=units, config=config, shard=shards or None
    )
    monitor.initialize()
    return monitor


def result_pairs(monitor) -> list[tuple[int, float]]:
    """The monitor's top-k as ``(place id, safety)`` pairs."""
    return [(r.place_id, r.safety) for r in monitor.top_k()]


def state_fingerprint(monitor, session=None) -> dict:
    """Everything "bit-identical" quantifies over, as one comparable:
    the result, the work counters and the I/O accounting (merged over
    the shards too, for a sharded monitor)."""
    with off_the_record(monitor):
        data = {
            "topk": result_pairs(monitor),
            "sk": monitor.sk(),
        }
    data["counters"] = monitor.counters.as_dict()
    data["io"] = dataclasses.astuple(monitor.store.io_stats)
    if isinstance(monitor, ShardedMonitor):
        data["merged"] = (
            monitor.merged_counters().as_dict(),
            dataclasses.astuple(monitor.merged_io()),
        )
    if session is not None:
        data["updates_processed"] = session.updates_processed
    return data


@pytest.fixture
def unit_at():
    """Factory for units at explicit coordinates."""

    def build(unit_id: int, x: float, y: float, radius: float = 0.1) -> Unit:
        from repro.geometry import Point

        return Unit(unit_id=unit_id, location=Point(x, y), protection_range=radius)

    return build


def exported_state(monitor) -> dict:
    """``export_state()`` taken off the record (it holds no clock value,
    so two equal runs export equal documents)."""
    with off_the_record(monitor):
        return monitor.export_state()
