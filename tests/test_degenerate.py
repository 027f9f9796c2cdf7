"""Degenerate configurations the schemes must survive.

Single-cell grids, every place stacked in one cell, fewer places than
k, fleets that never protect anything — each exercises boundary logic
(infinite SK, empty maintained tables, all-N classifications) that the
realistic workloads rarely hit.
"""

import math

import pytest

from repro.api import SCHEMES as REGISTERED_SCHEMES
from repro.control import KChanged
from repro.core import BasicCTUP, CTUPConfig, NaiveCTUP, OptCTUP
from repro.core.audit import audit_monitor
from repro.core.topk import tie_key
from repro.geometry import Point
from repro.model import Place, Unit
from repro.validate import Oracle
from repro.workloads import RandomWalkMobility, generate_places, record_stream
from tests.conftest import build

SCHEMES = [NaiveCTUP, BasicCTUP, OptCTUP]


def drive(config, places, units, stream, audit=True):
    oracle = Oracle(places, units)
    monitors = [cls(config, places, units) for cls in SCHEMES]
    for monitor in monitors:
        monitor.initialize()
    for update in stream:
        oracle.apply(update)
        for monitor in monitors:
            monitor.process(update)
            verdict = oracle.validate(monitor.top_k(), config.k)
            assert verdict.ok, (monitor.name, verdict.problems[:3])
    if audit:
        for monitor in monitors[1:]:  # naive keeps no auditable state
            assert audit_monitor(monitor) == [], monitor.name
    return monitors


@pytest.fixture
def fleet():
    units = [
        Unit(0, Point(0.2, 0.2), 0.1),
        Unit(1, Point(0.8, 0.8), 0.1),
        Unit(2, Point(0.5, 0.5), 0.1),
    ]
    return units


def walk(units, seed=1, n=60):
    return record_stream(RandomWalkMobility(units, step=0.05, seed=seed), n)


class TestSingleCellGrid:
    def test_granularity_one(self, fleet):
        config = CTUPConfig(k=3, delta=2, protection_range=0.1, granularity=1)
        places = generate_places(100, seed=1)
        drive(config, places, fleet, walk(fleet))


class TestStackedPlaces:
    def test_all_places_in_one_cell(self, fleet):
        config = CTUPConfig(k=4, delta=2, protection_range=0.1, granularity=8)
        places = [
            Place(i, Point(0.33 + i * 1e-4, 0.61), i % 5) for i in range(80)
        ]
        drive(config, places, fleet, walk(fleet, seed=2))

    def test_coincident_places(self, fleet):
        config = CTUPConfig(k=3, delta=1, protection_range=0.1, granularity=8)
        places = [Place(i, Point(0.5, 0.5), i % 4) for i in range(20)]
        drive(config, places, fleet, walk(fleet, seed=3))


class TestFewerPlacesThanK:
    def test_sk_stays_infinite(self, fleet):
        config = CTUPConfig(k=50, delta=2, protection_range=0.1, granularity=4)
        places = generate_places(8, seed=2)
        monitors = drive(config, places, fleet, walk(fleet, seed=4))
        for monitor in monitors:
            assert monitor.sk() == math.inf
            assert len(monitor.top_k()) == 8

    def test_opt_maintains_everything(self, fleet):
        config = CTUPConfig(k=50, delta=2, protection_range=0.1, granularity=4)
        places = generate_places(8, seed=2)
        monitor = OptCTUP(config, places, fleet)
        monitor.initialize()
        # SK = inf means every cell's bound is "below SK": all maintained.
        assert len(monitor.maintained) == 8


class TestIrrelevantFleet:
    def test_units_protect_nothing(self):
        # places in one corner, the fleet walking in the other.
        config = CTUPConfig(k=3, delta=2, protection_range=0.05, granularity=8)
        places = [
            Place(i, Point(0.05 + (i % 5) * 0.01, 0.05 + (i // 5) * 0.01), 2)
            for i in range(25)
        ]
        units = [Unit(0, Point(0.9, 0.9), 0.05), Unit(1, Point(0.95, 0.9), 0.05)]
        stream = record_stream(
            RandomWalkMobility(units, step=0.01, seed=5), 40
        )
        monitors = drive(config, places, units, stream)
        # every place keeps safety exactly -RP = -2 throughout.
        for monitor in monitors:
            assert monitor.sk() == -2.0


class TestStationaryReports:
    def test_zero_displacement_updates(self, fleet):
        """Units reporting without moving (the P->P drawback trigger)."""
        from repro.model import LocationUpdate

        config = CTUPConfig(k=3, delta=2, protection_range=0.1, granularity=8)
        places = generate_places(200, seed=3)
        oracle = Oracle(places, fleet)
        monitors = [cls(config, places, fleet) for cls in SCHEMES]
        for monitor in monitors:
            monitor.initialize()
        for _ in range(25):
            for unit in fleet:
                update = LocationUpdate(
                    unit.unit_id, unit.location, unit.location
                )
                oracle.apply(update)
                for monitor in monitors:
                    monitor.process(update)
        for monitor in monitors:
            verdict = oracle.validate(monitor.top_k(), config.k)
            assert verdict.ok, (monitor.name, verdict.problems[:3])
        # DOO suppresses the repeated no-move decrements for opt...
        opt = monitors[2]
        basic = monitors[1]
        assert opt.counters.lb_decrements <= basic.counters.lb_decrements


def _tied_world():
    """A straddle world: six coincident places share the lowest safety.

    The tie group (ids 100..105, identical location and RP) straddles
    any ``k`` between 1 and 5 — the canonical ``(safety, id)`` key is
    the only thing that decides which of them make the result.
    """
    places = [Place(100 + i, Point(0.52, 0.52), 5) for i in range(6)]
    places += [Place(i, Point(0.1 + 0.03 * i, 0.85), i % 3) for i in range(10)]
    units = [
        Unit(0, Point(0.2, 0.2), 0.1),
        Unit(1, Point(0.75, 0.75), 0.1),
    ]
    return places, units


class TestDegenerateK:
    """k == 0, k > |P|, and k shrinking below the straddle group, for
    every registered scheme, unsharded and sharded."""

    @pytest.mark.parametrize("scheme", sorted(REGISTERED_SCHEMES))
    @pytest.mark.parametrize("shards", [0, 4])
    def test_k_zero(self, fleet, scheme, shards):
        config = CTUPConfig(k=0, delta=2, protection_range=0.1, granularity=8)
        places = generate_places(120, seed=6)
        monitor = build(scheme, config, places, fleet, shards)
        assert monitor.top_k() == []
        assert monitor.sk() == -math.inf
        for update in walk(fleet, seed=7, n=30):
            monitor.process(update)
            assert monitor.top_k() == []
            assert monitor.sk() == -math.inf

    @pytest.mark.parametrize("scheme", sorted(REGISTERED_SCHEMES))
    @pytest.mark.parametrize("shards", [0, 4])
    def test_k_exceeds_place_count(self, fleet, scheme, shards):
        config = CTUPConfig(k=60, delta=2, protection_range=0.1, granularity=6)
        places = generate_places(20, seed=8)
        monitor = build(scheme, config, places, fleet, shards)
        oracle = Oracle(places, fleet)
        for update in walk(fleet, seed=9, n=30):
            oracle.apply(update)
            monitor.process(update)
            assert monitor.sk() == math.inf
            result = monitor.top_k()
            assert len(result) == 20
            verdict = oracle.validate(result, config.k)
            assert verdict.ok, (scheme, shards, verdict.problems[:3])

    @pytest.mark.parametrize("scheme", sorted(REGISTERED_SCHEMES))
    @pytest.mark.parametrize("shards", [0, 4])
    def test_k_shrinks_below_straddle_group(self, scheme, shards):
        """Shrinking k inside a tie group keeps the canonical prefix."""
        places, units = _tied_world()
        config = CTUPConfig(k=8, delta=1, protection_range=0.1, granularity=8)
        monitor = build(scheme, config, places, units, shards)
        for update in walk(units, seed=10, n=20):
            monitor.process(update)
        monitor.apply_control(KChanged(3))
        fresh = build(
            scheme, config.replace(k=3), places, units, shards
        )
        for update in walk(units, seed=10, n=20):
            fresh.process(update)
        got = [(r.place_id, r.safety) for r in monitor.top_k()]
        want = [(r.place_id, r.safety) for r in fresh.top_k()]
        assert got == want
        assert monitor.sk() == fresh.sk()
        assert len(got) == 3


class TestStraddleTieBreak:
    """All result surfaces break safety ties by ascending place id —
    through the single ``core.topk.tie_key`` comparator, so the core
    schemes, the sharded merger and the ext/ schemes cannot drift."""

    def test_core_and_sharded_agree_on_tie_order(self):
        places, units = _tied_world()
        config = CTUPConfig(k=3, delta=1, protection_range=0.1, granularity=8)
        results = {}
        for scheme in sorted(REGISTERED_SCHEMES):
            for shards in (0, 4):
                monitor = build(scheme, config, places, units, shards)
                for update in walk(units, seed=11, n=20):
                    monitor.process(update)
                results[(scheme, shards)] = [
                    (r.place_id, r.safety) for r in monitor.top_k()
                ]
        reference = results[("naive", 0)]
        assert reference == sorted(reference, key=lambda t: tie_key(t[1], t[0]))
        # the straddle group (ids 100..105) is cut by ascending id.
        tied = [pid for pid, _ in reference if pid >= 100]
        assert tied == sorted(tied)
        for key, got in results.items():
            assert got == reference, key

    def test_threshold_orders_by_tie_key(self):
        from repro.ext import ThresholdCTUP

        places, units = _tied_world()
        config = CTUPConfig(k=3, delta=1, protection_range=0.1, granularity=8)
        monitor = ThresholdCTUP(config, places, units, tau=10.0)
        monitor.initialize()
        for update in walk(units, seed=12, n=20):
            monitor.process(update)
        records = monitor.unsafe_places()
        assert [(r.place_id, r.safety) for r in records] == sorted(
            ((r.place_id, r.safety) for r in records),
            key=lambda t: tie_key(t[1], t[0]),
        )


class TestStreamFiles:
    def test_save_and_load_roundtrip(self, tmp_path, fleet):
        stream = walk(fleet, seed=9, n=30)
        path = tmp_path / "stream.jsonl"
        stream.save(path)
        assert path.exists()
        from repro.workloads.stream import UpdateStream

        assert UpdateStream.load(path) == stream

    def test_save_empty_stream(self, tmp_path):
        from repro.workloads.stream import UpdateStream

        path = tmp_path / "empty.jsonl"
        UpdateStream().save(path)
        assert UpdateStream.load(path) == UpdateStream()
