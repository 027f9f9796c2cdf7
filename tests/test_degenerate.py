"""Degenerate worlds the session model cannot draw.

A fleet that never protects anything (every safety stays -RP), and a
tie group straddling the k-th slot, whose cut by ascending place id
the oracle does not pin: it accepts any tied place at SK. Single-cell
grids, coincident places, k of 0 or past the catalog and stationary
reports are drawn by :class:`tests.machine.SessionModel`.
"""

import pytest

from repro.api import SCHEMES as REGISTERED_SCHEMES
from repro.control import KChanged
from repro.core import CTUPConfig
from repro.core.audit import audit_monitor
from repro.core.topk import tie_key
from repro.geometry import Point
from repro.model import Place, Unit
from repro.validate import Oracle
from repro.workloads import RandomWalkMobility, record_stream
from tests.conftest import build

def walk(units, seed, n):
    return record_stream(RandomWalkMobility(units, step=0.05, seed=seed), n)


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
        oracle = Oracle(places, units)
        monitors = [build(s, config, places, units) for s in sorted(REGISTERED_SCHEMES)]
        for update in stream:
            oracle.apply(update)
            for monitor in monitors:
                monitor.process(update)
                verdict = oracle.validate(monitor.top_k(), config.k)
                assert verdict.ok, (monitor.name, verdict.problems[:3])
        # every place keeps safety exactly -RP = -2 throughout.
        for monitor in monitors:
            assert monitor.sk() == -2.0
            assert audit_monitor(monitor) == [], monitor.name


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
    """k shrinking below the straddle group, for every registered
    scheme, unsharded and sharded."""

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
