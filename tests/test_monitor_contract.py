"""The common monitor contract, checked for every scheme."""

import pytest

from repro.api import open_session
from repro.core import BasicCTUP, CTUPConfig, NaiveCTUP, OptCTUP
from repro.core.incremental import IncrementalNaiveCTUP
from repro.geometry import Point
from repro.model import LocationUpdate, Unit
from repro.shard import ShardedMonitor

# ShardedMonitor rides along: the sharded wrapper must satisfy the
# exact same contract as the plain schemes (defaults: 4 opt shards).
ALL_MONITORS = [
    NaiveCTUP,
    BasicCTUP,
    OptCTUP,
    IncrementalNaiveCTUP,
    ShardedMonitor,
]


@pytest.fixture(params=ALL_MONITORS, ids=lambda cls: cls.name)
def monitor(request, small_config, small_places, small_units):
    return request.param(small_config, small_places, small_units)


class TestLifecycle:
    def test_process_before_initialize_raises(self, monitor, small_units):
        unit = small_units[0]
        update = LocationUpdate(unit.unit_id, unit.location, Point(0.5, 0.5))
        with pytest.raises(RuntimeError):
            monitor.process(update)

    def test_double_initialize_raises(self, monitor):
        monitor.initialize()
        with pytest.raises(RuntimeError):
            monitor.initialize()

    def test_initialize_report_fields(self, monitor, small_config, small_oracle):
        report = monitor.initialize()
        assert report.seconds >= 0.0
        assert report.places_loaded > 0
        assert report.sk == small_oracle.sk(small_config.k)

    def test_topk_size(self, monitor, small_config):
        monitor.initialize()
        assert len(monitor.top_k()) == small_config.k

    def test_topk_sorted_with_id_tie_break(self, monitor):
        monitor.initialize()
        result = monitor.top_k()
        keys = [(r.safety, r.place_id) for r in result]
        assert keys == sorted(keys)

    def test_sk_equals_last_topk_safety(self, monitor):
        monitor.initialize()
        assert monitor.sk() == monitor.top_k()[-1].safety

    def test_run_stream_counts(
        self, monitor, small_config, small_places, small_units, small_stream
    ):
        # the runtime side of the counter contract: every raw update is
        # charged once and every lifecycle phase is timed, per update
        # (batch_size=0) and per coalesced burst (batch_size=8).
        fresh = type(monitor)(small_config, small_places, small_units)
        for batch_size, mon in ((0, monitor), (8, fresh)):
            session = open_session(
                monitor=mon, batch_size=batch_size, track_changes=False
            )
            session.start()
            assert session.run(small_stream) == len(small_stream)
            counters = mon.counters
            assert counters.updates_processed == len(small_stream)
            assert counters.time_init_s > 0
            assert counters.time_maintain_s > 0
            assert counters.time_access_s > 0
            assert counters.maintained_peak >= mon.maintained_count()

    def test_unknown_unit_update_raises(self, monitor):
        monitor.initialize()
        with pytest.raises(KeyError):
            monitor.process(
                LocationUpdate(999, Point(0.5, 0.5), Point(0.6, 0.6))
            )

    def test_inconsistent_old_location_raises(self, monitor, small_units):
        monitor.initialize()
        unit = small_units[0]
        with pytest.raises(ValueError):
            monitor.process(
                LocationUpdate(
                    unit.unit_id, Point(0.123, 0.456), Point(0.5, 0.5)
                )
            )


class TestConstruction:
    def test_range_mismatch_rejected(self, small_config, small_places):
        units = [Unit(0, Point(0.5, 0.5), 0.3)]  # config says 0.1
        for cls in ALL_MONITORS:
            with pytest.raises(ValueError):
                cls(small_config, small_places, units)

    def test_monitors_do_not_share_unit_state(
        self, small_config, small_places, small_units, small_stream
    ):
        a = OptCTUP(small_config, small_places, small_units)
        b = BasicCTUP(small_config, small_places, small_units)
        a.initialize()
        b.initialize()
        for update in small_stream.prefix(10):
            a.process(update)
        # b never saw the updates; its units are untouched.
        first = small_stream[0]
        assert b.units.location_of(first.unit_id) == first.old_location


class TestSmallK:
    def test_k_equals_one(self, small_places, small_units, small_oracle):
        config = CTUPConfig(k=1, delta=2, protection_range=0.1, granularity=8)
        for cls in ALL_MONITORS:
            monitor = cls(config, small_places, small_units)
            monitor.initialize()
            top = monitor.top_k()
            assert len(top) == 1
            assert top[0].safety == small_oracle.sk(1)
