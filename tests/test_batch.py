"""Batch (burst) update processing."""

import pytest

from repro.api import SCHEMES, make_monitor
from repro.core import BasicCTUP, OptCTUP
from repro.core.batch import BatchProcessor
from repro.engine import MonitorSession
from repro.model import LocationUpdate, Point
from tests.conftest import assert_valid_topk


@pytest.fixture
def processor(small_config, small_places, small_units):
    monitor = OptCTUP(small_config, small_places, small_units)
    monitor.initialize()
    return BatchProcessor(monitor)


class TestConstruction:
    def test_accepts_any_scheme(self, small_config, small_places, small_units):
        basic = BasicCTUP(small_config, small_places, small_units)
        assert BatchProcessor(basic).monitor is basic

    def test_rejects_non_monitors(self):
        with pytest.raises(TypeError):
            BatchProcessor(object())

    def test_requires_initialized_monitor(
        self, small_config, small_places, small_units, small_stream
    ):
        processor = BatchProcessor(
            OptCTUP(small_config, small_places, small_units)
        )
        with pytest.raises(RuntimeError):
            processor.process_batch(list(small_stream.prefix(3)))


class TestProcessing:
    def test_empty_batch_is_noop(self, processor):
        counters_before = processor.monitor.counters.snapshot()
        report = processor.process_batch([])
        assert report.batch_size == 0
        assert report.coalesced_size == 0
        assert report.unit_id is None
        assert report.cells_accessed == 0
        assert report.sk == processor.monitor.sk()
        assert processor.batches_processed == 0
        assert processor.monitor.counters == counters_before

    def test_single_batch_valid(self, processor, small_oracle, small_stream):
        batch = list(small_stream.prefix(20))
        report = processor.process_batch(batch)
        for update in batch:
            small_oracle.apply(update)
        assert_valid_topk(small_oracle, processor.monitor, processor.monitor.config.k)
        assert report.unit_id is None
        assert report.batch_size == 20
        assert 0 < report.coalesced_size <= 20
        assert processor.batches_processed == 1
        assert processor.updates_processed == 20
        assert processor.moves_processed == report.coalesced_size

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 50])
    def test_batched_equals_sequential(
        self,
        batch_size,
        small_config,
        small_places,
        small_units,
        small_stream,
        small_oracle,
    ):
        sequential = OptCTUP(small_config, small_places, small_units)
        sequential.initialize()
        batched = OptCTUP(small_config, small_places, small_units)
        batched.initialize()

        MonitorSession(sequential).run(small_stream)
        consumed = MonitorSession(batched, batch_size=batch_size).run(
            small_stream
        )
        assert consumed == len(small_stream)
        for update in small_stream:
            small_oracle.apply(update)
        assert_valid_topk(small_oracle, batched, small_config.k)
        assert batched.sk() == sequential.sk()

    def test_batching_never_increases_accesses(
        self, small_config, small_places, small_units, small_stream
    ):
        def accesses(batch_size: int) -> int:
            monitor = OptCTUP(small_config, small_places, small_units)
            monitor.initialize()
            base = monitor.counters.cells_accessed
            MonitorSession(monitor, batch_size=batch_size).run(small_stream)
            return monitor.counters.cells_accessed - base

        assert accesses(25) <= accesses(1)

    def test_counters_cover_all_updates(self, processor, small_stream):
        MonitorSession(processor.monitor, batch_size=8).run(small_stream)
        assert (
            processor.monitor.counters.updates_processed == len(small_stream)
        )


def _stale(fleet, moved):
    """Unit 0 moves correctly, then unit 1 reports from where it never was."""
    u0, u1 = fleet[0], fleet[1]
    return [
        LocationUpdate(u0.unit_id, u0.location, moved, 1),
        LocationUpdate(u1.unit_id, Point(u1.location.x + 0.01, u1.location.y), moved, 2),
    ]


def _broken_chain(fleet, moved):
    """Unit 0 moves correctly, then reports again from its old position."""
    u0 = fleet[0]
    return [
        LocationUpdate(u0.unit_id, u0.location, moved, 1),
        LocationUpdate(u0.unit_id, u0.location, Point(0.5, 0.5), 2),
    ]


@pytest.mark.parametrize(
    "bad, message",
    [(_stale, "carries old location"), (_broken_chain, "already moved it")],
    ids=["stale-head", "broken-chain"],
)
@pytest.mark.parametrize("scheme", [*sorted(SCHEMES), "sharded"])
def test_rejected_burst_applies_nothing(
    small_config, small_places, small_units, scheme, bad, message
):
    """A burst that fails validation raises before any unit moves: every
    chain head is checked before the first chain is applied."""
    monitor = make_monitor(
        "opt" if scheme == "sharded" else scheme,
        places=small_places,
        units=small_units,
        config=small_config,
        shard=2 if scheme == "sharded" else None,
    )
    monitor.initialize()

    def state():
        return (
            [monitor.units.location_of(u.unit_id) for u in small_units],
            [(r.place_id, r.safety) for r in monitor.top_k()],
            monitor.sk(),
            {
                name: value
                for name, value in monitor.counters.as_dict().items()
                if not name.startswith("time_")
            },
        )

    before = state()
    burst = bad(list(monitor.units), Point(0.9, 0.9))
    with pytest.raises(ValueError, match=message):
        BatchProcessor(monitor).process_batch(burst)
    assert state() == before
