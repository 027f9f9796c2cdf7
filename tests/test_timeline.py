"""Per-update time-series collection."""

import math

import pytest

from repro.bench.timeline import Timeline
from repro.core import OptCTUP
from repro.sim import Simulation


@pytest.fixture
def recorded(small_config, small_places, small_units, small_stream):
    monitor = OptCTUP(small_config, small_places, small_units)
    monitor.initialize()
    timeline = Timeline()
    timeline.record(monitor, small_stream)
    return timeline, monitor


class TestRecording:
    def test_one_sample_per_update(self, recorded, small_stream):
        timeline, _ = recorded
        assert len(timeline) == len(small_stream)
        assert len(timeline.maintained) == len(small_stream)
        assert len(timeline.update_seconds) == len(small_stream)

    def test_sk_samples_match_monitor(self, recorded):
        timeline, monitor = recorded
        assert timeline.sk[-1] == monitor.sk()

    def test_maintained_positive(self, recorded):
        timeline, _ = recorded
        assert all(m > 0 for m in timeline.maintained)


class TestSummary:
    def test_summary_fields(self, recorded, small_stream):
        timeline, _ = recorded
        summary = timeline.summary()
        assert summary.updates == len(small_stream)
        assert summary.sk_min <= summary.sk_start
        assert summary.sk_min <= summary.sk_end
        assert summary.maintained_max >= summary.maintained_mean
        assert summary.accesses_total >= summary.updates_with_access
        assert summary.update_ms_p50 <= summary.update_ms_p95
        assert summary.update_ms_p95 <= summary.update_ms_max

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            Timeline().summary()

    def test_sk_changes_counted(self, recorded):
        timeline, _ = recorded
        summary = timeline.summary()
        manual = sum(
            1 for a, b in zip(timeline.sk, timeline.sk[1:]) if a != b
        )
        assert summary.sk_changes == manual


class TestSparkline:
    def test_width_respected(self, recorded):
        timeline, _ = recorded
        line = timeline.sparkline(width=40)
        assert 0 < len(line) <= 40

    def test_short_series_not_padded(self):
        timeline = Timeline()
        timeline.maintained = [1, 5, 3]
        assert len(timeline.sparkline(width=40)) == 3

    def test_custom_series(self, recorded):
        timeline, _ = recorded
        line = timeline.sparkline(values=timeline.sk, width=30)
        assert line

    def test_empty_series(self):
        assert Timeline().sparkline() == ""

    def test_constant_series(self):
        timeline = Timeline()
        assert timeline.sparkline(values=[2.0, 2.0, 2.0]) == "▁▁▁"

    def test_infinite_values_rendered_as_dots(self):
        timeline = Timeline()
        line = timeline.sparkline(values=[math.inf, 1.0, 2.0])
        assert line[0] == "·"


@pytest.mark.parametrize("batch_size", [0, 32])
def test_accesses_total_counts_each_cell_access_once(batch_size):
    # a burst's report covers its 32 updates: its cell accesses are
    # charged once, and its time is spread over all of them.
    sim = Simulation.from_scenario(
        "downtown", n_places=2_000, n_units=40, batch_size=batch_size
    )
    sim.session.start()
    before = sim.monitor.counters.cells_accessed
    summary = sim.run(updates=640).summary
    accessed = sim.monitor.counters.cells_accessed - before
    assert summary.updates == len(sim.timeline.update_seconds) == 640
    assert summary.accesses_total == accessed > 0
