"""CTUPConfig, MonitorCounters, CellState."""

import math

import pytest

from repro.core import CTUPConfig, MonitorCounters
from repro.geometry import Rect
from repro.grid import CellState


class TestConfig:
    def test_defaults_are_table3(self):
        config = CTUPConfig()
        assert config.k == 15
        assert config.delta == 6
        assert config.protection_range == 0.1
        assert config.granularity == 10
        assert config.use_doo is True

    def test_space_defaults_to_unit_square(self):
        config = CTUPConfig()
        assert config.space == Rect(0.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", -1),
            ("delta", -1),
            ("protection_range", 0.0),
            ("protection_range", -0.5),
            ("granularity", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            CTUPConfig(**{field: value})

    def test_k_zero_suspends_reporting(self):
        # k == 0 is legal (KChanged(0) mid-run): an empty result set.
        assert CTUPConfig(k=0).k == 0

    def test_replace_returns_new_config(self):
        config = CTUPConfig()
        other = config.replace(k=3, delta=1)
        assert other.k == 3
        assert other.delta == 1
        assert config.k == 15  # original untouched

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            CTUPConfig().replace(k=-1)

    def test_frozen(self):
        config = CTUPConfig()
        with pytest.raises(AttributeError):
            config.k = 1  # type: ignore[misc]


class TestCounters:
    def test_snapshot_independent(self):
        counters = MonitorCounters(updates_processed=5)
        snap = counters.snapshot()
        counters.updates_processed = 9
        assert snap.updates_processed == 5

    def test_subtraction(self):
        a = MonitorCounters(updates_processed=10, cells_accessed=7)
        b = MonitorCounters(updates_processed=4, cells_accessed=2)
        diff = a - b
        assert diff.updates_processed == 6
        assert diff.cells_accessed == 5

    def test_as_dict_covers_all_fields(self):
        data = MonitorCounters().as_dict()
        assert data["updates_processed"] == 0
        assert "distance_rows" in data
        assert "doo_suppressed" in data


class TestCellState:
    def test_defaults(self):
        state = CellState()
        assert state.lower_bound == math.inf
        assert not state.illuminated
        assert state.place_count == 0

    def test_increase_decrease(self):
        state = CellState(lower_bound=0.0)
        state.decrease()
        state.decrease(2.0)
        assert state.lower_bound == -3.0
        state.increase(1.5)
        assert state.lower_bound == -1.5

    def test_infinite_bound_stays_infinite(self):
        # an empty / fully-maintained cell can absorb any decrement.
        state = CellState()
        state.decrease(5.0)
        assert state.lower_bound == math.inf
