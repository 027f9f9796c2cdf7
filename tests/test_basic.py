"""BasicCTUP-specific behaviour and invariants (§III)."""

import math

import pytest

from repro.core import BasicCTUP
from repro.engine import MonitorSession
from repro.validate import Oracle
from tests.conftest import assert_valid_topk


@pytest.fixture
def basic(small_config, small_places, small_units):
    monitor = BasicCTUP(small_config, small_places, small_units)
    monitor.initialize()
    return monitor


def audit_invariants(monitor: BasicCTUP, oracle: Oracle) -> None:
    """The §III invariants, checked against brute-force ground truth."""
    truth = oracle.safeties()
    grid = monitor.grid
    maintained = monitor.maintained.safeties_snapshot()
    # 1. dark-cell lower bounds never exceed the true cell minimum.
    per_cell_min: dict = {}
    for place in monitor.store.iter_all_places():
        cell = grid.cell_of(place.location)
        value = truth[place.place_id]
        per_cell_min[cell] = min(per_cell_min.get(cell, math.inf), value)
    for cell, state in monitor.cell_states.items():
        if not state.illuminated:
            assert state.lower_bound <= per_cell_min[cell] + 1e-9, cell
    # 2. maintained safeties are exact.
    for pid, safety in maintained.items():
        assert truth[pid] == safety, pid
    # 3. every place of an illuminated cell is maintained; no place of a
    #    dark cell is.
    for place in monitor.store.iter_all_places():
        cell = grid.cell_of(place.location)
        if monitor.cell_states[cell].illuminated:
            assert place.place_id in maintained
        else:
            assert place.place_id not in maintained
    # 4. every true top-k place lives in an illuminated cell.
    for record in oracle.top_k(monitor.config.k):
        if record.safety < oracle.sk(monitor.config.k):
            cell = grid.cell_of(record.place.location)
            assert monitor.cell_states[cell].illuminated


class TestInitialization:
    def test_initial_result_valid(self, basic, small_oracle, small_config):
        assert_valid_topk(small_oracle, basic, small_config.k)

    def test_initial_invariants(self, basic, small_oracle):
        audit_invariants(basic, small_oracle)

    def test_some_cells_stay_dark(self, basic):
        dark = [
            c for c, s in basic.cell_states.items() if not s.illuminated
        ]
        assert dark, "initialization should not illuminate everything"

    def test_illuminated_cells_reported(self, basic):
        assert basic.illuminated_cells() == {
            c for c, s in basic.cell_states.items() if s.illuminated
        }


class TestUpdateInvariants:
    def test_invariants_hold_along_stream(
        self, basic, small_oracle, small_stream
    ):
        for i, update in enumerate(small_stream.prefix(60)):
            small_oracle.apply(update)
            basic.process(update)
            assert_valid_topk(small_oracle, basic, basic.config.k)
            if i % 20 == 19:
                audit_invariants(basic, small_oracle)

    def test_darkening_happens(self, basic, small_stream):
        MonitorSession(basic).run(small_stream)
        assert basic.counters.cells_darkened > 0

    def test_lower_bounds_decrease_under_table1(self, basic, small_stream):
        MonitorSession(basic).run(small_stream.prefix(50))
        assert basic.counters.lb_decrements > 0

    def test_counters_progress(self, basic, small_stream):
        MonitorSession(basic).run(small_stream.prefix(30))
        c = basic.counters
        assert c.updates_processed == 30
        assert c.maintained_scans > 0
