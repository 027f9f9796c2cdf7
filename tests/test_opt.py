"""OptCTUP-specific behaviour and invariants (§IV)."""

import math

import pytest

from repro.core import BasicCTUP, OptCTUP
from repro.engine import MonitorSession
from repro.validate import Oracle
from tests.conftest import assert_valid_topk


@pytest.fixture
def opt(small_config, small_places, small_units):
    monitor = OptCTUP(small_config, small_places, small_units)
    monitor.initialize()
    return monitor


def audit_invariants(monitor: OptCTUP, oracle: Oracle) -> None:
    """The §IV invariants, checked against brute-force ground truth."""
    truth = oracle.safeties()
    grid = monitor.grid
    maintained = monitor.maintained.safeties_snapshot()
    # 1. maintained safeties are exact.
    for pid, safety in maintained.items():
        assert truth[pid] == safety, pid
    # 2. each cell bound covers its NON-maintained places only.
    per_cell_min: dict = {}
    for place in monitor.store.iter_all_places():
        if place.place_id in maintained:
            continue
        cell = grid.cell_of(place.location)
        value = truth[place.place_id]
        per_cell_min[cell] = min(per_cell_min.get(cell, math.inf), value)
    for cell, state in monitor.cell_states.items():
        assert state.lower_bound <= per_cell_min.get(cell, math.inf) + 1e-9
    # 3. every place strictly below SK is maintained.
    sk = oracle.sk(monitor.config.k)
    for pid, value in truth.items():
        if value < sk:
            assert pid in maintained, (pid, value, sk)


class TestInitialization:
    def test_initial_result_valid(self, opt, small_oracle, small_config):
        assert_valid_topk(small_oracle, opt, small_config.k)

    def test_initial_invariants(self, opt, small_oracle):
        audit_invariants(opt, small_oracle)

    def test_dechash_starts_empty(self, opt):
        assert len(opt.dechash) == 0

    def test_maintains_fewer_places_than_basic(
        self, small_config, small_places, small_units
    ):
        """Drawback 2: OptCTUP's maintained set is smaller."""
        basic = BasicCTUP(small_config, small_places, small_units)
        basic.initialize()
        opt = OptCTUP(small_config, small_places, small_units)
        opt.initialize()
        assert len(opt.maintained) <= len(basic.maintained)


class TestUpdateInvariants:
    def test_invariants_hold_along_stream(self, opt, small_oracle, small_stream):
        for i, update in enumerate(small_stream.prefix(60)):
            small_oracle.apply(update)
            opt.process(update)
            assert_valid_topk(small_oracle, opt, opt.config.k)
            if i % 20 == 19:
                audit_invariants(opt, small_oracle)

    def test_doo_suppresses_decreases(
        self, small_config, small_places, small_units, small_stream
    ):
        """The same stream causes fewer bound decrements with DOO on."""
        with_doo = OptCTUP(small_config, small_places, small_units)
        with_doo.initialize()
        without = OptCTUP(
            small_config.replace(use_doo=False), small_places, small_units
        )
        without.initialize()
        for update in small_stream:
            with_doo.process(update)
            without.process(update)
        assert (
            with_doo.counters.lb_decrements <= without.counters.lb_decrements
        )
        assert with_doo.counters.doo_suppressed >= 0

    def test_dechash_pairs_cleared_on_access(self, opt, small_stream):
        """After an access, the accessed cell holds no DecHash pairs."""
        for update in small_stream.prefix(80):
            report = opt.process(update)
            if report.cells_accessed:
                # every cell whose bound now sits at/above SK +
                # delta-ish was just refreshed; spot-check: no cell
                # with pairs has an inconsistent bound.
                for cell in opt.cell_states:
                    pairs = opt.dechash.pairs_of_cell(cell)
                    assert all(isinstance(u, int) for u in pairs)

    def test_larger_delta_fewer_accesses(
        self, small_places, small_units, small_stream, small_config
    ):
        accesses = {}
        for delta in (0, 8):
            monitor = OptCTUP(
                small_config.replace(delta=delta), small_places, small_units
            )
            monitor.initialize()
            base = monitor.counters.cells_accessed
            MonitorSession(monitor, track_changes=False).run(small_stream)
            accesses[delta] = monitor.counters.cells_accessed - base
        assert accesses[8] <= accesses[0]

    def test_larger_delta_more_maintained(
        self, small_places, small_units, small_stream, small_config
    ):
        peaks = {}
        for delta in (0, 8):
            monitor = OptCTUP(
                small_config.replace(delta=delta), small_places, small_units
            )
            monitor.initialize()
            MonitorSession(monitor, track_changes=False).run(small_stream)
            peaks[delta] = monitor.counters.maintained_peak
        assert peaks[8] >= peaks[0]
