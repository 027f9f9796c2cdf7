"""The public invariant auditor."""

import math

import pytest

from repro.core import BasicCTUP, NaiveCTUP, OptCTUP
from repro.core.audit import audit_monitor
from repro.engine import MonitorSession
from repro.workloads import generate_units


@pytest.fixture(params=[BasicCTUP, OptCTUP, NaiveCTUP], ids=lambda c: c.name)
def monitor(request, small_config, small_places, small_units):
    m = request.param(small_config, small_places, small_units)
    m.initialize()
    return m


class TestCleanState:
    def test_fresh_monitor_audits_clean(self, monitor):
        assert audit_monitor(monitor) == []

    def test_after_stream_audits_clean(self, monitor, small_stream):
        MonitorSession(monitor).run(small_stream)
        assert audit_monitor(monitor) == []


class TestDetection:
    def test_detects_corrupted_bound(
        self, small_config, small_places, small_units
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        monitor.initialize()
        # raise some dark cell's bound above its true minimum.
        victim = min(
            (
                c
                for c, s in monitor.cell_states.items()
                if math.isfinite(s.lower_bound)
            ),
            key=lambda c: monitor.cell_states[c].lower_bound,
        )
        monitor.cell_states[victim].lower_bound += 5.0
        problems = audit_monitor(monitor)
        assert any("bound" in p for p in problems)

    def test_detects_stale_maintained_safety(
        self, small_config, small_places, small_units
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        monitor.initialize()
        pid = next(iter(monitor.maintained.safeties_snapshot()))
        monitor.maintained.set_safety(pid, -99.0)
        problems = audit_monitor(monitor)
        assert any("stale" in p or "result" in p for p in problems)

    def test_detects_missing_maintained_topk(
        self, small_config, small_places, small_units
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        monitor.initialize()
        # evict the least safe maintained place behind the scheme's back.
        worst = monitor.top_k()[0]
        monitor.maintained.remove_id(worst.place_id)
        problems = audit_monitor(monitor)
        assert problems

    def test_detects_a_drifted_ap_cache(self, small_config, small_places):
        # a fleet dense enough for cells to keep their AP columns.
        units = generate_units(400, small_config.protection_range, seed=12)
        monitor = OptCTUP(small_config, small_places, units)
        monitor.initialize()
        cell, state = next(
            (c, s) for c, s in monitor.cell_states.items() if s.ap is not None
        )
        state.ap.column[0] += 1
        problems = audit_monitor(monitor)
        assert len(problems) == 1
        assert f"cell {cell} cached AP" in problems[0]

    def test_detects_corrupted_basic_bound(
        self, small_config, small_places, small_units
    ):
        monitor = BasicCTUP(small_config, small_places, small_units)
        monitor.initialize()
        victim = next(
            c for c, s in monitor.cell_states.items() if not s.illuminated
        )
        monitor.cell_states[victim].lower_bound = 10_000.0
        problems = audit_monitor(monitor)
        assert any("basic" in p for p in problems)
