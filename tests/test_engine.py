"""The composable monitoring engine: phase API, session facade, hooks."""

import pytest

from repro.core import (
    BasicCTUP,
    ChangeTracker,
    CTUPConfig,
    NaiveCTUP,
    OptCTUP,
)
from repro.core.metrics import InitReport, UpdateReport
from repro.engine import MonitorHooks, MonitorSession
from repro.validate import Oracle
from repro.workloads import build_scenario

ALL_SCHEMES = [NaiveCTUP, BasicCTUP, OptCTUP]

SCENARIOS = ["downtown", "suburbia"]


@pytest.fixture(params=SCENARIOS, scope="module")
def scenario_world(request):
    return build_scenario(
        request.param,
        seed=7,
        n_places=500,
        n_units=15,
        protection_range=0.1,
        stream_length=120,
    )


@pytest.fixture(scope="module")
def scenario_config():
    return CTUPConfig(k=5, delta=3, protection_range=0.1, granularity=8)


class TestPhaseAPI:
    """process() decomposes into apply_update() + refresh() exactly."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda c: c.name)
    def test_phases_equal_process(
        self, scheme, scenario_config, scenario_world
    ):
        whole = scheme(
            scenario_config, scenario_world.places, scenario_world.units
        )
        split = scheme(
            scenario_config, scenario_world.places, scenario_world.units
        )
        whole.initialize()
        split.initialize()
        for update in scenario_world.stream:
            whole.process(update)
            split.apply_update(update)
            split.refresh()
            assert split.sk() == whole.sk()
            assert split.topk_ids() == whole.topk_ids()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda c: c.name)
    def test_phase_counters_match_process(
        self, scheme, scenario_config, scenario_world
    ):
        """The work counters don't depend on how the phases are driven."""
        whole = scheme(
            scenario_config, scenario_world.places, scenario_world.units
        )
        split = scheme(
            scenario_config, scenario_world.places, scenario_world.units
        )
        whole.initialize()
        split.initialize()
        for update in scenario_world.stream:
            whole.process(update)
            split.apply_update(update)
            split.refresh()
        whole_counts = {
            name: value
            for name, value in whole.counters.as_dict().items()
            if not name.startswith("time_")
        }
        split_counts = {
            name: value
            for name, value in split.counters.as_dict().items()
            if not name.startswith("time_")
        }
        assert whole_counts == split_counts

    def test_refresh_before_initialize_raises(
        self, scenario_config, scenario_world
    ):
        monitor = OptCTUP(
            scenario_config, scenario_world.places, scenario_world.units
        )
        with pytest.raises(RuntimeError):
            monitor.refresh()
        with pytest.raises(RuntimeError):
            monitor.apply_update(scenario_world.stream[0])


class TestSchemeAgnosticBatching:
    """Satellite: batch == single-update for all three schemes."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda c: c.name)
    @pytest.mark.parametrize("batch_size", [4, 32])
    def test_batched_equals_sequential(
        self, scheme, batch_size, scenario_config, scenario_world
    ):
        sequential = scheme(
            scenario_config, scenario_world.places, scenario_world.units
        )
        batched = scheme(
            scenario_config, scenario_world.places, scenario_world.units
        )
        sequential.initialize()
        batched.initialize()
        MonitorSession(sequential).run(scenario_world.stream)
        consumed = MonitorSession(batched, batch_size=batch_size).run(
            scenario_world.stream
        )
        assert consumed == len(scenario_world.stream)
        assert batched.sk() == sequential.sk()
        assert batched.topk_ids() == sequential.topk_ids()
        oracle = Oracle(scenario_world.places, scenario_world.units)
        for update in scenario_world.stream:
            oracle.apply(update)
        verdict = oracle.validate(batched.top_k(), scenario_config.k)
        assert verdict.ok, verdict.problems

    @pytest.mark.parametrize(
        "scheme", [NaiveCTUP, BasicCTUP], ids=lambda c: c.name
    )
    def test_batching_saves_accesses(
        self, scheme, scenario_config, scenario_world
    ):
        """Deferring the access phase is a win beyond OptCTUP too."""

        def accesses(batch_size: int) -> int:
            monitor = scheme(
                scenario_config, scenario_world.places, scenario_world.units
            )
            monitor.initialize()
            base = monitor.counters.cells_accessed
            MonitorSession(monitor, batch_size=batch_size).run(
                scenario_world.stream
            )
            return monitor.counters.cells_accessed - base

        assert accesses(30) < accesses(1)

    def test_run_stream_collects_reports(
        self, scenario_config, scenario_world
    ):
        monitor = OptCTUP(
            scenario_config, scenario_world.places, scenario_world.units
        )
        monitor.initialize()
        session = MonitorSession(monitor, batch_size=50)
        reports = [session.feed(u) for u in scenario_world.stream]
        reports = [r for r in reports + [session.flush()] if r is not None]
        assert len(reports) == -(-len(scenario_world.stream) // 50)
        assert all(isinstance(r, UpdateReport) for r in reports)
        assert reports[-1].sk == monitor.sk()


class RecordingHooks(MonitorHooks):
    def __init__(self):
        self.events = []

    def on_update_start(self, update):
        self.events.append(("update_start", update.unit_id))

    def on_update_end(self, update, report):
        self.events.append(("update_end", update.unit_id))

    def on_batch_flush(self, updates, report):
        self.events.append(("batch_flush", len(updates)))

    def on_topk_change(self, change):
        self.events.append(("topk_change", change.timestamp))

    def on_refresh(self, accessed):
        self.events.append(("refresh", accessed))


class TestSessionHooks:
    def test_update_end_then_topk_change_in_order(
        self, small_config, small_places, small_units, small_stream
    ):
        """Acceptance: on_update_end + on_topk_change fire in order."""
        monitor = OptCTUP(small_config, small_places, small_units)
        hooks = RecordingHooks()
        session = MonitorSession(monitor, hooks=[hooks])
        session.start()
        for update in small_stream:
            session.feed(update)
        kinds = [kind for kind, _ in hooks.events]
        assert kinds.count("update_end") == len(small_stream)
        assert "topk_change" in kinds, "stream should move the result"
        # every change is announced immediately after the update that
        # caused it — never before its update_end, never delayed.
        for i, (kind, _) in enumerate(hooks.events):
            if kind == "topk_change":
                assert hooks.events[i - 1][0] == "update_end"
        # per-update ordering: start, refresh, end.
        first = kinds.index("update_start")
        assert kinds[first : first + 3] == [
            "update_start",
            "refresh",
            "update_end",
        ]

    def test_changes_match_tracker(
        self, small_config, small_places, small_units, small_stream
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        hooks = RecordingHooks()
        session = MonitorSession(monitor, hooks=[hooks])
        session.run(small_stream)
        changes = [e for e in hooks.events if e[0] == "topk_change"]
        assert len(changes) == session.tracker.changes_seen

    def test_batch_flush_hook(
        self, small_config, small_places, small_units, small_stream
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        hooks = RecordingHooks()
        session = MonitorSession(monitor, batch_size=40, hooks=[hooks])
        processed = session.run(small_stream)
        assert processed == len(small_stream)
        flushes = [e for e in hooks.events if e[0] == "batch_flush"]
        assert len(flushes) == -(-len(small_stream) // 40)
        # the final partial burst is flushed by run().
        assert flushes[-1][1] == (len(small_stream) % 40 or 40)


class TestSession:
    def test_start_returns_init_report(
        self, small_config, small_places, small_units
    ):
        session = MonitorSession(
            OptCTUP(small_config, small_places, small_units)
        )
        report = session.start()
        assert isinstance(report, InitReport)
        assert report.sk == session.monitor.sk()
        with pytest.raises(RuntimeError):
            session.start()

    def test_adopts_initialized_monitor(
        self, small_config, small_places, small_units, small_stream
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        monitor.initialize()
        hooks = RecordingHooks()
        session = MonitorSession(monitor, hooks=[hooks])
        assert session.start() is None
        # priming means no giant bootstrap change fires on the first feed.
        session.feed(small_stream[0])
        changes = [e for e in hooks.events if e[0] == "topk_change"]
        assert len(changes) <= 1

    def test_batched_session_matches_single(
        self, small_config, small_places, small_units, small_stream
    ):
        single = OptCTUP(small_config, small_places, small_units)
        batched = OptCTUP(small_config, small_places, small_units)
        MonitorSession(single).run(small_stream)
        MonitorSession(batched, batch_size=16).run(small_stream)
        assert batched.sk() == single.sk()
        assert batched.topk_ids() == single.topk_ids()

    def test_audit_runs_periodically(
        self, small_config, small_places, small_units, small_stream
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        session = MonitorSession(monitor, audit_every=50)
        session.run(small_stream)
        assert session.audit_problems == []

    def test_negative_parameters_rejected(
        self, small_config, small_places, small_units
    ):
        monitor = OptCTUP(small_config, small_places, small_units)
        with pytest.raises(ValueError):
            MonitorSession(monitor, batch_size=-1)
        with pytest.raises(ValueError):
            MonitorSession(monitor, audit_every=-1)

    def test_works_with_every_scheme(
        self, small_config, small_places, small_units, small_stream
    ):
        for scheme in ALL_SCHEMES:
            monitor = scheme(small_config, small_places, small_units)
            session = MonitorSession(monitor, batch_size=10)
            assert session.run(small_stream.prefix(30)) == 30
            assert len(monitor.top_k()) == small_config.k


class TestChangeTrackerReport:
    """Satellite: ChangeTracker.initialize() forwards the InitReport."""

    def test_initialize_returns_init_report(
        self, small_config, small_places, small_units
    ):
        tracker = ChangeTracker(
            OptCTUP(small_config, small_places, small_units)
        )
        report = tracker.initialize()
        assert isinstance(report, InitReport)
        assert report.sk == tracker.monitor.sk()
        assert report.maintained_places == tracker.monitor.maintained_count()
