"""The composable monitoring engine: phase API, session facade, change
subscribers."""

import pytest

from repro.core import (
    BasicCTUP,
    ChangeTracker,
    CTUPConfig,
    NaiveCTUP,
    OptCTUP,
)
from repro.control import KChanged
from repro.core.metrics import InitReport, UpdateReport
from repro.engine import MonitorSession
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


def _result(monitor):
    """The monitor's result now: (SK, top-k ids)."""
    return monitor.sk(), frozenset(monitor.topk_ids())


class _ExpectedChanges:
    """Diffs the result after every report a session hands back: the
    changes a ``tracker.subscribe`` callback must see, in order."""

    def __init__(self, monitor):
        self.monitor = monitor
        self.last = _result(monitor)
        self.changes = []

    def after(self, report):
        if report is None:  # buffered: nothing applied yet
            return
        now = _result(self.monitor)
        if now != self.last:
            (sk_before, before), (sk_after, after) = self.last, now
            self.changes.append(
                (sk_before, sk_after, after - before, before - after)
            )
        self.last = now

    def reprime(self):
        self.last = _result(self.monitor)


def _as_diffs(changes):
    return [
        (
            c.sk_before,
            c.sk_after,
            frozenset(r.place_id for r in c.entered),
            frozenset(r.place_id for r in c.left),
        )
        for c in changes
    ]


class TestChangeSubscribers:
    """``session.tracker.subscribe`` is the one change path: a callback
    sees every result change exactly once, and nothing else."""

    @pytest.mark.parametrize("batch_size", [0, 8])
    def test_every_change_seen_exactly_once(
        self, batch_size, small_config, small_places, small_units, small_stream
    ):
        session = MonitorSession(
            OptCTUP(small_config, small_places, small_units),
            batch_size=batch_size,
        )
        seen = []
        session.tracker.subscribe(seen.append)
        session.start()
        expected = _ExpectedChanges(session.monitor)
        for update in small_stream:
            expected.after(session.feed(update))
        expected.after(session.flush())
        assert expected.changes, "the stream should move the result"
        assert _as_diffs(seen) == expected.changes
        assert session.tracker.changes_seen == len(seen)

    @pytest.mark.parametrize("batch_size", [0, 8])
    def test_control_reprime_fires_nothing(
        self, batch_size, small_config, small_places, small_units, small_stream
    ):
        session = MonitorSession(
            OptCTUP(small_config, small_places, small_units),
            batch_size=batch_size,
        )
        seen = []
        session.tracker.subscribe(seen.append)
        session.start()
        expected = _ExpectedChanges(session.monitor)
        updates = list(small_stream)
        for update in updates[:40]:
            expected.after(session.feed(update))
        expected.after(session.flush())
        before = len(seen)
        moved_from = _result(session.monitor)
        session.apply_control(KChanged(small_config.k + 2))
        assert _result(session.monitor) != moved_from
        assert len(seen) == before, "a re-prime is not a change"
        # later changes diff against the re-primed result.
        expected.reprime()
        for update in updates[40:]:
            expected.after(session.feed(update))
        expected.after(session.flush())
        assert len(seen) > before
        assert _as_diffs(seen) == expected.changes


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
        session = MonitorSession(monitor)
        seen = []
        session.tracker.subscribe(seen.append)
        assert session.start() is None
        # priming means no giant bootstrap change fires on the first feed.
        session.feed(small_stream[0])
        assert len(seen) <= 1

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
