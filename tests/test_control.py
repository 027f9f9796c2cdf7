"""The control plane: epochs, catalog mutations, live retuning, resharding.

The tentpole guarantee under test is *equivalence to rebuild*: applying
any sequence of control events incrementally must leave a monitor whose
SK and top-k are those of the post-event world — for every registered
scheme, unsharded and sharded — and must leave every work ledger
untouched (control work bills to the
:class:`~repro.control.events.EpochReport`, never to the data plane's
counters). On top of that sit the durability rules: control events are
journaled in order with the data updates, crash recovery replays them
across epoch boundaries, and ``close()`` leaves a recoverable tail. The
session tests run as scripts over :mod:`tests.machine`, which checks
the answer against the oracle after every step and every resume
against the live session.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    SCHEMES,
    ControlSpec,
    make_monitor,
    open_session,
)
from repro.control import (
    EpochReport,
    GridRetuned,
    KChanged,
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
    ShardPlanChanged,
    check_control,
    decode_event,
    encode_event,
    event_kind,
    fold_places,
)
from repro.bench import build_workload
from repro.core import CTUPConfig
from repro.engine.session import MonitorSession
from repro.geometry import Point, Rect
from repro.grid.partition import GridPartition
from repro.model import Place
from repro.state.journal import UpdateJournal
from repro.state.recovery import CheckpointPolicy, CheckpointStore, RecoveryManager
from repro.storage.placestore import PlaceStore
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)
from repro.workloads.control import ControlPlan, generate_control_plan, interleave
from tests.conftest import build
from tests.machine import PLACES as MODEL_PLACES
from tests.machine import BAD_EVENTS, SessionModel, run_script, walk

ALL_EVENTS = [
    PlaceAdded(Place(77, Point(0.5, 0.5), 3, kind="school")),
    PlaceRemoved(77),
    PlaceReweighted(4, 9),
    KChanged(7),
    GridRetuned(6),
    ShardPlanChanged(3, "striped"),
]


def answer(monitor):
    # The contractual answer (core.monitor.top_k docstring): SK, every row
    # strictly below SK, and the safety multiset.  Which of several places
    # *tied at SK* fills the last slot may differ between two monitors.
    sk = monitor.sk()
    rows = [(r.place_id, r.safety) for r in monitor.top_k()]
    return (
        sk,
        sorted(t for t in rows if t[1] < sk),
        sorted(s for _, s in rows),
    )


def small_world(n_places, seed, n_units=8, **config):
    """A small world: its config, places and units."""
    config = CTUPConfig(**{"k": 4, "granularity": 6, "protection_range": 0.12, **config})
    places = generate_places(n_places, seed=seed)
    return config, places, generate_units(n_units, config.protection_range, seed=seed + 1)


# -- the catalog --------------------------------------------------------


class TestPlaceCatalog:
    """The store's mutators, and :func:`check_control`, which refuses a
    catalog event before the world moves."""

    def setup_method(self):
        self.grid = GridPartition(Rect(0.0, 0.0, 1.0, 1.0), 4, 4)
        self.places = [
            Place(1, Point(0.1, 0.1), 2),
            Place(2, Point(0.12, 0.1), 1),
            Place(3, Point(0.9, 0.9), 4),
        ]
        self.monitor = build(
            "opt",
            CTUPConfig(k=2, granularity=4),
            self.places,
            generate_units(2, 0.1, seed=1),
        )
        self.store = self.monitor.store

    def refused(self, event, error=ValueError):
        with pytest.raises(error):
            check_control(self.monitor, event, "incremental")

    def test_add_place(self):
        cell = self.store.add_place(Place(9, Point(0.6, 0.6), 3))
        assert cell == self.grid.cell_of(Point(0.6, 0.6))
        assert self.store.has_place(9)
        assert self.store.place_count == 4

    def test_add_duplicate_id_rejected(self):
        self.refused(PlaceAdded(Place(2, Point(0.3, 0.3), 0)))
        with pytest.raises(ValueError):
            self.store.add_place(Place(2, Point(0.3, 0.3), 0))

    def test_add_requires_place(self):
        self.refused(PlaceAdded("not-a-place"), TypeError)
        self.refused(PlaceAdded(Place(9, Point(1.5, 0.5), 0)))

    def test_remove_place_returns_record(self):
        removed = self.store.remove_place(2)
        assert removed.place_id == 2
        assert not self.store.has_place(2)
        self.refused(PlaceRemoved(2))
        with pytest.raises(KeyError):
            self.store.remove_place(2)

    def test_remove_last_place_empties_cell(self):
        cell = self.store.cell_of_place(3)
        self.store.remove_place(3)
        assert self.store.read_cell(cell) == []
        assert self.store.cell_place_count(cell) == 0
        assert cell not in self.store.occupied_cells()

    def test_reweight_returns_old_record(self):
        old = self.store.reweight(1, 7)
        assert old.required_protection == 2
        assert self.store.peek_place(1).required_protection == 7
        self.refused(PlaceReweighted(1, -1))
        self.refused(PlaceReweighted(99, 1))
        assert self.store.peek_place(1).required_protection == 7

    def test_mutations_invalidate_fingerprint(self):
        before = self.store.fingerprint
        self.store.add_place(Place(9, Point(0.4, 0.4), 1))
        assert self.store.fingerprint != before


# -- the event vocabulary ----------------------------------------------


class TestEventCodec:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=event_kind)
    def test_round_trip(self, event):
        assert decode_event(encode_event(event)) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_event({"kind": "martians_landed"})

    def test_fold_places(self):
        places = [Place(1, Point(0.1, 0.1), 2), Place(2, Point(0.2, 0.2), 1)]
        folded = fold_places(
            places,
            [
                PlaceAdded(Place(3, Point(0.3, 0.3), 5)),
                PlaceRemoved(1),
                PlaceReweighted(2, 8),
                KChanged(4),  # non-place events fold to nothing
            ],
        )
        assert [(p.place_id, p.required_protection) for p in folded] == [
            (2, 8),
            (3, 5),
        ]

    def test_fold_rejects_invalid_sequences(self):
        places = [Place(1, Point(0.1, 0.1), 2)]
        with pytest.raises(ValueError):
            fold_places(places, [PlaceAdded(Place(1, Point(0.5, 0.5), 0))])
        with pytest.raises(ValueError):
            fold_places(places, [PlaceRemoved(99)])
        with pytest.raises(ValueError):
            fold_places(places, [PlaceReweighted(99, 1)])


# -- incremental vs rebuild vs fresh equivalence ------------------------


class TestEquivalence:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("shards", [0, 1, 4])
    def test_event_mix_matches_fresh_monitor(self, scheme, shards):
        """The same event mix, applied incrementally and by rebuilds,
        keeps the answer equal to the oracle's over the post-event world
        after every step."""
        stream = walk(48)
        plan = generate_control_plan(
            MODEL_PLACES,
            stream_length=len(stream),
            n_events=6,
            seed=14,
            k_range=(0, 12),
            granularity_range=(3, 12),
            shard_counts=(2, 6) if shards else (),
        )
        items = list(interleave(stream, plan))
        for mode in ("incremental", "rebuild"):
            machine = run_script(scheme, 0, shards, items, mode)
            assert machine.session.monitor.epoch == len(plan)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 8),
        scheme=st.sampled_from(sorted(SCHEMES)),
        shards=st.sampled_from([0, 1, 4]),
        n_events=st.integers(1, 5),
    )
    def test_random_interleavings(self, seed, k, scheme, shards, n_events):
        stream = walk(30, seed=seed)
        plan = generate_control_plan(
            MODEL_PLACES,
            stream_length=len(stream),
            n_events=n_events,
            seed=seed + 3,
            k_range=(0, 10),
            granularity_range=(2, 10),
            shard_counts=(2, 3) if shards else (),
        )
        run_script(scheme, 0, shards, [KChanged(k), *interleave(stream, plan)])

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("shards", [0, 4])
    def test_control_is_ledger_neutral(self, scheme, shards):
        config, places, units = small_world(200, 21, 10, k=5, granularity=8)
        monitor = build(scheme, config, places, units, shards)
        for update in record_stream(
            RandomWalkMobility(units, step=0.04, seed=23), 20
        ):
            monitor.process(update)
        if shards:
            counters = monitor.merged_counters()
            io = monitor.merged_io()
        else:
            counters = monitor.counters.snapshot()
            io = monitor.store.io_stats.snapshot()
        events = [
            PlaceAdded(Place(9001, Point(0.42, 0.42), 3)),
            PlaceReweighted(9001, 6),
            KChanged(8),
            GridRetuned(5),
            PlaceRemoved(9001),
        ]
        for event in events:
            report = monitor.apply_control(event)
            assert isinstance(report, EpochReport)
            if shards:
                assert monitor.merged_counters() == counters
                assert monitor.merged_io() == io
            else:
                assert monitor.counters == counters
                assert monitor.store.io_stats == io
        assert monitor.epoch == len(events)

    def test_epoch_report_receipt(self):
        monitor = build("basic", *small_world(150, 31))
        report = monitor.apply_control(
            PlaceAdded(Place(9001, Point(0.3, 0.3), 2))
        )
        assert report.epoch == 1
        assert report.kind == "place_added"
        assert report.rebuilt is False
        assert report.seconds >= 0.0
        assert report.sk == monitor.sk()
        forced = monitor.apply_control(PlaceRemoved(9001), mode="rebuild")
        assert forced.rebuilt is True
        assert forced.epoch == 2

    def test_grid_retune_always_rebuilds(self):
        monitor = build("opt", *small_world(150, 33))
        report = monitor.apply_control(GridRetuned(9))
        assert report.rebuilt is True
        assert monitor.grid.nx == 9
        assert monitor.config.granularity == 9

    def test_reshard_on_plain_monitor_rejected(self):
        monitor = build("opt", *small_world(100, 35, 6))
        with pytest.raises(ValueError):
            monitor.apply_control(ShardPlanChanged(4))

    def test_invalid_mode_rejected(self):
        monitor = build("basic", *small_world(50, 37, 4))
        with pytest.raises(ValueError):
            monitor.apply_control(KChanged(3), mode="yolo")

    def test_incremental_place_adds_do_a_fifth_of_the_rebuild_work(self):
        """24 ``PlaceAdded`` on a warmed OptCTUP: same answer, and the
        incremental path's work counters stay under a fifth of what
        per-event rebuilds spend."""
        workload = build_workload(
            n_units=200, n_places=2_000, stream_length=30, seed=7
        )
        config = CTUPConfig(k=5)
        rng = random.Random(7 * 31 + 9)
        base = max(p.place_id for p in workload.places) + 1
        adds = [
            Place(
                base + i,
                Point(rng.random() * 0.999, rng.random() * 0.999),
                rng.randint(1, 5),
            )
            for i in range(24)
        ]
        answers, work, rebuilds = {}, {}, {}
        for mode in ("incremental", "rebuild"):
            monitor = build("opt", config, workload.places, workload.units)
            for update in workload.stream:
                monitor.process(update)
            reports = [
                monitor.apply_control(PlaceAdded(p), mode=mode) for p in adds
            ]
            assert monitor.epoch == len(adds)
            answers[mode] = answer(monitor)
            work[mode] = sum(
                r.cells_accessed + r.places_loaded + r.page_reads
                for r in reports
            )
            rebuilds[mode] = sum(r.rebuilt for r in reports)
        assert answers["incremental"] == answers["rebuild"]
        assert rebuilds == {"incremental": 0, "rebuild": len(adds)}
        assert 5 * work["incremental"] <= work["rebuild"]


# -- online resharding --------------------------------------------------


class TestResharding:
    @pytest.mark.parametrize("scheme", ["basic", "opt"])
    def test_migration_is_online(self, scheme):
        """basic/opt migrate per-cell state without a rebuild."""
        config, places, units = small_world(300, 41, 10, k=5, granularity=8)
        monitor = build(scheme, config, places, units, shards=2)
        for update in record_stream(
            RandomWalkMobility(units, step=0.04, seed=43), 25
        ):
            monitor.process(update)
        before = answer(monitor)
        report = monitor.apply_control(ShardPlanChanged(5))
        assert report.rebuilt is False
        assert monitor.plan.n_shards == 5
        assert answer(monitor) == before
        fresh = build(scheme, config, places, units, shards=5)
        for update in record_stream(
            RandomWalkMobility(units, step=0.04, seed=43), 25
        ):
            fresh.process(update)
        assert answer(monitor) == answer(fresh)

    @pytest.mark.parametrize("scheme", ["naive", "incremental"])
    def test_migration_falls_back_to_rebuild(self, scheme):
        monitor = build(scheme, *small_world(200, 44, k=5, granularity=8), shards=2)
        before = answer(monitor)
        report = monitor.apply_control(ShardPlanChanged(4))
        assert report.rebuilt is True
        assert monitor.plan.n_shards == 4
        assert answer(monitor) == before


# -- sessions: journaling, replay, recovery -----------------------------


#: catalog, k and grid events at stream positions 8, 16, 24 and 32.
SESSION_PLAN = ControlPlan(
    (
        (8, PlaceAdded(Place(9001, Point(0.35, 0.65), 4, kind="pop-up"))),
        (16, KChanged(7)),
        (24, PlaceReweighted(MODEL_PLACES[5].place_id, 7)),
        (32, PlaceRemoved(MODEL_PLACES[9].place_id)),
    )
)
SESSION_ITEMS = list(interleave(walk(40, seed=51), SESSION_PLAN))
crash_and_resume = SessionModel.crash_and_resume


class TestSessionControl:
    def test_events_are_journaled_and_replayed(self):
        def journaled_in_order(machine):
            controls = [r for r in machine.session.journal.records() if r.is_control]
            assert [r.control["kind"] for r in controls] == [
                event_kind(event) for _, event in SESSION_PLAN
            ]

        machine = run_script(
            "opt", 0, 0, [*SESSION_ITEMS, journaled_in_order, crash_and_resume]
        )
        assert machine.session.monitor.epoch == len(SESSION_PLAN)

    @pytest.mark.parametrize("kill_after", [9, 17, 33])
    def test_kill_points_across_epoch_boundaries(self, kill_after):
        """Crash right after an event (or between them) and recover."""
        machine = run_script(
            "opt",
            0,
            0,
            [*SESSION_ITEMS[:kill_after], crash_and_resume, *SESSION_ITEMS[kill_after:]],
        )
        # the catalog recovered too: the added place is in, removed out.
        store = machine.session.monitor.store
        assert store.has_place(9001)
        assert not store.has_place(MODEL_PLACES[9].place_id)

    def test_sharded_reshard_recovers_plan(self):
        stream = walk(30, seed=58)
        machine = run_script(
            "basic", 0, 2, [*stream[:15], ShardPlanChanged(5), *stream[15:], crash_and_resume]
        )
        assert machine.session.monitor.plan.n_shards == 5
        assert machine.session.monitor.epoch == 1

    def test_close_leaves_recoverable_tail(self, tmp_path):
        """close() fsyncs the journal even when no snapshot is due."""
        config, places, units = small_world(120, 61)
        stream = record_stream(
            RandomWalkMobility(units, step=0.05, seed=63), 20
        )
        policy = CheckpointPolicy(
            directory=tmp_path / "tail", every_batches=0, on_close=False
        )
        monitor = build("opt", config, places, units)
        session = MonitorSession(monitor, checkpoint=policy)
        session.start()
        for update in stream[:10]:
            session.feed(update)
        session.apply_control(KChanged(6))
        for update in stream[10:]:
            session.feed(update)
        want = answer(session.monitor)
        session.close()  # no snapshot written (on_close=False) — tail only

        # every record must already be durable on disk.
        journal_lines = [
            line
            for line in (tmp_path / "tail" / "journal.jsonl")
            .read_text()
            .splitlines()
            if line.strip()
        ]
        assert len(journal_lines) == len(stream) + 1

        manager = RecoveryManager(policy, places=places, units=units)
        assert manager.latest_document() is None  # no snapshot: tail-only
        resumed = manager.resume_session(
            fresh_monitor=lambda: make_monitor(
                "opt", places=places, units=units, config=config
            )
        )
        assert answer(resumed.monitor) == want
        assert resumed.monitor.epoch == 1
        assert resumed.monitor.config.k == 6
        resumed.close()

    def test_control_spec_sets_default_mode(self):
        config, places, units = small_world(80, 64, 6)
        session = open_session(
            "basic",
            places=places,
            units=units,
            config=config,
            control=ControlSpec(mode="rebuild"),
        )
        report = session.apply_control(KChanged(2))
        assert report.rebuilt is True
        shorthand = open_session(
            "basic", places=places, units=units, config=config,
            control="rebuild",
        )
        assert shorthand.control_mode == "rebuild"
        with pytest.raises(ValueError):
            ControlSpec(mode="yolo")
        with pytest.raises(TypeError):
            open_session(
                "basic", places=places, units=units, config=config,
                control=42,
            )

    def test_snapshot_envelope_carries_epoch(self, tmp_path):
        config, places, units = small_world(80, 68, 6)
        session = open_session(
            "opt",
            places=places,
            units=units,
            config=config,
            durability=str(tmp_path / "ckpt"),
        )
        session.apply_control(KChanged(6))
        session.checkpoint()
        document = CheckpointStore(tmp_path / "ckpt").latest()
        assert document["epoch"] == 1
        assert document["state"]["epoch"] == 1
        session.close()


class TestControlRejected:
    """Control events that, once journaled, used to fail every later
    resume of the directory. Each is applied at stream position 10,
    must raise and change nothing, in the session or on disk, and the
    run then resumes exactly."""

    @pytest.mark.parametrize("kind", BAD_EVENTS)
    def test_rejected_before_journaling_then_resume_is_exact(self, kind):
        updates = walk(20)

        def control_bad(machine):
            machine.control_bad(kind)

        run_script(
            "opt", 0, 0, [*updates[:10], control_bad, *updates[10:], crash_and_resume]
        )


class TestJournalControlRecords:
    def test_append_and_decode(self, tmp_path):
        journal = UpdateJournal(tmp_path / "journal.jsonl")
        payload = encode_event(KChanged(9))
        payload["mode"] = "rebuild"
        seq = journal.append_control(payload)
        journal.close()
        reopened = UpdateJournal(tmp_path / "journal.jsonl")
        records = list(reopened.records())
        reopened.close()
        assert [r.seq for r in records] == [seq]
        assert records[0].is_control
        restored = dict(records[0].control)
        assert restored.pop("mode") == "rebuild"
        assert decode_event(restored) == KChanged(9)

    def test_sync_is_idempotent(self, tmp_path):
        journal = UpdateJournal(tmp_path / "journal.jsonl")
        journal.append_control(encode_event(KChanged(1)))
        journal.sync()
        journal.sync()
        journal.close()
        journal.sync()  # safe after close


# -- observability ------------------------------------------------------


class TestControlObservability:
    def test_epoch_gauge_and_event_counter(self):
        from repro.obs import ObsSpec

        config, places, units = small_world(80, 71, 6)
        session = open_session(
            "opt",
            places=places,
            units=units,
            config=config,
            obs=ObsSpec(metrics=True, trace=True),
        )
        session.apply_control(KChanged(6))
        session.apply_control(PlaceAdded(Place(9001, Point(0.4, 0.4), 2)))
        registry = session.observability.registry
        assert registry.value("ctup_epoch", scheme="opt") == 2.0
        assert (
            registry.value("ctup_control_events_total", kind="k_changed")
            == 1.0
        )
        spans = [
            span
            for span in session.observability.tracer.spans()
            if span.name == "control.apply"
        ]
        assert len(spans) == 2
        session.close()
