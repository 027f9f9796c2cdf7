"""The control plane: epochs, catalog mutations, live retuning, resharding.

The session model (:mod:`tests.machine`) applies random control events,
and refuses bad ones, for every registered scheme, unsharded and
sharded, checking the answer against the oracle over the post-event
world after every step. The tests here pin what that check cannot see:
control work bills to the :class:`~repro.control.events.EpochReport`
and leaves every work ledger of the data plane untouched, incremental
paths do less work than a rebuild, resharding migrates state online,
and control events are journaled in order with the data updates and
replayed across epoch boundaries. The session tests run as scripts over
the machine, whose every resume must equal the live session.
"""

import json
import random
import zlib

import pytest

from repro.api import SCHEMES, open_session
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
from repro.cli import main
from repro.core import CTUPConfig
from repro.core.audit import audit_monitor
from repro.geometry import Point, Rect
from repro.grid.partition import GridPartition
from repro.model import Place
from repro.state.journal import UpdateJournal
from repro.state.recovery import CheckpointStore
from repro.storage.placestore import PlaceStore
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)
from repro.workloads.control import ControlPlan, interleave
from tests.conftest import build
from tests.machine import CONFIG as MODEL_CONFIG
from tests.machine import PLACES as MODEL_PLACES
from tests.machine import SessionModel, run_script, walk

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
            check_control(self.monitor, event)

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


# -- ledgers, receipts and the rebuild path ------------------------------


class TestEquivalence:
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
        assert report.flushed is None

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

    def test_incremental_place_adds_do_a_fifth_of_the_rebuild_work(self):
        """24 ``PlaceAdded`` on a warmed OptCTUP: the same answer as
        adding each place to the store and rebuilding in place, and the
        incremental path's work counters stay under a fifth of what
        those per-event rebuilds spend."""
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

        def warmed():
            monitor = build("opt", config, workload.places, workload.units)
            for update in workload.stream:
                monitor.process(update)
            return monitor

        def work(counters, io):
            return counters.cells_accessed + counters.places_loaded + io.page_reads

        monitor = warmed()
        reports = [monitor.apply_control(PlaceAdded(p)) for p in adds]
        assert monitor.epoch == len(adds)
        assert not any(r.rebuilt for r in reports)
        incremental = sum(
            r.cells_accessed + r.places_loaded + r.page_reads for r in reports
        )
        rebuilt = warmed()
        spent = 0
        for place in adds:
            counters = rebuilt.counters.snapshot()
            io = rebuilt.store.io_stats.snapshot()
            rebuilt.store.add_place(place)
            rebuilt._rebuild_in_place()
            spent += work(rebuilt.counters - counters, rebuilt.store.io_stats - io)
        assert answer(monitor) == answer(rebuilt)
        assert 5 * incremental <= spent


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

    @pytest.mark.parametrize("scheme", ["basic", "opt"])
    def test_split_shards_load_the_cells_below_their_sk(self, scheme):
        """A shard split into four leaves each new shard fewer places,
        so a higher SK of its own: the dark cells below it must load, or
        the shard's own result misses places."""
        config = MODEL_CONFIG.replace(
            k=4, delta=0, protection_range=0.125, granularity=5, use_doo=False
        )
        units = generate_units(8, config.protection_range, seed=62)
        monitor = build(scheme, config, MODEL_PLACES, units, shards=1)
        monitor.apply_control(ShardPlanChanged(4))
        assert audit_monitor(monitor) == []

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

    def test_grid_without_a_cell_per_shard_is_refused(self):
        """Four shards cannot own the cell of a 1x1 grid. The retune
        used to be journaled before it failed, leaving the live monitor
        half retuned and the directory failing every resume."""

        def retune_to_one_cell(machine):
            machine.refuse(GridRetuned(1))

        run_script("opt", 0, 4, [*walk(10), retune_to_one_cell, crash_and_resume])

    def test_receipt_carries_the_flushed_burst(self):
        """The burst ``apply_control`` flushes comes back on the receipt,
        so reports plus receipts account for every burst applied."""
        config, places, units = small_world(80, 64, 6)
        updates = record_stream(RandomWalkMobility(units, step=0.05, seed=65), 12)
        session = open_session(
            "opt", places=places, units=units, config=config, batch_size=8
        )
        reports = [r for r in map(session.feed, updates) if r is not None]
        receipt = session.apply_control(KChanged(5))
        assert receipt.flushed is not None
        assert receipt.flushed.batch_size == 4
        assert len(reports) + 1 == session.batcher.batches_processed == 2
        assert session.apply_control(KChanged(6)).flushed is None
        session.close()

    def test_a_journal_from_5_0_resumes_exactly(self):
        """Control records written before 6.0 carry a ``"mode"`` key.
        Resuming folds and replays them with the key ignored and lands
        bit for bit on the live session (``state_fingerprint``)."""

        def written_by_5_0(machine):
            before = machine.crash()
            path = machine.session.journal.path
            lines = path.read_bytes().splitlines(keepends=True)
            controls = []
            for i, line in enumerate(lines):
                record = json.loads(line[9:])
                if record["op"] == "c":
                    record["c"]["mode"] = "incremental"
                    body = json.dumps(record).encode("ascii")
                    lines[i] = b"%08x %s\n" % (zlib.crc32(body), body)
                    controls.append(record["q"])
            path.write_bytes(b"".join(lines))
            # the first event is folded below the snapshot, the last replayed.
            assert controls[0] <= machine.snapshot_seq() < controls[-1]
            machine.resume(before)

        last = SESSION_ITEMS.index(SESSION_PLAN.events[2][1]) + 1
        run_script("opt", 0, 0, [*SESSION_ITEMS[:last], written_by_5_0])

    def test_checkpoint_command_lists_control_events(self, capsys):
        def inspect(machine):
            assert main(["checkpoint", str(machine.directory)]) == 0

        run_script("opt", 0, 0, [*SESSION_ITEMS, inspect])
        out = capsys.readouterr().out
        assert "control events: 4 journaled, 0 past the latest snapshot" in out
        for _, event in SESSION_PLAN:
            assert f"'kind': '{event_kind(event)}'" in out

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


class TestJournalControlRecords:
    def test_append_and_decode(self, tmp_path):
        journal = UpdateJournal(tmp_path / "journal.jsonl")
        seq = journal.append_control(encode_event(KChanged(9)))
        journal.close()
        reopened = UpdateJournal(tmp_path / "journal.jsonl")
        records = list(reopened.records())
        reopened.close()
        assert [r.seq for r in records] == [seq]
        assert records[0].is_control
        assert decode_event(records[0].control) == KChanged(9)

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
