"""The universal state layer: snapshots, the journal, crash recovery.

The headline guarantee under test: for **every** registered scheme (and
the sharded wrapper), killing a checkpointed run at an arbitrary batch
boundary and resuming from the directory produces a monitor that is
*bit-identical* to the uninterrupted run — same top-k (ids and
safeties), same SK, same work counters, same I/O accounting. The session model
(:mod:`tests.machine`, run by ``tests/test_machine.py``) crashes every
scheme, burst size and shard count at arbitrary points, and rejects bad
input before it is journaled; the session tests here run as scripts
over it, whose every crash compares the resumed twin with the live
session.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES, DurabilitySpec, open_session
from repro.control.events import (
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
    encode_event,
)
from repro.core import CTUPConfig, CTUPMonitor
from repro.ext import DecayCTUP, ThresholdCTUP
from repro.geometry import Point, Rect
from repro.grid import GridPartition
from repro.model import LocationUpdate, Place
from repro.state import (
    CheckpointPolicy,
    CheckpointStore,
    JournalCorrupted,
    SnapshotError,
    UpdateJournal,
    fingerprint_places,
    restore_monitor,
    snapshot_monitor,
)
from repro.state import journal as journal_module
from repro.state.codec import decode_config, encode_config
from repro.storage import PlaceStore
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)
from tests.conftest import state_fingerprint
from tests.machine import CONFIG as MODEL_CONFIG
from tests.machine import PLACES as MODEL_PLACES
from tests.machine import SessionModel, run_script, walk

CONFIG = CTUPConfig(k=5, delta=3, protection_range=0.1, granularity=8)
PLACES = generate_places(400, seed=21)
STREAM = record_stream(
    RandomWalkMobility(
        generate_units(24, CONFIG.protection_range, seed=22),
        step=0.03,
        seed=23,
    ),
    80,
)
BATCH = 8
crash_and_resume = SessionModel.crash_and_resume


def make_units():
    """Fresh unit objects at their initial (pre-stream) positions."""
    return generate_units(24, CONFIG.protection_range, seed=22)


def session(durability=None, *, scheme="opt", units=None, batch_size=BATCH):
    """A session over ``PLACES``, started unless it resumed started."""
    opened = open_session(
        scheme,
        places=PLACES,
        units=units if units is not None else make_units(),
        config=CONFIG,
        batch_size=batch_size,
        durability=durability,
    )
    if not opened.started:
        opened.start()
    return opened


def straight(updates, **kwargs):
    """The uninterrupted run's fingerprint (no checkpointing at all)."""
    run = session(**kwargs)
    run.run(updates)
    return state_fingerprint(run.monitor, run)


# -- the headline guarantee ---------------------------------------------


class TestCrashRecovery:
    def test_mid_batch_kill_replays_the_pending_tail(self):
        # 21 is not a batch boundary: three journaled-but-unflushed
        # updates must come back as the resumed session's pending burst.
        updates = walk(32)
        run_script("opt", BATCH, 4, [*updates[:21], crash_and_resume, *updates[21:]])

    def test_journal_only_resume_needs_no_snapshot(self, tmp_path):
        # every=0 and no close: the crash leaves a journal but zero
        # snapshots — recovery replays from scratch.
        live = session(DurabilitySpec(tmp_path), scheme="basic")
        for update in STREAM.updates[:24]:
            live.feed(update)
        live.journal.close()
        assert not CheckpointStore(tmp_path).snapshot_paths()
        resumed = session(DurabilitySpec(tmp_path, resume=True), scheme="basic")
        assert state_fingerprint(resumed.monitor, resumed) == straight(
            STREAM.updates[:24], scheme="basic"
        )

    def test_fresh_start_wipes_the_directory(self, tmp_path):
        old = session(DurabilitySpec(tmp_path, every=1), scheme="naive")
        for update in STREAM.updates[:16]:
            old.feed(update)
        old.journal.close()
        assert CheckpointStore(tmp_path).snapshot_paths()
        fresh = session(DurabilitySpec(tmp_path), scheme="naive")
        assert not CheckpointStore(tmp_path).snapshot_paths()
        fresh.feed(STREAM.updates[0])
        assert fresh.journal.last_seq == 1  # seq restarted: old run gone

    def test_close_writes_a_closing_snapshot(self, tmp_path):
        with session(DurabilitySpec(tmp_path)) as live:
            for update in STREAM.updates[:10]:
                live.feed(update)
        document = CheckpointStore(tmp_path).latest()
        assert document is not None
        assert document["session"]["updates_processed"] == 10


# -- positions outside the monitored space ------------------------------


class TestOutOfSpacePositions:
    """A position outside ``CTUPConfig.space`` is accepted and handled
    exactly: no clamp, no rejection. A unit out there protects no place,
    and the answer matches the oracle while it is away and after it
    returns, across a crash and resume too."""

    @pytest.mark.parametrize("shards", [0, 4], ids=["plain", "s4"])
    @pytest.mark.parametrize("batch_size", [0, BATCH], ids=["single", "batch"])
    def test_excursion_is_oracle_exact_and_resumes(self, shards, batch_size):
        # one unit goes to (5, 5), far outside the unit square, and
        # straight back, inside one burst (stream positions 16..23); the
        # run dies while the unit is away.
        updates = walk(40)
        mover = updates[17]
        away = Point(5.0, 5.0)
        updates[17:17] = [
            LocationUpdate(mover.unit_id, mover.old_location, away, mover.timestamp),
            LocationUpdate(mover.unit_id, away, mover.old_location, mover.timestamp),
        ]
        run_script(
            "opt", batch_size, shards, [*updates[:18], crash_and_resume, *updates[18:]]
        )


# -- resume after catalog edits and damaged journals ---------------------

#: cells of 16 places on average, four pages each.
PAGED = dataclasses.replace(MODEL_CONFIG, granularity=3, page_capacity=4)
#: 30 removals spread over the model's catalog.
REMOVALS = [PlaceRemoved(p.place_id) for p in MODEL_PLACES[::5]]
checkpoint = SessionModel.checkpoint
flush = SessionModel.flush


class TestResumeAfterCatalogEdits:
    """A restore lays the folded catalog out exactly as the live store
    is laid out after its edits, so the I/O counters and the buffer
    frames of a resumed twin are those of the live run. The 30 updates
    after the checkpoint go as one burst, so that no periodic snapshot
    comes between the checkpoint and the crash: the resume replays them
    all on the restored layout."""

    STEPS = [*REMOVALS, checkpoint, *walk(30), flush, crash_and_resume]

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_removals_resume_with_identical_io(self, scheme):
        run_script(scheme, 32, 0, self.STEPS, config=PAGED)

    def test_buffer_frames_restore_after_removals(self):
        run_script(
            "incremental",
            32,
            0,
            self.STEPS,
            config=dataclasses.replace(PAGED, buffer_pages=6),
        )


class TestResumeAfterDamagedTail:
    def test_covered_last_record_keeps_the_next_seq_fresh(self):
        """Snapshot 3 covers update 3; its damaged line is dropped as a
        torn tail. The next update must not reuse seq 3, or the resume
        after it starts from snapshot 3 and loses the update."""
        updates = walk(4)

        def damage_last(machine):
            assert machine.snapshot_seq() == 3
            machine.damage_journal(2, 0)
            assert machine.session.applied_seq == 3

        machine = run_script(
            "opt", 0, 0, [*updates[:3], damage_last, updates[3], crash_and_resume]
        )
        assert machine.session.updates_processed == 4


class TestOpenSessionValidation:
    def test_resume_rejects_an_adopted_monitor(self, tmp_path):
        monitor = SCHEMES["opt"](CONFIG, PLACES, make_units())
        with pytest.raises(ValueError, match="own monitor"):
            open_session(
                monitor=monitor,
                durability=DurabilitySpec(tmp_path, resume=True),
            )

    def test_resume_requires_places_and_units(self, tmp_path):
        with pytest.raises(ValueError, match="places"):
            open_session(
                "opt", durability=DurabilitySpec(tmp_path, resume=True)
            )

    def test_durability_refuses_an_initialized_monitor(self, tmp_path):
        """A monitor that has moved before the session opens holds moves
        no journal records: a journal starting at seq 1 over it would
        make a directory that no resume can replay. The refusal comes
        before the fresh start wipes the directory of an earlier run."""
        with session(DurabilitySpec(tmp_path, every=1)) as earlier:
            earlier.run(STREAM.updates[:16])
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monitor = SCHEMES["opt"](CONFIG, PLACES, make_units())
        monitor.initialize()
        for update in STREAM.updates[:20]:
            monitor.process(update)
        with pytest.raises(ValueError, match="not initialized"):
            open_session(monitor=monitor, durability=DurabilitySpec(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


# -- OptCTUP's AP caches across a crash ---------------------------------

#: a fleet large enough for cached AP columns to outlive several moves
#: near their cell (about 40 units reach each cell).
CACHE_UNITS = 400
CACHE_STREAM = record_stream(
    RandomWalkMobility(
        generate_units(CACHE_UNITS, CONFIG.protection_range, seed=31),
        step=0.03,
        seed=32,
    ),
    96,
)
CACHE_SCHEMES = {
    "opt": "opt",
    "threshold": lambda c, p, u: ThresholdCTUP(c, p, u, tau=4.0),
}


def cache_session(scheme, batch_size, durability=None):
    return session(
        durability,
        scheme=CACHE_SCHEMES[scheme],
        units=generate_units(CACHE_UNITS, CONFIG.protection_range, seed=31),
        batch_size=batch_size,
    )


def full_state(session):
    """``state_fingerprint`` plus the unit-index stats."""
    data = state_fingerprint(session.monitor, session)
    stats = session.monitor.units.stats
    data["unit_stats"] = (
        stats.queries,
        stats.candidate_units,
        stats.reachable_units,
        stats.coalesced_updates,
    )
    return data


def cache_straight(scheme, batch_size):
    live = cache_session(scheme, batch_size)
    live.run(CACHE_STREAM.updates)
    return full_state(live)


@pytest.mark.parametrize("scheme", sorted(CACHE_SCHEMES))
@pytest.mark.parametrize("batch_size", [0, BATCH], ids=["single", "batch"])
class TestResumeWithPendingCaches:
    def test_crash_with_recorded_moves_resumes_bit_identical(
        self, tmp_path, scheme, batch_size
    ):
        live = cache_session(
            scheme, batch_size, DurabilitySpec(tmp_path, every=3)
        )
        for update in CACHE_STREAM.updates[:61]:
            live.feed(update)
        document = CheckpointStore(tmp_path).latest()
        caches = document["state"]["scheme_state"]["ap_cache"]
        # the snapshot caught cached columns with recorded moves pending.
        assert any(moved for _cell, _room, moved in caches)
        live.journal.close()  # the crash: no flush, no close-snapshot
        resumed = cache_session(
            scheme, batch_size, DurabilitySpec(tmp_path, resume=True)
        )
        resumed.run(CACHE_STREAM.updates[61:])
        assert full_state(resumed) == cache_straight(scheme, batch_size)

    def test_snapshots_do_not_perturb_the_live_run(
        self, tmp_path, scheme, batch_size
    ):
        live = cache_session(
            scheme, batch_size, DurabilitySpec(tmp_path, every=1)
        )
        live.run(CACHE_STREAM.updates)
        assert full_state(live) == cache_straight(scheme, batch_size)


def test_resume_decodes_each_journal_record_once(tmp_path, monkeypatch):
    """The journal is read once on resume: every record once by the
    opening scan (control events for the place set included), and the
    tail after the snapshot once more for replay."""
    event = PlaceReweighted(PLACES[3].place_id, 5)
    live = session(DurabilitySpec(tmp_path, every=2))
    for update in STREAM.updates[:24]:
        live.feed(update)
    live.apply_control(event)
    for update in STREAM.updates[24:61]:
        live.feed(update)
    records = live.journal.last_seq
    live.journal.close()
    cut = CheckpointStore(tmp_path).latest()["journal_seq"]
    assert 0 < cut < records
    decodes = []
    decode = journal_module._decode

    def counting(raw):
        decodes.append(raw)
        return decode(raw)

    monkeypatch.setattr(journal_module, "_decode", counting)
    resumed = session(DurabilitySpec(tmp_path, resume=True))
    assert len(decodes) <= records + (records - cut)
    monkeypatch.undo()
    resumed.run(STREAM.updates[61:])
    twin = session()
    for update in STREAM.updates[:24]:
        twin.feed(update)
    twin.apply_control(event)
    twin.run(STREAM.updates[24:])
    assert state_fingerprint(resumed.monitor, resumed) == state_fingerprint(
        twin.monitor, twin
    )


# -- the snapshot protocol ----------------------------------------------


def _ext_factories():
    return {
        "threshold": lambda c, p, u: ThresholdCTUP(c, p, u, tau=-5.0),
        "decay": DecayCTUP,
    }


class TestSnapshottable:
    def test_every_scheme_satisfies_the_protocol(self):
        from repro.shard.monitor import ShardedMonitor

        units = make_units()
        monitors = [
            factory(CONFIG, PLACES, units)
            for factory in (*SCHEMES.values(), *_ext_factories().values())
        ] + [ShardedMonitor(CONFIG, PLACES, units, shards=2)]
        for monitor in monitors:
            assert isinstance(monitor, CTUPMonitor), type(monitor)
            assert "counters" in monitor.state_fields()

    @pytest.mark.parametrize("name", sorted(_ext_factories()))
    def test_ext_schemes_roundtrip_via_factory(self, name):
        factory = _ext_factories()[name]
        monitor = factory(CONFIG, PLACES, make_units())
        monitor.initialize()
        for update in STREAM.prefix(40):
            monitor.process(update)
        document = json.loads(json.dumps(snapshot_monitor(monitor)))
        restored = restore_monitor(
            document, places=PLACES, units=make_units(), factory=factory
        )
        assert state_fingerprint(restored) == state_fingerprint(monitor)

    def test_restore_against_wrong_places_rejected(self):
        monitor = SCHEMES["opt"](CONFIG, PLACES, make_units())
        monitor.initialize()
        document = snapshot_monitor(monitor)
        # the same locations with every requirement 3 higher: without
        # the fingerprint this restores silently wrong safeties.
        reweighted = [
            dataclasses.replace(
                p, required_protection=p.required_protection + 3
            )
            for p in PLACES
        ]
        cases = [
            (document, generate_places(400, seed=999), "place set"),
            (document, reweighted, "place set"),
        ] + [
            (
                {k: v for k, v in document.items() if k != field},
                reweighted,
                "no place fingerprint",
            )
            for field in ("places_fingerprint", "fingerprint_version")
        ]
        for doc, places, message in cases:
            with pytest.raises(SnapshotError, match=message):
                restore_monitor(doc, places=places, units=make_units())

    @pytest.mark.parametrize("scheme", ["naive", "incremental"])
    def test_rows_off_the_store_layout_rejected(self, scheme):
        """Full-table rows laid out another way (a 3.0.0 checkpoint
        written after a catalog edit) would put each safety on the wrong
        place; the restore refuses them."""
        monitor = SCHEMES[scheme](CONFIG, PLACES, make_units())
        monitor.initialize()
        document = snapshot_monitor(monitor)
        rows = document["state"]["scheme_state"]
        for column in ("ids", "safety"):
            rows[column][:2] = rows[column][1::-1]
        with pytest.raises(SnapshotError, match="place-id layout"):
            restore_monitor(document, places=PLACES, units=make_units())

    def test_unknown_format_rejected(self):
        monitor = SCHEMES["opt"](CONFIG, PLACES, make_units())
        monitor.initialize()
        document = dict(snapshot_monitor(monitor), format=99)
        with pytest.raises(SnapshotError, match="format"):
            restore_monitor(document, places=PLACES, units=make_units())


# -- the journal --------------------------------------------------------


def _flip_digit(data: bytes, start: int) -> bytes:
    """``data`` with one digit of the first update record at or after
    ``start`` changed, so that its JSON still parses."""
    at = data.index(b'"new": [0.', start) + len(b'"new": [0.')
    digit = b"8" if data[at : at + 1] == b"9" else b"9"
    return data[:at] + digit + data[at + 1 :]


class TestJournal:
    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with UpdateJournal(path) as journal:
            journal.append_update(STREAM.updates[0], batched=False)
            journal.append_update(STREAM.updates[1], batched=True)
            assert journal.append_flush() == 3
        with UpdateJournal(path) as journal:
            assert journal.last_seq == 3
            assert journal.append_flush() == 4

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with UpdateJournal(path) as journal:
            journal.append_update(STREAM.updates[0], batched=False)
            journal.append_update(STREAM.updates[1], batched=False)
        with open(path, "a") as handle:
            handle.write('{"q": 3, "op": "u", "u"')  # the torn write
        with UpdateJournal(path) as journal:
            records = list(journal.records())
            assert [r.seq for r in records] == [1, 2]
            assert journal.append_flush() == 3

    def test_tail_filters_already_applied_records(self, tmp_path):
        with UpdateJournal(tmp_path / "journal.jsonl") as journal:
            for update in STREAM.prefix(5):
                journal.append_update(update, batched=False)
            tail = list(journal.tail(3))
            assert [r.seq for r in tail] == [4, 5]

    def _journal_of(self, path, n):
        with UpdateJournal(path) as journal:
            for update in STREAM.prefix(n):
                journal.append_update(update, batched=False)
        return path.read_bytes()

    def test_byte_flipped_mid_journal_raises_and_leaves_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        intact = self._journal_of(path, 5)
        second = intact.index(b"\n") + 1
        at = intact.index(b'"op"', second) + 1
        damaged = intact[:at] + b"x" + intact[at + 1 :]  # "op" -> "xp"
        path.write_bytes(damaged)
        with pytest.raises(JournalCorrupted) as raised:
            UpdateJournal(path)
        assert isinstance(raised.value, ValueError)
        assert (raised.value.seq, raised.value.offset) == (2, second)
        assert path.read_bytes() == damaged

    def test_flipped_digit_that_still_parses_is_caught(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        intact = self._journal_of(path, 5)
        third = intact.index(b"\n", intact.index(b"\n") + 1) + 1
        damaged = _flip_digit(intact, third)
        line = damaged.splitlines()[2]
        json.loads(line[line.index(b"{") :])  # the damaged record still parses
        path.write_bytes(damaged)
        with pytest.raises(JournalCorrupted) as raised:
            UpdateJournal(path)
        assert (raised.value.seq, raised.value.offset) == (3, third)
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("damage", ["partial", "flipped-digit"])
    def test_damaged_last_line_is_a_torn_tail(self, tmp_path, damage):
        # the crash leaves 21 updates journaled; the last record (stream
        # position 20, a buffered update) is torn, so the resume feeds
        # that update again.
        live = session(DurabilitySpec(tmp_path, every=2))
        for update in STREAM.updates[:21]:
            live.feed(update)
        live.journal.close()
        path = live.journal.path
        intact = path.read_bytes()
        last = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        if damage == "partial":
            path.write_bytes(intact[: len(intact) - 7])
        else:
            path.write_bytes(_flip_digit(intact, last))
        resumed = session(DurabilitySpec(tmp_path, resume=True))
        assert path.read_bytes() == intact[:last]
        assert resumed.journal.last_seq == intact.count(b"\n") - 1
        resumed.run(STREAM.updates[20:])
        assert state_fingerprint(resumed.monitor, resumed) == straight(STREAM.updates)

    @settings(max_examples=300, deadline=None)
    @given(
        seq=st.integers(1, 2**40),
        batched=st.booleans(),
        unit_id=st.integers(0, 2**31),
        # finite floats mostly; NaN, infinities and ints take the
        # encoder's json.dumps branch and must match it as well.
        coords=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0])
            | st.floats()
            | st.integers(-5, 5),
            min_size=4,
            max_size=4,
        ),
        timestamp=st.integers(-(2**62), 2**62)
        | st.floats()
        | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    )
    def test_update_lines_match_json_dumps(
        self, seq, batched, unit_id, coords, timestamp
    ):
        # the lines the encoder wrote when it built a dict per record
        update = LocationUpdate(
            unit_id, Point(*coords[:2]), Point(*coords[2:]), timestamp
        )
        op = "b" if batched else "u"
        body = json.dumps(
            {
                "q": seq,
                "op": op,
                "u": unit_id,
                "old": coords[:2],
                "new": coords[2:],
                "t": timestamp,
            }
        )
        expected = f"{zlib.crc32(body.encode('ascii')):08x} {body}\n"
        assert journal_module._encode(seq, op, update) == expected.encode("ascii")

    def test_update_payload_roundtrips_exactly(self, tmp_path):
        original = STREAM.updates[0]
        with UpdateJournal(tmp_path / "journal.jsonl") as journal:
            journal.append_update(original, batched=False)
            record = next(iter(journal.records()))
        assert record.update.unit_id == original.unit_id
        assert record.update.old_location == original.old_location
        assert record.update.new_location == original.new_location
        assert record.update.timestamp == original.timestamp


DATA = Path(__file__).parent / "data"


def records_of_3_0_0():
    """The records ``data/journal-3.0.0.jsonl`` holds, as repro 3.0.0's
    journal wrote them: the ``%``-format case, and the ``json.dumps``
    case for a NaN and an infinite timestamp, numpy-float coordinates
    and out-of-int64 ids; flush markers and control events."""
    U = LocationUpdate
    return [
        ("u", U(3, Point(0.25, 0.5), Point(0.3, 0.55), 1)),
        ("u", U(4, Point(1 / 3, 2 / 3), Point(0.1, 1e-300), 2.5)),
        ("u", U(5, Point(-0.0, 0.0), Point(1.0, 1.0), math.nan)),
        (
            "u",
            U(6, Point(np.float64(0.125), 0.5), Point(0.5, np.float64(0.7)), 3),
        ),
        ("b", U(7, Point(0.9, 0.1), Point(0.8, 0.2), math.inf)),
        ("b", U(2**40, Point(0.5, 0.5), Point(0.5, 0.5), -(2**62))),
        ("f", None),
        ("c", encode_event(PlaceAdded(Place(900, Point(0.5, 0.25), 3)))),
        ("c", encode_event(PlaceReweighted(900, 5))),
        ("b", U(8, Point(0.2, 0.2), Point(0.21, 0.19), 7.75)),
        ("f", None),
    ]


def write_records(journal, records) -> None:
    for op, item in records:
        if op == "f":
            journal.append_flush()
        elif op == "c":
            journal.append_control(item)
        else:
            journal.append_update(item, batched=op == "b")


class TestJournalBytes:
    """The journal writes 3.0.0's bytes: one write and one fsync per
    record, and no byte lost to a short write."""

    def test_file_equals_the_3_0_0_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with UpdateJournal(path) as journal:
            write_records(journal, records_of_3_0_0())
        assert path.read_bytes() == (DATA / "journal-3.0.0.jsonl").read_bytes()

    def test_one_write_then_one_fsync_per_record(self, tmp_path, monkeypatch):
        calls: list[str] = []

        class Recorded:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                calls.append("write")
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync"))
        records = records_of_3_0_0()
        with UpdateJournal(tmp_path / "journal.jsonl") as journal:
            journal._file = Recorded(journal._file)
            write_records(journal, records)
        assert calls == ["write", "fsync"] * len(records)

    def test_short_writes_lose_no_bytes(self, tmp_path):
        class Short:
            """A handle that takes at most five bytes per write."""

            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                return self.raw.write(bytes(data[:5]))

            def __getattr__(self, name):
                return getattr(self.raw, name)

        path = tmp_path / "journal.jsonl"
        with UpdateJournal(path) as journal:
            journal._file = Short(journal._file)
            write_records(journal, records_of_3_0_0())
        assert path.read_bytes() == (DATA / "journal-3.0.0.jsonl").read_bytes()
        with UpdateJournal(path) as journal:
            assert journal.last_seq == len(records_of_3_0_0())


class TestResumeFrom3_0_0:
    """``data/checkpoint-3.0.0`` was written by repro 3.0.0: an opt
    session in bursts of 8, snapshots every 4 bursts, killed after
    :attr:`CRASH` updates (no flush, no closing snapshot)."""

    CONFIG = CTUPConfig(k=6)
    CRASH = 100

    def inputs(self):
        places = generate_places(300, seed=41)
        units = generate_units(12, self.CONFIG.protection_range, seed=42)
        stream = record_stream(RandomWalkMobility(units, seed=43), 120)
        return places, units, stream.updates

    def session(self, directory=None):
        places, units, _ = self.inputs()
        return open_session(
            "opt",
            places=places,
            units=units,
            config=self.CONFIG,
            durability=(
                DurabilitySpec(directory, every=4, resume=True)
                if directory is not None
                else None
            ),
            batch_size=8,
        )

    def test_resumes_equal_to_the_uninterrupted_run(self, tmp_path):
        directory = tmp_path / "checkpoint"
        shutil.copytree(DATA / "checkpoint-3.0.0", directory)
        updates = self.inputs()[2]
        resumed = self.session(directory)
        for update in updates[self.CRASH :]:
            resumed.feed(update)
        resumed.flush()
        straight = self.session()
        straight.start()
        for update in updates:
            straight.feed(update)
        straight.flush()
        assert state_fingerprint(resumed.monitor) == state_fingerprint(
            straight.monitor
        )
        resumed.close()
        straight.close()


class TestCheckpointPolicy:
    def test_negative_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPolicy(directory=tmp_path, every_batches=-1)

    def test_empty_directory_has_no_latest(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None


# -- fingerprints -------------------------------------------------------


class TestConfigCodec:
    """``encode_config`` must carry every ``CTUPConfig`` field, so a knob
    added later cannot silently fall back to its default on resume."""

    FIELDS = {f.name for f in dataclasses.fields(CTUPConfig)}

    def test_encodes_exactly_the_config_fields(self):
        assert set(encode_config(CTUPConfig())) == self.FIELDS

    def test_round_trips_a_non_default_config(self):
        config = CTUPConfig(
            k=7,
            delta=2,
            protection_range=0.15,
            granularity=6,
            space=Rect(-1.0, -2.0, 3.0, 4.0),
            use_doo=False,
            page_capacity=16,
            buffer_pages=4,
        )
        default = CTUPConfig()
        assert all(
            getattr(config, name) != getattr(default, name)
            for name in self.FIELDS
        )
        document = json.loads(json.dumps(encode_config(config)))
        assert decode_config(document) == config

    def test_ignores_the_key_of_a_retired_field(self):
        # a snapshot written before a field was deleted still resumes.
        document = {**encode_config(CTUPConfig(k=7)), "retired_knob": True}
        assert decode_config(document) == CTUPConfig(k=7)


class TestFingerprint:
    def test_hashes_exact_float_bits(self):
        first = PLACES[0]
        nudged = dataclasses.replace(
            first,
            location=Point(
                math.nextafter(first.location.x, 2.0), first.location.y
            ),
        )
        assert fingerprint_places(PLACES) != fingerprint_places(
            [nudged, *PLACES[1:]]
        )
        assert fingerprint_places(PLACES) == fingerprint_places(list(PLACES))
        zero = dataclasses.replace(first, location=Point(0.0, 0.5))
        negative_zero = dataclasses.replace(first, location=Point(-0.0, 0.5))
        assert fingerprint_places([zero]) != fingerprint_places([negative_zero])

    def test_store_and_function_agree(self):
        # ids run past 10, where sorting formatted lines and sorting ids
        # order the places differently.
        store = PlaceStore(
            GridPartition(CONFIG.space, CONFIG.granularity, CONFIG.granularity),
            PLACES,
        )
        assert store.fingerprint == fingerprint_places(PLACES)
        assert store.fingerprint == fingerprint_places(reversed(PLACES))

    def test_different_places_differ(self):
        other = generate_places(400, seed=999)
        assert fingerprint_places(PLACES) != fingerprint_places(other)

    def test_unknown_fingerprint_version_rejected(self):
        monitor = SCHEMES["opt"](CONFIG, PLACES, make_units())
        monitor.initialize()
        # version 2 hashed float.hex lines; its snapshots do not restore.
        document = dict(snapshot_monitor(monitor), fingerprint_version=2)
        with pytest.raises(SnapshotError, match="fingerprint"):
            restore_monitor(document, places=PLACES, units=make_units())
