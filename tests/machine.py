"""The session model: a state machine over one durable session.

:class:`SessionModel` drives one :class:`~repro.engine.MonitorSession`
with a checkpoint directory the way a deployment does: valid updates,
bad input, flushes, control events, checkpoints, crashes and damaged
journals, in any order. It keeps a model of its own: where each unit
was fed to, which updates the monitor has applied, the place catalog
and ``k``. :meth:`SessionModel.matches_the_oracle` checks the session's
top-k and SK against :class:`~repro.validate.Oracle` built over that
model, and the scheme's own state with :func:`~repro.core.audit.audit_monitor`.
:func:`guard_phases` makes every monitor it opens fail a maintain call
made during its own access phase, which no result check can see when
the call changes nothing. :func:`guard_fields` records the attributes
of every monitor it opens that no ``STATE_FIELDS`` or
``TRANSIENT_FIELDS`` declares, and the invariant fails when one is
rebound or a new one appears: a snapshot would drop it. Every crash
resumes a twin from the directory that must equal the live session bit
for bit: :func:`tests.conftest.state_fingerprint` (result, counters,
I/O), the exported state and the undeclared attribute names.

``tests/test_machine.py`` runs it as a hypothesis state machine for
every scheme, burst size and shard count, each run over a query drawn
from :data:`WORLD`. The named tests elsewhere drive the same steps
through :func:`run_script` over a config they give, with the invariant
checked after each.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, Iterable

import pytest
from hypothesis import reject
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import DurabilitySpec, open_session
from repro.control import (
    GridRetuned,
    KChanged,
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
    ShardPlanChanged,
    decode_event,
)
from repro.core import CTUPConfig
from repro.core.audit import audit_monitor
from repro.core.units import LOCATION_TOLERANCE2
from repro.engine import UpdateRejected
from repro.model import LocationUpdate, Place, Point, Unit
from repro.state import CheckpointStore, JournalCorrupted
from repro.validate import Oracle
from repro.workloads import RandomWalkMobility, generate_places, generate_units, record_stream
from tests.conftest import exported_state, off_the_record, state_fingerprint

CONFIG = CTUPConfig(k=4, delta=2, protection_range=0.15, granularity=5)
PLACES = generate_places(150, seed=61)
FLEET = 8
#: snapshot cadence, in flush boundaries.
EVERY = 3


def fleet(radius: float = CONFIG.protection_range) -> list[Unit]:
    """Fresh unit objects at their initial positions, which ``radius``
    does not change (a monitor moves the objects it is given)."""
    return generate_units(FLEET, radius, seed=62)


UNIT_IDS = sorted(u.unit_id for u in fleet())
#: positions inside the space, with its edges and centre drawn often.
coordinate = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])
#: where a unit may be sent: anywhere, or onto a place, as a patrol does.
target = st.builds(Point, coordinate, coordinate) | st.sampled_from([p.location for p in PLACES])
#: ``k`` values, a third each: 0 to 8, up to the catalog size, or past it.
k_value = st.one_of(
    st.integers(0, 8), st.integers(9, len(PLACES) - 2), st.integers(len(PLACES) - 1, len(PLACES) + 1)
)
#: the query over the paper's Table III ranges, DOO on or off (Fig. 8).
WORLD = {
    "k": k_value,
    "delta": st.integers(0, 10),
    "protection_range": st.floats(0.02, 0.25),
    "granularity": st.integers(1, 12),
    "use_doo": st.booleans(),
}
#: one coordinate of a short step, as a unit on a road network makes.
step = st.floats(-0.05, 0.05)


def walk(n: int, seed: int = 63) -> list[LocationUpdate]:
    """``n`` random-walk updates of the fleet from its initial positions."""
    return list(record_stream(RandomWalkMobility(fleet(), step=0.04, seed=seed), n))


def flip(data: bytes, at: int) -> bytes:
    """``data`` with bit 0 of byte ``at`` flipped. Journal lines are
    printable ASCII, so the flip never makes or removes a newline."""
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def bad_update(kind: str, good: LocationUpdate) -> LocationUpdate:
    """``good`` turned into input ``feed`` must reject."""
    if kind == "unknown-unit":
        return dataclasses.replace(good, unit_id=max(UNIT_IDS) + 1)
    if kind == "nan":
        return dataclasses.replace(good, new_location=Point(math.nan, 0.5))
    old = good.old_location
    return dataclasses.replace(good, old_location=Point(old.x + 0.01, old.y))


#: the kinds of control event :func:`bad_event` makes.
BAD_EVENTS = (
    "negative-weight",
    "unknown-place",
    "duplicate-place",
    "negative-k",
    "zero-grid",
)


def bad_event(kind: str, ids: list[int], next_id: int) -> Any:
    """A control event ``apply_control`` must reject over a catalog of
    ``ids`` whose next free id is ``next_id``."""
    if kind == "negative-weight":
        return PlaceReweighted(ids[0], -1)
    if kind == "unknown-place":
        return PlaceRemoved(next_id)
    if kind == "duplicate-place":
        return PlaceAdded(Place(ids[0], Point(0.5, 0.5), 1))
    if kind == "negative-k":
        return KChanged(-3)
    return GridRetuned(0)


#: the two phases of an update (§III-C): maintain (Steps 1–2, Tables
#: I/II) mutates the monitor, then access (Step 3) reads it.
ACCESS_PHASE = ("refresh", "top_k", "sk", "partial_top_k")
MAINTAIN_PHASE = ("apply_update", "apply_burst", "_apply", "_apply_burst")


def guard_phases(monitor: Any) -> None:
    """Make a maintain call on ``monitor`` fail while that same monitor
    is in its access phase, a sharded monitor's shard monitors each on
    their own. Wraps the instance's methods, once."""
    for shard in getattr(monitor, "shards", ()):
        guard_phases(shard.monitor)
    if "refresh" in vars(monitor):
        return
    depth = [0]

    def access(method: Any) -> Any:
        def entered(*args: Any, **kwargs: Any) -> Any:
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1

        return entered

    def maintain(name: str, method: Any) -> Any:
        def checked(*args: Any, **kwargs: Any) -> Any:
            if depth[0]:
                raise AssertionError(
                    f"{type(monitor).__name__}.{name} called in the access phase"
                )
            return method(*args, **kwargs)

        return checked

    for name in ACCESS_PHASE:
        setattr(monitor, name, access(getattr(monitor, name)))
    for name in MAINTAIN_PHASE:
        setattr(monitor, name, maintain(name, getattr(monitor, name)))


def monitors_of(monitor: Any) -> list[Any]:
    """``monitor`` and, when it is sharded, each of its shard monitors."""
    return [monitor, *(shard.monitor for shard in getattr(monitor, "shards", ()))]


def undeclared_fields(monitor: Any) -> dict[str, Any]:
    """The attributes of ``monitor`` outside ``state_fields()`` and
    ``transient_fields()``: nothing a snapshot keeps or a restore
    rebuilds."""
    declared = {*monitor.state_fields(), *monitor.transient_fields()}
    return {name: value for name, value in vars(monitor).items() if name not in declared}


#: each guarded monitor's undeclared attributes when it was opened.
_OPENED: "weakref.WeakKeyDictionary[Any, dict[str, Any]]" = weakref.WeakKeyDictionary()
_MISSING = object()


def guard_fields(monitor: Any) -> None:
    """Record the undeclared attributes of ``monitor`` and of its shard
    monitors, once per monitor, for :func:`check_fields`."""
    for each in monitors_of(monitor):
        _OPENED.setdefault(each, undeclared_fields(each))


def check_fields(monitor: Any) -> None:
    """Fail when ``monitor`` or one of its shard monitors rebound an
    undeclared attribute, or bound a new one, since it was guarded."""
    for each in monitors_of(monitor):
        before, now = _OPENED[each], undeclared_fields(each)
        changed = sorted(
            name
            for name in before.keys() | now.keys()
            if before.get(name, _MISSING) is not now.get(name, _MISSING)
        )
        assert not changed, (
            f"{type(each).__name__} binds {changed} outside STATE_FIELDS and "
            "TRANSIENT_FIELDS: a snapshot drops them"
        )


class SessionModel(RuleBasedStateMachine):
    scheme = "opt"
    batch = 0
    shards = 0
    config = CONFIG

    @classmethod
    def of(
        cls, scheme: str, batch: int, shards: int, config: CTUPConfig = CONFIG
    ) -> type["SessionModel"]:
        """The machine for one scheme, burst size, shard count and
        config (``CONFIG`` with another page capacity or buffer pool;
        a hypothesis run draws the query fields anew)."""
        name = f"SessionModel_{scheme}_b{batch}_s{shards}"
        if config != CONFIG:
            name += f"_p{config.page_capacity}_f{config.buffer_pages}"
        return type(
            name,
            (cls,),
            {"scheme": scheme, "batch": batch, "shards": shards, "config": config},
        )

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="ctup-model-"))
        self.places = {p.place_id: p for p in PLACES}
        self.next_place_id = max(self.places) + 1
        self.pending: list[LocationUpdate] = []
        #: each unit's last accepted update.
        self.last: dict[int, LocationUpdate] = {}
        self.clock = 0
        self.session: Any = None

    @initialize(**WORLD)
    def draw_world(self, **world: Any) -> None:
        """Start over a drawn :data:`WORLD`; the page and buffer settings
        stay the class's. Four shards need a grid of four cells. The
        check calls into hypothesis only to reject, so a printed program
        replays by hand without hypothesis running."""
        if self.shards and world["granularity"] == 1:
            reject()
        self.begin(self.config.replace(**world))

    def begin(self, config: CTUPConfig) -> None:
        """Start the session over ``config``, the fleet at its range."""
        self.config = config
        self.k = config.k
        #: each unit's position as fed, pending updates included.
        self.fed = {u.unit_id: u.location for u in fleet()}
        #: each unit's position as the monitor has applied it.
        self.applied = dict(self.fed)
        self.session = self.open()
        self.session.start()

    def open(self, resume: bool = False):
        session = open_session(
            self.scheme,
            places=PLACES,
            units=fleet(self.config.protection_range),
            config=self.config,
            shard=self.shards,
            batch_size=self.batch,
            durability=DurabilitySpec(self.directory, every=EVERY, resume=resume),
        )
        self.guard(session.monitor)
        return session

    @staticmethod
    def guard(monitor: Any) -> None:
        guard_phases(monitor)
        guard_fields(monitor)

    def teardown(self) -> None:
        if self.session is not None:
            self.session.journal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- the model ---------------------------------------------------------

    def apply_pending(self) -> None:
        for update in self.pending:
            self.applied[update.unit_id] = update.new_location
        self.pending.clear()

    def fingerprint(self) -> tuple:
        monitor = self.session.monitor
        return (
            state_fingerprint(monitor, self.session),
            exported_state(monitor),
            self.session.pending_updates,
            [sorted(undeclared_fields(each)) for each in monitors_of(monitor)],
        )

    def directory_bytes(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.directory.iterdir())}

    def crash(self) -> tuple:
        """Drop the session without ``close()``: no flush, no closing
        snapshot. Every journal record is already fsynced; closing the
        handle is harness hygiene. Returns the live fingerprint."""
        before = self.fingerprint()
        self.session.journal.close()
        return before

    def resume(self, before: tuple) -> None:
        self.session = self.open(resume=True)
        assert self.fingerprint() == before

    def snapshot_seq(self) -> int:
        """The journal seq the newest snapshot covers (0 without one)."""
        latest = CheckpointStore(self.directory).snapshot_paths()[-1:]
        return int(latest[0].stem.split("-")[1]) if latest else 0

    def moved(self) -> list[LocationUpdate]:
        """Last accepted updates that moved their unit beyond the
        location tolerance: only those are stale when sent again."""
        return [
            u
            for u in self.last.values()
            if u.old_location.squared_distance_to(u.new_location) > LOCATION_TOLERANCE2
        ]

    # -- steps shared by the rules and by scripts ----------------------------

    def send(self, update: LocationUpdate) -> None:
        """Feed a valid update and track it in the model."""
        self.session.feed(update)
        self.clock = max(self.clock, update.timestamp)
        self.fed[update.unit_id] = update.new_location
        self.last[update.unit_id] = update
        self.pending.append(update)
        if len(self.pending) >= max(self.batch, 1):
            self.apply_pending()

    def reject(self, update: LocationUpdate) -> None:
        """Feed bad input: it raises and changes nothing, on disk too."""

        def observed():
            session = self.session
            return (
                state_fingerprint(session.monitor, session),
                session.pending_updates,
                self.directory_bytes(),
            )

        before = observed()
        with pytest.raises(UpdateRejected):
            self.session.feed(update)
        assert observed() == before

    def refuse(self, event: Any) -> None:
        """Apply a bad control event: it raises and changes nothing, on
        disk too."""
        before = (self.fingerprint(), self.directory_bytes())
        with pytest.raises(ValueError):
            self.session.apply_control(event)
        assert (self.fingerprint(), self.directory_bytes()) == before

    def apply_event(self, event: Any) -> None:
        self.session.apply_control(event)
        self.guard(self.session.monitor)  # a reshard builds new shards
        self.apply_pending()
        if isinstance(event, PlaceAdded):
            self.places[event.place.place_id] = event.place
            self.next_place_id = max(self.next_place_id, event.place.place_id + 1)
        elif isinstance(event, PlaceRemoved):
            del self.places[event.place_id]
        elif isinstance(event, PlaceReweighted):
            self.places[event.place_id] = dataclasses.replace(
                self.places[event.place_id],
                required_protection=event.required_protection,
            )
        elif isinstance(event, KChanged):
            self.k = event.k

    # -- rules ---------------------------------------------------------------

    @rule(unit=st.sampled_from(UNIT_IDS), to=target)
    def feed(self, unit: int, to: Point) -> None:
        self.send(LocationUpdate(unit, self.fed[unit], to, self.clock + 1))

    @rule(unit=st.sampled_from(UNIT_IDS))
    def stay(self, unit: int) -> None:
        """A report without movement: DOO's P->P case."""
        at = self.fed[unit]
        self.send(LocationUpdate(unit, at, at, self.clock + 1))

    @rule(unit=st.sampled_from(UNIT_IDS), dx=step, dy=step)
    def drift(self, unit: int, dx: float, dy: float) -> None:
        """A short step from where the unit is: consecutive moves share
        cells, as on a road network, which uniform jumps rarely do."""
        at = self.fed[unit]
        self.send(LocationUpdate(unit, at, Point(at.x + dx, at.y + dy), self.clock + 1))

    @rule(
        unit=st.sampled_from(UNIT_IDS),
        kind=st.sampled_from(["unknown-unit", "nan", "stale"]),
    )
    def feed_bad(self, unit: int, kind: str) -> None:
        good = LocationUpdate(unit, self.fed[unit], Point(0.5, 0.5), self.clock)
        self.reject(bad_update(kind, good))

    @precondition(lambda self: self.moved())
    @rule(data=st.data())
    def feed_replayed(self, data: st.DataObject) -> None:
        """A duplicate delivery of a unit's last accepted move."""
        self.reject(data.draw(st.sampled_from(self.moved())))

    @rule()
    def flush(self) -> None:
        self.session.flush()
        self.apply_pending()

    @rule()
    def checkpoint(self) -> None:
        self.session.checkpoint()
        self.apply_pending()

    @rule(data=st.data())
    def control(self, data: st.DataObject) -> None:
        ids = sorted(self.places)
        # a new place lands anywhere, or on a place already there.
        location = st.builds(Point, coordinate, coordinate) | st.sampled_from(
            [self.places[i].location for i in ids]
        )
        events = [
            st.builds(
                PlaceAdded,
                st.builds(Place, st.just(self.next_place_id), location, st.integers(0, 4)),
            ),
            st.builds(PlaceReweighted, st.sampled_from(ids), st.integers(0, 5)),
            st.builds(KChanged, k_value),
            # every shard owns a cell, so a sharded grid keeps four.
            st.builds(GridRetuned, st.integers(2 if self.shards else 1, 8)),
        ]
        if len(ids) > 1:
            events.append(st.builds(PlaceRemoved, st.sampled_from(ids)))
        if self.shards:
            events.append(st.builds(ShardPlanChanged, st.integers(1, 4)))
        self.apply_event(data.draw(st.one_of(events)))

    @rule(kind=st.sampled_from(BAD_EVENTS))
    def control_bad(self, kind: str) -> None:
        self.refuse(bad_event(kind, sorted(self.places), self.next_place_id))

    @rule()
    def crash_and_resume(self) -> None:
        self.resume(self.crash())

    def flippable_lines(self) -> list[bytes]:
        """The journal lines a flip may hit: all of them, except a last
        line holding a place event that the newest snapshot covers. A
        restore folds the journal's place events up to the snapshot's
        cut into its place set, so it cannot do without that record."""
        lines = self.session.journal.path.read_bytes().splitlines(keepends=True)
        if lines:
            record = json.loads(lines[-1][lines[-1].index(b"{") :])
            if (
                record["op"] == "c"
                and record["c"]["kind"].startswith("place_")
                and record["q"] <= self.snapshot_seq()
            ):
                return lines[:-1]
        return lines

    @precondition(lambda self: self.flippable_lines())
    @rule(data=st.data())
    def flip_journal_byte(self, data: st.DataObject) -> None:
        lines = self.flippable_lines()
        line = data.draw(st.integers(0, len(lines) - 1))
        self.damage_journal(line, data.draw(st.integers(0, len(lines[line]) - 2)))

    def damage_journal(self, line: int, at: int) -> None:
        """Crash, then flip byte ``at`` of journal line ``line``.

        A record with records after it stops the resume with
        :class:`JournalCorrupted` and leaves the file as it was; the
        intact journal then resumes. A damaged last record is a torn
        tail and the resume drops it. When the newest snapshot covers
        it, the resumed session equals the live one as it is; otherwise
        sending what it held again makes it equal."""
        covered = self.snapshot_seq()
        before = self.crash()
        path = self.session.journal.path
        intact = path.read_bytes()
        lines = intact.splitlines(keepends=True)
        cut = sum(map(len, lines[:line]))
        damaged = flip(intact, cut + at)
        path.write_bytes(damaged)
        if line < len(lines) - 1:
            with pytest.raises(JournalCorrupted):
                self.open(resume=True)
            assert path.read_bytes() == damaged
            path.write_bytes(intact)
            self.resume(before)
            return
        self.session = self.open(resume=True)
        assert path.read_bytes() == intact[:cut]
        record = json.loads(lines[line][lines[line].index(b"{") :])
        if record["q"] > covered:
            self.send_again(record)
        assert self.fingerprint() == before

    def send_again(self, record: dict) -> None:
        """Send what a dropped journal record held."""
        if record["op"] == "f":
            self.session.flush()
        elif record["op"] == "c":
            self.session.apply_control(decode_event(record["c"]))
            self.guard(self.session.monitor)
        else:
            old, new = Point(*record["old"]), Point(*record["new"])
            self.session.feed(LocationUpdate(record["u"], old, new, record["t"]))

    # -- the invariant -------------------------------------------------------

    @invariant()
    def matches_the_oracle(self) -> None:
        """The top-k is a valid answer and SK is the true SK, over the
        model's catalog and applied positions. The result is read off
        the record, so the check leaves the I/O accounting as it was."""
        assert self.session.pending_updates == len(self.pending)
        units = [
            Unit(unit_id, at, self.config.protection_range)
            for unit_id, at in self.applied.items()
        ]
        oracle = Oracle(list(self.places.values()), units)
        monitor = self.session.monitor
        with off_the_record(monitor):
            records, sk = monitor.top_k(), monitor.sk()
            problems = audit_monitor(monitor)
        verdict = oracle.validate(records, self.k)
        assert verdict.ok, verdict.problems
        assert sk == oracle.sk(self.k)
        assert problems == []
        check_fields(monitor)


def run_script(
    scheme: str,
    batch: int,
    shards: int,
    steps: Iterable[Any],
    config: CTUPConfig = CONFIG,
) -> SessionModel:
    """Run ``steps`` on a fresh machine over ``config``, checking the
    invariant after each. A step is a :class:`LocationUpdate` (sent), a
    control event (applied), or a callable taking the machine. Returns
    the machine, its directory already removed."""
    machine = SessionModel.of(scheme, batch, shards, config)()
    try:
        machine.begin(config)
        machine.matches_the_oracle()
        for step in steps:
            if isinstance(step, LocationUpdate):
                machine.send(step)
            elif callable(step):
                step(machine)
            else:
                machine.apply_event(step)
            machine.matches_the_oracle()
    finally:
        machine.teardown()
    return machine
