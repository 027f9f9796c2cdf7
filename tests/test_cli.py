"""The ctup command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import (
    CTUPConfig,
    DurabilitySpec,
    generate_places,
    generate_units,
    open_session,
)
from repro.cli import main
from repro.control import KChanged
from repro.workloads import (
    RandomWalkMobility,
    generate_control_plan,
    interleave,
    record_stream,
)
from repro.workloads.control import drive

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class TestList:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "table3" in out
        assert "expected:" in out


class TestRun:
    def test_run_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Default parameter values" in out
        assert "15,000" in out or "15000" in out

    def test_run_figure_tiny(self, capsys):
        assert main(["run", "fig3", "--scale", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "basic" in out and "opt" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_seed_flag(self, capsys):
        assert main(["run", "fig3", "--scale", "0.04", "--seed", "3"]) == 0


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig3", "--scale", "abc"])


class TestRecovery:
    """Crash recovery end to end: a checkpointed run killed mid-batch in
    a process of its own, then inspected and resumed through the CLI."""

    CRASH = """
import os, sys
from repro.sim import Simulation
sim = Simulation.from_scenario(
    "downtown", k=10, n_places=4000, n_units=50, seed=0,
    batch_size=16, checkpoint_dir=sys.argv[1], checkpoint_every=5,
)
sim.session.start()
for update in sim.mobility.updates(250):
    sim.session.feed(update)
os._exit(0)  # no flush, no closing snapshot: 10 updates left pending
"""

    def test_hard_kill_then_resume_matches_the_straight_run(
        self, tmp_path, capsys
    ):
        directory = str(tmp_path / "ckpt")
        crashed = subprocess.run(
            [sys.executable, "-c", self.CRASH, directory],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert crashed.returncode == 0, crashed.stderr
        assert main(["checkpoint", directory]) == 0
        inspected = capsys.readouterr().out
        assert "10 past the latest snapshot" in inspected  # the kill's batch
        simulate = ["simulate", "downtown", "--batch-size", "16"]
        resume = ["--checkpoint-dir", directory, "--resume"]
        assert main([*simulate, "--updates", "350", *resume]) == 0
        resumed = capsys.readouterr().out
        assert resumed.startswith(f"resumed from {directory}")
        assert main([*simulate, "--updates", "600"]) == 0
        straight = capsys.readouterr().out
        top = "current top unsafe places:"
        assert resumed[resumed.index(top) :] == straight[straight.index(top) :]


def reconfig_world():
    """A control-plane run: 200 random-walk updates of 40 units over
    2,000 places with 6 control events interleaved (catalog edits,
    reweights, grid retunes), built anew: a monitor moves the units it
    is given. Returns the config, places, units and merged items."""
    config = CTUPConfig(k=8)
    places = generate_places(2000, seed=4)
    units = generate_units(40, config.protection_range, seed=5)
    stream = record_stream(RandomWalkMobility(units, seed=6), 200)
    plan = generate_control_plan(places, stream_length=200, n_events=6, seed=7)
    return config, places, units, list(interleave(stream, plan))


def open_reconfig(directory, resume):
    """An opt session over :func:`reconfig_world`, bursts of 16,
    snapshotting into ``directory`` every 5 flushes; returns it and the
    world's items."""
    config, places, units, items = reconfig_world()
    session = open_session(
        "opt",
        places=places,
        units=units,
        config=config,
        durability=DurabilitySpec(directory, every=5, resume=resume),
        batch_size=16,
    )
    return session, items


def result_of(session):
    monitor = session.monitor
    return monitor.epoch, [(row.place_id, row.safety) for row in monitor.top_k()]


class TestReconfiguredRecovery:
    """Recovery across control events: a run with interleaved control
    events and one refused bad event, killed mid-stream in a process of
    its own, resumes from its snapshot (whose place set folds in the
    journaled catalog edits) and journal tail onto the uninterrupted
    run; a control event applied to a resumed session survives the next
    resume, replayed from the journal tail and then from a snapshot."""

    CRASH = """
import os, sys
from repro.control import ControlEvent, PlaceRemoved
from tests.test_cli import open_reconfig
session, items = open_reconfig(sys.argv[1], resume=False)
session.start()
for item in items[:130]:  # 125 updates and 5 control events
    if isinstance(item, ControlEvent.__args__):
        session.apply_control(item)
    else:
        session.feed(item)
try:
    session.apply_control(PlaceRemoved(10**9))  # no such place
except ValueError:
    pass
else:
    raise AssertionError("an unknown PlaceRemoved was applied")
os._exit(0)  # no flush, no closing snapshot: a burst left pending
"""

    def test_hard_kill_mid_reconfiguration_then_resume(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        crashed = subprocess.run(
            [sys.executable, "-c", self.CRASH, str(directory)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])},
            capture_output=True,
            text=True,
        )
        assert crashed.returncode == 0, crashed.stderr
        # the refused event was checked before it was journaled.
        assert main(["checkpoint", str(directory)]) == 0
        listing = capsys.readouterr().out
        assert "control events: 5 journaled" in listing
        assert str(10**9) not in listing
        session, items = open_reconfig(directory, resume=True)
        assert session.monitor.epoch == 5
        drive(session, items[130:])  # the journal covers items[:130]
        resumed = result_of(session)
        session.close()
        config, places, units, items = reconfig_world()
        with open_session(
            "opt", places=places, units=units, config=config, batch_size=16
        ) as straight:
            straight.start()
            drive(straight, items)
            assert resumed == result_of(straight)
        # a control event applied to the resumed run survives the next
        # resume: first from the journal tail (the session is dropped
        # unclosed, so no snapshot covers it), then from the closing
        # snapshot; the checkpoint listing shows it.
        session, _ = open_reconfig(directory, resume=True)
        session.apply_control(KChanged(12))
        session.journal.close()
        for _ in range(2):
            session, _ = open_reconfig(directory, resume=True)
            assert session.monitor.epoch == 7
            assert session.monitor.config.k == 12
            assert len(session.monitor.top_k()) == 12
            session.close()
        assert main(["checkpoint", str(directory)]) == 0
        assert "'kind': 'k_changed', 'k': 12" in capsys.readouterr().out


class TestClosedPipe:
    def test_reader_closing_stdout_early_ends_quietly(self):
        # `ctup simulate ... | head`, with the reader gone before the
        # first line is written.
        argv = "-m repro.cli simulate downtown --updates 50 --places 300 --units 10"
        proc = subprocess.Popen(
            [sys.executable, *argv.split()],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        assert proc.communicate()[1] == b"" and proc.returncode == 0
