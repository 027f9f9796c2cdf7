"""The ctup command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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
