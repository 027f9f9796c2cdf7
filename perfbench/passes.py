"""Timed passes over one workload, their correctness checks, and recovery.

A pass opens a fresh session (timed as set-up), feeds the whole stream
from one closed-loop caller — the next update is fed only when the
previous ``feed`` returned, because ``feed`` is synchronous and no
ingest queue sits in front of it — and reads the final result. Every
pass replays the same stream, so passes differ only by machine noise.

Wall-clock figures are reported at reference machine speed: a fixed,
program-independent calibration slice runs before and after every pass,
and the pass's times are scaled by ``CALIBRATION_REF_S`` over the
calibration's mean duration. On a shared host whose speed drifts by
tens of percent over minutes, this is what keeps medians of separate
runs comparable; the raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import operator
import os
import shutil
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.bench import Workload
from repro.core.metrics import MonitorCounters
from repro.engine import MonitorSession
from repro.model import SafetyRecord
from repro.shard.monitor import ShardedMonitor
from repro.validate import Oracle

from perfbench.layers import Recorder, install
from perfbench.workloads import CONFIG, WorkloadSpec

#: duration of one ``calibrate()`` slice on the reference machine (a
#: 2-core x86-64 VM, Python 3.11, numpy 2.4) when it is not contended.
CALIBRATION_REF_S = 0.00022
#: a pass is timed in segments of about this length, each scaled by the
#: calibration slices on either side of it.
SEGMENT_S = 0.025

_CAL_INTS = list(range(768))
_CAL_SMALL = np.linspace(0.0, 1.0, 64)
_CAL_MEDIUM = np.random.default_rng(0).random(1_024)


def calibrate() -> float:
    """Seconds one fixed slice of interpreter and numpy work takes now.

    The mix — dict and list traffic and small-array numpy calls —
    resembles the monitor's, so host contention slows both alike; the
    slice never touches the program under test.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    for i in _CAL_INTS:
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    acc = _CAL_SMALL
    for _ in range(60):
        acc = np.minimum(acc + 0.5, 40.0)
    np.sort(_CAL_MEDIUM * 1.0001)
    return perf_counter() - start


class SpeedProbe:
    """Machine speed between calibration slices, as a scale factor."""

    def __init__(self) -> None:
        self._last = calibrate()

    def factor(self) -> float:
        """Reference over measured speed for the stretch since the
        previous slice; takes the next slice."""
        now = calibrate()
        factor = 2 * CALIBRATION_REF_S / (self._last + now)
        self._last = now
        return factor


class FsyncCounter:
    """Counts ``os.fsync`` calls instead of issuing them.

    The checkpoint directory stands in for a memory-backed one (tmpfs),
    where fsync returns at once; the count keeps the program's disk
    barrier discipline visible (``syncs_per_update``).
    """

    def __init__(self) -> None:
        self.count = 0
        self._real = os.fsync

    def __call__(self, fd: int) -> None:
        self.count += 1

    def __enter__(self) -> "FsyncCounter":
        os.fsync = self
        return self

    def __exit__(self, *exc: object) -> None:
        os.fsync = self._real


@dataclass
class Ledgers:
    """The program's own work counters at one instant (merged over
    shards), diffed around each pass."""

    counters: MonitorCounters
    io: Any
    units: Any
    merges: tuple[int, int, int] = (0, 0, 0)
    full: int = 0
    sync: int = 0
    per_shard: tuple[int, ...] = ()

    @classmethod
    def read(cls, monitor: Any) -> "Ledgers":
        if isinstance(monitor, ShardedMonitor):
            stats = monitor.merger.stats
            return cls(
                counters=monitor.merged_counters(),
                io=monitor.merged_io(),
                units=monitor.merged_unit_stats(),
                merges=(stats.merges, stats.records_pulled, stats.refills),
                full=monitor.full_deliveries,
                sync=monitor.sync_deliveries,
                per_shard=tuple(
                    sh.monitor.counters.updates_processed
                    for sh in monitor.shards
                ),
            )
        return cls(
            counters=monitor.counters.snapshot(),
            io=monitor.store.io_stats.snapshot(),
            units=monitor.units.stats.snapshot(),
        )

    def _zip(self, other: "Ledgers", op: Callable) -> "Ledgers":
        return Ledgers(
            counters=op(self.counters, other.counters),
            io=op(self.io, other.io),
            units=op(self.units, other.units),
            merges=tuple(map(op, self.merges, other.merges)),
            full=op(self.full, other.full),
            sync=op(self.sync, other.sync),
            per_shard=tuple(map(op, self.per_shard, other.per_shard)),
        )

    def __sub__(self, other: "Ledgers") -> "Ledgers":
        return self._zip(other, operator.sub)

    def __add__(self, other: "Ledgers") -> "Ledgers":
        return self._zip(other, operator.add)


def final_state(session: MonitorSession) -> tuple:
    """Top-k, SK and every non-timing counter: what two runs of the
    same stream must agree on bit for bit."""
    monitor = session.monitor
    counters = (
        monitor.merged_counters()
        if isinstance(monitor, ShardedMonitor)
        else monitor.counters
    )
    return (
        tuple((r.place_id, r.safety) for r in monitor.top_k()),
        monitor.sk(),
        tuple(
            (name, value)
            for name, value in counters.as_dict().items()
            if not name.startswith("time_")
        ),
    )


@dataclass
class PassResult:
    """One pass: raw and reference-speed timings, ledgers and outcome."""

    setup_s: float
    #: set-up time at reference speed
    setup_ref_s: float
    #: time spent feeding the stream (calibration slices excluded)
    wall_s: float
    wall_ref_s: float
    latencies_ref_s: np.ndarray
    ledgers: Ledgers
    maintained_peak: int
    updates: int
    bursts: int
    accessed_updates: int
    fsyncs: int
    journal_bytes: int
    journal_records: int
    state: tuple | None
    error: str | None = None
    layers: tuple | None = None

    @property
    def factor(self) -> float:
        """Mean speed factor over the pass's timed segments."""
        return self.wall_ref_s / self.wall_s


@dataclass
class Runner:
    """Runs passes of one workload over one seed's inputs."""

    spec: WorkloadSpec
    inputs: Workload
    workdir: Path
    fsync: FsyncCounter
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: final state of the instance's first pass; every later pass (and a
    #: resumed session) must reproduce it exactly.
    reference: tuple | None = None

    @property
    def checkpoint_dir(self) -> Path:
        return self.workdir / "checkpoint"

    def check(self, result: PassResult, what: str) -> None:
        """Count a pass whose final state differs from the instance's
        first one (which :meth:`validate` checks against the oracle)."""
        if result.error is not None:
            return
        if self.reference is None:
            self.reference = result.state
        elif result.state != self.reference:
            self.failures.append(
                f"{what}: final state differs from the first pass"
            )

    def validate(self) -> None:
        """Check the first pass's final top-k and SK against the
        brute-force oracle fed the same stream (kept out of the timed
        rounds: it scans |P| x |U|)."""
        if self.reference is None:
            return
        oracle = Oracle(self.inputs.places, self.inputs.units)
        for update in self.inputs.stream:
            oracle.apply(update)
        k = CONFIG.k
        records, sk, _ = self.reference
        by_id = {p.place_id: p for p in self.inputs.places}
        verdict = oracle.validate(
            [SafetyRecord(by_id[pid], safety) for pid, safety in records], k
        )
        problems = list(verdict.problems)
        true_sk = oracle.sk(k)
        if true_sk != sk:
            problems.append(f"SK {sk} != oracle SK {true_sk}")
        if problems:
            self.failures.append("oracle: " + "; ".join(problems[:3]))
            self.reference = None

    def run_pass(self, recorder: Recorder | None = None) -> PassResult:
        """One full pass; ``recorder`` traces it layer by layer."""
        gc.collect()
        if recorder is None:
            return self._pass(None)
        with install(recorder):
            return self._pass(recorder)

    def _pass(self, recorder: Recorder | None) -> PassResult:
        spec = self.spec
        stream = self.inputs.stream
        n = len(stream)
        latencies = np.empty(n)
        accessed_updates = 0
        bursts = 0
        fsyncs = self.fsync.count
        probe = SpeedProbe()
        if recorder is not None:
            recorder.take()
        start = perf_counter()
        session = spec.open(self.inputs, self.checkpoint_dir)
        if recorder is not None:
            recorder.children = {
                id(sh.monitor) for sh in getattr(session.monitor, "shards", ())
            }
        session.start()
        setup_s = perf_counter() - start
        setup_ref_s = setup_s * probe.factor()
        setup_layers = recorder.take() if recorder is not None else None
        monitor = session.monitor
        before = Ledgers.read(monitor)
        error = None
        wall_s = wall_ref_s = 0.0
        done = 0  # updates whose latency is recorded
        scaled = 0  # updates whose latency is scaled to reference speed
        pending: list[float] = []
        segment_start = perf_counter()

        def close_segment(now: float) -> None:
            nonlocal wall_s, wall_ref_s, scaled, segment_start
            factor = probe.factor()
            wall_s += now - segment_start
            wall_ref_s += (now - segment_start) * factor
            latencies[scaled:done] *= factor
            scaled = done
            segment_start = perf_counter()

        try:
            for i, update in enumerate(stream):
                if recorder is not None:
                    recorder.cause = f"b{i // spec.burst}" if spec.burst else f"u{i}"
                fed = perf_counter()
                report = session.feed(update)
                self.attempted += 1
                pending.append(fed)
                if report is None:
                    continue
                now = perf_counter()
                for j, t in enumerate(pending, done):
                    latencies[j] = now - t
                done += len(pending)
                pending.clear()
                bursts += 1
                if report.cells_accessed:
                    accessed_updates += report.batch_size
                if spec.obs:
                    session.sync_metrics()
                    now = perf_counter()
                if now - segment_start >= SEGMENT_S:
                    close_segment(now)
            close_segment(perf_counter())
        except Exception:
            error = traceback.format_exc()
            self.failures.append(f"update raised:\n{error}")
        layers = recorder.take() if recorder is not None else None
        if recorder is not None:
            recorder.cause = ""
        after = Ledgers.read(monitor)
        journal = session.journal
        journal_bytes = journal.path.stat().st_size if journal else 0
        journal_records = journal.last_seq if journal else 0
        fsyncs = self.fsync.count - fsyncs
        state = None if error else final_state(session)
        try:
            session.close()
        except Exception:
            self.failures.append(f"close raised:\n{traceback.format_exc()}")
        return PassResult(
            setup_s=setup_s,
            setup_ref_s=setup_ref_s,
            wall_s=wall_s,
            wall_ref_s=wall_ref_s,
            latencies_ref_s=latencies[:done],
            ledgers=after - before,
            maintained_peak=after.counters.maintained_peak,
            updates=n,
            bursts=bursts,
            accessed_updates=accessed_updates,
            fsyncs=fsyncs,
            journal_bytes=journal_bytes,
            journal_records=journal_records,
            state=state,
            error=error,
            layers=(setup_layers, layers),
        )

    def memory_mb(self) -> float:
        """Peak traced heap of one pass, on top of its built inputs."""
        gc.collect()
        tracemalloc.start()
        try:
            session = self.spec.open(self.inputs, self.checkpoint_dir)
            session.start()
            for update in self.inputs.stream:
                session.feed(update)
                self.attempted += 1
            session.flush()
            peak = tracemalloc.get_traced_memory()[1]
            session.close()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def crash_and_resume(
        self, resumes: int, recorder: Recorder | None = None
    ) -> list[tuple[float, float]]:
        """Crash a durable session at a fixed stream position, then time
        ``resumes`` recoveries of the same directory.

        The crash drops the session without flushing its pending burst
        or writing a closing snapshot (only the journal handle is
        released). Each recovery is ``open_session(..., resume=True)``;
        the last one goes on to the end of the stream and must match an
        uninterrupted run bit for bit. Returns (seconds, speed factor)
        per recovery.
        """
        spec = self.spec
        stream = self.inputs.stream
        # mid-burst, some bursts after the last periodic snapshot: resume
        # restores it, reads the journal tail and replays that tail,
        # ending in a pending partial burst.
        crash_at = len(stream) * 3 // 4 + spec.burst // 2 - 3
        timings: list[tuple[float, float]] = []
        try:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
            session = spec.open(self.inputs, self.checkpoint_dir)
            session.start()
            for update in stream[:crash_at]:
                session.feed(update)
                self.attempted += 1
            session.journal.close()
            del session
            for attempt in range(resumes):
                if attempt:
                    resumed.journal.close()
                gc.collect()
                probe = SpeedProbe()
                tracing = recorder is not None and attempt == resumes - 1
                with install(recorder) if tracing else nullcontext():
                    start = perf_counter()
                    resumed = spec.open(
                        self.inputs, self.checkpoint_dir, resume=True
                    )
                    seconds = perf_counter() - start
                timings.append((seconds, probe.factor()))
            for update in stream[crash_at:]:
                resumed.feed(update)
                self.attempted += 1
            resumed.flush()
            if self.reference not in (None, final_state(resumed)):
                self.failures.append(
                    "resume: resumed session is not bit-identical to the "
                    "uninterrupted run"
                )
            resumed.close()
        except Exception:
            self.failures.append(
                f"crash/resume raised:\n{traceback.format_exc()}"
            )
        return timings
