"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of every layer an update
passes through — session ingest, change tracking, coalescing, maintain
(per update or per burst), access, the unit index, the place store,
shard routing/drain/merge, the journal, snapshots, recovery and obs — and
records one span per call: layer name, start, end, parent span and the
update or burst that caused it. Spans stay in memory; :meth:`Recorder.
write_chrome_trace` writes them out when the run ends.

A layer's self time is its span's duration minus the time its direct
child spans cover, so self times add up to the wall time the outermost
spans cover, with no double counting.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import repro.api
import repro.core.batch
import repro.state.recovery
from repro.core.events import ChangeTracker
from repro.core.monitor import CTUPMonitor
from repro.core.units import UnitIndex
from repro.engine import MonitorSession
from repro.obs.hooks import ObservabilityHooks
from repro.obs.spec import Observability
from repro.shard.merge import GlobalTopK
from repro.shard.monitor import ShardedMonitor
from repro.shard.router import ShardRouter
from repro.state.journal import UpdateJournal
from repro.storage.placestore import PlaceStore

#: spans kept for the Chrome trace; aggregates keep counting past it.
SPAN_CAP = 100_000


@dataclass
class LayerTotals:
    """Per-layer sums over some stretch of a run."""

    #: span time minus the time of direct child spans
    self_s: defaultdict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: time of each layer's outermost spans (nested calls of the same
    #: layer counted once)
    incl_s: defaultdict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    calls: Counter = field(default_factory=Counter)
    #: per layer, the sum of its hit test over call results
    hits: Counter = field(default_factory=Counter)

    def add(self, other: "LayerTotals", factor: float = 1.0) -> None:
        """Accumulate ``other``, its times scaled by ``factor``."""
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds * factor
        for layer, seconds in other.incl_s.items():
            self.incl_s[layer] += seconds * factor
        self.calls.update(other.calls)
        self.hits.update(other.hits)


class Recorder:
    """In-memory span sink plus per-layer self-time aggregates."""

    def __init__(self) -> None:
        #: (name, start_s, end_s, span_id, parent_id, cause)
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self.dropped = 0
        #: what caused the spans now opening: ``u<i>`` or ``b<i>``.
        self.cause = ""
        #: ids of shard child monitors (their calls are the shard drain).
        self.children: set[int] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._totals = LayerTotals()

    def take(self) -> LayerTotals:
        """The aggregates since the last call, then reset them."""
        taken, self._totals = self._totals, LayerTotals()
        return taken

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[Any], str],
        hit: Callable[[Any], int] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call under layer ``name`` (or
        ``name(first_argument)`` for calls whose layer depends on the
        receiver)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            layer = name if isinstance(name, str) else name(args[0])
            stack = recorder._stack
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals = recorder._totals
                totals.self_s[layer] += duration - frame[1]
                if all(outer[2] != layer for outer in stack):
                    totals.incl_s[layer] += duration
                totals.calls[layer] += 1
                if len(recorder.spans) < SPAN_CAP:
                    recorder.spans.append(
                        (layer, start, end, span_id, parent, recorder.cause)
                    )
                else:
                    recorder.dropped += 1
            if hit is not None:
                recorder._totals.hits[layer] += int(hit(result))
            return result

        return traced

    def write_chrome_trace(self, path: Path) -> None:
        """All kept spans as Chrome-trace JSON (``chrome://tracing``)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "cause": cause},
            }
            for name, start, end, span_id, parent, cause in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "droppedSpans": self.dropped})
        )


def _monitor_layer(recorder: Recorder, own: str) -> Callable[[Any], str]:
    """Shard child monitors' maintain/access calls are the shard drain;
    the sharded wrapper's own burst maintain is routing."""

    def layer(monitor: Any) -> str:
        if id(monitor) in recorder.children:
            return "shard.drain"
        if own == "core.kernels.apply_burst" and isinstance(
            monitor, ShardedMonitor
        ):
            return "shard.route"
        return own

    return layer


def _targets(recorder: Recorder) -> list[tuple[Any, str, Any, Any]]:
    """(owner, attribute, layer, hit test) for every traced entry point."""
    accessed = lambda result: bool(result)  # noqa: E731
    changed = lambda result: result is not None  # noqa: E731
    return [
        (MonitorSession, "feed", "engine", None),
        (MonitorSession, "flush", "engine", None),
        (MonitorSession, "checkpoint", "state.snapshot", None),
        (MonitorSession, "replay", "state.recover_replay", None),
        (ChangeTracker, "observe", "core.events.observe", changed),
        (repro.api, "make_monitor", "api.build", None),
        (CTUPMonitor, "initialize", "core.init", None),
        (
            CTUPMonitor,
            "apply_update",
            _monitor_layer(recorder, "core.maintain"),
            None,
        ),
        (
            CTUPMonitor,
            "apply_burst",
            _monitor_layer(recorder, "core.kernels.apply_burst"),
            None,
        ),
        (CTUPMonitor, "refresh", _monitor_layer(recorder, "core.access"), accessed),
        (repro.core.batch, "coalesce_burst", "core.batch.coalesce", None),
        (UnitIndex, "ap_counts", "index.ap", None),
        (UnitIndex, "ap_counts_near", "index.ap", None),
        (UnitIndex, "weighted_protection_near", "index.ap", None),
        (UnitIndex, "ap_of_point", "index.ap", None),
        (UnitIndex, "apply", "index.move", None),
        (UnitIndex, "apply_chain", "index.move", None),
        (UnitIndex, "apply_moves", "index.move", None),
        (PlaceStore, "read_cell", "storage.cell_read", None),
        (PlaceStore, "read_cell_with_arrays", "storage.cell_read", None),
        (PlaceStore, "cell_arrays", "storage.cell_read", None),
        (ShardRouter, "route", "shard.route", None),
        (GlobalTopK, "merge", "shard.merge", None),
        (UpdateJournal, "append_update", "state.journal_append", None),
        (UpdateJournal, "append_flush", "state.journal_append", None),
        (UpdateJournal, "tail", "state.recover_replay", len),
        (
            repro.state.recovery,
            "restore_monitor",
            "state.recover_restore",
            None,
        ),
        (Observability, "sync", "obs.sync", None),
        (Observability, "phase", "obs.phase", None),
        (ObservabilityHooks, "on_update_start", "obs.hooks", None),
        (ObservabilityHooks, "on_update_end", "obs.hooks", None),
        (ObservabilityHooks, "on_batch_flush", "obs.hooks", None),
        (ObservabilityHooks, "on_topk_change", "obs.hooks", None),
        (ObservabilityHooks, "on_refresh", "obs.hooks", None),
    ]


@contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Trace every layer entry point into ``recorder`` while inside."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, layer, hit in _targets(recorder):
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(original, layer, hit))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
