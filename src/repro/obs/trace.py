"""Structured tracing: spans over monitor phases, shard drains and I/O.

Spans are timed with the monotonic ``time.perf_counter`` clock family
(the same clock the monitor's own ledgers use), stored in a bounded
ring buffer, and exportable as a Chrome ``chrome://tracing`` /
Perfetto-compatible JSON trace (complete events, ``ph: "X"``, with
timestamps and durations in microseconds).

Like the registry, the tracer ships a null twin so instrumented code
can call ``tracer.span(...)`` unconditionally once an Observability
bundle is attached.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "write_chrome_trace",
]


@dataclass(slots=True)
class Span:
    """One completed timed region.

    ``ts_us``/``dur_us`` are microseconds on the ``perf_counter`` epoch
    (an arbitrary but monotonic origin — only deltas and relative
    ordering are meaningful, which is all a trace viewer needs).
    """

    name: str
    cat: str
    ts_us: float
    dur_us: float
    thread_id: int
    args: dict[str, object] = field(default_factory=dict)

    def as_event(self, pid: int = 1) -> dict[str, object]:
        """This span as a Chrome trace 'complete' event object."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self.ts_us,
            "dur": self.dur_us,
            "pid": pid,
            "tid": self.thread_id,
            "args": self.args,
        }


class _SpanScope:
    """Context manager that times a region and emits one Span."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start_ns = 0

    def __enter__(self) -> "_SpanScope":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end_ns = time.perf_counter_ns()
        self._tracer._emit(
            Span(
                name=self._name,
                cat=self._cat,
                ts_us=self._start_ns / 1e3,
                dur_us=(end_ns - self._start_ns) / 1e3,
                thread_id=threading.get_ident(),
                args=self._args,
            )
        )


class Tracer:
    """Bounded in-memory span buffer.

    The buffer is a ``deque(maxlen=capacity)``: once full, the oldest
    spans fall off silently (``emitted`` keeps the lifetime total so
    droppage is detectable).  Spans come from the thread that drives
    the session (the shard drain runs serially inside ``refresh()``),
    and deque appends are GIL-atomic, so the buffer takes no lock.
    """

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive (got {capacity})")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.emitted = 0

    def _emit(self, span: Span) -> None:
        self._spans.append(span)
        self.emitted += 1

    def span(self, name: str, cat: str = "repro", **args: object) -> _SpanScope:
        """Time a ``with`` region as one span."""
        return _SpanScope(self, name, cat, dict(args))

    def record(
        self,
        name: str,
        cat: str,
        start_s: float,
        duration_s: float,
        **args: object,
    ) -> None:
        """Record a region that was already timed with ``perf_counter``."""
        self._emit(
            Span(
                name=name,
                cat=cat,
                ts_us=start_s * 1e6,
                dur_us=duration_s * 1e6,
                thread_id=threading.get_ident(),
                args=dict(args),
            )
        )

    def spans(self) -> list[Span]:
        """A stable snapshot of the buffer, oldest first."""
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SCOPE = _NullScope()


class NullTracer:
    """Tracer stand-in when tracing is disabled: every op is a no-op."""

    enabled = False
    capacity = 0
    emitted = 0

    def span(self, name: str, cat: str = "repro", **args: object) -> _NullScope:
        return _NULL_SCOPE

    def record(
        self,
        name: str,
        cat: str,
        start_s: float,
        duration_s: float,
        **args: object,
    ) -> None:
        pass

    def spans(self) -> list[Span]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())


#: Shared null singleton — NullTracer carries no state.
NULL_TRACER = NullTracer()


def write_chrome_trace(spans: Sequence[Span], path: str | Path) -> int:
    """Write spans as a Chrome-trace JSON array, one event per line.

    The output is both a valid JSON document (loadable by
    ``chrome://tracing`` / Perfetto) and line-oriented: after the
    opening ``[`` every line holds exactly one event object, so the
    file greps and streams like JSONL.  Returns the number of events
    written.
    """
    target = Path(path)
    with target.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, span in enumerate(spans):
            line = json.dumps(span.as_event(), sort_keys=True)
            fh.write(line + (",\n" if i < len(spans) - 1 else "\n"))
        fh.write("]\n")
    return len(spans)
