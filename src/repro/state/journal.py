"""The append-only update journal (write-ahead log).

One line per record: the CRC32 of the record's JSON as eight lowercase
hex digits, a space, then the JSON itself. Four record kinds:

``"u"``
    a single-mode update, journaled *before* it is processed
    (write-ahead: after a crash the tail record may or may not have been
    applied to the last snapshot — replay is safe either way because the
    snapshot always sits at a record boundary);
``"b"``
    a batch-mode update, journaled when it enters the session buffer;
``"f"``
    a flush marker, written *after* the buffered batch was processed —
    so a consistent snapshot always refers to a ``"u"`` or ``"f"``
    sequence number, never to the middle of a burst;
``"c"``
    a control event (see :mod:`repro.control`), journaled write-ahead
    like ``"u"``. The payload is the raw event codec dict — this module
    stays below ``repro.control`` in the layering and never interprets
    it.

Records carry monotonically increasing sequence numbers. Reopening an
existing journal continues the sequence; a torn tail (a partial, an
unparsable or a checksum-failing *last* line, the signature of a crash
mid-append) is truncated away on open. That opening scan is the one
full decode a resume pays: it keeps each record's byte offset and the
control records, so :meth:`UpdateJournal.tail` seeks straight to the
first record after a snapshot's cut. A bad line with records after it
is damage, not a crash: reading raises :class:`JournalCorrupted` and
leaves the file as it is.

Replay contract: feed ``"u"`` and ``"b"`` records back through a session
configured with the *same* batch size — the buffer refills and
auto-flushes at the same boundaries — and call ``flush()`` on each
``"f"`` marker (a no-op when the auto-flush already drained the buffer,
which makes replay idempotent at batch boundaries).
"""

from __future__ import annotations

import json
import math
import os
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.geometry import Point
from repro.model import LocationUpdate

if TYPE_CHECKING:
    from repro.obs.spec import Observability

#: single-mode update, batch-buffered update, flush marker, control event.
OP_UPDATE = "u"
OP_BATCHED = "b"
OP_FLUSH = "f"
OP_CONTROL = "c"


class JournalCorrupted(ValueError):
    """A damaged journal record with intact records after it."""

    def __init__(self, path: Path, seq: int, offset: int) -> None:
        super().__init__(
            f"{path}: record seq {seq} at byte offset {offset} is damaged "
            "and records follow it; the journal was left untouched"
        )
        self.seq = seq
        self.offset = offset


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One decoded journal line."""

    seq: int
    op: str
    #: ``None`` for flush markers and control events.
    update: LocationUpdate | None = None
    #: raw control-event payload (``"c"`` records only).
    control: dict | None = None

    @property
    def is_flush(self) -> bool:
        return self.op == OP_FLUSH

    @property
    def is_control(self) -> bool:
        return self.op == OP_CONTROL


#: an update record as ``json.dumps`` writes it when the unit id is an
#: int, the coordinates are finite floats and the timestamp is an int or
#: a finite float (``repr`` is ``json.dumps``'s spelling of those, and
#: bytes ``%r`` is its ASCII form); any other record is written by
#: ``json.dumps`` itself, NaN and infinite timestamps included.
_UPDATE_BODY = (
    b'{"q": %d, "op": "%s", "u": %d, "old": [%r, %r], "new": [%r, %r], "t": %r}'
)
_OP_BYTES = {OP_UPDATE: b"u", OP_BATCHED: b"b"}


def _encode(
    seq: int,
    op: str,
    update: LocationUpdate | None = None,
    control: dict | None = None,
) -> bytes:
    """One journal line as bytes, newline included."""
    if op == OP_CONTROL:
        body = json.dumps({"q": seq, "op": op, "c": control}).encode("ascii")
    elif update is None:
        body = json.dumps({"q": seq, "op": op}).encode("ascii")
    else:
        old = update.old_location
        new = update.new_location
        t = update.timestamp
        # a finite sum means four finite coordinates (a sum that
        # overflows merely takes the json.dumps branch)
        if (
            type(update.unit_id) is int
            and type(old.x) is type(old.y) is type(new.x) is type(new.y) is float
            and math.isfinite(old.x + old.y + new.x + new.y)
            and (type(t) is int or type(t) is float and math.isfinite(t))
        ):
            body = _UPDATE_BODY % (
                seq, _OP_BYTES[op], update.unit_id,
                old.x, old.y, new.x, new.y, t,
            )
        else:
            # json.dumps escapes non-ASCII, so its text is ASCII bytes.
            body = json.dumps(
                {
                    "q": seq,
                    "op": op,
                    "u": update.unit_id,
                    "old": [old.x, old.y],
                    "new": [new.x, new.y],
                    "t": t,
                }
            ).encode("ascii")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _decode(raw: bytes) -> JournalRecord:
    """Parse one journal line; ``ValueError`` if it is partial or fails
    its checksum."""
    body = raw[9:-1]
    if (
        raw[-1:] != b"\n"
        or raw[8:9] != b" "
        or raw[:8] != b"%08x" % zlib.crc32(body)
    ):
        raise ValueError("damaged journal line")
    data = json.loads(body)
    seq = int(data["q"])
    op = data["op"]
    if op == OP_FLUSH:
        return JournalRecord(seq, op)
    if op == OP_CONTROL:
        control = data["c"]
        if not isinstance(control, dict):
            raise ValueError("control record payload must be a dict")
        return JournalRecord(seq, op, control=control)
    if op not in (OP_UPDATE, OP_BATCHED):
        raise ValueError(f"unknown journal op {op!r}")
    return JournalRecord(
        seq,
        op,
        LocationUpdate(
            unit_id=int(data["u"]),
            old_location=Point(*data["old"]),
            new_location=Point(*data["new"]),
            timestamp=data["t"],
        ),
    )


class UpdateJournal:
    """An append-only, crash-truncating journal of location updates."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._last_seq = 0
        self.obs: "Observability | None" = None
        #: the records counter's child per op, bound once on attach.
        self._records_of_op: dict[str, Any] = {}
        #: seq and start offset of every record the opening scan read,
        #: where that scan ended, and the control records among them
        #: plus those appended since.
        self._seqs = array("q")
        self._starts = array("q")
        self._scanned_end = 0
        self._controls: list[JournalRecord] = []
        self._recover_tail()
        #: unbuffered, so every append is in the file when it returns.
        self._file = self.path.open("ab", buffering=0)

    def attach_observability(self, obs: "Observability") -> None:
        """Span + count every append (fsync latency is the point)."""
        self.obs = obs
        records = obs.registry.counter(
            "ctup_journal_records_total",
            "Journal records appended (and fsynced), by op.",
            labelnames=("op",),
        )
        self._records_of_op = {
            op: records.labels(op=op)
            for op in (OP_UPDATE, OP_BATCHED, OP_FLUSH, OP_CONTROL)
        }

    def _scan(self, start: int = 0) -> Iterator[tuple[JournalRecord, int]]:
        """Every intact record from byte ``start`` on, with the byte
        offset just past it.

        A bad last line is a torn tail and is skipped; a bad line with
        another line after it raises :class:`JournalCorrupted`.
        """
        if not self.path.exists():
            return
        last_seq = 0
        end = start
        torn = False
        with self.path.open("rb") as handle:
            handle.seek(start)
            for raw in handle:
                if torn:
                    raise JournalCorrupted(self.path, last_seq + 1, end)
                try:
                    record = _decode(raw)
                except (ValueError, KeyError, TypeError):
                    torn = True
                    continue
                last_seq = record.seq
                end += len(raw)
                yield record, end

    def _recover_tail(self) -> None:
        """Scan the existing file: adopt the last sequence number, index
        the records and truncate any torn tail left behind by a crash
        mid-append."""
        good_end = 0
        for record, end in self._scan():
            self._seqs.append(record.seq)
            self._starts.append(good_end)
            if record.is_control:
                self._controls.append(record)
            self._last_seq = record.seq
            good_end = end
        self._scanned_end = good_end
        if self.path.exists() and good_end != self.path.stat().st_size:
            with self.path.open("rb+") as handle:
                handle.truncate(good_end)

    # -- writing ----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The sequence number of the most recently appended record."""
        return self._last_seq

    def continue_after(self, seq: int) -> None:
        """Number the next record past ``seq`` too: a resume whose
        snapshot covers a record the opening scan dropped as a torn tail
        must not journal a new record under that record's seq."""
        self._last_seq = max(self._last_seq, seq)

    def append_update(self, update: LocationUpdate, *, batched: bool) -> int:
        """Journal one update; returns its sequence number."""
        seq = self._last_seq + 1
        op = OP_BATCHED if batched else OP_UPDATE
        return self._append(seq, op, _encode(seq, op, update))

    def append_flush(self) -> int:
        """Journal a flush marker (the buffered batch was processed)."""
        seq = self._last_seq + 1
        return self._append(seq, OP_FLUSH, _encode(seq, OP_FLUSH))

    def append_control(self, payload: dict) -> int:
        """Journal a control event (write-ahead, like ``"u"``).

        ``payload`` is the :func:`repro.control.events.encode_event`
        dict; this layer treats it as opaque.
        """
        seq = self._last_seq + 1
        self._append(seq, OP_CONTROL, _encode(seq, OP_CONTROL, control=payload))
        self._controls.append(JournalRecord(seq, OP_CONTROL, control=payload))
        return seq

    def sync(self) -> None:
        """Force the journal to disk (idempotent, safe when closed).

        The append handle is unbuffered and every append writes its
        whole line and fsyncs it, so this fsync is a barrier that
        ``close()`` paths repeat, not one that drains anything.
        """
        if self._file.closed:
            return
        os.fsync(self._file.fileno())

    def _append(self, seq: int, op: str, line: bytes) -> int:
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            with obs.tracer.span("journal.append", cat="state", op=op):
                self._write_synced(line)
        else:
            self._write_synced(line)
        self._last_seq = seq
        if obs is not None:
            self._records_of_op[op].inc()
        return seq

    def _write_synced(self, line: bytes) -> None:
        """One write of the whole line (continued after a short write),
        then its fsync."""
        file = self._file
        written = file.write(line)
        if written != len(line):
            rest = memoryview(line)
            while written != len(rest):
                rest = rest[written:]
                written = file.write(rest)
        os.fsync(file.fileno())

    def truncate(self) -> None:
        """Drop every record (a fresh, non-resuming run owns the dir)."""
        self._file.truncate(0)
        self._file.seek(0)
        self._last_seq = 0
        self._seqs = array("q")
        self._starts = array("q")
        self._scanned_end = 0
        self._controls = []

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "UpdateJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- reading ----------------------------------------------------------

    def records(self) -> Iterator[JournalRecord]:
        """All committed records, in sequence order."""
        for record, _ in self._scan():
            yield record

    def tail(self, after_seq: int) -> list[JournalRecord]:
        """Every record with a sequence number greater than ``after_seq``
        — the replay input for a snapshot taken at ``after_seq``.

        Decodes only from the first such record on: the opening scan
        indexed where each record starts."""
        index = bisect_right(self._seqs, after_seq)
        start = (
            self._starts[index] if index < len(self._starts) else self._scanned_end
        )
        return [r for r, _ in self._scan(start) if r.seq > after_seq]

    def control_records(self) -> list[JournalRecord]:
        """Every control record, in sequence order, without reading the
        file again."""
        return list(self._controls)
