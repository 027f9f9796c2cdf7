"""I/O accounting for the simulated disk level."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class IoStats:
    """Counters for simulated page traffic.

    ``page_reads`` counts physical reads that missed every cache;
    ``buffered_reads`` counts reads satisfied by a buffer pool;
    ``array_hits`` counts page equivalents served from the columnar
    (SoA) snapshot cache instead of the page level — re-evaluations of
    an already-projected cell are memory traffic, not I/O;
    ``page_writes`` counts physical writes (only the bulk load writes
    pages: at construction and again after each catalog edit).
    """

    page_reads: int = 0
    buffered_reads: int = 0
    page_writes: int = 0
    array_hits: int = 0

    def reset(self) -> None:
        """Zero all counters (called by the bench harness between phases)."""
        self.page_reads = 0
        self.buffered_reads = 0
        self.page_writes = 0
        self.array_hits = 0

    def snapshot(self) -> "IoStats":
        """An independent copy of the current counters."""
        return IoStats(
            self.page_reads, self.buffered_reads, self.page_writes, self.array_hits
        )

    def restore(self, values: "IoStats") -> None:
        """Overwrite every counter with ``values`` (checkpoint resume)."""
        self.page_reads = values.page_reads
        self.buffered_reads = values.buffered_reads
        self.page_writes = values.page_writes
        self.array_hits = values.array_hits

    def __sub__(self, other: "IoStats") -> "IoStats":
        return IoStats(
            self.page_reads - other.page_reads,
            self.buffered_reads - other.buffered_reads,
            self.page_writes - other.page_writes,
            self.array_hits - other.array_hits,
        )

    def __add__(self, other: "IoStats") -> "IoStats":
        """Element-wise sum (aggregation across shard stores)."""
        return IoStats(
            self.page_reads + other.page_reads,
            self.buffered_reads + other.buffered_reads,
            self.page_writes + other.page_writes,
            self.array_hits + other.array_hits,
        )
