"""A minimal page-granular store.

The store holds immutable pages of records keyed by an integer page id.
It knows nothing about places or cells — :class:`repro.storage.placestore
.PlaceStore` layers that schema on top. Reads are counted through a
shared :class:`~repro.storage.iostats.IoStats` so higher layers (buffer
pool, place store, bench harness) all see the same traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.storage.iostats import IoStats


@dataclass(frozen=True, slots=True)
class Page:
    """An immutable page of records."""

    page_id: int
    records: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class PageStore:
    """A collection of pages with read/write accounting."""

    page_capacity: int = 64
    stats: IoStats = field(default_factory=IoStats)

    def __post_init__(self) -> None:
        if self.page_capacity <= 0:
            raise ValueError("page capacity must be positive")
        self._pages: dict[int, Page] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._pages)

    def allocate(self, records: Sequence[Any]) -> int:
        """Write ``records`` (at most one page worth) as a new page."""
        if len(records) > self.page_capacity:
            raise ValueError(
                f"{len(records)} records exceed page capacity {self.page_capacity}"
            )
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = Page(page_id, tuple(records))
        self.stats.page_writes += 1
        return page_id

    def allocate_all(self, records: Sequence[Any]) -> list[int]:
        """Write ``records`` across as many pages as needed."""
        ids = []
        for start in range(0, len(records), self.page_capacity):
            ids.append(self.allocate(records[start : start + self.page_capacity]))
        return ids

    def clear(self) -> None:
        """Drop every page and number the next one 0 again, keeping the
        stats: a fresh directory for a new layout."""
        self._pages.clear()
        self._next_id = 0

    def read(self, page_id: int) -> Page:
        """Read one page, counting a physical read."""
        try:
            page = self._pages[page_id]
        except KeyError:
            raise KeyError(f"no such page: {page_id}") from None
        self.stats.page_reads += 1
        return page

    def peek(self, page_id: int) -> Page:
        """Read one page without accounting.

        Reserved for out-of-band inspection (checkpoint fingerprinting)
        that must not perturb the experiment's I/O counters.
        """
        try:
            return self._pages[page_id]
        except KeyError:
            raise KeyError(f"no such page: {page_id}") from None
