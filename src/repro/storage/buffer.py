"""An LRU buffer pool over a :class:`~repro.storage.pagestore.PageStore`.

The paper's model divides memory in two, one piece simulating the disk.
The buffer pool makes that split explicit and is the subject of the
buffer ablation bench: with a pool large enough to hold the hot cells,
repeated illuminations of the same "flashing" cell stop costing physical
reads, which is exactly the effect Δ is designed to avoid algorithmically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.storage.pagestore import Page, PageStore


class BufferPool:
    """A fixed-capacity LRU cache of pages.

    ``capacity`` is the number of pages held. A capacity of zero degrades
    to a pass-through (every read is physical).
    """

    def __init__(self, store: PageStore, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity cannot be negative")
        self._store = store
        self._capacity = capacity
        self._frames: OrderedDict[int, Page] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._frames)

    def read(self, page_id: int) -> Page:
        """Read a page through the pool, counting hits and misses."""
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self.hits += 1
            self._store.stats.buffered_reads += 1
            return self._frames[page_id]
        self.misses += 1
        page = self._store.read(page_id)
        if self._capacity > 0:
            self._frames[page_id] = page
            if len(self._frames) > self._capacity:
                self._frames.popitem(last=False)
        return page

    def clear(self) -> None:
        """Drop every cached frame (counters are kept)."""
        self._frames.clear()

    def frame_ids(self) -> list[int]:
        """Resident page ids in LRU order (oldest first)."""
        return list(self._frames)

    def restore_frames(self, page_ids: Sequence[int]) -> None:
        """Reload exactly ``page_ids`` (LRU order), without accounting.

        Used by checkpoint restore: the frames are reloaded out of band
        and the hit/miss counters are overwritten afterwards, so the
        resumed pool is bit-identical to the one that was snapshotted.
        """
        self._frames.clear()
        for page_id in page_ids:
            if self._capacity <= 0:
                break
            self._frames[page_id] = self._store.peek(page_id)
            if len(self._frames) > self._capacity:
                self._frames.popitem(last=False)
