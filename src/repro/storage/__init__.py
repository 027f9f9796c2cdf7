"""The paper's two-level storage model (§II-A), simulated.

The lower level holds *all* places, grouped by grid cell into fixed-size
pages; it stands in for the disk. The higher level (the monitors) holds
the units, the per-cell bounds and a small fraction of places. Loading a
cell's places goes through :class:`PlaceStore`, which counts page reads
so the benchmarks can report machine-independent I/O costs alongside
wall-clock time. An optional LRU :class:`BufferPool` models a page
cache for the buffer-pool ablation.
"""

from repro.storage.iostats import IoStats
from repro.storage.pagestore import Page, PageStore
from repro.storage.buffer import BufferPool
from repro.storage.placestore import (
    FINGERPRINT_VERSION,
    PlaceStore,
    fingerprint_places,
)

__all__ = [
    "FINGERPRINT_VERSION",
    "IoStats",
    "Page",
    "PageStore",
    "BufferPool",
    "PlaceStore",
    "fingerprint_places",
]
