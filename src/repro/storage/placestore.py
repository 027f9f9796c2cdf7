"""The lower storage level: all places, grouped by grid cell.

A :class:`PlaceStore` lays the (static) place set out in pages, one page
run per grid cell, mirroring the paper's lower level. Monitors never
hold the full place set; they call :meth:`read_cell` when a cell must be
illuminated/accessed, which costs page reads, and :meth:`cell_arrays`
for the vectorised safety computation (page reads charged on the first
touch, later calls served — and separately counted — from an immutable
per-cell SoA snapshot cache).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from repro.grid.partition import CellId, GridPartition
from repro.model import Place
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IoStats
from repro.storage.pagestore import PageStore


#: version of :func:`fingerprint_places`; snapshots record it.
FINGERPRINT_VERSION = 3


def fingerprint_places(places: Iterable[Place]) -> str:
    """Exact content hash of a place set, independent of its order.

    SHA-256 over the id-sorted columns of ids, x, y and required
    protection, in that order, as little-endian int64 and float64 bytes:
    every bit of every coordinate counts, ``-0.0`` included.
    """
    rows = places if isinstance(places, list) else list(places)
    n = len(rows)
    ids = np.fromiter((place.place_id for place in rows), "<i8", n)
    order = np.argsort(ids, kind="stable")
    digest = hashlib.sha256(ids[order])
    del ids
    # one column at a time: the generators are drained only here
    for dtype, values in (
        ("<f8", (place.location.x for place in rows)),
        ("<f8", (place.location.y for place in rows)),
        ("<i8", (place.required_protection for place in rows)),
    ):
        digest.update(np.fromiter(values, dtype, n)[order])
    return digest.hexdigest()


class CellArrays:
    """Columnar projection of one cell's places (for numpy kernels)."""

    __slots__ = ("ids", "xs", "ys", "required")

    def __init__(self, places: Sequence[Place]) -> None:
        self.ids = np.array([p.place_id for p in places], dtype=np.int64)
        self.xs = np.array([p.location.x for p in places], dtype=np.float64)
        self.ys = np.array([p.location.y for p in places], dtype=np.float64)
        self.required = np.array(
            [p.required_protection for p in places], dtype=np.int64
        )

    def __len__(self) -> int:
        return len(self.ids)


class PlaceStore:
    """Cell-clustered storage of the full place set.

    Parameters
    ----------
    grid:
        the space partition; every place is assigned to exactly one cell.
    places:
        the static place set.
    page_capacity:
        places per simulated page.
    buffer_pages:
        if positive, reads go through an LRU buffer pool of that many
        pages (the buffer ablation); if zero, every read is physical.
    """

    def __init__(
        self,
        grid: GridPartition,
        places: Iterable[Place],
        page_capacity: int = 64,
        buffer_pages: int = 0,
    ) -> None:
        self.grid = grid
        self._pages = PageStore(page_capacity=page_capacity)
        self._buffer = BufferPool(self._pages, buffer_pages)
        self._cell_pages: dict[CellId, list[int]] = {}
        self._cell_place_counts: dict[CellId, int] = {}
        self._place_cells: dict[int, CellId] = {}
        self._array_cache: dict[CellId, CellArrays] = {}
        self._place_count = 0
        self._fingerprint: str | None = None
        self._bulk_load(places)

    def _bulk_load(self, places: Iterable[Place]) -> None:
        """Lay the places out cell by cell, as ``grid.cell_of`` assigns them.

        The cells are computed on the coordinate columns with
        ``cell_of``'s own arithmetic (truncate, then clamp the upper
        edge). Cells get their pages in order of first appearance and
        keep the input order inside, so page ids and every tie-break that
        follows the directory order are those of a per-place loop.
        """
        rows = places if isinstance(places, list) else list(places)
        n = len(rows)
        ids = [place.place_id for place in rows]
        xs = np.fromiter((place.location.x for place in rows), np.float64, n)
        ys = np.fromiter((place.location.y for place in rows), np.float64, n)
        grid = self.grid
        space = grid.space
        inside = (
            (xs >= space.xmin) & (xs <= space.xmax)
            & (ys >= space.ymin) & (ys <= space.ymax)
        )
        if not inside.all():
            self._reject(rows, inside)
        i = ((xs - space.xmin) / grid.cell_width).astype(np.int64)
        j = ((ys - space.ymin) / grid.cell_height).astype(np.int64)
        # each temporary goes once used: kept to the end, they would make
        # the load a session's heap peak (|P| = 15,000: 1.8 MB against
        # the 1.5 MB a whole paper-single pass peaks at otherwise).
        del xs, ys
        linear = np.minimum(i, grid.nx - 1) * grid.ny + np.minimum(j, grid.ny - 1)
        del i, j
        occupied, first_row, group_of_row, counts = np.unique(
            linear, return_index=True, return_inverse=True, return_counts=True
        )
        # one shared tuple per cell, indexed by group (ascending linear)
        cells = np.empty(len(occupied), dtype=object)
        for group, index in enumerate(occupied.tolist()):
            cells[group] = (index // grid.ny, index % grid.ny)
        self._place_cells = dict(zip(ids, cells[group_of_row].tolist()))
        if len(self._place_cells) < n:
            self._reject(rows, inside)
        del ids, group_of_row
        # a stable sort groups the places by cell in input order
        records = np.empty(n, dtype=object)
        records[:] = rows
        by_cell = records[np.argsort(linear, kind="stable")].tolist()
        del records, linear
        bounds = [0, *np.cumsum(counts).tolist()]
        for group in np.argsort(first_row).tolist():
            cell = cells[group]
            start, end = bounds[group], bounds[group + 1]
            self._cell_pages[cell] = self._pages.allocate_all(by_cell[start:end])
            self._cell_place_counts[cell] = end - start
        self._place_count = n

    def _reject(self, places: Sequence[Place], inside: np.ndarray) -> NoReturn:
        """Raise the error a per-place load meets first: a repeated id,
        or ``cell_of``'s error for a place outside the space."""
        seen: set[int] = set()
        for place, ok in zip(places, inside.tolist()):
            if place.place_id in seen:
                raise ValueError(f"duplicate place id {place.place_id}")
            if not ok:
                self.grid.cell_of(place.location)
            seen.add(place.place_id)
        raise AssertionError("no rejected place found")  # pragma: no cover

    @property
    def io_stats(self) -> IoStats:
        """Shared traffic counters (physical and buffered reads)."""
        return self._pages.stats

    @property
    def buffer(self) -> BufferPool:
        return self._buffer

    @property
    def place_count(self) -> int:
        return self._place_count

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def cell_place_count(self, cell: CellId) -> int:
        """How many places live in ``cell`` (0 for empty cells)."""
        return self._cell_place_counts.get(cell, 0)

    def occupied_cells(self) -> list[CellId]:
        """Cells that contain at least one place."""
        return list(self._cell_pages)

    def read_cell(self, cell: CellId) -> list[Place]:
        """Load all places of ``cell``, paying the page reads."""
        places: list[Place] = []
        for page_id in self._cell_pages.get(cell, ()):
            places.extend(self._buffer.read(page_id).records)
        return places

    def read_cell_with_arrays(self, cell: CellId) -> tuple[list[Place], CellArrays]:
        """Load a cell's places and their columnar view in one charge.

        The monitors need both the :class:`Place` objects (to maintain)
        and the columnar projection (to vectorise the safety kernel);
        fetching them separately would double-count the page reads. The
        arrays are row-aligned with the returned place list.
        """
        places = self.read_cell(cell)
        arrays = self._array_cache.get(cell)
        if arrays is None:
            arrays = CellArrays(places)
            self._array_cache[cell] = arrays
        return places, arrays

    def cell_arrays(self, cell: CellId) -> CellArrays:
        """Columnar view of the cell; I/O is charged on the first touch only.

        Places are immutable, so the projection is built once per cell —
        paying the page walk like :meth:`read_cell` — and every later
        call is served from the SoA cache. Cache hits are still visible
        in the accounting (``IoStats.array_hits``, in page equivalents)
        so re-evaluation traffic is measurable without pretending the
        pages were read again.
        """
        arrays = self._array_cache.get(cell)
        if arrays is not None:
            self._pages.stats.array_hits += len(self._cell_pages.get(cell, ()))
            return arrays
        places = []
        for page_id in self._cell_pages.get(cell, ()):
            places.extend(self._buffer.read(page_id).records)
        arrays = CellArrays(places)
        self._array_cache[cell] = arrays
        return arrays

    # -- catalog mutation surface -----------------------------------------
    #
    # The place set was constructor-frozen until the reconfiguration
    # layer (repro.control) arrived. These mutators keep the page layout,
    # the per-cell directory, the SoA cache and the buffer pool mutually
    # consistent; they are *owner API* — the RPL015 lint rule confines
    # callers to repro.storage and repro.control, so every catalog change
    # flows through an epoch-bumping control event.

    def has_place(self, place_id: int) -> bool:
        """Whether ``place_id`` is currently stored."""
        return place_id in self._place_cells

    def cell_of_place(self, place_id: int) -> CellId:
        """The cell a stored place lives in (KeyError when unknown)."""
        try:
            return self._place_cells[place_id]
        except KeyError:
            raise KeyError(f"no such place: {place_id}") from None

    def peek_place(self, place_id: int) -> Place:
        """Fetch one stored place without accounting (control plane use)."""
        cell = self.cell_of_place(place_id)
        for page_id in self._cell_pages.get(cell, ()):
            for place in self._pages.peek(page_id).records:
                if place.place_id == place_id:
                    return place
        raise KeyError(f"no such place: {place_id}")  # pragma: no cover

    def peek_cell(self, cell: CellId) -> list[Place]:
        """All places of ``cell`` without accounting (control plane use)."""
        places: list[Place] = []
        for page_id in self._cell_pages.get(cell, ()):
            places.extend(self._pages.peek(page_id).records)
        return places

    def peek_all_places(self) -> list[Place]:
        """Every stored place, unaccounted, in cell-directory order."""
        out: list[Place] = []
        for cell in self._cell_pages:
            out.extend(self.peek_cell(cell))
        return out

    def _invalidate_cell(self, cell: CellId) -> None:
        """Drop every cache derived from a mutated cell's pages."""
        self._array_cache.pop(cell, None)
        for page_id in self._cell_pages.get(cell, ()):
            self._buffer.invalidate(page_id)
        self._fingerprint = None

    def add_place(self, place: Place) -> CellId:
        """Insert one place; returns the cell it landed in.

        The place goes into its cell's last page when that page has
        room, otherwise a fresh page is appended to the cell's run (a
        brand-new cell gets its first page). Charges the page write(s)
        the placement costs.
        """
        if place.place_id in self._place_cells:
            raise ValueError(f"duplicate place id {place.place_id}")
        cell = self.grid.cell_of(place.location)
        pages = self._cell_pages.get(cell)
        if pages:
            last = self._pages.peek(pages[-1])
            if len(last) < self._pages.page_capacity:
                self._pages.replace(pages[-1], last.records + (place,))
            else:
                pages.append(self._pages.allocate([place]))
        else:
            self._cell_pages[cell] = [self._pages.allocate([place])]
        self._cell_place_counts[cell] = self._cell_place_counts.get(cell, 0) + 1
        self._place_cells[place.place_id] = cell
        self._place_count += 1
        self._invalidate_cell(cell)
        return cell

    def remove_place(self, place_id: int) -> Place:
        """Delete one place; returns the removed record.

        The holding page is rewritten without the record; a page that
        empties is released, and a cell that empties disappears from the
        directory entirely (an empty cell must look exactly like a cell
        that never had places — the monitors' cell-state tables key on
        directory membership).
        """
        cell = self.cell_of_place(place_id)
        self._invalidate_cell(cell)
        removed: Place | None = None
        for page_id in list(self._cell_pages.get(cell, ())):
            records = self._pages.peek(page_id).records
            kept = tuple(p for p in records if p.place_id != place_id)
            if len(kept) == len(records):
                continue
            removed = next(p for p in records if p.place_id == place_id)
            if kept:
                self._pages.replace(page_id, kept)
            else:
                self._pages.release(page_id)
                self._buffer.invalidate(page_id)
                self._cell_pages[cell].remove(page_id)
            break
        assert removed is not None  # _place_cells said it was here
        del self._place_cells[place_id]
        self._place_count -= 1
        remaining = self._cell_place_counts[cell] - 1
        if remaining:
            self._cell_place_counts[cell] = remaining
        else:
            del self._cell_place_counts[cell]
            del self._cell_pages[cell]
        return removed

    def reweight(self, place_id: int, required_protection: int) -> Place:
        """Rewrite a place's required protection in place; returns the
        *old* record (same id, location and kind are kept)."""
        cell = self.cell_of_place(place_id)
        for page_id in self._cell_pages.get(cell, ()):
            records = self._pages.peek(page_id).records
            for index, place in enumerate(records):
                if place.place_id != place_id:
                    continue
                patched = Place(
                    place_id=place.place_id,
                    location=place.location,
                    required_protection=required_protection,
                    kind=place.kind,
                )
                self._pages.replace(
                    page_id,
                    records[:index] + (patched,) + records[index + 1 :],
                )
                self._invalidate_cell(cell)
                return place
        raise KeyError(f"no such place: {place_id}")  # pragma: no cover

    def iter_all_places(self) -> Iterable[Place]:
        """Stream every stored place (used by oracles and initialisation).

        Accounting: charges one read per page, like a full scan.
        """
        for cell in self._cell_pages:
            yield from self.read_cell(cell)

    @property
    def fingerprint(self) -> str:
        """:func:`fingerprint_places` of the stored place set (checkpoint
        identity).

        The scan is unaccounted (``peek``): fingerprinting a live monitor
        at checkpoint time must not perturb its I/O counters. The digest
        is cached until a catalog mutation invalidates it.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_places(self.peek_all_places())
        return self._fingerprint

    def export_cache_state(self) -> dict[str, Any]:
        """JSON-codable picture of the store's transient caches.

        Captures which cells sit in the SoA array cache, which pages are
        resident in the buffer pool (LRU order), and the pool's hit/miss
        counters — everything :meth:`restore_cache_state` needs to bring
        a freshly bulk-loaded store back to the snapshotted cache state.
        """
        return {
            "arrays": [self.grid.linear(cell) for cell in self._array_cache],
            "frames": self._buffer.frame_ids(),
            "buffer_hits": self._buffer.hits,
            "buffer_misses": self._buffer.misses,
        }

    def restore_cache_state(self, state: Mapping[str, Any]) -> None:
        """Rebuild the transient caches captured by :meth:`export_cache_state`.

        The array cache is repopulated by re-projecting the recorded
        cells and the buffer frames are reloaded out of band; callers
        overwrite the shared :class:`IoStats` afterwards, so any
        accounting noise from the rebuild is erased.
        """
        self._array_cache.clear()
        for index in state["arrays"]:
            cell = self.grid.from_linear(int(index))
            places: list[Place] = []
            for page_id in self._cell_pages.get(cell, ()):
                places.extend(self._pages.peek(page_id).records)
            self._array_cache[cell] = CellArrays(places)
        self._buffer.restore_frames([int(p) for p in state["frames"]])
        self._buffer.hits = int(state["buffer_hits"])
        self._buffer.misses = int(state["buffer_misses"])
