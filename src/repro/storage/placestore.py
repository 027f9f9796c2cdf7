"""The lower storage level: all places, grouped by grid cell.

A :class:`PlaceStore` lays the place set out in pages, one page run per
grid cell, mirroring the paper's lower level. Monitors never
hold the full place set; they call :meth:`read_cell` when a cell must be
illuminated/accessed, which costs page reads, and :meth:`cell_arrays`
for the vectorised safety computation (page reads charged on the first
touch, later calls served — and separately counted — from a cached
read-only view of the store's place columns).
"""

from __future__ import annotations

import dataclasses
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


def _columns_of(places: Sequence[Place]) -> tuple[np.ndarray, ...]:
    """The id, x, y and required-protection columns of ``places``."""
    n = len(places)
    return (
        np.fromiter((place.place_id for place in places), np.int64, n),
        np.fromiter((place.location.x for place in places), np.float64, n),
        np.fromiter((place.location.y for place in places), np.float64, n),
        np.fromiter(
            (place.required_protection for place in places), np.int64, n
        ),
    )


def _hash_columns(columns: Sequence[np.ndarray]) -> str:
    """SHA-256 of the id, x, y and required-protection columns, sorted
    by id, as little-endian int64 / float64 bytes."""
    ids = columns[0]
    order = np.argsort(ids, kind="stable")
    digest = hashlib.sha256()
    # one gathered column at a time: a copy of all four at once would
    # be a snapshot's heap peak.
    for column, dtype in zip(columns, ("<i8", "<f8", "<f8", "<i8")):
        digest.update(column.take(order).astype(dtype, copy=False))
    return digest.hexdigest()


def fingerprint_places(places: Iterable[Place]) -> str:
    """Exact content hash of a place set, independent of its order.

    SHA-256 over the id-sorted columns of ids, x, y and required
    protection, in that order, as little-endian int64 and float64 bytes:
    every bit of every coordinate counts, ``-0.0`` included.
    """
    return _hash_columns(
        _columns_of(places if isinstance(places, list) else list(places))
    )


class CellArrays:
    """Columnar projection of one cell's places (for numpy kernels)."""

    __slots__ = ("ids", "xs", "ys", "required")

    def __init__(self, places: Sequence[Place]) -> None:
        self.ids, self.xs, self.ys, self.required = _columns_of(places)

    @classmethod
    def view(
        cls, columns: Sequence[np.ndarray], start: int, end: int
    ) -> "CellArrays":
        """Rows ``start:end`` of a store's columns, as views."""
        arrays = cls.__new__(cls)
        ids, xs, ys, required = columns
        arrays.ids = ids[start:end]
        arrays.xs = xs[start:end]
        arrays.ys = ys[start:end]
        arrays.required = required[start:end]
        return arrays

    def __len__(self) -> int:
        return len(self.ids)


class PlaceStore:
    """Cell-clustered storage of the full place set.

    Parameters
    ----------
    grid:
        the space partition; every place is assigned to exactly one cell.
    places:
        the place set, in any order: the layout follows the place ids.
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
        #: place id -> cell, built on the first catalog lookup (only the
        #: control plane asks) and kept up to date from then on.
        self._place_cells: dict[int, CellId] | None = None
        self._array_cache: dict[CellId, CellArrays] = {}
        self._fingerprint: str | None = None
        self._bulk_load(places)

    def _bulk_load(self, places: Iterable[Place]) -> None:
        """Lay the places out in place-id order, on a fresh page directory.

        Cells are ordered by their smallest place id and hold their
        places by id, packed into pages; page ids count up in that
        order. The layout depends on the place set only, so a store
        edited by the catalog mutators and a store built from the edited
        set are one layout, page for page. The cells are computed on the
        coordinate columns with ``cell_of``'s own arithmetic (truncate,
        then clamp the upper edge). The columns, grouped by cell, are
        kept: every cell's :class:`CellArrays` and the fingerprint read
        them.
        """
        given = places if isinstance(places, list) else list(places)
        n = len(given)
        rows = given
        ids = np.fromiter((place.place_id for place in rows), np.int64, n)
        # id-ordered input (every generator's) needs no id-sized copy.
        if not (ids[1:] > ids[:-1]).all():
            by_id = np.argsort(ids, kind="stable")
            ids = ids.take(by_id)
            if (ids[1:] == ids[:-1]).any():
                self._reject(given)
            rows = [given[row] for row in by_id.tolist()]
            del by_id
        del ids
        xs = np.fromiter((place.location.x for place in rows), np.float64, n)
        ys = np.fromiter((place.location.y for place in rows), np.float64, n)
        grid = self.grid
        space = grid.space
        inside = (
            (xs >= space.xmin) & (xs <= space.xmax)
            & (ys >= space.ymin) & (ys <= space.ymax)
        )
        if not inside.all():
            self._reject(given)
        del inside
        i = ((xs - space.xmin) / grid.cell_width).astype(np.int64)
        j = ((ys - space.ymin) / grid.cell_height).astype(np.int64)
        # each temporary goes once used: the load is a session's heap
        # peak otherwise.
        linear = np.minimum(i, grid.nx - 1) * grid.ny + np.minimum(j, grid.ny - 1)
        del i, j
        occupied, first_row, counts = np.unique(
            linear, return_index=True, return_counts=True
        )
        # a stable sort groups the places by cell in id order
        order = np.argsort(linear, kind="stable")
        del linear
        xs = xs.take(order)
        ys = ys.take(order)
        records = np.empty(n, dtype=object)
        records[:] = rows
        by_cell = records[order].tolist()
        del records, order, rows
        ids = np.fromiter((place.place_id for place in by_cell), np.int64, n)
        required = np.fromiter(
            (place.required_protection for place in by_cell), np.int64, n
        )
        self._columns = (ids, xs, ys, required)
        for column in self._columns:
            column.flags.writeable = False
        self._pages.clear()
        self._buffer.clear()
        self._cell_pages: dict[CellId, list[int]] = {}
        self._cell_place_counts: dict[CellId, int] = {}
        #: each cell's rows in the columns.
        self._cell_rows: dict[CellId, tuple[int, int]] = {}
        bounds = [0, *np.cumsum(counts).tolist()]
        occupied_cells = [
            (index // grid.ny, index % grid.ny) for index in occupied.tolist()
        ]
        for group in np.argsort(first_row).tolist():
            cell = occupied_cells[group]
            start, end = bounds[group], bounds[group + 1]
            self._cell_pages[cell] = self._pages.allocate_all(by_cell[start:end])
            self._cell_place_counts[cell] = end - start
            self._cell_rows[cell] = (start, end)
        self._place_count = n

    def _reject(self, places: Sequence[Place]) -> NoReturn:
        """Raise the error a per-place load meets first: a repeated id,
        or ``cell_of``'s error for a place outside the space."""
        seen: set[int] = set()
        for place in places:
            if place.place_id in seen:
                raise ValueError(f"duplicate place id {place.place_id}")
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
            arrays = self._array_cache[cell] = self._view(cell)
        return places, arrays

    def cell_arrays(self, cell: CellId) -> CellArrays:
        """Columnar view of the cell; I/O is charged on the first touch only.

        The view slices the store's columns. The first touch pays the
        page walk like :meth:`read_cell`, and every later call is served
        from the cached view. Cache hits are still visible in the
        accounting (``IoStats.array_hits``, in page equivalents) so
        re-evaluation traffic is measurable without pretending the
        pages were read again.
        """
        arrays = self._array_cache.get(cell)
        if arrays is not None:
            self._pages.stats.array_hits += len(self._cell_pages.get(cell, ()))
            return arrays
        for page_id in self._cell_pages.get(cell, ()):
            self._buffer.read(page_id)
        arrays = self._array_cache[cell] = self._view(cell)
        return arrays

    def _view(self, cell: CellId) -> CellArrays:
        """The cell's rows of the columns (unaccounted)."""
        start, end = self._cell_rows.get(cell, (0, 0))
        return CellArrays.view(self._columns, start, end)

    # -- catalog mutation surface -----------------------------------------
    #
    # Each mutator edits the place set and lays it out again with the
    # bulk load, so an edited store is laid out as a store built from
    # the edited set (a restore) is. They are *owner API* — the RPL015
    # lint rule confines callers to repro.storage and repro.control, so
    # every catalog change flows through an epoch-bumping control event.

    def _cells_by_place(self) -> dict[int, CellId]:
        """Place id -> cell for every stored place (unaccounted)."""
        if self._place_cells is None:
            self._place_cells = {
                place.place_id: cell
                for cell in self._cell_pages
                for place in self.peek_cell(cell)
            }
        return self._place_cells

    def has_place(self, place_id: int) -> bool:
        """Whether ``place_id`` is currently stored."""
        return place_id in self._cells_by_place()

    def cell_of_place(self, place_id: int) -> CellId:
        """The cell a stored place lives in (KeyError when unknown)."""
        try:
            return self._cells_by_place()[place_id]
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

    def _edit(self, cell: CellId, places: list[Place]) -> None:
        """Lay the edited place set ``places`` out again, ``cell`` being
        the edited cell: its view and every buffer frame go, the other
        cached views are sliced from the new columns."""
        cached = [other for other in self._array_cache if other != cell]
        self._bulk_load(places)
        self._array_cache = {other: self._view(other) for other in cached}
        self._fingerprint = None

    def add_place(self, place: Place) -> CellId:
        """Insert one place; returns the cell it landed in."""
        place_cells = self._cells_by_place()
        if place.place_id in place_cells:
            raise ValueError(f"duplicate place id {place.place_id}")
        cell = self.grid.cell_of(place.location)
        self._edit(cell, [*self.peek_all_places(), place])
        place_cells[place.place_id] = cell
        return cell

    def remove_place(self, place_id: int) -> Place:
        """Delete one place; returns the removed record.

        A cell that empties disappears from the directory entirely (an
        empty cell must look exactly like a cell that never had places —
        the monitors' cell-state tables key on directory membership).
        """
        cell = self.cell_of_place(place_id)
        removed = self.peek_place(place_id)
        self._edit(cell, [p for p in self.peek_all_places() if p is not removed])
        del self._cells_by_place()[place_id]
        return removed

    def reweight(self, place_id: int, required_protection: int) -> Place:
        """Change a place's required protection; returns the *old*
        record (id, location and kind are kept)."""
        cell = self.cell_of_place(place_id)
        old = self.peek_place(place_id)
        new = dataclasses.replace(old, required_protection=required_protection)
        self._edit(cell, [new if p is old else p for p in self.peek_all_places()])
        return old

    def iter_all_places(self) -> Iterable[Place]:
        """Stream every stored place (used by oracles and initialisation).

        Accounting: charges one read per page, like a full scan.
        """
        for cell in self._cell_pages:
            yield from self.read_cell(cell)

    @property
    def fingerprint(self) -> str:
        """:func:`fingerprint_places` of the stored place set (checkpoint
        identity), hashed from the store's columns.

        Unaccounted: fingerprinting a live monitor at checkpoint time
        must not perturb its I/O counters. The digest is cached until a
        catalog mutation invalidates it.
        """
        if self._fingerprint is None:
            self._fingerprint = _hash_columns(self._columns)
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

        The array cache is repopulated with the recorded cells' views
        and the buffer frames are reloaded out of band; callers
        overwrite the shared :class:`IoStats` afterwards, so any
        accounting noise from the rebuild is erased.
        """
        self._array_cache.clear()
        for index in state["arrays"]:
            cell = self.grid.from_linear(int(index))
            self._array_cache[cell] = self._view(cell)
        self._buffer.restore_frames([int(p) for p in state["frames"]])
        self._buffer.hits = int(state["buffer_hits"])
        self._buffer.misses = int(state["buffer_misses"])
