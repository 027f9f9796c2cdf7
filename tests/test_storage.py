"""Unit tests for the simulated two-level storage."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.grid import GridPartition
from repro.model import Place
from repro.storage import BufferPool, PageStore, PlaceStore, fingerprint_places
from repro.storage.iostats import IoStats
from repro.storage.placestore import CellArrays


def make_places(n: int, grid: GridPartition) -> list[Place]:
    places = []
    for i in range(n):
        x = (i % 10) / 10 + 0.05
        y = ((i // 10) % 10) / 10 + 0.05
        places.append(Place(i, Point(x, y), required_protection=1))
    return places


class TestPageStore:
    def test_allocate_and_read(self):
        store = PageStore(page_capacity=4)
        pid = store.allocate(["a", "b"])
        page = store.read(pid)
        assert page.records == ("a", "b")
        assert store.stats.page_reads == 1
        assert store.stats.page_writes == 1

    def test_allocate_overflow_raises(self):
        store = PageStore(page_capacity=2)
        with pytest.raises(ValueError):
            store.allocate([1, 2, 3])

    def test_allocate_all_splits(self):
        store = PageStore(page_capacity=2)
        ids = store.allocate_all([1, 2, 3, 4, 5])
        assert len(ids) == 3
        assert store.read(ids[2]).records == (5,)

    def test_read_missing_page(self):
        store = PageStore()
        with pytest.raises(KeyError):
            store.read(99)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageStore(page_capacity=0)


class TestBufferPool:
    def test_hit_after_miss(self):
        store = PageStore(page_capacity=2)
        pid = store.allocate([1])
        pool = BufferPool(store, capacity=2)
        pool.read(pid)
        pool.read(pid)
        assert pool.hits == 1
        assert pool.misses == 1
        assert store.stats.page_reads == 1
        assert store.stats.buffered_reads == 1

    def test_lru_eviction(self):
        store = PageStore(page_capacity=1)
        pids = [store.allocate([i]) for i in range(3)]
        pool = BufferPool(store, capacity=2)
        pool.read(pids[0])
        pool.read(pids[1])
        pool.read(pids[2])  # evicts pids[0]
        pool.read(pids[0])  # miss again
        assert pool.misses == 4
        assert pool.hits == 0

    def test_lru_recency_updates_on_hit(self):
        store = PageStore(page_capacity=1)
        pids = [store.allocate([i]) for i in range(3)]
        pool = BufferPool(store, capacity=2)
        pool.read(pids[0])
        pool.read(pids[1])
        pool.read(pids[0])  # refresh 0
        pool.read(pids[2])  # evicts 1, not 0
        pool.read(pids[0])
        assert pool.hits == 2

    def test_zero_capacity_passthrough(self):
        store = PageStore(page_capacity=1)
        pid = store.allocate([1])
        pool = BufferPool(store, capacity=0)
        pool.read(pid)
        pool.read(pid)
        assert pool.hits == 0
        assert store.stats.page_reads == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(PageStore(), capacity=-1)

    def test_clear_drops_frames(self):
        store = PageStore(page_capacity=1)
        pid = store.allocate([1])
        pool = BufferPool(store, capacity=4)
        pool.read(pid)
        pool.clear()
        pool.read(pid)
        assert pool.misses == 2


class TestIoStats:
    def test_subtraction(self):
        a = IoStats(page_reads=10, buffered_reads=4, page_writes=2)
        b = IoStats(page_reads=3, buffered_reads=1, page_writes=2)
        diff = a - b
        assert (diff.page_reads, diff.buffered_reads, diff.page_writes) == (7, 3, 0)

    def test_reset(self):
        s = IoStats(page_reads=5)
        s.reset()
        assert s.page_reads == 0

    def test_snapshot_is_independent(self):
        s = IoStats(page_reads=1)
        snap = s.snapshot()
        s.page_reads = 9
        assert snap.page_reads == 1


class TestPlaceStore:
    @pytest.fixture
    def grid(self):
        return GridPartition.unit_square(10)

    def test_place_count(self, grid):
        store = PlaceStore(grid, make_places(50, grid))
        assert store.place_count == 50

    def test_duplicate_place_id_rejected(self, grid):
        p = Place(1, Point(0.5, 0.5), 0)
        with pytest.raises(ValueError):
            PlaceStore(grid, [p, p])

    def test_read_cell_returns_cell_places(self, grid):
        places = make_places(100, grid)
        store = PlaceStore(grid, places)
        loaded = store.read_cell((0, 0))
        assert {p.place_id for p in loaded} == {
            p.place_id for p in places if grid.cell_of(p.location) == (0, 0)
        }

    def test_read_empty_cell(self, grid):
        store = PlaceStore(grid, make_places(5, grid))
        assert store.read_cell((9, 9)) == []

    def test_io_charged_per_page(self, grid):
        store = PlaceStore(grid, make_places(100, grid), page_capacity=4)
        before = store.io_stats.page_reads
        loaded = store.read_cell((0, 0))
        pages = -(-len(loaded) // 4)
        assert store.io_stats.page_reads - before == pages

    def test_cell_arrays_alignment(self, grid):
        store = PlaceStore(grid, make_places(100, grid))
        places, arrays = store.read_cell_with_arrays((1, 1))
        assert list(arrays.ids) == [p.place_id for p in places]
        assert list(arrays.required) == [p.required_protection for p in places]

    def test_cell_arrays_charges_first_touch_only(self, grid):
        store = PlaceStore(grid, make_places(100, grid), page_capacity=8)
        base = store.io_stats.snapshot()
        store.cell_arrays((0, 0))
        first = store.io_stats.snapshot() - base
        store.cell_arrays((0, 0))
        second = store.io_stats.snapshot() - base
        # the first touch pays the page walk; the repeat is served from
        # the SoA cache and shows up as array hits instead of reads.
        assert first.page_reads > 0
        assert first.array_hits == 0
        assert second.page_reads == first.page_reads
        assert second.array_hits == first.page_reads

    def test_cell_arrays_hits_counted_in_page_equivalents(self, grid):
        store = PlaceStore(grid, make_places(100, grid), page_capacity=4)
        pages = len(store.read_cell((0, 0))) // 4 + (len(store.read_cell((0, 0))) % 4 > 0)
        store.cell_arrays((0, 0))
        before = store.io_stats.array_hits
        store.cell_arrays((0, 0))
        store.cell_arrays((0, 0))
        assert store.io_stats.array_hits - before == 2 * pages

    def test_read_cell_with_arrays_still_charges_every_time(self, grid):
        store = PlaceStore(grid, make_places(100, grid), page_capacity=8)
        base = store.io_stats.snapshot()
        store.read_cell_with_arrays((0, 0))
        first = store.io_stats.snapshot() - base
        store.read_cell_with_arrays((0, 0))
        second = store.io_stats.snapshot() - base
        # loading the Place records really re-reads the pages; only the
        # pure columnar view is cache-served.
        assert second.page_reads == 2 * first.page_reads

    def test_buffered_store_reduces_physical_reads(self, grid):
        places = make_places(100, grid)
        cold = PlaceStore(grid, places, page_capacity=4, buffer_pages=0)
        warm = PlaceStore(grid, places, page_capacity=4, buffer_pages=64)
        for _ in range(3):
            cold.read_cell((0, 0))
            warm.read_cell((0, 0))
        assert warm.io_stats.page_reads < cold.io_stats.page_reads

    def test_occupied_cells(self, grid):
        store = PlaceStore(grid, make_places(10, grid))
        occupied = store.occupied_cells()
        assert all(store.cell_place_count(c) > 0 for c in occupied)
        assert sum(store.cell_place_count(c) for c in occupied) == 10

    def test_iter_all_places(self, grid):
        places = make_places(30, grid)
        store = PlaceStore(grid, places)
        assert {p.place_id for p in store.iter_all_places()} == set(range(30))

    def test_place_on_space_boundary(self):
        grid = GridPartition(Rect(0.0, 0.0, 1.0, 1.0), 4, 4)
        store = PlaceStore(grid, [Place(0, Point(1.0, 1.0), 0)])
        assert store.cell_place_count((3, 3)) == 1


def edge_places(grid: GridPartition) -> list[Place]:
    """Places on cell edges, on the space's border and in between, in
    an order where cells first appear out of linear order."""
    space = grid.space
    xs = [space.xmin + i * grid.cell_width for i in range(grid.nx)]
    ys = [space.ymin + j * grid.cell_height for j in range(grid.ny)]
    coords = [space.xmax, space.xmin, 0.5, 1.0 / 3.0, 0.7, *xs]
    coords += [math.nextafter(x, math.inf) for x in xs[1:]]
    coords += [math.nextafter(x, -math.inf) for x in xs[1:]]
    coords += [space.ymax, *ys]
    places = []
    for n, (x, y) in enumerate(
        (x, y) for x in coords for y in reversed(coords)
    ):
        x = min(max(x, space.xmin), space.xmax)
        y = min(max(y, space.ymin), space.ymax)
        places.append(Place(1000 - 7 * n, Point(x, y), n % 3))
    return places


class TestBulkLoadLayout:
    """The bulk load computes cells on columns; the layout must be the
    one a per-place ``grid.cell_of`` loop over the places in id order
    builds, whatever order they come in."""

    @staticmethod
    def reference(grid, places, page_capacity):
        by_cell: dict = {}
        place_cells = {}
        for place in sorted(places, key=lambda p: p.place_id):
            cell = grid.cell_of(place.location)
            place_cells[place.place_id] = cell
            by_cell.setdefault(cell, []).append(place)
        pages = {
            cell: [
                tuple(rows[start : start + page_capacity])
                for start in range(0, len(rows), page_capacity)
            ]
            for cell, rows in by_cell.items()
        }
        counts = {cell: len(rows) for cell, rows in by_cell.items()}
        return pages, counts, place_cells

    @pytest.mark.parametrize(
        "grid",
        [
            GridPartition.unit_square(10),
            GridPartition.unit_square(3),
            GridPartition(Rect(-1.0, 0.25, 2.0, 1.0), 7, 5),
        ],
    )
    @pytest.mark.parametrize("as_iterator", [False, True])
    def test_layout_matches_a_cell_of_loop(self, grid, as_iterator):
        places = edge_places(grid)
        store = PlaceStore(
            grid, iter(places) if as_iterator else places, page_capacity=4
        )
        pages, counts, place_cells = self.reference(grid, places, 4)
        assert list(store._cell_pages) == list(pages)
        assert store.occupied_cells() == list(pages)
        page_ids = [pid for ids in store._cell_pages.values() for pid in ids]
        assert page_ids == list(range(store.page_count))
        assert {
            cell: [store._pages.peek(pid).records for pid in ids]
            for cell, ids in store._cell_pages.items()
        } == pages
        assert store._cell_place_counts == counts
        assert list(store._cell_place_counts) == list(counts)
        assert store._cells_by_place() == place_cells
        assert store.place_count == len(places)
        # every place of a cell points at one shared cell tuple
        shared = {id(cell) for cell in store._place_cells.values()}
        assert len(shared) == len(pages)

    def test_empty_place_set(self):
        store = PlaceStore(GridPartition.unit_square(4), iter(()))
        assert store.place_count == 0
        assert store.occupied_cells() == []
        assert store.page_count == 0

    @pytest.mark.parametrize(
        "bad",
        [Point(1.5, 0.5), Point(0.5, -1e-12), Point(math.nan, 0.5)],
    )
    def test_place_outside_the_space_raises_cell_ofs_error(self, bad):
        grid = GridPartition.unit_square(4)
        places = make_places(20, grid)
        places.insert(7, Place(99, bad, 0))
        with pytest.raises(ValueError) as expected:
            grid.cell_of(bad)
        with pytest.raises(ValueError) as raised:
            PlaceStore(grid, places)
        assert str(raised.value) == str(expected.value)

    def test_duplicate_id_error_names_the_id(self):
        grid = GridPartition.unit_square(4)
        places = make_places(20, grid)
        places.append(Place(13, Point(0.9, 0.9), 2))
        with pytest.raises(ValueError, match="duplicate place id 13"):
            PlaceStore(grid, places)

    def test_the_first_bad_place_decides_the_error(self):
        grid = GridPartition.unit_square(4)
        places = make_places(20, grid)
        outside = Place(50, Point(2.0, 0.5), 0)
        duplicate = Place(3, Point(0.5, 0.5), 0)
        with pytest.raises(ValueError, match="duplicate place id 3"):
            PlaceStore(grid, [*places, duplicate, outside])
        with pytest.raises(ValueError, match="outside the monitored space"):
            PlaceStore(grid, [*places, outside, duplicate])


def assert_same_columns(arrays: CellArrays, places: list[Place]) -> None:
    """``arrays`` holds exactly the bits of ``CellArrays(places)``."""
    expected = CellArrays(places)
    for name in ("ids", "xs", "ys", "required"):
        got, want = getattr(arrays, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestColumnViews:
    """Every cell's arrays slice the store's columns; the fingerprint
    hashes the same columns."""

    GRIDS = [
        GridPartition.unit_square(10),
        GridPartition.unit_square(3),
        GridPartition(Rect(-1.0, 0.25, 2.0, 1.0), 7, 5),
    ]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_every_cell_view_equals_its_pages(self, grid):
        places = edge_places(grid)
        places.append(Place(5000, Point(grid.space.xmin, grid.space.ymin), 2))
        views = PlaceStore(grid, places, page_capacity=4)
        loaded = PlaceStore(grid, places, page_capacity=4)
        for cell in grid.all_cells():
            arrays = views.cell_arrays(cell)
            assert_same_columns(arrays, loaded.read_cell(cell))
            assert not arrays.xs.flags.writeable
            _, again = views.read_cell_with_arrays(cell)
            assert again is arrays

    def test_mutations_rebuild_views_and_fingerprint_from_the_pages(self):
        grid = GridPartition.unit_square(4)
        store = PlaceStore(grid, make_places(60, grid), page_capacity=4)
        for cell in grid.all_cells():
            store.cell_arrays(cell)

        def check() -> None:
            assert store.fingerprint == fingerprint_places(store.peek_all_places())
            for cell in grid.all_cells():
                assert_same_columns(store.cell_arrays(cell), store.peek_cell(cell))
            # a rebuild re-slices the cached views: no older column
            # generation stays alive beside the current one
            xs = store._columns[1]
            for arrays in store._array_cache.values():
                assert arrays.xs.base is xs

        check()
        before = store.fingerprint
        store.add_place(Place(500, Point(0.61, 0.37), 4))
        check()
        assert store.fingerprint != before
        store.reweight(500, 9)
        check()
        store.remove_place(3)
        check()
        store.remove_place(500)
        store.add_place(Place(3, Point(0.35, 0.05), 1))
        check()
        assert store.fingerprint == before

    def test_fingerprint_survives_a_grid_retune(self):
        from repro.control.events import GridRetuned
        from repro.core import CTUPConfig, OptCTUP
        from repro.workloads import generate_places, generate_units

        config = CTUPConfig(k=4, granularity=5)
        monitor = OptCTUP(
            config,
            generate_places(200, seed=3),
            generate_units(6, config.protection_range, seed=4),
        )
        monitor.initialize()
        before = monitor.store.fingerprint
        monitor.apply_control(GridRetuned(granularity=7))
        store = monitor.store
        assert store.fingerprint == before
        assert store.fingerprint == fingerprint_places(store.peek_all_places())
        for cell in store.occupied_cells():
            assert_same_columns(store.cell_arrays(cell), store.peek_cell(cell))


def layout(store: PlaceStore) -> tuple:
    """Everything two stores laid out alike agree on: the directory
    order, every page's id and records, the columns, each cell's rows in
    them, the place-id → cell map and the fingerprint."""
    return (
        [
            (cell, [(pid, store._pages.peek(pid).records) for pid in ids])
            for cell, ids in store._cell_pages.items()
        ],
        [column.tobytes() for column in store._columns],
        store._cell_rows,
        store._cells_by_place(),
        store.fingerprint,
    )


class TestEditedLayout:
    """After any catalog edits the store is laid out exactly as a store
    built from its place set (what a restore builds)."""

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.sampled_from([1, 4, 64]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "reweight"]),
                st.integers(0, 80),
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_edited_store_equals_a_fresh_one(self, capacity, edits):
        grid = GridPartition.unit_square(4)
        places = make_places(40, grid)
        store = PlaceStore(grid, places, page_capacity=capacity, buffer_pages=3)
        stats = store.io_stats
        catalog = {place.place_id: place for place in places}
        for op, pid, x, y, weight in edits:
            for cell in list(grid.all_cells())[::3]:
                store.cell_arrays(cell)
            if op == "add" and pid not in catalog:
                catalog[pid] = Place(pid, Point(x, y), weight)
                store.add_place(catalog[pid])
            elif op == "remove" and pid in catalog:
                del catalog[pid]
                store.remove_place(pid)
            elif op == "reweight" and pid in catalog:
                catalog[pid] = Place(pid, catalog[pid].location, weight)
                store.reweight(pid, weight)
            else:
                continue
            fresh = PlaceStore(grid, list(catalog.values()), page_capacity=capacity)
            assert layout(store) == layout(fresh)
            assert store.io_stats is stats
            assert store.buffer.frame_ids() == []
            for cell, arrays in store._array_cache.items():
                assert_same_columns(arrays, fresh.peek_cell(cell))
