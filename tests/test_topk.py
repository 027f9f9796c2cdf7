"""Unit + property tests for the maintained-place table."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES, ShardSpec, make_monitor
from repro.core.topk import MaintainedPlaces, kth_smallest, topk_rows
from repro.geometry import Point
from repro.grid import GridPartition
from repro.model import Place
from repro.storage.placestore import CellArrays, PlaceStore


def place(pid: int, x: float = 0.5, y: float = 0.5, rp: int = 1) -> Place:
    return Place(pid, Point(x, y), rp)


def table_with(entries) -> MaintainedPlaces:
    table = MaintainedPlaces()
    for pid, safety in entries:
        table.insert(place(pid), safety, cell=0)
    return table


class TestHelpers:
    def test_kth_smallest_basic(self):
        assert kth_smallest(np.array([5.0, 1.0, 3.0]), 2) == 3.0

    def test_kth_smallest_not_enough_values(self):
        assert kth_smallest(np.array([1.0]), 2) == math.inf

    def test_topk_rows_tie_break_by_id(self):
        ids = np.array([30, 10, 20], dtype=np.int64)
        safety = np.array([1.0, 1.0, 1.0])
        rows = topk_rows(ids, safety, 2)
        assert ids[rows].tolist() == [10, 20]

    def test_topk_rows_orders_by_safety_first(self):
        ids = np.array([1, 2, 3], dtype=np.int64)
        safety = np.array([3.0, -1.0, 0.0])
        rows = topk_rows(ids, safety, 3)
        assert ids[rows].tolist() == [2, 3, 1]

    def test_topk_rows_empty(self):
        assert len(topk_rows(np.empty(0, dtype=np.int64), np.empty(0), 5)) == 0

    def test_topk_rows_tie_straddling_the_k_boundary(self):
        # regression: a tie group larger than the remaining k slots must
        # be cut by ascending id — the shared (safety, id) contract that
        # makes per-shard partial results mergeable into a unique prefix.
        ids = np.array([40, 10, 30, 20, 50], dtype=np.int64)
        safety = np.array([-1.0, 0.0, -1.0, -1.0, -1.0])
        rows = topk_rows(ids, safety, 3)
        assert ids[rows].tolist() == [20, 30, 40]
        # growing k extends the same prefix, never reorders it.
        rows4 = topk_rows(ids, safety, 4)
        assert ids[rows4].tolist() == [20, 30, 40, 50]
        assert ids[rows4][:3].tolist() == ids[rows].tolist()

    def test_table_top_k_agrees_with_topk_rows_on_ties(self):
        entries = [(40, -1.0), (10, 0.0), (30, -1.0), (20, -1.0), (50, -1.0)]
        table = table_with(entries)
        ids = np.array([pid for pid, _ in entries], dtype=np.int64)
        safety = np.array([s for _, s in entries])
        for k in (1, 3, 5):
            from_rows = [int(ids[r]) for r in topk_rows(ids, safety, k)]
            from_table = [r.place_id for r in table.top_k(k)]
            assert from_table == from_rows

    @settings(max_examples=100)
    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=50), st.integers(1, 10))
    def test_topk_rows_matches_sorted(self, values, k):
        ids = np.arange(len(values), dtype=np.int64)
        safety = np.array(values, dtype=np.float64)
        rows = topk_rows(ids, safety, k)
        expected = sorted(zip(values, range(len(values))))[: min(k, len(values))]
        assert [(safety[r], ids[r]) for r in rows.tolist()] == [
            (float(s), i) for s, i in expected
        ]


class TestInsertRemove:
    def test_insert_and_lookup(self):
        table = table_with([(1, -2.0), (2, 0.0)])
        assert len(table) == 2
        assert 1 in table
        assert table.safety_of(1) == -2.0
        assert table.place_of(2).place_id == 2

    def test_duplicate_insert_rejected(self):
        table = table_with([(1, 0.0)])
        with pytest.raises(ValueError):
            table.insert(place(1), 1.0, cell=0)

    def test_remove_id(self):
        table = table_with([(1, -2.0), (2, 0.0)])
        removed_place, safety = table.remove_id(1)
        assert removed_place.place_id == 1
        assert safety == -2.0
        assert 1 not in table
        assert len(table) == 1

    def test_swap_remove_keeps_index_consistent(self):
        table = table_with([(1, -1.0), (2, -2.0), (3, -3.0)])
        table.remove_id(1)  # last row swaps into row 0
        assert table.safety_of(3) == -3.0
        assert table.safety_of(2) == -2.0

    def test_remove_cell_of_an_absent_cell(self):
        table = table_with([(1, -1.0)])
        assert table.remove_cell(5) == math.inf
        assert len(table) == 1

    def test_remove_id_of_an_absent_place(self):
        table = table_with([(1, -1.0)])
        with pytest.raises(KeyError):
            table.remove_id(5)
        assert table.export_rows() == [[1, -1.0, 0]]

    def test_bulk_removal_path(self):
        # a large batch: most of the table leaves in one call.
        table = MaintainedPlaces()
        for i in range(100):
            table.insert(place(i), float(i), cell=0 if i < 10 else 1)
        min_removed = table.remove_cell(1)
        assert min_removed == 10.0
        assert len(table) == 10
        for pid in range(10):
            assert table.safety_of(pid) == float(pid)

    def test_growth_beyond_initial_capacity(self):
        table = table_with([(i, float(i)) for i in range(500)])
        assert len(table) == 500
        assert table.safety_of(499) == 499.0

    def test_remove_cell(self):
        table = MaintainedPlaces()
        table.insert(place(1), -1.0, cell=7)
        table.insert(place(2), -4.0, cell=7)
        table.insert(place(3), 0.0, cell=8)
        assert table.remove_cell(7) == -4.0
        assert len(table) == 1
        assert 3 in table

    def test_remove_cell_returns_min_safety(self):
        table = MaintainedPlaces()
        table.insert(place(1), -1.0, cell=0)
        table.insert(place(2), -5.0, cell=0)
        table.insert(place(3), 3.0, cell=1)
        table.insert(place(4), 2.0, cell=0)
        assert table.remove_cell(0) == -5.0
        assert table.safety_of(3) == 3.0


def _rows_strategy(pids: range):
    """Distinct ``(pid, x, y, safety, cell)`` rows drawn from ``pids``."""
    row = st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.integers(-6, 6),
        st.integers(0, 3),
    )
    return st.lists(
        st.sampled_from(pids), unique=True, max_size=len(pids)
    ).flatmap(
        lambda ids: st.lists(row, min_size=len(ids), max_size=len(ids)).map(
            lambda rest: [(pid, *values) for pid, values in zip(ids, rest)]
        )
    )


def _table_state(table: MaintainedPlaces, k: int):
    return (
        len(table),
        table.export_rows(),
        {pid: table.place_of(pid) for pid, _, _ in table.export_rows()},
        table.sk(k),
        [(r.place_id, r.safety) for r in table.top_k(k)],
    )


class TestInsertBatch:
    @settings(max_examples=60)
    @given(
        prefix=_rows_strategy(range(0, 60)),
        batch=_rows_strategy(range(60, 200)),
        per_row_cells=st.booleans(),
        k=st.integers(0, 8),
    )
    @example(prefix=[], batch=[], per_row_cells=False, k=3)
    @example(
        # 60 + 80 rows: the batch crosses the 64 and 128 capacity doublings.
        prefix=[(pid, 0.5, 0.5, pid % 7 - 3, pid % 4) for pid in range(60)],
        batch=[(pid, 0.25, 0.75, pid % 5 - 2, pid % 4) for pid in range(60, 140)],
        per_row_cells=True,
        k=5,
    )
    def test_bulk_equals_one_by_one(self, prefix, batch, per_row_cells, k):
        bulk, single = MaintainedPlaces(), MaintainedPlaces()
        for table in (bulk, single):
            for pid, x, y, safety, cell in prefix:
                table.insert(place(pid, x, y), float(safety), cell)
        places = [place(pid, x, y) for pid, x, y, _, _ in batch]
        safeties = np.array([row[3] for row in batch], dtype=np.float64)
        if per_row_cells:
            cells = np.array([row[4] for row in batch], dtype=np.int64)
        else:
            cells = 2
        bulk.insert_batch(places, safeties, cells)
        for i, (p, safety) in enumerate(zip(places, safeties)):
            cell = int(cells[i]) if per_row_cells else cells
            single.insert(p, float(safety), cell)
        assert _table_state(bulk, k) == _table_state(single, k)

    def test_empty_batch_is_a_no_op(self):
        table = table_with([(1, -1.0)])
        table.insert_batch([], np.empty(0), 0)
        assert table.export_rows() == [[1, -1.0, 0]]

    @pytest.mark.parametrize(
        "places, safeties, cells",
        [
            ([place(1), place(100)], [0.0, 0.0], 0),
            ([place(1), place(2), place(1)], [0.0, 0.0, 0.0], 0),
            ([place(1), place(2)], [0.0], 0),
            ([place(1), place(2)], [0.0, 0.0], np.array([0])),
        ],
        ids=["already-maintained", "repeated-in-batch", "safeties", "cells"],
    )
    def test_bad_batch_raises_and_leaves_table_unchanged(
        self, places, safeties, cells
    ):
        # 63 rows: a successful 2-row batch would cross a capacity doubling.
        table = table_with([(pid, float(pid)) for pid in range(100, 163)])
        before = (len(table), table.export_rows())
        with pytest.raises(ValueError):
            table.insert_batch(places, np.array(safeties), cells)
        assert (len(table), table.export_rows()) == before
        assert 1 not in table and 2 not in table
        assert table.place_of(100).place_id == 100


class TestCellQueries:
    def test_remove_cell_takes_only_that_cells_rows(self):
        table = MaintainedPlaces()
        table.insert(place(1), 0.0, cell=3)
        table.insert(place(2), 0.0, cell=4)
        table.insert(place(3), 0.0, cell=3)
        table.remove_cell(3)
        assert {pid for pid, _, _ in table.export_rows()} == {2}
        assert {cell for _, _, cell in table.export_rows()} == {4}

    def test_cells_present(self):
        table = MaintainedPlaces()
        table.insert(place(1), 0.0, cell=3)
        table.insert(place(2), 0.0, cell=9)
        assert {cell for _, _, cell in table.export_rows()} == {3, 9}

    def test_safeties_is_a_live_read_only_view(self):
        table = table_with([(1, -1.0), (2, 3.0)])
        view = table.safeties()
        assert view.tolist() == [-1.0, 3.0]
        with pytest.raises(ValueError):
            view[0] = 9.0
        table.set_safety(2, 4.0)
        assert view.tolist() == [-1.0, 4.0]


class TestSkAndTopK:
    def test_sk_with_enough_rows(self):
        table = table_with([(1, -5.0), (2, -3.0), (3, 0.0)])
        assert table.sk(2) == -3.0

    def test_sk_with_too_few_rows(self):
        table = table_with([(1, -5.0)])
        assert table.sk(2) == math.inf

    def test_top_k_order_and_tie_break(self):
        table = table_with([(5, -1.0), (2, -1.0), (9, -3.0), (7, 4.0)])
        result = table.top_k(3)
        assert [(r.place_id, r.safety) for r in result] == [
            (9, -3.0),
            (2, -1.0),
            (5, -1.0),
        ]

    def test_top_k_fewer_rows_than_k(self):
        table = table_with([(1, 0.0)])
        assert len(table.top_k(5)) == 1

    def test_top_k_empty(self):
        assert MaintainedPlaces().top_k(3) == []

    def test_min_safety(self):
        table = table_with([(1, 2.0), (2, -7.0)])
        assert min(table.safeties_snapshot().values()) == -7.0
        assert MaintainedPlaces().safeties_snapshot() == {}

    def test_set_safety(self):
        table = table_with([(1, 2.0)])
        table.set_safety(1, -9.0)
        assert table.sk(1) == -9.0

    def test_safeties_snapshot(self):
        table = table_with([(1, 2.0), (2, -1.0)])
        assert table.safeties_snapshot() == {1: 2.0, 2: -1.0}


class TestApplyUnitMove:
    def test_gain_when_entering_new_disk(self):
        table = MaintainedPlaces()
        table.insert(place(1, 0.5, 0.5), 0.0, cell=0)
        table.apply_unit_move(Point(0.9, 0.9), Point(0.52, 0.5), radius=0.1)
        assert table.safety_of(1) == 1.0

    def test_loss_when_leaving_old_disk(self):
        table = MaintainedPlaces()
        table.insert(place(1, 0.5, 0.5), 0.0, cell=0)
        table.apply_unit_move(Point(0.52, 0.5), Point(0.9, 0.9), radius=0.1)
        assert table.safety_of(1) == -1.0

    def test_no_change_when_inside_both(self):
        table = MaintainedPlaces()
        table.insert(place(1, 0.5, 0.5), 0.0, cell=0)
        table.apply_unit_move(Point(0.52, 0.5), Point(0.48, 0.5), radius=0.1)
        assert table.safety_of(1) == 0.0

    def test_no_change_when_outside_both(self):
        table = MaintainedPlaces()
        table.insert(place(1, 0.5, 0.5), 0.0, cell=0)
        table.apply_unit_move(Point(0.9, 0.9), Point(0.1, 0.9), radius=0.1)
        assert table.safety_of(1) == 0.0

    def test_returns_scanned_count(self):
        table = table_with([(1, 0.0), (2, 0.0)])
        assert table.apply_unit_move(Point(0, 0), Point(1, 1), 0.1) == 2
        assert MaintainedPlaces().apply_unit_move(Point(0, 0), Point(1, 1), 0.1) == 0

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_move_matches_scalar_predicate(self, coords, ox, oy, nx_, ny_):
        table = MaintainedPlaces()
        for i, (x, y) in enumerate(coords):
            table.insert(place(i, x, y), 0.0, cell=0)
        old, new = Point(ox, oy), Point(nx_, ny_)
        radius = 0.2
        table.apply_unit_move(old, new, radius=radius)
        r2 = radius * radius  # the kernel's exact comparison value
        for i, (x, y) in enumerate(coords):
            was = old.squared_distance_to(Point(x, y)) <= r2
            now = new.squared_distance_to(Point(x, y)) <= r2
            assert table.safety_of(i) == float(int(now) - int(was))

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=20,
        ),
        st.lists(
            st.tuples(*[st.floats(0, 1, allow_nan=False)] * 4),
            min_size=1,
            max_size=8,
        ),
    )
    def test_burst_matches_one_move_at_a_time(self, coords, moves):
        burst, single = MaintainedPlaces(), MaintainedPlaces()
        for i, (x, y) in enumerate(coords):
            burst.insert(place(i, x, y), 0.0, cell=0)
            single.insert(place(i, x, y), 0.0, cell=0)
        ox, oy, nx_, ny_ = (np.array(column) for column in zip(*moves))
        assert burst.apply_unit_moves(ox, oy, nx_, ny_, 0.2) == len(coords)
        for move in moves:
            single.apply_unit_move(Point(*move[:2]), Point(*move[2:]), 0.2)
        n = len(coords)
        assert burst._safety[:n].tolist() == single._safety[:n].tolist()

    def test_burst_heap_peak_is_two_row_by_move_buffers(self):
        # the burst's transient heap scales with rows x moves; a plain
        # broadcast expression holds about seven such arrays at once.
        n, m = 2000, 32
        rng = np.random.default_rng(0)
        table = MaintainedPlaces()
        table.insert_batch(
            [place(i, x, y) for i, (x, y) in enumerate(rng.random((n, 2)))],
            np.zeros(n),
            [0] * n,
        )
        ox, oy, nx_, ny_ = rng.random((4, m))
        tracemalloc.start()
        try:
            table.apply_unit_moves(ox, oy, nx_, ny_, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * m * 8


# -- the per-version result cache ------------------------------------------

_GRID = GridPartition.unit_square(4)
_UNIVERSE = [
    Place(pid, Point((pid * 0.37) % 1.0, (pid * 0.61) % 1.0), 1) for pid in range(48)
]
_MUTATORS = (
    "insert",
    "insert_batch",
    "insert_band",
    "remove_id",
    "remove_cell",
    "set_safety",
    "apply_unit_move",
    "apply_unit_moves",
    "restore_rows",
)


def _cell_of(p: Place) -> int:
    return _GRID.linear(_GRID.cell_of(p.location))


def _assert_reads_fresh(table: MaintainedPlaces, k: int) -> None:
    """Cached reads equal a recomputation on the live columns."""
    n = len(table)
    ids, safety = table._ids[:n], table._safety[:n]
    rows = topk_rows(ids, safety, k).tolist()
    assert table.sk(k) == kth_smallest(safety, k)
    assert table.topk_ids(k) == [int(ids[r]) for r in rows]
    assert [(r.place_id, r.safety) for r in table.top_k(k)] == [
        (int(ids[r]), float(safety[r])) for r in rows
    ]


def _points(data, count: int) -> list[Point]:
    coord = st.floats(-0.1, 1.1, allow_nan=False)
    return [Point(data.draw(coord), data.draw(coord)) for _ in range(count)]


def _mutate(table: MaintainedPlaces, op: str, data) -> None:
    absent = [p for p in _UNIVERSE if p.place_id not in table]
    present = [p for p in _UNIVERSE if p.place_id in table]
    safeties = st.integers(-4, 4).map(float)
    n = len(table)
    if op == "insert" and absent:
        p = data.draw(st.sampled_from(absent))
        table.insert(p, data.draw(safeties), _cell_of(p))
    elif op in ("insert_batch", "insert_band") and absent:
        batch = data.draw(st.lists(st.sampled_from(absent), min_size=1, unique=True))
        values = np.array(
            data.draw(st.lists(safeties, min_size=len(batch), max_size=len(batch)))
        )
        if op == "insert_batch":
            table.insert_batch(batch, values, [_cell_of(p) for p in batch])
        else:
            sk = data.draw(st.sampled_from([-1.0, 0.0, math.inf]))
            delta = data.draw(st.sampled_from([0, 1, 3]))
            table.insert_band(batch, CellArrays(batch), values, 0, sk, delta)
    elif op == "remove_id" and n:
        table.remove_id(data.draw(st.sampled_from(present)).place_id)
    elif op == "remove_cell" and n:
        cells = [cell for _, _, cell in table.export_rows()]
        table.remove_cell(data.draw(st.sampled_from(cells)))
    elif op == "set_safety" and n:
        pid = data.draw(st.sampled_from(present)).place_id
        table.set_safety(pid, data.draw(safeties))
    elif op == "apply_unit_move":
        table.apply_unit_move(*_points(data, 2), 0.3)
    elif op == "apply_unit_moves":
        olds, news = _points(data, 3), _points(data, 3)
        table.apply_unit_moves(
            np.array([p.x for p in olds]),
            np.array([p.y for p in olds]),
            np.array([p.x for p in news]),
            np.array([p.y for p in news]),
            0.3,
        )
    elif op == "restore_rows":
        exported = table.export_rows()
        # restore_rows needs an empty table: empty this one, refill it.
        for cell in {cell for _, _, cell in exported}:
            table.remove_cell(cell)
        rows = [[pid, safety, _cell_of(_UNIVERSE[pid])] for pid, safety, _ in exported]
        # the cell index must come back from the rows in any order.
        rows = data.draw(st.permutations(rows))
        store = PlaceStore(_GRID, _UNIVERSE, page_capacity=8, buffer_pages=0)
        table.restore_rows(rows, store, _GRID)


class TestResultCache:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        ops=st.lists(st.sampled_from(_MUTATORS), min_size=1, max_size=25),
        k=st.integers(0, 6),
    )
    def test_reads_stay_coherent_under_every_mutator(self, data, ops, k):
        table = MaintainedPlaces()
        for p in _UNIVERSE[:10]:
            table.insert(p, float(p.place_id % 5 - 2), _cell_of(p))
        last = (table.result_version(k), table.sk(k), table.topk_ids(k))
        for op in ops:
            # read first, so a stale memo at this k would be served next.
            _assert_reads_fresh(table, k)
            _mutate(table, op, data)
            _assert_reads_fresh(table, k)
            version = table.result_version(k)
            if version == last[0]:
                assert (table.sk(k), table.topk_ids(k)) == last[1:]
            last = (version, table.sk(k), table.topk_ids(k))
            _assert_reads_fresh(table, data.draw(st.integers(0, 6)))


_VERSION_OPS = ["insert", "remove_id", "remove_cell", "set_safety"]


class TestResultVersion:
    """Named cases of the result-version rule (``MaintainedPlaces``)."""

    def test_a_move_above_sk_keeps_the_version(self):
        table = MaintainedPlaces()
        table.insert(place(1, 0.1, 0.1), -3.0, cell=0)
        table.insert(place(2, 0.9, 0.9), 5.0, cell=1)
        version = table.result_version(1)
        # place 2 (above SK -3) leaves the old disk: 5 -> 4.
        table.apply_unit_move(Point(0.9, 0.9), Point(0.5, 0.5), 0.05)
        assert table.safety_of(2) == 4.0
        assert table.result_version(1) == version

    def test_an_sk_only_move_renews_the_version(self):
        # the k-th row rises off SK: the id set stays, SK moves.
        table = MaintainedPlaces()
        table.insert(place(1, 0.1, 0.1), -3.0, cell=0)
        table.insert(place(2, 0.9, 0.9), -2.0, cell=1)
        table.insert(place(3, 0.5, 0.1), 4.0, cell=2)
        version, ids = table.result_version(2), table.topk_ids(2)
        table.apply_unit_move(Point(0.0, 0.9), Point(0.9, 0.9), 0.05)
        assert table.topk_ids(2) == ids and table.sk(2) == -1.0
        assert table.result_version(2) != version

    @pytest.mark.parametrize("op", _VERSION_OPS)
    def test_rows_at_or_below_sk_renew_the_version(self, op):
        table = table_with([(1, -3.0), (2, -1.0), (3, 4.0)])
        table.insert(place(4), 6.0, cell=5)
        version = table.result_version(2)
        if op == "insert":
            table.insert(place(9), -1.0, cell=1)
        elif op == "remove_id":
            table.remove_id(2)
        elif op == "remove_cell":
            table.remove_cell(0)
        else:
            table.set_safety(3, -1.0)
        assert table.result_version(2) != version

    @pytest.mark.parametrize("op", _VERSION_OPS)
    def test_rows_above_sk_keep_the_version(self, op):
        table = table_with([(1, -3.0), (2, -1.0), (3, 4.0)])
        table.insert(place(4), 6.0, cell=5)
        version = table.result_version(2)
        if op == "insert":
            table.insert(place(9), 0.0, cell=1)
        elif op == "remove_id":
            table.remove_id(3)
        elif op == "remove_cell":
            assert table.remove_cell(5) == 6.0
        else:
            table.set_safety(3, 7.0)
        assert table.result_version(2) == version

    @pytest.mark.parametrize(
        "band, same",
        [
            ([(1, -3.0), (2, 9.0)], True),  # the rows come back as they were
            ([(1, -3.0)], True),  # a row above SK stays out
            ([(1, -2.0), (2, 9.0)], False),  # a row below SK comes back moved
            ([(2, 9.0)], False),  # a row below SK stays out
            ([(1, -3.0), (2, 9.0), (7, -1.0)], False),  # a new row below SK
            (None, False),  # no band follows the removal
        ],
    )
    def test_an_access_is_judged_as_a_whole(self, band, same):
        table = MaintainedPlaces()
        table.insert(place(1), -3.0, cell=4)
        table.insert(place(2), 9.0, cell=4)
        table.insert(place(3), -1.0, cell=5)
        version = table.result_version(2)  # SK -1
        table.remove_cell(4)
        if band is not None:
            places = [place(pid) for pid, _ in band]
            safeties = np.array([value for _, value in band])
            table.insert_band(places, CellArrays(places), safeties, 4, 9.0, 1)
        assert (table.result_version(2) == version) == same

    def test_a_burst_is_judged_on_its_net_change(self):
        # the unit covers place 1 (at SK) and leaves again: net zero.
        table = table_with([(1, -1.0)])
        version = table.result_version(1)
        there, back = [0.0, 0.5], [0.5, 0.0]
        table.apply_unit_moves(*map(np.array, (there, there, back, back)), 0.1)
        assert table.safety_of(1) == -1.0
        assert table.result_version(1) == version
        table.apply_unit_moves(
            np.array([0.0]), np.array([0.0]), np.array([0.5]), np.array([0.5]), 0.1
        )
        assert table.result_version(1) != version

    def test_versions_are_unique_across_tables_and_k(self):
        first, second = MaintainedPlaces(), MaintainedPlaces()
        version = first.result_version(3)
        assert second.result_version(3) != version
        assert first.result_version(3) == version
        assert first.result_version(2) != version


@pytest.fixture(
    params=["naive", "basic", "opt", "incremental", "sharded"]
)
def any_monitor(request, small_config, small_places, small_units):
    name = request.param
    if name == "sharded":
        monitor = make_monitor(
            "opt",
            places=small_places,
            units=small_units,
            config=small_config,
            shard=ShardSpec(shards=3),
        )
    else:
        monitor = SCHEMES[name](small_config, small_places, small_units)
    monitor.initialize()
    return monitor


def test_monitor_topk_ids_match_top_k(any_monitor, small_stream):
    for update in small_stream.prefix(60):
        any_monitor.process(update)
        assert any_monitor.topk_ids() == [r.place_id for r in any_monitor.top_k()]
