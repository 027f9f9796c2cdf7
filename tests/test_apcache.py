"""OptCTUP's per-cell AP cache: a cell access counts only the units that
moved near the cell since its last computation, and must equal a full
recount bit for bit.

Every check goes through :func:`repro.core.audit.audit_monitor`, which
compares each cached column plus its recorded units' change with a fresh
``ap_counts_near`` and the result with the brute-force oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES
from repro.control.events import (
    GridRetuned,
    KChanged,
    PlaceAdded,
    PlaceRemoved,
    PlaceReweighted,
)
from repro.core import CTUPConfig, OptCTUP
from repro.core.audit import audit_monitor
from repro.core.batch import coalesce_burst
from repro.geometry import Point, Rect
from repro.grid import GridPartition
from repro.model import LocationUpdate, Place, Unit
from repro.shard.monitor import ShardedMonitor
from repro.storage.placestore import CellArrays
from repro.workloads import generate_places, generate_units

# R equal to the cell width: disks whose bounding box sits on grid lines
# are common (a unit on a grid line, or at x = 1.0).
CONFIG = CTUPConfig(k=6, delta=2, protection_range=0.2, granularity=5)
WIDTH = CONFIG.space.width / CONFIG.granularity
R = CONFIG.protection_range


def _nudged(values):
    """Each value, and the floats one ulp either side of it."""
    out = []
    for v in values:
        out += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return out


# grid lines as GridPartition computes them, disk edges on them, the
# space's edges and positions just outside it.
LINES = [k * WIDTH for k in range(CONFIG.granularity + 1)]
EDGE_COORDS = _nudged(
    LINES + [x + R for x in LINES] + [x - R for x in LINES] + [1.0, 1.0 + R, -R]
)


def _edge_places(start_id: int) -> list[Place]:
    """Places on the shared edges of cells (and one ulp around them)."""
    coords = [c for c in _nudged(LINES + [1.0]) if 0.0 <= c <= 1.0]
    places = []
    for i, x in enumerate(coords):
        y = coords[(7 * i + 3) % len(coords)]
        places.append(Place(start_id + 2 * i, Point(x, 0.37 + 0.01 * (i % 9)), 2))
        places.append(Place(start_id + 2 * i + 1, Point(x, y), 1))
    return places


PLACES = generate_places(250, seed=41) + _edge_places(10_000)


def make_units(n: int = 120) -> list[Unit]:
    return generate_units(n, R, seed=42)


def fresh_opt():
    monitor = OptCTUP(CONFIG, PLACES, make_units())
    monitor.initialize()
    return monitor


def cached_cells(monitor: OptCTUP) -> list:
    return [c for c, s in monitor.cell_states.items() if s.ap is not None]


coord = st.one_of(
    st.floats(-0.3, 1.3, allow_nan=False),
    st.sampled_from(EDGE_COORDS),
)
moves = st.lists(
    st.tuples(st.integers(0, 119), coord, coord), min_size=1, max_size=40
)


def _update(positions: dict[int, Point], uid: int, x: float, y: float):
    new = Point(x, y)
    update = LocationUpdate(uid, positions[uid], new, 0)
    positions[uid] = new
    return update


class TestCachedColumnEqualsRecount:
    """The delta path against ``ap_counts_near`` and the oracle, after
    random moves: grid lines, x = 1.0, out of the space and back."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(moves=moves, burst=st.sampled_from([0, 3, 8]))
    def test_random_moves(self, moves, burst):
        monitor = fresh_opt()
        positions = {u.unit_id: u.location for u in monitor.units}
        ids = sorted(positions)
        updates = [_update(positions, ids[i], x, y) for i, x, y in moves]
        if burst == 0:
            for update in updates:
                monitor.process(update)
                assert audit_monitor(monitor) == []
            return
        for start in range(0, len(updates), burst):
            monitor.apply_burst(coalesce_burst(updates[start : start + burst]))
            monitor.refresh()
            assert audit_monitor(monitor) == []

    def test_the_delta_path_runs_and_counts_only_recorded_units(self):
        monitor = fresh_opt()
        cell = (2, 2)
        state = monitor.cell_states[cell]
        assert state.ap is not None and not state.ap.moved
        unit = next(u for u in monitor.units)
        target = monitor.grid.cell_rect(cell).center()
        monitor.apply_update(LocationUpdate(unit.unit_id, unit.location, target, 0))
        assert unit.unit_id in state.ap.moved
        places = len(monitor.store.cell_arrays(cell))
        before = monitor.counters.distance_rows
        monitor._access_cell(cell)
        rows = monitor.counters.distance_rows - before
        # one row per side (then, now) of the one recorded unit.
        assert rows == 2 * places
        assert not state.ap.moved
        monitor.refresh()
        assert audit_monitor(monitor) == []

    def test_a_full_record_ends_the_cache(self):
        monitor = fresh_opt()
        cell = (2, 2)
        state = monitor.cell_states[cell]
        room = state.ap.room
        centre = monitor.grid.cell_rect(cell).center()
        for unit in list(monitor.units)[: room + 1]:
            monitor.apply_update(
                LocationUpdate(unit.unit_id, unit.location, centre, 0)
            )
        assert state.ap is None
        monitor.refresh()
        assert audit_monitor(monitor) == []


class TestStencilBlockEdge:
    """A disk whose bounding box sits on a grid line by rounding still
    reaches the cell beyond it: ``CircleStencil.block_of`` widens its
    floors by the edge tolerance, so Table I/II, the maintained scan,
    the shard router and the cache all see that cell."""

    # a unit outside the space whose disk touches the space's right edge
    # at x = 10.0, where the kernel counts the places on that edge; the
    # unwidened floors gave an empty block (found by search).
    WIDE = CTUPConfig(
        k=3,
        delta=1,
        protection_range=10 / 6,
        granularity=3,
        space=Rect(0.0, 0.0, 10.0, 10.0),
    )
    TOUCH = Point(11.666666666666666, 4.498139126441945)
    FAR = Point(30.0, 4.498139126441945)
    PATH = (TOUCH, FAR, TOUCH, Point(5.0, 5.0), FAR)

    def wide_places(self):
        return [
            Place(i, Point(10.0, 4.498139126441945 + 0.3 * (i - 3)), 2)
            for i in range(7)
        ] + [
            Place(100 + i, Point(0.5 + 1.3 * i, 0.7 + 1.1 * i), 1)
            for i in range(8)
        ]

    def spread_units(self):
        # enough units spread over the space for every cell to keep its
        # column (see MIN_CACHED_REACH).
        return [
            Unit(
                1 + i,
                Point(0.25 + 0.5 * (i % 20), 0.4 + 1.0 * (i // 20)),
                self.WIDE.protection_range,
            )
            for i in range(200)
        ]

    def build(self, scheme, shards, units):
        places = self.wide_places()
        if shards:
            monitor = ShardedMonitor(
                self.WIDE, places, units, shards=shards, scheme=scheme
            )
        else:
            monitor = SCHEMES[scheme](self.WIDE, places, units)
        monitor.initialize()
        return monitor

    def walk(self, monitor, start):
        here = start
        for target in self.PATH:
            if target == here:
                continue
            monitor.process(LocationUpdate(0, here, target, 0))
            here = target
            assert audit_monitor(monitor) == []

    def test_classify_move_emits_the_edge_cell(self):
        stencil = GridPartition(self.WIDE.space, 3, 3).stencil(
            self.WIDE.protection_range
        )
        dx = self.TOUCH.x - 10.0
        assert dx * dx <= self.WIDE.protection_range**2  # the kernel counts it
        i_lo, i_hi, _, _ = stencil.block_of(self.TOUCH)
        assert i_lo == i_hi == 2
        assert (2, 1) in [
            cell for cell, _, _ in stencil.classify_move(self.FAR, self.TOUCH)
        ]

    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("scheme", ["basic", "opt"])
    @pytest.mark.parametrize("start", ["FAR", "TOUCH"])
    def test_unit_touching_the_edge_from_outside(self, start, scheme, shards):
        start = getattr(self, start)
        units = [Unit(0, start, self.WIDE.protection_range)]
        self.walk(self.build(scheme, shards, units), start)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_the_cache_sees_a_unit_touching_the_edge(self, shards):
        units = [Unit(0, self.FAR, self.WIDE.protection_range)]
        monitor = self.build("opt", shards, units + self.spread_units())
        # the cell holding the places on the edge keeps its column.
        edge_cell = (2, 1)
        owners = [sh.monitor for sh in monitor.shards] if shards else [monitor]
        assert any(
            m.cell_states.get(edge_cell) is not None
            and m.cell_states[edge_cell].ap is not None
            for m in owners
        )
        self.walk(monitor, self.FAR)

    def test_unit_at_x_one_with_r_a_multiple_of_the_width(self):
        monitor = fresh_opt()
        unit = next(iter(monitor.units))
        here = unit.location
        for x, y in [(1.0, 0.5), (1.0, 0.6), (1.0 + R, 0.6), (0.8, 0.6), (1.0, 0.4)]:
            target = Point(x, y)
            monitor.process(LocationUpdate(unit.unit_id, here, target, 0))
            here = target
            assert audit_monitor(monitor) == []


class TestControlEvents:
    """A control event that changes a cell's places ends its cache; the
    next access equals a recount."""

    def _cell_and_place(self, monitor):
        cell = (1, 3)
        assert monitor.cell_states[cell].ap is not None
        place = monitor.store.peek_cell(cell)[0]
        return cell, place

    def _moved_near(self, monitor, cell):
        # leave pending moves in the cache, so the event meets a live record.
        unit = next(iter(monitor.units))
        centre = monitor.grid.cell_rect(cell).center()
        monitor.process(LocationUpdate(unit.unit_id, unit.location, centre, 0))

    def _assert_recounts_next(self, monitor, cell):
        assert monitor.cell_states[cell].ap is None
        monitor._access_cell(cell)
        arrays = CellArrays(monitor.store.peek_cell(cell))
        fresh, _ = monitor.units.ap_counts_near(
            arrays.xs, arrays.ys, monitor.grid.cell_rect(cell)
        )
        assert np.array_equal(monitor.cell_states[cell].ap.column, fresh)
        monitor.refresh()
        assert audit_monitor(monitor) == []

    def test_place_added(self):
        monitor = fresh_opt()
        cell, _ = self._cell_and_place(monitor)
        self._moved_near(monitor, cell)
        rect = monitor.grid.cell_rect(cell)
        monitor.apply_control(PlaceAdded(Place(99_999, rect.center(), 3)))
        self._assert_recounts_next(monitor, cell)

    def test_place_removed(self):
        monitor = fresh_opt()
        cell, place = self._cell_and_place(monitor)
        self._moved_near(monitor, cell)
        monitor.apply_control(PlaceRemoved(place.place_id))
        self._assert_recounts_next(monitor, cell)

    def test_place_reweighted(self):
        monitor = fresh_opt()
        cell, place = self._cell_and_place(monitor)
        self._moved_near(monitor, cell)
        monitor.apply_control(
            PlaceReweighted(place.place_id, place.required_protection + 4)
        )
        self._assert_recounts_next(monitor, cell)

    def test_k_changed_keeps_the_caches_exact(self):
        monitor = fresh_opt()
        cell, _ = self._cell_and_place(monitor)
        self._moved_near(monitor, cell)
        monitor.apply_control(KChanged(CONFIG.k + 4))
        assert audit_monitor(monitor) == []
        monitor._access_cell(cell)
        monitor.refresh()
        assert audit_monitor(monitor) == []

    def test_grid_retuned_starts_over(self):
        monitor = fresh_opt()
        cell, _ = self._cell_and_place(monitor)
        self._moved_near(monitor, cell)
        monitor.apply_control(GridRetuned(4))
        assert audit_monitor(monitor) == []
        for state in monitor.cell_states.values():
            assert state.ap is None or not state.ap.moved
