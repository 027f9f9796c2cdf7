"""Property tests: the bucketed unit index is an *exact* work reducer.

The :class:`UnitGridIndex` only prunes candidates; every kernel result
must stay bit-for-bit identical to the linear scan and to the scalar
oracle. Hypothesis drives random worlds that deliberately include the
awkward geometry: places sitting exactly on cell edges, units on (and
slightly outside) the space border, and moves that cross buckets,
stay within one bucket, or leave the space entirely.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES
from repro.core import CTUPConfig
from repro.core.units import UnitIndex
from repro.geometry import Point, Rect
from repro.geometry.distance import point_rect_distance
from repro.grid import GridPartition
from repro.index import UnitGridIndex
from repro.model import LocationUpdate, Place, Unit
from repro.validate import Oracle
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)

RADIUS = 0.15


def make_index(unit_xy, granularity, attach=True):
    units = [Unit(i, Point(x, y), RADIUS) for i, (x, y) in enumerate(unit_xy)]
    index = UnitIndex(units)
    if attach:
        index.grid_min_fleet = 1  # force the bucketed path for any fleet
        index.attach_grid(GridPartition.unit_square(granularity))
    return index


def oracle_ap(places, index):
    """AP per place id via the oracle's own O(|P|*|U|) scan."""
    safeties = Oracle(places, list(index)).safeties()
    return {p.place_id: safeties[p.place_id] + p.required_protection for p in places}


def coords(granularity):
    """A coordinate, biased toward cell edges and the space border."""
    return st.one_of(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        st.integers(0, granularity).map(lambda i: i / granularity),
        st.sampled_from([0.0, 1.0]),
    )


def unit_coords():
    """Unit positions may drift (slightly) outside the monitored space."""
    return st.one_of(
        st.floats(-0.05, 1.05, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 1.0, -0.05, 1.05]),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), granularity=st.integers(2, 9))
def test_bucketed_kernels_match_brute_force(data, granularity):
    unit_xy = data.draw(
        st.lists(st.tuples(unit_coords(), unit_coords()), min_size=1, max_size=30)
    )
    place_xy = data.draw(
        st.lists(
            st.tuples(coords(granularity), coords(granularity)),
            min_size=1,
            max_size=40,
        )
    )
    index = make_index(unit_xy, granularity)
    grid = index.grid_index.grid
    places = [Place(i, Point(x, y), 0) for i, (x, y) in enumerate(place_xy)]

    # a few moves first, so the comparison runs against *maintained*
    # buckets, not the freshly built ones.
    n_moves = data.draw(st.integers(0, 10))
    for _ in range(n_moves):
        uid = data.draw(st.integers(0, len(unit_xy) - 1))
        new = Point(data.draw(unit_coords()), data.draw(unit_coords()))
        index.apply(LocationUpdate(uid, index.location_of(uid), new))
    assert index.grid_index.check() == []

    expected = oracle_ap(places, index)

    # per-cell kernel, exactly how the monitors drive it.
    by_cell = {}
    for place in places:
        by_cell.setdefault(grid.cell_of(place.location), []).append(place)
    for cell, cell_places in by_cell.items():
        xs = np.array([p.location.x for p in cell_places])
        ys = np.array([p.location.y for p in cell_places])
        ap, _ = index.ap_counts_near(xs, ys, grid.cell_rect(cell))
        for place, got in zip(cell_places, ap):
            assert got == expected[place.place_id], (cell, place.location)

    # scalar kernel.
    for place in places:
        assert index.ap_of_point(place.location) == expected[place.place_id]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), granularity=st.integers(2, 9))
def test_ap_counts_bucketed_equals_linear(data, granularity):
    unit_xy = data.draw(
        st.lists(st.tuples(unit_coords(), unit_coords()), min_size=1, max_size=25)
    )
    # batch points anywhere, including outside the monitored space.
    px = data.draw(
        st.lists(
            st.tuples(
                st.floats(-0.2, 1.2, allow_nan=False),
                st.floats(-0.2, 1.2, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    xs = np.array([x for x, _ in px])
    ys = np.array([y for _, y in px])
    bucketed = make_index(unit_xy, granularity)
    linear = make_index(unit_xy, granularity, attach=False)
    assert np.array_equal(bucketed.ap_counts(xs, ys), linear.ap_counts(xs, ys))


class TestUnitGridIndex:
    def grid(self):
        return GridPartition.unit_square(5)

    def test_rejects_non_positive_radius(self):
        xs = np.array([0.5])
        ys = np.array([0.5])
        with pytest.raises(ValueError):
            UnitGridIndex(self.grid(), xs, ys, 0.0)

    def test_border_and_outside_units_are_found(self):
        index = make_index([(1.0, 1.0), (1.05, 0.5), (-0.05, 0.0)], granularity=5)
        grid = index.grid_index.grid
        # each unit protects the nearest corner/edge of the space.
        assert index.ap_of_point(Point(1.0, 1.0)) == 1
        assert index.ap_of_point(Point(1.0, 0.5)) == 1
        assert index.ap_of_point(Point(0.0, 0.0)) == 1
        ap, _ = index.ap_counts_near(
            np.array([1.0]), np.array([1.0]), grid.cell_rect((4, 4))
        )
        assert ap[0] == 1

    def test_within_bucket_move_sees_live_position(self):
        # both positions bucket to cell (0, 0) of a 2x2 grid; the cached
        # candidate set must survive while the exact filter re-reads the
        # moved coordinates.
        index = make_index([(0.05, 0.05)], granularity=2)
        probe = Point(0.3, 0.3)
        assert index.ap_of_point(probe) == 0
        index.apply(LocationUpdate(0, Point(0.05, 0.05), Point(0.25, 0.25)))
        assert index.ap_of_point(probe) == 1
        assert index.grid_index.check() == []

    def test_cross_bucket_move_invalidates_cached_blocks(self):
        index = make_index([(0.1, 0.1)], granularity=5)
        grid = index.grid_index.grid
        far = grid.cell_rect((4, 4))
        near = grid.cell_rect((0, 0))
        # query both neighbourhoods before the move re-buckets the unit.
        assert index.ap_counts_near(np.array([0.9]), np.array([0.9]), far)[0][0] == 0
        assert index.ap_counts_near(np.array([0.1]), np.array([0.1]), near)[0][0] == 1
        index.apply(LocationUpdate(0, Point(0.1, 0.1), Point(0.9, 0.9)))
        assert index.ap_counts_near(np.array([0.9]), np.array([0.9]), far)[0][0] == 1
        assert index.ap_counts_near(np.array([0.1]), np.array([0.1]), near)[0][0] == 0
        assert index.grid_index.check() == []

    def test_candidate_rows_sorted_and_superset_of_reachable(self):
        rng = np.random.default_rng(3)
        xy = rng.random((40, 2))
        index = make_index([tuple(p) for p in xy], granularity=4)
        rect = index.grid_index.grid.cell_rect((1, 2))
        candidates = index.grid_index.candidate_rows(rect)
        assert list(candidates) == sorted(candidates)
        # unit ids are 0..39, so unit id == row.
        reachable = {
            row
            for row, (x, y) in enumerate(xy)
            if point_rect_distance(Point(x, y), rect) <= RADIUS
        }
        assert reachable.issubset(set(candidates.tolist()))
        index.stats.reset()
        index.ap_counts_near(np.array([0.3]), np.array([0.6]), rect)
        assert index.stats.candidate_units == len(candidates)
        assert index.stats.reachable_units == len(reachable)

    def test_kernel_stats_record_pruning(self):
        rng = np.random.default_rng(11)
        xy = rng.random((60, 2))
        index = make_index([tuple(p) for p in xy], granularity=6)
        rect = index.grid_index.grid.cell_rect((2, 2))
        index.stats.reset()
        index.ap_counts_near(np.array([0.45]), np.array([0.45]), rect)
        assert index.stats.queries == 1
        # the bucket gather examined strictly fewer rows than the fleet.
        assert 0 < index.stats.candidate_units < len(xy)
        assert index.stats.reachable_units <= index.stats.candidate_units


# -- the list gather and the transposed kernel against brute force ----------


def border_coords(granularity):
    """Bucket borders, the space border, just outside it, and anywhere."""
    return st.one_of(
        st.integers(0, granularity).map(lambda i: i / granularity),
        st.sampled_from([0.0, 1.0, -0.05, 1.05, -1e-12, 1.0 + 1e-12]),
        st.floats(-0.1, 1.1, allow_nan=False),
    )


def neighbourhood_count(index, rect):
    """Units bucketed in the ``R``-inflated bucket range of ``rect``."""
    gi = index.grid_index
    lo, hi = gi.bucket_columns(
        np.array([rect.xmin - RADIUS, rect.xmax + RADIUS]),
        np.array([rect.ymin - RADIUS, rect.ymax + RADIUS]),
    )
    pos = np.array([[u.location.x, u.location.y] for u in index])
    buckets = gi.bucket_columns(pos[:, 0], pos[:, 1])
    bi, bj = buckets // gi.ny, buckets % gi.ny
    inside = (lo // gi.ny <= bi) & (bi <= hi // gi.ny)
    inside &= (lo % gi.ny <= bj) & (bj <= hi % gi.ny)
    return int(inside.sum())


def reaches(ux, uy, rect):
    """The exact reachability test, in the kernels' arithmetic."""
    dx = max(rect.xmin - ux, 0.0, ux - rect.xmax)
    dy = max(rect.ymin - uy, 0.0, uy - rect.ymax)
    return dx * dx + dy * dy <= RADIUS * RADIUS


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), granularity=st.integers(2, 9))
def test_gather_and_kernel_match_brute_force(data, granularity):
    coord = border_coords(granularity)
    unit_xy = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    bucketed = make_index(unit_xy, granularity)
    linear = make_index(unit_xy, granularity, attach=False)
    grid = bucketed.grid_index.grid
    for _ in range(data.draw(st.integers(0, 6))):
        uid = data.draw(st.integers(0, len(unit_xy) - 1))
        update = LocationUpdate(
            uid, bucketed.location_of(uid), Point(data.draw(coord), data.draw(coord))
        )
        bucketed.apply(update)
        linear.apply(update)
    cell = (
        data.draw(st.integers(0, granularity - 1)),
        data.draw(st.integers(0, granularity - 1)),
    )
    rect = grid.cell_rect(cell)
    # points in the cell, corners and edges included.
    edge = st.sampled_from([0.0, 1.0])
    frac = st.one_of(edge, st.floats(0.0, 1.0, allow_nan=False))
    fracs = data.draw(st.lists(st.tuples(frac, frac), min_size=1, max_size=20))
    xs = np.array([rect.xmin + fx * (rect.xmax - rect.xmin) for fx, _ in fracs])
    ys = np.array([rect.ymin + fy * (rect.ymax - rect.ymin) for _, fy in fracs])
    xs, ys = np.clip(xs, rect.xmin, rect.xmax), np.clip(ys, rect.ymin, rect.ymax)
    units = [(u.location.x, u.location.y) for u in bucketed]

    bucketed.stats.reset()
    ap, compared = bucketed.ap_counts_near(xs, ys, rect)
    expected = [
        sum((x - ux) ** 2 + (y - uy) ** 2 <= RADIUS * RADIUS for ux, uy in units)
        for x, y in zip(xs.tolist(), ys.tolist())
    ]
    assert ap.tolist() == expected
    assert ap.dtype == np.int64
    assert compared == linear.ap_counts_near(xs, ys, rect)[1]
    reachable = sum(reaches(ux, uy, rect) for ux, uy in units)
    assert compared == reachable
    assert bucketed.stats.queries == 1
    assert bucketed.stats.candidate_units == neighbourhood_count(bucketed, rect)
    assert bucketed.stats.reachable_units == reachable

    weight = lambda d: np.where(d <= RADIUS, 1.0 - d / RADIUS, 0.0)  # noqa: E731
    got, got_compared = bucketed.weighted_protection_near(xs, ys, rect, weight)
    want, want_compared = linear.weighted_protection_near(xs, ys, rect, weight)
    assert got.tobytes() == want.tobytes()
    assert got_compared == want_compared


@pytest.mark.parametrize("scheme", ["naive", "basic", "opt"])
def test_indexed_path_examines_at_least_half_fewer_units(scheme):
    """Hardware-independent: the bucket gather prunes the candidates."""
    config = CTUPConfig(k=5)
    places = generate_places(2_000, seed=7)
    units = generate_units(200, config.protection_range, seed=7)
    stream = record_stream(RandomWalkMobility(units, step=0.03, seed=7), 60)
    runs = {}
    for grid_on in (True, False):
        monitor = SCHEMES[scheme](config, places, units)
        if not grid_on:
            # a fleet below the threshold takes the linear scan.
            monitor.units.grid_min_fleet = len(units) + 1
        monitor.initialize()
        for update in stream:
            monitor.process(update)
        runs[grid_on] = (monitor.units.stats, monitor.counters, monitor.topk_ids())
    (indexed, idx_counters, idx_ids), (linear, lin_counters, lin_ids) = (
        runs[True],
        runs[False],
    )
    assert linear.candidate_units >= 2 * indexed.candidate_units
    assert indexed.reachable_units == linear.reachable_units
    assert idx_counters.distance_rows == lin_counters.distance_rows
    assert idx_counters.cells_accessed == lin_counters.cells_accessed
    assert idx_ids == lin_ids
