"""Server-side tracking of the protecting units.

The server keeps the most recently reported location of every unit
(§II-A). :class:`UnitIndex` owns that state for one monitor instance and
provides the vectorised actual-protection kernels used whenever a cell's
places must be (re)evaluated against the units.

The kernels only ever need the units whose protection disk can reach the
queried rectangle (§III-B/§IV-D). By default that reachability filter is
a linear scan over all |U| positions; attaching a grid via
:meth:`UnitIndex.attach_grid` swaps in a bucketed
:class:`~repro.index.unitgrid.UnitGridIndex` so only the bucket
neighbourhood of the rectangle is examined. Both paths end in the same
exact filter, so results are bit-for-bit identical — the index is purely
a work reducer, and :class:`UnitKernelStats` records how much work it
saved.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.model import CoalescedMove, LocationUpdate, Unit

if TYPE_CHECKING:
    from repro.grid.partition import GridPartition
    from repro.index.unitgrid import UnitGridIndex

#: squared distance within which an update's ``old_location`` matches
#: the unit's known position; beyond it the update is stale.
LOCATION_TOLERANCE2 = 1e-18


@dataclass(slots=True)
class UnitKernelStats:
    """Work counters of the reachability prefilter.

    ``candidate_units`` is what the prefilter examined (|U| per query on
    the linear path, the bucket-neighbourhood gather on the indexed
    path); ``reachable_units`` is what survived into the distance kernel
    — identical on both paths. The spread between the two is the work
    the unit grid eliminates.
    """

    queries: int = 0
    candidate_units: int = 0
    reachable_units: int = 0
    #: raw location updates whose per-move position apply was collapsed
    #: into a chain endpoint by burst coalescing — the unit-index work
    #: (position writes, bucket moves) skipped on purpose, counted so
    #: merged shard stats and perfbench see an explained drop rather
    #: than missing work.
    coalesced_updates: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.candidate_units = 0
        self.reachable_units = 0
        self.coalesced_updates = 0

    def snapshot(self) -> "UnitKernelStats":
        return UnitKernelStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def __sub__(self, other: "UnitKernelStats") -> "UnitKernelStats":
        return UnitKernelStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "UnitKernelStats") -> "UnitKernelStats":
        """Element-wise sum (aggregation across shard unit indexes)."""
        return UnitKernelStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def restore(self, values: "UnitKernelStats") -> None:
        """Overwrite every counter with ``values`` (checkpoint resume)."""
        self.queries = values.queries
        self.candidate_units = values.candidate_units
        self.reachable_units = values.reachable_units
        self.coalesced_updates = values.coalesced_updates


class UnitIndex:
    """Positions of all units, tracked per monitor.

    All units share one protection range ``R`` (as in the paper); the
    constructor rejects mixed ranges because the vectorised kernels and
    the per-cell bound maintenance both assume a single radius.

    The index copies the units it is given, so several monitors built
    from the same initial fleet do not share mutable state.
    """

    #: below this fleet size the linear reachability scan beats the
    #: bucket gather, so an attached grid index is left idle. Instances
    #: may override (tests force the bucketed path by setting it to 1).
    grid_min_fleet: int = 32

    def __init__(self, units: Iterable[Unit]) -> None:
        self._grid_index = None
        self.stats = UnitKernelStats()
        units = list(units)
        if not units:
            raise ValueError("at least one protecting unit is required")
        ranges = {u.protection_range for u in units}
        if len(ranges) != 1:
            raise ValueError(f"units must share one protection range, got {ranges}")
        self.protection_range = ranges.pop()
        self._units: dict[int, Unit] = {}
        for u in units:
            if u.unit_id in self._units:
                raise ValueError(f"duplicate unit id {u.unit_id}")
            self._units[u.unit_id] = Unit(u.unit_id, u.location, u.protection_range)
        self._order = sorted(self._units)
        self._row_of = {uid: row for row, uid in enumerate(self._order)}
        n = len(self._order)
        self._xs = np.empty(n, dtype=np.float64)
        self._ys = np.empty(n, dtype=np.float64)
        for uid, row in self._row_of.items():
            loc = self._units[uid].location
            self._xs[row] = loc.x
            self._ys[row] = loc.y

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[Unit]:
        for uid in self._order:
            yield self._units[uid]

    def __contains__(self, unit_id: int) -> bool:
        return unit_id in self._units

    def location_of(self, unit_id: int) -> Point:
        """The most recently reported location of ``unit_id``."""
        return self._units[unit_id].location

    def attach_grid(self, grid: "GridPartition") -> None:
        """Bucket the unit rows by ``grid`` cell (perf only, exactness kept).

        Subsequent location updates maintain the buckets incrementally;
        the AP kernels gather candidates from the bucket neighbourhood
        of the queried rectangle instead of scanning all |U| rows. Any
        previously attached index is replaced.
        """
        from repro.index.unitgrid import UnitGridIndex

        self._grid_index = UnitGridIndex(
            grid, self._xs, self._ys, self.protection_range
        )

    @property
    def grid_index(self) -> "UnitGridIndex | None":
        """The attached :class:`UnitGridIndex`, or ``None``."""
        return self._grid_index

    def _use_buckets(self) -> bool:
        return (
            self._grid_index is not None
            and len(self._xs) >= self.grid_min_fleet
        )

    def _tracked(self, update: LocationUpdate) -> Unit:
        """The unit ``update`` moves, once its ``old_location`` is checked.

        The tracked location is authoritative: an unknown unit raises
        ``KeyError`` and a stale ``old_location`` raises ``ValueError``,
        since applying either would make the server state inconsistent.
        """
        unit = self._units.get(update.unit_id)
        if unit is None:
            raise KeyError(f"unknown unit {update.unit_id}")
        if unit.location.squared_distance_to(update.old_location) > LOCATION_TOLERANCE2:
            raise ValueError(
                f"update for unit {update.unit_id} carries old location "
                f"{update.old_location} but the server tracks {unit.location}"
            )
        return unit

    def _move_to(self, unit: Unit, new: Point) -> Point:
        """Write ``unit``'s new position everywhere; returns the old one."""
        old = unit.location
        unit.location = new
        row = self._row_of[unit.unit_id]
        self._xs[row] = new.x
        self._ys[row] = new.y
        if self._grid_index is not None:
            self._grid_index.move(row, old.x, old.y, new.x, new.y)
        return old

    def apply(self, update: LocationUpdate) -> Point:
        """Record a location update; returns the *tracked* old location."""
        return self._move_to(self._tracked(update), update.new_location)

    def apply_chain(self, raws: Sequence[LocationUpdate]) -> Point:
        """Record one unit's coalesced move chain; returns the tracked old.

        All updates must carry the same unit id and form a contiguous
        chain (each ``old_location`` equal to its predecessor's
        ``new_location``) — :func:`repro.core.batch.coalesce_burst`
        guarantees both. Only the final position is written: the
        intermediate applies are skipped and charged to
        ``stats.coalesced_updates``. The end state is identical to
        applying each update in turn — position tracking only ever reads
        the latest report.
        """
        old = self._move_to(self._tracked(raws[0]), raws[-1].new_location)
        self.stats.coalesced_updates += len(raws) - 1
        return old

    def check_chain_heads(self, moves: Sequence[CoalescedMove]) -> None:
        """Raise like :meth:`apply` for the first chain whose head names
        an unknown unit or a stale ``old_location``; moves nothing.
        :meth:`apply_moves` makes the same check before it writes."""
        for move in moves:
            self._tracked(move.raws[0])

    def apply_moves(self, moves: Sequence[CoalescedMove]) -> list[Point]:
        """Batched :meth:`apply_chain` over all of a burst's chains.

        Validates every chain head against the tracked position first,
        then writes all final coordinates in one vectorised pass and
        re-buckets the changed rows through
        :meth:`~repro.index.unitgrid.UnitGridIndex.move_many`. End state
        and ``stats`` are identical to calling :meth:`apply_chain` per
        move in order.
        """
        olds: list[Point] = []
        rows = np.empty(len(moves), dtype=np.int64)
        for pos, move in enumerate(moves):
            first = move.raws[0]
            olds.append(self._tracked(first).location)
            rows[pos] = self._row_of[first.unit_id]
            self.stats.coalesced_updates += move.raw_count - 1
        old_x = self._xs[rows].copy()
        old_y = self._ys[rows].copy()
        new_x = np.array([m.last_new.x for m in moves], dtype=np.float64)
        new_y = np.array([m.last_new.y for m in moves], dtype=np.float64)
        self._xs[rows] = new_x
        self._ys[rows] = new_y
        for move in moves:
            self._units[move.unit_id].location = move.last_new
        if self._grid_index is not None:
            self._grid_index.move_many(rows, old_x, old_y, new_x, new_y)
        return olds

    def ap_counts(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Actual protection ``AP`` of each query point.

        Counts, for every ``(xs[i], ys[i])``, the units whose closed
        protection disk contains the point. With a grid index attached
        and a large enough fleet the points are batched by grid cell and
        each batch only meets its bucket-neighbourhood candidates;
        otherwise the kernel broadcasts against all units, chunking the
        point axis to bound temporaries.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if len(xs) == 0:
            return np.empty(0, dtype=np.int64)
        if self._use_buckets():
            return self._ap_counts_bucketed(xs, ys)
        r2 = self.protection_range * self.protection_range
        out = np.empty(len(xs), dtype=np.int64)
        # ~4M matrix cells per chunk keeps temporaries small; the floor
        # of 64 points stops huge fleets degenerating to row-at-a-time
        # kernels (the bucketed path is the real fix at that scale).
        chunk = max(64, 4_000_000 // max(len(self._xs), 1))
        for start in range(0, len(xs), chunk):
            end = min(start + chunk, len(xs))
            dx = xs[start:end, None] - self._xs[None, :]
            dy = ys[start:end, None] - self._ys[None, :]
            out[start:end] = np.count_nonzero(dx * dx + dy * dy <= r2, axis=1)
        return out

    def _ap_counts_bucketed(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Per-cell batched AP counts through the unit grid.

        Groups the query points by grid cell and gathers one candidate
        set per occupied cell (from the bounding box of the group's
        actual points, so out-of-space points are still exact).
        """
        lin = self._grid_index.bucket_columns(xs, ys)
        order = np.argsort(lin, kind="stable")
        boundaries = np.flatnonzero(np.diff(lin[order])) + 1
        r2 = self.protection_range * self.protection_range
        out = np.empty(len(xs), dtype=np.int64)
        for group in np.split(order, boundaries):
            px = xs[group]
            py = ys[group]
            rect = Rect(
                float(px.min()), float(py.min()), float(px.max()), float(py.max())
            )
            ux, uy = self._reachable_near(rect)
            if len(ux) == 0:
                out[group] = 0
                continue
            dx = px[:, None] - ux[None, :]
            dy = py[:, None] - uy[None, :]
            out[group] = np.count_nonzero(dx * dx + dy * dy <= r2, axis=1)
        return out

    def _reaching(self, ux: np.ndarray, uy: np.ndarray, rect: Rect) -> np.ndarray:
        """Which of the positions ``(ux, uy)`` have a disk reaching ``rect``.

        The exact filter behind every ``*_near`` kernel: the same
        squared-gap arithmetic as ``CircleStencil``'s N test, so a cell
        the stencil calls N for a disk is never reached by it.
        """
        dx = np.maximum(rect.xmin - ux, 0.0)
        dx = np.maximum(dx, ux - rect.xmax)
        dy = np.maximum(rect.ymin - uy, 0.0)
        dy = np.maximum(dy, uy - rect.ymax)
        r = self.protection_range
        return dx * dx + dy * dy <= r * r

    def _reachable_near(self, rect: Rect) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the units whose disk reaches into ``rect``.

        The candidates are the bucket gather when the grid index is
        active and the whole fleet otherwise; both pass the same exact
        filter and come out in the same (ascending-row) order.
        """
        if self._use_buckets():
            rows = self._grid_index.candidate_rows(rect)
            ux = self._xs[rows]
            uy = self._ys[rows]
        else:
            ux = self._xs
            uy = self._ys
        examined = len(ux)
        reachable = self._reaching(ux, uy, rect)
        ux = ux[reachable]
        uy = uy[reachable]
        self.stats.queries += 1
        self.stats.candidate_units += examined
        self.stats.reachable_units += len(ux)
        return ux, uy

    def _within(
        self, ux: np.ndarray, uy: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """The ``units x points`` matrix of "point inside the unit's disk".

        ``u - x`` is exactly ``-(x - u)`` (rounding is sign-symmetric),
        so every pair's squared distance is the per-point kernel's, bit
        for bit.
        """
        r = self.protection_range
        dx = np.subtract.outer(ux, xs)
        dy = np.subtract.outer(uy, ys)
        dx *= dx
        dy *= dy
        dx += dy
        return dx <= r * r

    def ap_counts_near(
        self, xs: np.ndarray, ys: np.ndarray, rect: Rect
    ) -> tuple[np.ndarray, int]:
        """AP of points inside ``rect``, using only reachable units.

        Implements the paper's "derive the protecting units whose
        protecting regions intersect the cell" (§III-B/§IV-D): a unit
        whose disk cannot reach into the rectangle cannot protect any
        place in it, so it is excluded before the distance kernel runs.
        Returns the counts and the number of units actually compared
        (for the work counters). Callers must only pass points inside
        ``rect``.
        """
        ux, uy = self._reachable_near(rect)
        n_units = len(ux)
        if n_units == 0:
            return np.zeros(len(xs), dtype=np.int64), 0
        return (
            np.add.reduce(self._within(ux, uy, xs, ys), axis=0, dtype=np.int64),
            n_units,
        )

    def ap_change_near(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        rect: Rect,
        moved: Mapping[int, Point],
        *,
        filtered: bool,
    ) -> tuple[np.ndarray, int]:
        """How :meth:`ap_counts_near` changed since the units in ``moved``
        stood at the positions it maps them to.

        Per point, the moved units that cover it now minus those that
        covered it at their recorded position, through the per-pair
        expression of :meth:`ap_counts_near`: a column computed then,
        plus this change, equals a recount now exactly, as long as no
        unit outside ``moved`` changed its contribution. ``filtered``
        runs the reach filter of :meth:`ap_counts_near` on both
        positions first. Without it the result is the same whenever
        every point lies inside ``rect``: the filter's squared gaps are
        lower bounds of the pair's squared differences, rounded the same
        way, so a disk that covers such a point also passes the filter.
        Returns the change and the rows compared (moved units times the
        sides kept, at most ``2 * len(moved)``).
        """
        n = len(moved)
        rows = np.fromiter(map(self._row_of.__getitem__, moved), np.intp, n)
        ux = np.concatenate((self._xs[rows], [p.x for p in moved.values()]))
        uy = np.concatenate((self._ys[rows], [p.y for p in moved.values()]))
        now = n
        if filtered:
            reaching = self._reaching(ux, uy, rect)
            now = int(np.count_nonzero(reaching[:n]))
            ux = ux[reaching]
            uy = uy[reaching]
        compared = len(ux)
        self.stats.queries += 1
        self.stats.candidate_units += 2 * n
        self.stats.reachable_units += compared
        if compared == 0:
            return np.zeros(len(xs), dtype=np.int64), 0
        within = self._within(ux, uy, xs, ys)
        change = np.add.reduce(within[:now], axis=0, dtype=np.int64)
        change -= np.add.reduce(within[now:], axis=0, dtype=np.int64)
        return change, compared

    def weighted_protection_near(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        rect: Rect,
        weight_of_distance: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, int]:
        """Distance-weighted protection sums.

        Nothing in the package calls this; ``perfbench/layers.py`` wraps
        it by name, so it goes when that table drops it.

        Like :meth:`ap_counts_near`, but instead of counting units inside
        the disk it sums ``weight_of_distance(d)`` over the reachable
        units, where ``weight_of_distance`` maps a numpy distance array
        to a weight array (zero beyond the protection range).
        """
        ux, uy = self._reachable_near(rect)
        n_units = len(ux)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if n_units == 0:
            return np.zeros(len(xs), dtype=np.float64), 0
        ddx = xs[:, None] - ux[None, :]
        ddy = ys[:, None] - uy[None, :]
        distances = np.sqrt(ddx * ddx + ddy * ddy)
        return weight_of_distance(distances).sum(axis=1), n_units

    def ap_of_point(self, p: Point) -> int:
        """Actual protection of a single point."""
        if self._use_buckets():
            # for a degenerate rectangle the exact reachability filter
            # *is* the point-in-disk test, so the reachable set is the
            # protecting set.
            ux, _ = self._reachable_near(Rect(p.x, p.y, p.x, p.y))
            return len(ux)
        dx = self._xs - p.x
        dy = self._ys - p.y
        r2 = self.protection_range * self.protection_range
        return int(np.count_nonzero(dx * dx + dy * dy <= r2))

    def snapshot_positions(self) -> np.ndarray:
        """An ``(n, 2)`` copy of all unit positions (unit-id order)."""
        return np.stack([self._xs, self._ys], axis=1).copy()

    def export_positions(self) -> list[list[float]]:
        """JSON-codable ``[unit_id, x, y]`` rows in unit-id order."""
        return [
            [uid, float(self._xs[self._row_of[uid]]), float(self._ys[self._row_of[uid]])]
            for uid in self._order
        ]

    def restore_positions(self, rows: Iterable[Iterable[float]]) -> None:
        """Overwrite every tracked position from :meth:`export_positions` rows.

        The fleet must match (same unit ids); any attached grid index is
        rebuilt from the restored coordinate arrays so its buckets agree
        with the overwritten positions.
        """
        seen: set[int] = set()
        for raw in rows:
            uid_f, x, y = raw
            uid = int(uid_f)
            unit = self._units.get(uid)
            if unit is None:
                raise KeyError(f"unknown unit {uid} in restored positions")
            seen.add(uid)
            unit.location = Point(float(x), float(y))
            row = self._row_of[uid]
            self._xs[row] = float(x)
            self._ys[row] = float(y)
        if seen != set(self._order):
            missing = sorted(set(self._order) - seen)
            raise ValueError(f"restored positions miss units {missing[:5]}")
        if self._grid_index is not None:
            self.attach_grid(self._grid_index.grid)
