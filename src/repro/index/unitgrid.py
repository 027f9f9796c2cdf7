"""Grid-bucketed secondary index over the protecting units.

Every AP kernel ultimately answers one question: *which units' protection
disks can reach into this rectangle?* The linear answer scans all |U|
unit positions per query; this index buckets the unit *rows* of a
:class:`~repro.core.units.UnitIndex` by grid cell so a query only
examines the O(⌈R/w⌉²) bucket neighbourhood of the rectangle — the same
trick INSQ-style moving-query systems use for kNN candidate sets.

The index is a *candidate generator*, not an approximation: the gathered
rows still pass through the exact rect-distance filter, so callers see
the identical reachable set (in the identical row order) as the linear
scan, bit for bit.

Bucketing is defensive about geometry: positions are clamped into the
boundary buckets, and the query neighbourhood is clamped the same way,
so units sitting exactly on (or numerically just outside) the space
border are still found. The bucket assignment only has to be consistent
between insert and remove — exactness comes from the final filter.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Rect
from repro.grid.partition import GridPartition

class UnitGridIndex:
    """Buckets unit rows by grid cell for fast reachability queries.

    Parameters
    ----------
    grid:
        the partition whose cells become the buckets (monitors pass
        their own :class:`GridPartition`, keeping one geometry).
    xs, ys:
        the *live* position arrays of the owning ``UnitIndex``. The
        arrays are mutated in place by location updates; the index holds
        references, so gathered candidates always see current positions.
    radius:
        the shared protection range ``R``; queries inflate their
        rectangle by it to find every disk that can reach inside.
    """

    def __init__(
        self, grid: GridPartition, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> None:
        if radius <= 0:
            raise ValueError("protection radius must be positive")
        self.grid = grid
        self.radius = radius
        self._xs = xs
        self._ys = ys
        self.nx = grid.nx
        self.ny = grid.ny
        self._x0 = grid.space.xmin
        self._y0 = grid.space.ymin
        self._inv_w = 1.0 / grid.cell_width
        self._inv_h = 1.0 / grid.cell_height
        #: rows per linear bucket id.
        self._rows: dict[int, list[int]] = {}
        for row in range(len(xs)):
            self._rows.setdefault(
                self._bucket(float(xs[row]), float(ys[row])), []
            ).append(row)

    # -- maintenance ------------------------------------------------------

    def move(self, row: int, old_x: float, old_y: float, x: float, y: float) -> None:
        """Re-bucket ``row`` after its unit moved (no-op within a bucket)."""
        old_bucket = self._bucket(old_x, old_y)
        new_bucket = self._bucket(x, y)
        if old_bucket == new_bucket:
            return
        self._rows[old_bucket].remove(row)
        if not self._rows[old_bucket]:
            del self._rows[old_bucket]
        self._rows.setdefault(new_bucket, []).append(row)

    def move_many(
        self,
        rows: np.ndarray,
        old_x: np.ndarray,
        old_y: np.ndarray,
        new_x: np.ndarray,
        new_y: np.ndarray,
    ) -> None:
        """Re-bucket many rows at once (one burst's coalesced moves).

        One vectorised pass computes every row's old and new bucket
        column; only the rows that actually crossed a bucket border go
        through the scalar remove/append path. End state is identical to
        calling :meth:`move` per row in order — almost all moves stay
        within their bucket, so the bucket-id arithmetic dominates the
        scalar loop and is what this batches away.
        """
        old_bucket = self.bucket_columns(old_x, old_y)
        new_bucket = self.bucket_columns(new_x, new_y)
        for pos in np.flatnonzero(old_bucket != new_bucket).tolist():
            row = int(rows[pos])
            source = int(old_bucket[pos])
            target = int(new_bucket[pos])
            self._rows[source].remove(row)
            if not self._rows[source]:
                del self._rows[source]
            self._rows.setdefault(target, []).append(row)

    # -- queries ----------------------------------------------------------

    def candidate_rows(self, rect: Rect) -> np.ndarray:
        """Rows bucketed within reach of ``rect`` (sorted, pre-filter).

        A superset of the reachable rows: every unit whose disk can
        intersect ``rect`` lies in a bucket whose column/row range the
        inflated rectangle overlaps (clamping at the space border keeps
        clamped border units inside the searched range). The bucket
        lists are appended to one Python list, sorted and converted
        once: at a few dozen rows that beats caching per-bucket arrays
        and concatenating them.
        """
        j_lo = self._row(rect.ymin - self.radius)
        j_hi = self._row(rect.ymax + self.radius) + 1
        gathered: list[int] = []
        rows_of = self._rows
        for i in range(
            self._col(rect.xmin - self.radius), self._col(rect.xmax + self.radius) + 1
        ):
            base = i * self.ny
            for bucket in range(base + j_lo, base + j_hi):
                rows = rows_of.get(bucket)
                if rows:
                    gathered += rows
        # sorted row order makes downstream kernels (notably weighted
        # sums) bit-identical to the linear scan over all rows.
        gathered.sort()
        return np.array(gathered, dtype=np.int64)

    def bucket_columns(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised linear bucket id per point (clamped into the grid)."""
        bi = np.clip(
            np.floor((xs - self._x0) * self._inv_w).astype(np.int64), 0, self.nx - 1
        )
        bj = np.clip(
            np.floor((ys - self._y0) * self._inv_h).astype(np.int64), 0, self.ny - 1
        )
        return bi * self.ny + bj

    # -- diagnostics -------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def occupied_buckets(self) -> int:
        return len(self._rows)

    def check(self) -> list[str]:
        """Invariant self-check (tests): every row in its position's bucket."""
        problems = []
        seen: set[int] = set()
        for bucket, rows in self._rows.items():
            for row in rows:
                if row in seen:
                    problems.append(f"row {row} bucketed twice")
                seen.add(row)
                expected = self._bucket(float(self._xs[row]), float(self._ys[row]))
                if expected != bucket:
                    problems.append(
                        f"row {row} in bucket {bucket}, position says {expected}"
                    )
        if len(seen) != len(self._xs):
            problems.append(f"{len(self._xs) - len(seen)} rows missing from buckets")
        return problems

    # -- internals ---------------------------------------------------------

    def _bucket(self, x: float, y: float) -> int:
        return self._col(x) * self.ny + self._row(y)

    def _col(self, x: float) -> int:
        i = int((x - self._x0) * self._inv_w)
        return 0 if i < 0 else (self.nx - 1 if i >= self.nx else i)

    def _row(self, y: float) -> int:
        j = int((y - self._y0) * self._inv_h)
        return 0 if j < 0 else (self.ny - 1 if j >= self.ny else j)
