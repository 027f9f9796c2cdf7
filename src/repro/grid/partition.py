"""The uniform grid partition of the monitored space.

Besides the partition arithmetic this module owns two geometry caches on
the update hot path:

* per-cell :class:`Rect` objects are memoized — the candidate loops of
  the monitors touch the same few hundred rects on every update, and
  rebuilding them dominated the maintain phase's allocation profile;
* one :class:`CircleStencil` per protection radius holds the
  candidate-block arithmetic and classifies a move's old and new disk
  against the block's few cells in plain floats (numpy's per-call cost
  outweighs the work on blocks of at most 5×5 cells at the paper's
  defaults).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.geometry import Circle, Point, Rect

# A cell is addressed by its (column, row) pair.
CellId = tuple[int, int]

#: integer relation codes of :meth:`CircleStencil.classify_move`:
#: no intersection, partial overlap, cell fully inside the disk.
#: ``repro.core.tables`` indexes its Table I/II rows by them.
N_CODE, P_CODE, F_CODE = 0, 1, 2


class GridPartition:
    """A uniform ``nx x ny`` partition of a rectangular space.

    Every point of the space belongs to exactly one cell: cell ``(i, j)``
    owns the half-open square ``[xmin + i*w, xmin + (i+1)*w) x [...]``,
    except that points on the space's upper/right boundary are clamped
    into the last row/column so the partition covers the closed space.

    The *granularity* parameter of the paper's Table III corresponds to
    ``nx == ny``.
    """

    def __init__(self, space: Rect, nx: int, ny: int) -> None:
        if nx <= 0 or ny <= 0:
            raise ValueError(f"grid must have positive dimensions, got {nx}x{ny}")
        if space.width <= 0 or space.height <= 0:
            raise ValueError("space must have positive area")
        self.space = space
        self.nx = nx
        self.ny = ny
        self.cell_width = space.width / nx
        self.cell_height = space.height / ny
        #: lazily filled geometry caches (cells are immutable).
        self._rect_cache: dict[CellId, Rect] = {}
        self._stencil_cache: dict[float, CircleStencil] = {}

    @classmethod
    def unit_square(cls, granularity: int) -> "GridPartition":
        """The paper's default setting: the unit square, ``g x g`` cells."""
        return cls(Rect(0.0, 0.0, 1.0, 1.0), granularity, granularity)

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny

    def cell_of(self, p: Point) -> CellId:
        """The cell owning point ``p``.

        Raises :class:`ValueError` for points outside the space — places
        and units are required to live inside the monitored space.
        """
        if not self.space.contains_point(p):
            raise ValueError(f"point {p} outside the monitored space {self.space}")
        i = int((p.x - self.space.xmin) / self.cell_width)
        j = int((p.y - self.space.ymin) / self.cell_height)
        # Points on the max boundary index one past the end; clamp them in.
        i = min(i, self.nx - 1)
        j = min(j, self.ny - 1)
        return (i, j)

    def cell_rect(self, cell: CellId) -> Rect:
        """The closed rectangle of ``cell`` (memoized — rects are shared).

        The same rect object is returned on every call, so hot loops may
        compare rects by identity and no per-update allocation happens.
        """
        rect = self._rect_cache.get(cell)
        if rect is None:
            self._check_cell(cell)
            i, j = cell
            x0 = self.space.xmin + i * self.cell_width
            y0 = self.space.ymin + j * self.cell_height
            rect = Rect(x0, y0, x0 + self.cell_width, y0 + self.cell_height)
            self._rect_cache[cell] = rect
        return rect

    def stencil(self, radius: float) -> "CircleStencil":
        """The (cached) candidate-cell stencil for disks of ``radius``."""
        stencil = self._stencil_cache.get(radius)
        if stencil is None:
            stencil = CircleStencil(self, radius)
            self._stencil_cache[radius] = stencil
        return stencil

    def all_cells(self) -> Iterator[CellId]:
        """All cell ids, column-major."""
        for i in range(self.nx):
            for j in range(self.ny):
                yield (i, j)

    def cells_touching_circle(self, circle: Circle) -> Iterator[CellId]:
        """Cells whose rectangle intersects the (closed) disk.

        This is the candidate set for lower-bound maintenance: a cell not
        touching the old nor the new disk keeps the N relation on both
        sides and its bound is unchanged (the ``N -> N`` entry of the
        tables).
        """
        # the stencil's block, not the bounding box's: when a box edge
        # lies on a grid line (exactly or by rounding), the closed disk
        # may still meet the cell beyond it at that edge.
        i_lo, i_hi, j_lo, j_hi = self.stencil(circle.radius).block_of(circle.center)
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                if circle.intersects_rect(self.cell_rect((i, j))):
                    yield (i, j)

    def linear(self, cell: CellId) -> int:
        """A dense integer encoding of ``cell`` (row-major).

        The maintained-place table stores cell ownership as this integer
        so per-cell row selection is a vectorised comparison.
        """
        self._check_cell(cell)
        i, j = cell
        return i * self.ny + j

    def from_linear(self, index: int) -> CellId:
        """Inverse of :meth:`linear`."""
        if not (0 <= index < self.cell_count):
            raise ValueError(f"linear index {index} outside grid")
        return (index // self.ny, index % self.ny)

    def _check_cell(self, cell: CellId) -> None:
        i, j = cell
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ValueError(f"cell {cell} outside grid {self.nx}x{self.ny}")


class CircleStencil:
    """Scalar N/P/F classification for disks of one fixed radius.

    The monitors' bound maintenance asks, per location update, how the
    old and the new protection disk relate to every candidate cell. Per
    candidate column and row the stencil derives the minimum and
    maximum distance from the disk centre to the cell's extent, and
    per cell it maps their squared sums onto the three relations: F
    when the farthest corner is inside the disk, N when the nearest
    point is outside, P otherwise. These are the same closed-set rules
    as :func:`repro.geometry.relations.classify_circle_rect`.

    Cells outside a disk's candidate block are guaranteed N (the block
    covers every cell its bounding box touches), so a move only yields
    the cells where at least one side is not N.

    The arithmetic is plain Python floats on purpose. A merged block
    holds at most 5×5 cells at the paper's defaults (R one cell width),
    and at that size numpy's fixed per-call cost outweighs the work: a
    numpy broadcast of the same operations makes about twenty calls per
    move and measured about six times slower (MEASURED.md, "Scalar
    stencil"). The results are identical, operation for operation.
    """

    def __init__(self, grid: GridPartition, radius: float) -> None:
        if radius < 0:
            raise ValueError(f"negative radius: {radius}")
        self.grid = grid
        self.radius = radius
        self._r2 = radius * radius
        # the widest distance, in cell widths, between a grid line and a
        # block edge whose disk still reaches past it by rounding. The
        # floor arguments and the reach test each round a few times at
        # magnitudes up to the space's extent, the radius and the grid
        # size (in cells), a relative error near 1e-15; 1e-9 keeps a
        # margin of six orders of magnitude.
        space = grid.space
        extent = max(
            abs(space.xmin), abs(space.xmax), abs(space.ymin), abs(space.ymax)
        )
        self._edge_tol = 1e-9 * (
            max(grid.nx, grid.ny)
            + 3
            + 3 * (radius + extent) / min(grid.cell_width, grid.cell_height)
        )
        self._origin_and_size = (
            space.xmin,
            grid.cell_width,
            space.ymin,
            grid.cell_height,
        )

    def block_of(self, center: Point) -> tuple[int, int, int, int]:
        """Clamped ``(i_lo, i_hi, j_lo, j_hi)`` of the disk's candidate block.

        The floor arithmetic of a cell lookup applied to the disk's
        bounding box, each floor argument widened by the edge
        tolerance: when a box edge lies on a grid line to within
        rounding, the disk may still reach a point of the cell beyond
        it (a unit at ``x = 1.0`` with ``R`` a multiple of the cell
        width, or just outside the space), so that cell is a candidate
        too. ``i_lo > i_hi`` means the block misses the space entirely.
        """
        r = self.radius
        tol = self._edge_tol
        x0, w, y0, h = self._origin_and_size
        g = self.grid
        return (
            max(math.floor((center.x - r - x0) / w - tol), 0),
            min(math.floor((center.x + r - x0) / w + tol), g.nx - 1),
            max(math.floor((center.y - r - y0) / h - tol), 0),
            min(math.floor((center.y + r - y0) / h + tol), g.ny - 1),
        )

    def classify_move(self, old: Point, new: Point) -> list[tuple[CellId, int, int]]:
        """All cells affected by a unit move, with both relation codes.

        Returns ``(cell, code_old, code_new)`` for every cell touched by
        at least one of the two disks, codes being :data:`N_CODE`,
        :data:`P_CODE` or :data:`F_CODE`, cells in row-major order (i
        outer, j inner). When the two candidate blocks touch (the common
        case: location reports are frequent relative to unit speed) both
        disks are classified over their merged block. Otherwise each disk
        is classified over its own block only, the other side reading N.
        """
        ob = self.block_of(old)
        nb = self.block_of(new)
        old_live = ob[0] <= ob[1] and ob[2] <= ob[3]
        new_live = nb[0] <= nb[1] and nb[2] <= nb[3]
        if (
            old_live
            and new_live
            and ob[0] <= nb[1]
            and nb[0] <= ob[1]
            and ob[2] <= nb[3]
            and nb[2] <= ob[3]
        ):
            i_lo, i_hi = min(ob[0], nb[0]), max(ob[1], nb[1])
            j_lo, j_hi = min(ob[2], nb[2]), max(ob[3], nb[3])
            g = self.grid
            x0, w, y0, h = g.space.xmin, g.cell_width, g.space.ymin, g.cell_height
            rows_old = _squared_extents(j_lo, j_hi, y0, h, old.y)
            rows_new = _squared_extents(j_lo, j_hi, y0, h, new.y)
            r2 = self._r2
            out: list[tuple[CellId, int, int]] = []
            for i, (xo_near, xo_far), (xn_near, xn_far) in zip(
                range(i_lo, i_hi + 1),
                _squared_extents(i_lo, i_hi, x0, w, old.x),
                _squared_extents(i_lo, i_hi, x0, w, new.x),
            ):
                if xo_near > r2 and xn_near > r2:
                    continue  # the whole column is N on both sides
                for j, (yo_near, yo_far), (yn_near, yn_far) in zip(
                    range(j_lo, j_hi + 1), rows_old, rows_new
                ):
                    code_old = (
                        N_CODE
                        if xo_near + yo_near > r2
                        else F_CODE
                        if xo_far + yo_far <= r2
                        else P_CODE
                    )
                    code_new = (
                        N_CODE
                        if xn_near + yn_near > r2
                        else F_CODE
                        if xn_far + yn_far <= r2
                        else P_CODE
                    )
                    if code_old or code_new:
                        out.append(((i, j), code_old, code_new))
            return out
        out = []
        if old_live:
            out += [
                (cell, code, N_CODE) for cell, code in self._one_disk(ob, old)
            ]
        if new_live:
            out += [
                (cell, N_CODE, code) for cell, code in self._one_disk(nb, new)
            ]
        return out

    def _one_disk(
        self, block: tuple[int, int, int, int], center: Point
    ) -> list[tuple[CellId, int]]:
        """The non-N cells of ``block`` for the disk at ``center``."""
        i_lo, i_hi, j_lo, j_hi = block
        g = self.grid
        rows = _squared_extents(j_lo, j_hi, g.space.ymin, g.cell_height, center.y)
        r2 = self._r2
        out = []
        for i, (x_near, x_far) in zip(
            range(i_lo, i_hi + 1),
            _squared_extents(i_lo, i_hi, g.space.xmin, g.cell_width, center.x),
        ):
            for j, (y_near, y_far) in zip(range(j_lo, j_hi + 1), rows):
                if x_near + y_near <= r2:
                    out.append(((i, j), F_CODE if x_far + y_far <= r2 else P_CODE))
        return out


def _squared_extents(
    lo: int, hi: int, origin: float, width: float, c: float
) -> list[tuple[float, float]]:
    """Per cell ``lo..hi`` of one axis, the squared minimum and maximum
    distance from coordinate ``c`` to the cell's closed extent
    ``[origin + i * width, origin + i * width + width]``."""
    out = []
    for i in range(lo, hi + 1):
        e0 = origin + i * width
        e1 = e0 + width
        # max(max(e0 - c, c - e1), 0.0) and max(c - e0, e1 - c), spelled
        # as branches (builtin max() calls cost more than the work).
        near = e0 - c if c < e0 else c - e1 if c > e1 else 0.0
        lo_gap = c - e0
        hi_gap = e1 - c
        far = lo_gap if lo_gap > hi_gap else hi_gap
        out.append((near * near, far * far))
    return out
