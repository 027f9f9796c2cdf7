"""Unit + property tests for the uniform grid partition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Circle, Point, Rect
from repro.grid import GridPartition
from repro.grid.partition import F_CODE, N_CODE, P_CODE

unit = st.floats(0.0, 1.0, allow_nan=False)


@pytest.fixture
def grid() -> GridPartition:
    return GridPartition.unit_square(10)


class TestConstruction:
    def test_unit_square_shape(self, grid):
        assert grid.nx == grid.ny == 10
        assert grid.cell_count == 100
        assert grid.cell_width == pytest.approx(0.1)

    def test_rejects_zero_granularity(self):
        with pytest.raises(ValueError):
            GridPartition.unit_square(0)

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            GridPartition(Rect(0.0, 0.0, 0.0, 1.0), 2, 2)

    def test_non_square_grid(self):
        g = GridPartition(Rect(0.0, 0.0, 2.0, 1.0), 4, 2)
        assert g.cell_width == pytest.approx(0.5)
        assert g.cell_height == pytest.approx(0.5)


class TestCellOf:
    def test_interior_point(self, grid):
        assert grid.cell_of(Point(0.05, 0.05)) == (0, 0)
        assert grid.cell_of(Point(0.95, 0.95)) == (9, 9)

    def test_cell_boundary_belongs_to_next_cell(self, grid):
        # half-open cells: x = 0.1 starts cell 1.
        assert grid.cell_of(Point(0.1, 0.0)) == (1, 0)

    def test_space_max_boundary_clamped(self, grid):
        assert grid.cell_of(Point(1.0, 1.0)) == (9, 9)

    def test_outside_raises(self, grid):
        with pytest.raises(ValueError):
            grid.cell_of(Point(1.5, 0.5))

    @given(unit, unit)
    def test_point_contained_in_its_cell(self, x, y):
        grid = GridPartition.unit_square(7)
        cell = grid.cell_of(Point(x, y))
        assert grid.cell_rect(cell).contains_point(Point(x, y))

    @given(unit, unit)
    def test_cell_of_is_unique_modulo_boundaries(self, x, y):
        """A point strictly inside one cell is in no other cell's interior."""
        grid = GridPartition.unit_square(5)
        cell = grid.cell_of(Point(x, y))
        rect = grid.cell_rect(cell)
        interior = (
            rect.xmin < x < rect.xmax and rect.ymin < y < rect.ymax
        )
        if interior:
            owners = [
                c
                for c in grid.all_cells()
                if grid.cell_rect(c).contains_point(Point(x, y))
            ]
            assert owners == [cell]


class TestCellRect:
    def test_first_cell(self, grid):
        rect = grid.cell_rect((0, 0))
        assert (rect.xmin, rect.ymin) == (0.0, 0.0)
        assert rect.xmax == pytest.approx(0.1)

    def test_cells_tile_the_space(self, grid):
        total = sum(grid.cell_rect(c).area for c in grid.all_cells())
        assert total == pytest.approx(1.0)

    def test_bad_cell_raises(self, grid):
        with pytest.raises(ValueError):
            grid.cell_rect((10, 0))
        with pytest.raises(ValueError):
            grid.cell_rect((-1, 0))


class TestLinearIndex:
    def test_roundtrip_all_cells(self, grid):
        for cell in grid.all_cells():
            assert grid.from_linear(grid.linear(cell)) == cell

    def test_linear_dense_and_unique(self, grid):
        values = sorted(grid.linear(c) for c in grid.all_cells())
        assert values == list(range(grid.cell_count))

    def test_from_linear_out_of_range(self, grid):
        with pytest.raises(ValueError):
            grid.from_linear(100)


class TestOverlapQueries:
    def test_circle_touching_cells(self, grid):
        cells = set(grid.cells_touching_circle(Circle(Point(0.45, 0.45), 0.1)))
        # disk of radius 0.1 centred mid-cell: reaches the 4 orthogonal
        # neighbours but not the diagonal ones (corner distance ~0.07+).
        assert (4, 4) in cells
        assert (3, 4) in cells and (5, 4) in cells
        assert (4, 3) in cells and (4, 5) in cells

    def test_circle_cells_all_actually_touch(self, grid):
        circle = Circle(Point(0.3, 0.7), 0.17)
        for cell in grid.cells_touching_circle(circle):
            assert circle.intersects_rect(grid.cell_rect(cell))

    def test_circle_touching_a_cell_only_at_its_edge(self):
        # the disk's bounding box starts on the grid line y = 0.5, so its
        # floor is row 3; the closed disk still meets row 2's top edge at
        # (0.0, 0.5).
        grid = GridPartition.unit_square(6)
        cells = set(grid.cells_touching_circle(Circle(Point(0.0, 0.6), 0.1)))
        assert cells == {(0, 2), (0, 3), (0, 4)}

    @given(unit, unit, st.floats(0.01, 0.3))
    def test_circle_touch_set_is_complete(self, cx, cy, radius):
        """Every cell the disk intersects is returned."""
        grid = GridPartition.unit_square(6)
        circle = Circle(Point(cx, cy), radius)
        returned = set(grid.cells_touching_circle(circle))
        for cell in grid.all_cells():
            if circle.intersects_rect(grid.cell_rect(cell)):
                assert cell in returned


# -- the candidate-cell stencil -------------------------------------------


def reference_block(stencil, center):
    """The candidate block as numpy computes it: the disk's bounding box
    in cell units, each floor argument moved outward by the stencil's
    edge tolerance, clamped to the grid."""
    grid = stencil.grid
    origin = np.array([grid.space.xmin, grid.space.ymin])
    size = np.array([grid.cell_width, grid.cell_height])
    c = np.array([center.x, center.y])
    tol = stencil._edge_tol
    lo = np.floor((c - stencil.radius - origin) / size - tol).astype(int)
    hi = np.floor((c + stencil.radius - origin) / size + tol).astype(int)
    return (
        max(int(lo[0]), 0),
        min(int(hi[0]), grid.nx - 1),
        max(int(lo[1]), 0),
        min(int(hi[1]), grid.ny - 1),
    )


def reference_classify_move(stencil, old, new):
    """A numpy broadcast classification with the same scope rule as
    ``CircleStencil.classify_move``: both disks over the merged block
    when the two widened candidate blocks touch, otherwise each disk
    over its own block with the other side N. Cells come in row-major
    order."""
    grid = stencil.grid
    r2 = stencil.radius * stencil.radius

    def classify_block(center, block):
        i_lo, i_hi, j_lo, j_hi = block
        x0 = grid.space.xmin + np.arange(i_lo, i_hi + 1) * grid.cell_width
        x1 = x0 + grid.cell_width
        y0 = grid.space.ymin + np.arange(j_lo, j_hi + 1) * grid.cell_height
        y1 = y0 + grid.cell_height
        dx_min = np.maximum(np.maximum(x0 - center.x, center.x - x1), 0.0)
        dy_min = np.maximum(np.maximum(y0 - center.y, center.y - y1), 0.0)
        dx_max = np.maximum(center.x - x0, x1 - center.x)
        dy_max = np.maximum(center.y - y0, y1 - center.y)
        min2 = dx_min[:, None] ** 2 + dy_min[None, :] ** 2
        max2 = dx_max[:, None] ** 2 + dy_max[None, :] ** 2
        codes = np.full(min2.shape, P_CODE, dtype=np.int8)
        codes[min2 > r2] = N_CODE
        codes[max2 <= r2] = F_CODE
        return codes

    def cells(block, codes_old, codes_new):
        touched = (codes_old != N_CODE) | (codes_new != N_CODE)
        return [
            (
                (block[0] + int(a), block[2] + int(b)),
                int(codes_old[a, b]),
                int(codes_new[a, b]),
            )
            for a, b in np.argwhere(touched)
        ]

    ob, nb = reference_block(stencil, old), reference_block(stencil, new)
    old_live = ob[0] <= ob[1] and ob[2] <= ob[3]
    new_live = nb[0] <= nb[1] and nb[2] <= nb[3]
    touch = (
        ob[0] <= nb[1] and nb[0] <= ob[1] and ob[2] <= nb[3] and nb[2] <= ob[3]
    )
    if old_live and new_live and touch:
        block = (
            min(ob[0], nb[0]),
            max(ob[1], nb[1]),
            min(ob[2], nb[2]),
            max(ob[3], nb[3]),
        )
        return cells(block, classify_block(old, block), classify_block(new, block))
    out = []
    if old_live:
        codes = classify_block(old, ob)
        out += cells(ob, codes, np.zeros_like(codes))
    if new_live:
        codes = classify_block(new, nb)
        out += cells(nb, np.zeros_like(codes), codes)
    return out


wide = st.floats(-0.5, 1.5, allow_nan=False)


class TestCircleStencil:
    """``classify_move`` computes in plain floats; it must agree exactly
    with the numpy broadcast of the same IEEE operations."""

    @given(
        wide,
        wide,
        wide,
        wide,
        st.sampled_from([(10, 0.1), (10, 0.05), (10, 0.17), (7, 0.1)]),
    )
    def test_matches_numpy_reference(self, ox, oy, nx, ny, setup):
        granularity, radius = setup
        stencil = GridPartition.unit_square(granularity).stencil(radius)
        old, new = Point(ox, oy), Point(nx, ny)
        assert stencil.classify_move(old, new) == reference_classify_move(
            stencil, old, new
        )

    @given(wide, wide, st.floats(-0.03, 0.03), st.floats(-0.03, 0.03))
    def test_short_moves_match_numpy_reference(self, ox, oy, dx, dy):
        # the common case: a short hop, so the two blocks touch.
        stencil = GridPartition.unit_square(10).stencil(0.1)
        old, new = Point(ox, oy), Point(ox + dx, oy + dy)
        assert stencil.classify_move(old, new) == reference_classify_move(
            stencil, old, new
        )

    @pytest.mark.parametrize(
        "old,new,expect_cells",
        [
            # x = 1.0 with R equal to the cell width: the block's floor
            # arithmetic decides the scope at the space edge.
            (Point(1.0, 0.55), Point(1.0, 0.58), True),
            (Point(0.9, 0.5), Point(1.0, 0.5), True),
            # disjoint blocks: each disk over its own block only.
            (Point(0.15, 0.15), Point(0.85, 0.85), True),
            # one block off the grid.
            (Point(1.4, 0.5), Point(0.95, 0.5), True),
            (Point(0.05, 0.05), Point(-0.4, 0.5), True),
            # both blocks off the grid.
            (Point(1.4, 1.4), Point(-0.4, -0.4), False),
        ],
    )
    def test_pinned_moves(self, old, new, expect_cells):
        stencil = GridPartition.unit_square(10).stencil(0.1)
        got = stencil.classify_move(old, new)
        assert got == reference_classify_move(stencil, old, new)
        assert bool(got) == expect_cells
        for _cell, code_old, code_new in got:
            assert {code_old, code_new} <= {N_CODE, P_CODE, F_CODE}
            assert (code_old, code_new) != (N_CODE, N_CODE)

    def test_closed_disk_boundaries(self):
        # 3-4-5 geometry, exact in binary: cell (0, 0) is [0, 3] x [0, 4],
        # so from the origin its far corner lies exactly on a radius-5
        # circle (F: the disk is closed), and cell (1, 1) touches the
        # circle at its near corner (3, 4) only (P, not N).
        grid = GridPartition(Rect(0.0, 0.0, 6.0, 8.0), 2, 2)
        stencil = grid.stencil(5.0)
        origin = Point(0.0, 0.0)
        expected = [
            ((0, 0), F_CODE, F_CODE),
            ((0, 1), P_CODE, P_CODE),
            ((1, 0), P_CODE, P_CODE),
            ((1, 1), P_CODE, P_CODE),
        ]
        assert stencil.classify_move(origin, origin) == expected
        assert reference_classify_move(stencil, origin, origin) == expected
