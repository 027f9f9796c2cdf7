"""Unit tests for axis-aligned rectangles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

unit = st.floats(0.0, 1.0, allow_nan=False)


def make_rect(x1, y1, x2, y2) -> Rect:
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestConstruction:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_zero_area_allowed(self):
        r = Rect(0.5, 0.5, 0.5, 0.5)
        assert r.area == 0.0

    def test_from_points_orders_coordinates(self):
        r = Rect.from_points(Point(0.9, 0.1), Point(0.1, 0.9))
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.1, 0.1, 0.9, 0.9)

    def test_dimensions(self):
        r = Rect(0.0, 0.0, 2.0, 3.0)
        assert r.width == 2.0
        assert r.height == 3.0
        assert r.area == 6.0

    def test_center(self):
        assert Rect(0.0, 0.0, 2.0, 4.0).center() == Point(1.0, 2.0)

    def test_corners_order(self):
        corners = Rect(0.0, 0.0, 1.0, 1.0).corners()
        assert corners == (
            Point(0.0, 0.0),
            Point(1.0, 0.0),
            Point(1.0, 1.0),
            Point(0.0, 1.0),
        )


class TestContainment:
    def test_contains_interior_point(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).contains_point(Point(0.5, 0.5))

    def test_boundary_is_closed(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.contains_point(Point(0.0, 0.0))
        assert r.contains_point(Point(1.0, 1.0))
        assert r.contains_point(Point(0.5, 1.0))

    def test_outside_point(self):
        assert not Rect(0.0, 0.0, 1.0, 1.0).contains_point(Point(1.1, 0.5))

    def test_contains_rect_self(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.contains_rect(r)

    def test_contains_smaller_rect(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).contains_rect(Rect(0.2, 0.2, 0.8, 0.8))

    def test_does_not_contain_overlapping(self):
        assert not Rect(0.0, 0.0, 1.0, 1.0).contains_rect(
            Rect(0.5, 0.5, 1.5, 1.5)
        )


class TestIntersection:
    def test_overlapping(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).intersects(Rect(0.5, 0.5, 2.0, 2.0))

    def test_touching_edges_intersect(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).intersects(Rect(1.0, 0.0, 2.0, 1.0))

    def test_touching_corner_intersects(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).intersects(Rect(1.0, 1.0, 2.0, 2.0))

    def test_disjoint(self):
        assert not Rect(0.0, 0.0, 1.0, 1.0).intersects(Rect(1.1, 0.0, 2.0, 1.0))

    @given(unit, unit, unit, unit, unit, unit, unit, unit)
    def test_intersection_symmetric(self, a, b, c, d, e, f, g, h):
        r1 = make_rect(a, b, c, d)
        r2 = make_rect(e, f, g, h)
        assert r1.intersects(r2) == r2.intersects(r1)


class TestOperations:
    def test_clamp_inside_point_unchanged(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.clamp_point(Point(0.4, 0.6)) == Point(0.4, 0.6)

    def test_clamp_outside_point(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.clamp_point(Point(2.0, -1.0)) == Point(1.0, 0.0)

    @given(unit, unit)
    def test_clamped_point_is_contained(self, x, y):
        r = Rect(0.25, 0.25, 0.75, 0.75)
        assert r.contains_point(r.clamp_point(Point(x * 3 - 1, y * 3 - 1)))
