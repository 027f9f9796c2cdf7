"""Axis-aligned rectangles.

Grid cells and the space bounds are axis-aligned rectangles. The
rectangle is closed: points on its boundary are considered contained,
matching the closed protection disk of Definition 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate rect: ({self.xmin}, {self.ymin}) .. "
                f"({self.xmax}, {self.ymax})"
            )

    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Rect":
        """The bounding rectangle of two points."""
        return cls(
            min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)
        )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from the lower-left."""
        return (
            Point(self.xmin, self.ymin),
            Point(self.xmax, self.ymin),
            Point(self.xmax, self.ymax),
            Point(self.xmin, self.ymax),
        )

    def contains_point(self, p: Point) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def clamp_point(self, p: Point) -> Point:
        """The point of the rectangle closest to ``p``."""
        return Point(
            min(max(p.x, self.xmin), self.xmax),
            min(max(p.y, self.ymin), self.ymax),
        )
