"""Planar points.

Every mechanism in this library operates on a planar projection of the
earth's surface (the paper works in a 20 x 20 km city-scale window, where
an equirectangular projection is accurate to well under a metre).  A
:class:`Point` is an immutable pair of planar coordinates expressed in
kilometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the planar (kilometre) coordinate system.

    Attributes
    ----------
    x:
        Easting in kilometres.
    y:
        Northing in kilometres.
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in kilometres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` in square kilometres."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def manhattan_distance_to(self, other: "Point") -> float:
        """L1 distance to ``other`` in kilometres."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a copy of this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)


_get_x = attrgetter("x")
_get_y = attrgetter("y")


def points_to_array(points: Sequence[Point]) -> np.ndarray:
    """Pack a point sequence into an ``(n, 2)`` float64 coordinate array.

    The one shared conversion between the object world (lists of
    :class:`Point`) and the array world (vectorised engine / mechanism
    kernels); an empty sequence yields a ``(0, 2)`` array so callers
    never special-case it.  Each column is read in one ``np.fromiter``
    pass, with no intermediate per-point tuples.
    """
    n = len(points)
    coords = np.empty((n, 2))
    coords[:, 0] = np.fromiter(map(_get_x, points), float, n)
    coords[:, 1] = np.fromiter(map(_get_y, points), float, n)
    return coords


def array_to_points(coords: np.ndarray) -> list[Point]:
    """Unpack an ``(n, 2)`` coordinate array into a list of :class:`Point`."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    return list(map(Point, coords[:, 0].tolist(), coords[:, 1].tolist()))


def centroid(points: list[Point]) -> Point:
    """Return the centroid of a non-empty list of points.

    Raises
    ------
    ValueError
        If ``points`` is empty.
    """
    if not points:
        raise ValueError("centroid of an empty point list is undefined")
    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    n = len(points)
    return Point(sx / n, sy / n)
