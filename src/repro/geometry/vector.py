"""Immutable 2-D vector used for positions, velocities and directions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Vec2:
    """An immutable 2-D vector with the usual arithmetic.

    Examples
    --------
    >>> a = Vec2(3.0, 4.0)
    >>> a.length()
    5.0
    >>> (a + Vec2(1.0, 0.0)).x
    4.0
    """

    x: float
    y: float

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # ------------------------------------------------------------- measures

    def length(self) -> float:
        """Euclidean norm."""
        return math.hypot(self.x, self.y)

    def length_squared(self) -> float:
        """Squared norm (avoids a sqrt for comparisons)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def dot(self, other: "Vec2") -> float:
        """Dot product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z-component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def angle(self) -> float:
        """Heading angle in radians, measured from the +x axis."""
        return math.atan2(self.y, self.x)

    # ----------------------------------------------------------- transforms

    def normalized(self) -> "Vec2":
        """Unit vector in the same direction (zero vector stays zero)."""
        norm = self.length()
        if norm == 0.0:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / norm, self.y / norm)

    def rotated(self, radians: float) -> "Vec2":
        """Rotate counter-clockwise by ``radians``."""
        c, s = math.cos(radians), math.sin(radians)
        return Vec2(self.x * c - self.y * s, self.x * s + self.y * c)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: ``t=0`` gives self, ``t=1`` gives other."""
        return Vec2(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )

    @staticmethod
    def zero() -> "Vec2":
        """The origin / null vector."""
        return Vec2(0.0, 0.0)
