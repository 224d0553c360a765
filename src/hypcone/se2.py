"""Orientation-preserving isometries of the Euclidean plane.

An element is x -> N x + w with N the rotation by `angle`.  These appear as
degenerate limits of hyperbolic developing maps when a cone angle crosses a
multiple of 2*pi, and in flat-triangle checks of the trigonometric pairing
identities.  Only the small API needed there is provided: composition,
inversion, fixed points of genuine rotations, and an exact orientation test
for point triples.

An element lives as plain Python floats: its angle, cos and sin of it, and
w = (wx, wy).  Points go in as any pair of numbers and come out as (x, y)
tuples; `.rot` and `.w` are read-only numpy copies, built on each access.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotElliptic, OutOfRange
from .sl2 import _frozen


class Se2Element:
    """The map x -> R(angle) x + w."""

    __slots__ = ("angle", "cos", "sin", "wx", "wy")

    def __init__(self, angle: float, w):
        angle = _finite(angle)
        w = np.asarray(w, dtype=float)
        if w.shape != (2,):
            raise ValueError("translation part must be a 2-vector")
        self._set(angle, *w.tolist())

    def _set(self, angle: float, wx: float, wy: float) -> None:
        self.angle = angle
        self.cos, self.sin = math.cos(angle), math.sin(angle)
        self.wx, self.wy = wx, wy

    @classmethod
    def _make(cls, angle: float, wx: float, wy: float) -> "Se2Element":
        """The element from floats, without parsing a translation array."""
        g = object.__new__(cls)
        g._set(_finite(angle), wx, wy)
        return g

    @classmethod
    def rotation_about(cls, center, angle: float) -> "Se2Element":
        cx, cy = (float(v) for v in center)
        c, s = math.cos(angle), math.sin(angle)
        return cls._make(angle, cx - (c * cx - s * cy), cy - (s * cx + c * cy))

    @classmethod
    def translation(cls, w) -> "Se2Element":
        return cls(0.0, w)

    @property
    def rot(self) -> np.ndarray:
        """The rotation matrix, as a read-only numpy copy."""
        return _frozen([[self.cos, -self.sin], [self.sin, self.cos]])

    @property
    def w(self) -> np.ndarray:
        """The translation part, as a read-only numpy copy."""
        return _frozen([self.wx, self.wy])

    def __repr__(self):
        return f"Se2Element(angle={self.angle!r}, w={[self.wx, self.wy]!r})"

    def apply(self, x) -> tuple[float, float]:
        px, py = (float(v) for v in x)
        c, s = self.cos, self.sin
        return c * px - s * py + self.wx, s * px + c * py + self.wy

    def compose(self, other: "Se2Element") -> "Se2Element":
        """self after other."""
        wx, wy = self.apply((other.wx, other.wy))
        return Se2Element._make(self.angle + other.angle, wx, wy)

    def inverse(self) -> "Se2Element":
        c, s, wx, wy = self.cos, self.sin, self.wx, self.wy
        return Se2Element._make(-self.angle, -(c * wx + s * wy), -(c * wy - s * wx))

    def fixed_point(self) -> tuple[float, float]:
        """Center of rotation; undefined for (near-)translations."""
        # x = Nx + w has a solution iff 1 is not an eigenvalue of N; I - N is
        # a scaled rotation [[k, s], [-s, k]], inverted by its adjugate.
        if abs(math.remainder(self.angle, 2.0 * math.pi)) < 1e-12:
            raise NotElliptic("angle is a multiple of 2*pi; no fixed point")
        k, s, wx, wy = 1.0 - self.cos, self.sin, self.wx, self.wy
        det = k * k + s * s
        return (k * wx - s * wy) / det, (s * wx + k * wy) / det


def _finite(angle: float) -> float:
    if not math.isfinite(angle):
        raise OutOfRange("angle must be finite")
    return float(angle)


def se2_pair_distance(s1: Se2Element, s2: Se2Element) -> float:
    """Distance between the rotation centers of two genuine rotations."""
    (x1, y1), (x2, y2) = s1.fixed_point(), s2.fixed_point()
    return math.hypot(x1 - x2, y1 - y2)


def triple_orientation(p1, p2, p3) -> int:
    """Sign of the oriented area of the triangle (p1, p2, p3).

    +1 counterclockwise, -1 clockwise, 0 degenerate; computed as the exact
    sign of p1^p2 + p2^p3 + p3^p1.
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    val = float((x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2) + (x3 * y1 - x1 * y3))
    return (val > 0.0) - (val < 0.0)
