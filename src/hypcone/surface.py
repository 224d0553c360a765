"""Triangulated hyperbolic cone surfaces with edge lengths as coordinates.

A surface is a list of counterclockwise-oriented triangles, each bounded by
three directed sides.  A side refers to an undirected edge together with a
direction flag, and every edge is traversed exactly once in each direction
across the whole list — that pairing is the gluing.  The only metric data are
the edge lengths; every angle is derived through the hyperbolic law of
cosines, so the length vector is an honest coordinate system.

The half-edge structure is flattened into arrays: half-edge 3*t + k is side k
of triangle t.  Composing "previous side" with "twin" steps counterclockwise
around the origin vertex of a half-edge, so vertices are the orbits of that
map, cone angles are corner-angle sums along orbits, and the direction fan at
a vertex (germs in cyclic order with the angles between them) is read off the
orbit's prefix sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Disconnected,
    DimensionMismatch,
    NonManifold,
    NonPositiveLength,
    NotAdmissible,
    OutOfRange,
    TriangleInequality,
)

# Cone angles within this distance of a positive multiple of 2*pi sit on a
# degenerate wall (trivial holonomy); several consumers refuse to proceed.
WALL_TOL = 1e-9
# Flat-vs-hyperbolic classification tolerance on the curvature count chi.
CHI_TOL = 1e-9


def fmt17(x: float) -> str:
    """Shortest %.17g rendering; round-trips doubles exactly."""
    return "%.17g" % float(x)


def wall_distance(theta: float) -> float:
    """Distance from a cone angle to the nearest positive multiple of 2*pi.

    A cone angle is on a wall when this is below WALL_TOL.
    """
    k = max(1, round(theta / (2.0 * math.pi)))
    return abs(theta - 2.0 * math.pi * k)


# ---------------------------------------------------------------------------
# hyperbolic law of cosines
# ---------------------------------------------------------------------------

def corner_angle(a: float, b: float, c: float) -> float:
    """Angle between the sides of lengths a and b, opposite the side c.

    cos(angle) = (cosh a cosh b - cosh c) / (sinh a sinh b), in (0, pi).
    The numerator is expanded with cosh x - cosh y = 2 sinh((x+y)/2)
    sinh((x-y)/2) so short sides do not cancel away all precision.  Raises
    OverflowError when the sinh products leave the floating-point range.
    """
    for s in (a, b, c):
        if not (math.isfinite(s) and s > 0.0):
            raise NonPositiveLength(f"side length {s} is not a positive real")
    if a + b <= c or b + c <= a or c + a <= b:
        raise TriangleInequality(f"lengths ({a}, {b}, {c}) violate strict triangle inequalities")
    # cosh a cosh b - cosh c = [cosh(a+b) - cosh c]/2 + [cosh(a-b) - cosh c]/2
    num = (math.sinh((a + b + c) / 2.0) * math.sinh((a + b - c) / 2.0)
           + math.sinh((a - b + c) / 2.0) * math.sinh((a - b - c) / 2.0))
    den = math.sinh(a) * math.sinh(b)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise OverflowError(f"corner angle of sides ({a}, {b}, {c}) overflows")
    return math.acos(min(1.0, max(-1.0, num / den)))


def corner_gradient(a, b, alpha, beta):
    """Partials (d/da, d/db, d/dc) of the corner angle between sides a and b.

    alpha and beta are the triangle's angles opposite a and b.  With the
    hyperbolic law of sines, d/dc = 1/(sinh a sin beta), d/da = -cot(beta) /
    sinh a and d/db = -cot(alpha) / sinh b: no difference of large terms, so
    short sides keep full precision.  Works elementwise on arrays.
    """
    sa, sb, sin_beta = np.sinh(a), np.sinh(b), np.sin(beta)
    return (-np.cos(beta) / (sin_beta * sa),
            -np.cos(alpha) / (np.sin(alpha) * sb),
            1.0 / (sa * sin_beta))


def corner_angle_gradient(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Partial derivatives of corner_angle(a, b, c) in (a, b, c)."""
    alpha, beta = corner_angle(b, c, a), corner_angle(c, a, b)
    return tuple(float(d) for d in corner_gradient(a, b, alpha, beta))


# ---------------------------------------------------------------------------
# angle data and strata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleData:
    """Cone angles of a genus-g surface with n cone points."""

    theta: tuple
    genus: int
    n: int

    def __post_init__(self):
        if len(self.theta) != self.n:
            raise DimensionMismatch(f"{len(self.theta)} angles for n = {self.n}")
        for t in self.theta:
            if not (math.isfinite(t) and t >= 0.0):
                raise OutOfRange(f"cone angle {t} must be finite and >= 0")

    @property
    def chi(self) -> float:
        """Curvature count (2 - 2g - n) + sum(theta)/2pi; negative = hyperbolic."""
        return (2.0 - 2.0 * self.genus - self.n) + sum(self.theta) / (2.0 * math.pi)


@dataclass(frozen=True)
class StratumReport:
    """Membership flags for a vector of cone angles."""

    chi: float
    hyperbolic: bool   # chi < 0
    flat: bool         # chi = 0 within tolerance
    off_walls: bool    # no angle within tolerance of a positive multiple of 2*pi
    small: bool        # all angles < pi


def classify_angles(data: AngleData, tol: float = CHI_TOL) -> StratumReport:
    """Classify an angle vector; angle data with chi > tol is rejected."""
    chi = data.chi
    if chi > tol:
        raise NotAdmissible(f"curvature count chi = {chi} is positive")
    flat = abs(chi) <= tol
    off_walls = all(wall_distance(t) >= WALL_TOL for t in data.theta)
    small = all(t < math.pi for t in data.theta)
    return StratumReport(chi=chi, hyperbolic=chi < -tol, flat=flat,
                         off_walls=off_walls, small=small)


def collar_constant(data: AngleData) -> float:
    """Disjointness radius arccosh(1/sin(theta_max/2))/2 for small angles.

    Requires every angle in (0, pi) so that sin(theta_max/2) lies in (0, 1).
    """
    if not data.theta:
        raise OutOfRange("no angles")
    tmax = max(data.theta)
    if not (0.0 < min(data.theta) and tmax < math.pi):
        raise OutOfRange(f"collar constant needs all angles in (0, pi); max is {tmax}")
    return math.acosh(1.0 / math.sin(tmax / 2.0)) / 2.0


class Decoration:
    """Radii assigned to the cone points (nonnegative, not all zero)."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise DimensionMismatch("decoration must be a flat vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise OutOfRange("decoration entries must be finite and >= 0")
        if not np.any(arr > 0.0):
            raise OutOfRange("decoration must not be identically zero")
        arr.flags.writeable = False
        self.values = arr

    def normalized(self) -> "Decoration":
        """Rescaled copy with entries summing to 1."""
        return Decoration(self.values / float(np.sum(self.values)))

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# the surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexFan:
    """Outgoing germs at a vertex in counterclockwise cyclic order.

    `angles[k]` is the corner angle swept turning counterclockwise from
    `germs[k]` to `germs[k+1]` (cyclically); `prefix[k]` is the total angle
    from the base germ `germs[0]` to `germs[k]`; the full sum is `theta`.
    """

    vertex: int
    germs: tuple
    angles: tuple
    prefix: tuple
    theta: float

    def position(self, germ: int) -> int:
        return self.germs.index(germ)

    def ccw(self, g1: int, g2: int) -> float:
        """Angle swept rotating counterclockwise from germ g1 to germ g2."""
        d = self.prefix[self.position(g2)] - self.prefix[self.position(g1)]
        return d if d >= 0.0 else d + self.theta

    def cw(self, g1: int, g2: int) -> float:
        """Angle swept rotating clockwise from germ g1 to germ g2."""
        return 0.0 if g1 == g2 else self.theta - self.ccw(g1, g2)


class ConeSurface:
    """Immutable triangulated surface; all derived data built eagerly."""

    def __init__(self, edges: dict, triangles):
        lengths = {}
        for eid, ln in edges.items():
            if not isinstance(eid, str) or not eid:
                raise ValueError(f"edge id {eid!r} must be a nonempty string")
            try:
                ln = float(ln)
            except OverflowError:
                raise ValueError(f"edge {eid!r} has a length too large for a float") from None
            if not (math.isfinite(ln) and ln > 0.0):
                raise NonPositiveLength(f"edge {eid!r} has length {ln}")
            lengths[eid] = ln

        tris = []
        for t, sides in enumerate(triangles):
            sides = tuple((str(e), str(d)) for (e, d) in sides)
            if len(sides) != 3:
                raise ValueError(f"triangle {t} has {len(sides)} sides, expected 3")
            for e, d in sides:
                if e not in lengths:
                    raise ValueError(f"triangle {t} references unknown edge {e!r}")
                if d not in ("+", "-"):
                    raise ValueError(f"triangle {t} has direction {d!r}, expected '+' or '-'")
            tris.append(sides)
        if not tris:
            raise ValueError("surface needs at least one triangle")

        # twin pairing: each edge once forward, once backward
        seen: dict = {}
        for t, sides in enumerate(tris):
            for k, (e, d) in enumerate(sides):
                seen.setdefault(e, []).append((3 * t + k, d))
        for eid in lengths:
            occ = seen.get(eid, [])
            dirs = sorted(d for _, d in occ)
            if len(occ) != 2 or dirs != ["+", "-"]:
                raise NonManifold(
                    f"edge {eid!r} appears with directions {[d for _, d in occ]}; "
                    "need exactly one '+' and one '-'")

        nh = 3 * len(tris)
        twin = [0] * nh
        halves = {}
        for eid, occ in seen.items():
            (h1, d1), (h2, _) = occ
            twin[h1], twin[h2] = h2, h1
            halves[eid] = (h1, h2) if d1 == "+" else (h2, h1)

        # connectivity of the gluing
        reached = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for k in range(3):
                t2 = twin[3 * t + k] // 3
                if t2 not in reached:
                    reached.add(t2)
                    stack.append(t2)
        if len(reached) != len(tris):
            raise Disconnected(
                f"triangles {sorted(set(range(len(tris))) - reached)} are not glued "
                "to triangle 0")

        # triangle inequalities, naming the offender
        for t, sides in enumerate(tris):
            la, lb, lc = (lengths[e] for e, _ in sides)
            ids = tuple(e for e, _ in sides)
            if la + lb <= lc or lb + lc <= la or lc + la <= lb:
                raise TriangleInequality(
                    f"triangle {t} with edges {ids} and lengths "
                    f"({la}, {lb}, {lc}) violates the strict triangle inequalities")

        self.lengths = dict(lengths)
        self.triangles = tuple(tris)
        self.edge_ids = tuple(sorted(lengths))
        self.edge_index = {e: i for i, e in enumerate(self.edge_ids)}
        self.n_half = nh
        self.twin = tuple(twin)
        self._halves = halves
        self.he_edge = tuple(tris[h // 3][h % 3][0] for h in range(nh))
        self.he_dir = tuple(tris[h // 3][h % 3][1] for h in range(nh))

        # vertex orbits of "counterclockwise next germ" = twin of previous side
        sigma = [twin[self.prv(h)] for h in range(nh)]
        vertex_of = [-1] * nh
        orbits = []
        for h in range(nh):
            if vertex_of[h] >= 0:
                continue
            orbit = []
            g = h
            while vertex_of[g] < 0:
                vertex_of[g] = len(orbits)
                orbit.append(g)
                g = sigma[g]
            if g != h:
                raise NonManifold(f"germ orbit through half-edge {h} is not a cycle")
            orbits.append(tuple(orbit))
        self.vertex_of = tuple(vertex_of)
        self.vertex_germs = tuple(orbits)
        self.n_vertices = len(orbits)

        euler = self.n_vertices - len(lengths) + len(tris)
        if euler % 2:
            raise NonManifold(f"Euler characteristic {euler} is odd")
        self.genus = (2 - euler) // 2
        if self.genus < 0:
            raise NonManifold(f"Euler characteristic {euler} exceeds 2")

        # corner angle at the origin of each half-edge
        self._angle = tuple(
            corner_angle(self.length_of(h), self.length_of(self.prv(h)),
                         self.length_of(self.nxt(h)))
            for h in range(nh))
        self.triangle_areas = tuple(
            math.pi - sum(self._angle[3 * t + k] for k in range(3))
            for t in range(len(tris)))
        self.cone_angle = tuple(
            sum(self._angle[g] for g in orbit) for orbit in orbits)

        fans = []
        for v, orbit in enumerate(orbits):
            angs = tuple(self._angle[g] for g in orbit)
            prefix = [0.0]
            for a in angs[:-1]:
                prefix.append(prefix[-1] + a)
            fans.append(VertexFan(vertex=v, germs=orbit, angles=angs,
                                  prefix=tuple(prefix), theta=self.cone_angle[v]))
        self.fans = tuple(fans)

    # -- half-edge navigation ------------------------------------------------

    @staticmethod
    def nxt(h: int) -> int:
        return h - h % 3 + (h + 1) % 3

    @staticmethod
    def prv(h: int) -> int:
        return h - h % 3 + (h + 2) % 3

    def tri(self, h: int) -> int:
        return h // 3

    def length_of(self, h: int) -> float:
        return self.lengths[self.he_edge[h]]

    def angle_at(self, h: int) -> float:
        """Interior angle of triangle(h) at the origin vertex of h."""
        return self._angle[h]

    def corner_angles(self) -> np.ndarray:
        """angle_at(h) for every half-edge h, as one array."""
        return np.array(self._angle)

    def halfedges_of_edge(self, eid: str) -> tuple:
        """(forward, backward) half-edges of an edge, in that order."""
        return self._halves[eid]

    def corner_gradients(self) -> tuple:
        """Gradient of every corner angle in the lengths of its triangle.

        Returns (edges, grads), both (n_half, 3): row h holds the edge indices
        of the sides h, prv(h), nxt(h) and the partials of angle_at(h) in their
        lengths, read from the stored corner angles.
        """
        h = np.arange(self.n_half)
        nxt = h - h % 3 + (h + 1) % 3
        prv = h - h % 3 + (h + 2) % 3
        edge = np.array([self.edge_index[e] for e in self.he_edge])
        length = self.length_vector()[edge]
        angle = self.corner_angles()
        # the angle opposite side h sits at prv(h), the one opposite prv(h) at nxt(h)
        grads = corner_gradient(length, length[prv], angle[prv], angle[nxt])
        return np.stack([edge, edge[prv], edge[nxt]], axis=1), np.stack(grads, axis=1)

    # -- derived metric data ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    def area(self) -> float:
        return sum(self.triangle_areas)

    def angle_data(self) -> AngleData:
        return AngleData(theta=self.cone_angle, genus=self.genus, n=self.n_vertices)

    def length_vector(self) -> np.ndarray:
        return np.array([self.lengths[e] for e in self.edge_ids])

    # -- rebuilding ------------------------------------------------------------

    def description(self) -> dict:
        return {
            "edges": [{"id": e, "length": self.lengths[e]} for e in self.edge_ids],
            "triangles": [{"sides": [{"edge": e, "dir": d} for e, d in sides]}
                          for sides in self.triangles],
        }

    def with_lengths(self, updates: dict) -> "ConeSurface":
        """Same combinatorics, some edge lengths replaced."""
        for e in updates:
            if e not in self.lengths:
                raise ValueError(f"unknown edge {e!r}")
        new = dict(self.lengths)
        new.update({e: float(v) for e, v in updates.items()})
        return ConeSurface(new, self.triangles)

    def with_length_vector(self, vec) -> "ConeSurface":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_edges,):
            raise DimensionMismatch(f"expected {self.n_edges} lengths")
        return ConeSurface(dict(zip(self.edge_ids, vec.tolist())), self.triangles)


def build_surface(data: dict) -> ConeSurface:
    """Construct and fully validate a surface from its wire-format object."""
    if not isinstance(data, dict):
        raise ValueError("top level must be an object")
    for key in ("edges", "triangles"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"top-level key {key!r} must hold a list")
    edges = {}
    for rec in data["edges"]:
        if not isinstance(rec, dict) or "id" not in rec or "length" not in rec:
            raise ValueError(f"malformed edge record {rec!r}")
        eid, length = rec["id"], rec["length"]
        if not isinstance(eid, str):
            raise ValueError(f"edge id {eid!r} must be a string")
        if isinstance(length, bool) or not isinstance(length, (int, float)):
            raise ValueError(f"edge {eid!r} has length {length!r}, not a number")
        if eid in edges:
            raise ValueError(f"duplicate edge id {eid!r}")
        edges[eid] = length
    triangles = []
    for rec in data["triangles"]:
        if not isinstance(rec, dict) or not isinstance(rec.get("sides"), list):
            raise ValueError(f"malformed triangle record {rec!r}")
        sides = []
        for side in rec["sides"]:
            if not isinstance(side, dict) or "edge" not in side or "dir" not in side:
                raise ValueError(f"malformed side record {side!r}")
            sides.append((side["edge"], side["dir"]))
        triangles.append(sides)
    return ConeSurface(edges, triangles)


def parse_surface(text: str) -> ConeSurface:
    return build_surface(json.loads(text))


def serialize_surface(s: ConeSurface) -> str:
    """Canonical wire form: edges sorted by id, 17-significant-digit lengths."""
    edge_parts = ",".join(
        '{"id":%s,"length":%s}' % (json.dumps(e), fmt17(s.lengths[e]))
        for e in s.edge_ids)
    tri_parts = ",".join(
        '{"sides":[%s]}' % ",".join(
            '{"edge":%s,"dir":"%s"}' % (json.dumps(e), d) for e, d in sides)
        for sides in s.triangles)
    return '{"edges":[%s],"triangles":[%s]}' % (edge_parts, tri_parts)


def cone_angles(s: ConeSurface) -> AngleData:
    """Cone angle at each vertex (corner-angle sums), with (g, n)."""
    return s.angle_data()


def vertex_fans(s: ConeSurface) -> tuple:
    """The direction fan at every vertex."""
    return s.fans


def reduced_lengths(s: ConeSurface, decoration) -> dict:
    """Edge lengths minus the decoration radii at the two endpoints.

    A loop edge at a single vertex loses twice that vertex's radius.  Values
    may be negative; nothing is clamped.
    """
    eps = decoration.values if isinstance(decoration, Decoration) else \
        np.asarray(decoration, dtype=float)
    if eps.shape != (s.n_vertices,):
        raise DimensionMismatch(
            f"decoration has {eps.shape[0] if eps.ndim == 1 else 'bad'} entries "
            f"for {s.n_vertices} vertices")
    out = {}
    for e in s.edge_ids:
        hf, hb = s.halfedges_of_edge(e)
        out[e] = s.lengths[e] - eps[s.vertex_of[hf]] - eps[s.vertex_of[hb]]
    return out
