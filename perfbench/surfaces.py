"""Seeded surface generators for the benchmark.

Two families are grown by random stellar subdivisions, each of which puts a
new vertex inside a uniformly chosen triangle and joins it to the three
corners (+1 vertex, +3 edges, +2 triangles):

* genus 0 starts from the boundary of a tetrahedron: V = 4 + k, E = 6 + 3k;
* genus 1 starts from the one-vertex torus: V = 1 + k, E = 3 + 3k.

Every edge then gets the length 1.3 * (1 + u) with u uniform in [-5%, 5%].
`stretch` makes a metric non-Delaunay by multiplying a seeded few percent of
the edge lengths by 1.8; 1.8 * 1.365 < 2 * 1.235, so every triangle still
satisfies the strict triangle inequalities.

`stellar(..., min_margin=m)` redraws the lengths until every cone angle has
|sin(theta/2)| >= m, keeping the family away from the walls theta = 2*pi*j,
where the program's finite-difference certificates lose their accuracy.

Randomness comes only from `random.Random(...).random()`, seeded by a string,
which is reproducible across Python versions and independent of numpy, so a
given (seed, family, k) always yields a bit-identical JSON document.

Besides the wire form the generator keeps the vertex at each triangle corner
(side k of a triangle runs from corner k to corner k + 1), which the
benchmark's oracles use and the program never sees.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

BASE_LENGTH = 1.3
JITTER = 0.05
STRETCH_FRACTION = 0.03
STRETCH_FACTOR = 1.8

FAMILIES = ("tet", "tor")  # genus 0 and genus 1


@dataclass
class Surface:
    """A generated surface: gluing, corner vertices and edge lengths."""

    name: str
    genus: int
    sides: list      # per triangle: three (edge id, "+"/"-") pairs, ccw
    corners: list    # per triangle: the vertex at the start of each side
    lengths: dict    # edge id -> length

    @property
    def n_vertices(self) -> int:
        return len({v for tri in self.corners for v in tri})

    @property
    def n_edges(self) -> int:
        return len(self.lengths)

    def to_json(self) -> str:
        return json.dumps({
            "edges": [{"id": e, "length": ln} for e, ln in self.lengths.items()],
            "triangles": [{"sides": [{"edge": e, "dir": d} for e, d in tri]}
                          for tri in self.sides],
        })


def _base(family: str):
    if family == "tet":
        sides = [
            [("ab", "+"), ("bc", "+"), ("ac", "-")],
            [("ac", "+"), ("cd", "+"), ("ad", "-")],
            [("ad", "+"), ("bd", "-"), ("ab", "-")],
            [("bd", "+"), ("cd", "-"), ("bc", "-")],
        ]
        corners = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
        return 0, sides, corners, ["ab", "ac", "ad", "bc", "bd", "cd"], 4
    if family == "tor":
        sides = [[("x", "+"), ("y", "+"), ("z", "+")],
                 [("x", "-"), ("y", "-"), ("z", "-")]]
        return 1, sides, [[0, 0, 0], [0, 0, 0]], ["x", "y", "z"], 1
    raise ValueError(f"unknown family {family!r}")


def stellar(family: str, k: int, key: str, min_margin: float = 0.0) -> Surface:
    """The base surface of `family` after k stellar subdivisions."""
    rng = random.Random(f"stellar:{key}:{family}:{k}")
    genus, sides, corners, edges, nv = _base(family)
    for _ in range(k):
        t = int(rng.random() * len(sides))
        (s0, s1, s2), (a, b, c) = sides[t], corners[t]
        v = nv
        nv += 1
        ea, eb, ec = (f"e{len(edges) + i}" for i in range(3))
        edges += [ea, eb, ec]  # each runs from its corner to v
        sides[t] = [s0, (eb, "+"), (ea, "-")]
        corners[t] = [a, b, v]
        sides.append([s1, (ec, "+"), (eb, "-")])
        corners.append([b, c, v])
        sides.append([s2, (ea, "+"), (ec, "-")])
        corners.append([c, a, v])
    for _ in range(1000):
        lengths = {e: BASE_LENGTH * (1.0 + JITTER * (2.0 * rng.random() - 1.0))
                   for e in edges}
        surface = Surface(f"{family}-E{len(edges)}", genus, sides, corners, lengths)
        if wall_margin(surface) >= min_margin:
            return surface
    raise RuntimeError(f"no lengths keep {surface.name} {min_margin} off the walls")


def stretch(surface: Surface, key: str) -> Surface:
    """Copy of `surface` with a seeded STRETCH_FRACTION of edges stretched.

    No two stretched edges lie on one triangle, so each starts its own
    flip and the number of flips varies little from seed to seed.
    """
    rng = random.Random(f"stretch:{key}:{surface.name}")
    ids = list(surface.lengths)
    for i in range(len(ids) - 1, 0, -1):  # Fisher-Yates on random() only
        j = int(rng.random() * (i + 1))
        ids[i], ids[j] = ids[j], ids[i]
    triangles_of: dict = {}
    for t, tri in enumerate(surface.sides):
        for e, _ in tri:
            triangles_of.setdefault(e, set()).add(t)
    chosen, used = [], set()
    for e in ids:
        if len(chosen) == max(1, round(STRETCH_FRACTION * len(ids))):
            break
        if not triangles_of[e] & used:
            chosen.append(e)
            used |= triangles_of[e]
    lengths = dict(surface.lengths)
    for e in chosen:
        lengths[e] *= STRETCH_FACTOR
    return Surface(surface.name + "-s", surface.genus, surface.sides,
                   surface.corners, lengths)


def k_for_edges(family: str, edges: int) -> int:
    """Number of subdivisions that brings `family` nearest to `edges` edges."""
    return max(0, round((edges - (6 if family == "tet" else 3)) / 3))


# ---------------------------------------------------------------------------
# geometry computed apart from the program
# ---------------------------------------------------------------------------

def corner_angles(sides, lengths) -> np.ndarray:
    """(T, 3) angles; entry k is at corner k, between sides k - 1 and k.

    Plain hyperbolic law of cosines,
    cos(angle) = (cosh a cosh b - cosh c) / (sinh a sinh b).
    Raises ValueError on a triangle that breaks a strict triangle inequality.
    """
    side = np.array([[lengths[e] for e, _ in tri] for tri in sides])
    a, b, c = side, np.roll(side, 1, axis=1), np.roll(side, -1, axis=1)
    if not np.all(a + b > c):
        raise ValueError("a triangle breaks a strict triangle inequality")
    cos = (np.cosh(a) * np.cosh(b) - np.cosh(c)) / (np.sinh(a) * np.sinh(b))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def cone_angles(corners, angles: np.ndarray) -> dict:
    """Vertex label -> sum of its corner angles."""
    theta: dict = {}
    for tri, angs in zip(corners, angles.tolist()):
        for v, ang in zip(tri, angs):
            theta[v] = theta.get(v, 0.0) + ang
    return theta


def vertex_order(corners) -> list:
    """Vertex labels in the program's numbering.

    The program numbers vertices by the first half-edge of each orbit, and
    half-edge 3t + k starts at corner k of triangle t.
    """
    return list(dict.fromkeys(v for tri in corners for v in tri))


def wall_margin(surface: Surface) -> float:
    """min |sin(theta/2)| over the cone angles of `surface`."""
    theta = cone_angles(surface.corners, corner_angles(surface.sides, surface.lengths))
    return min(abs(math.sin(t / 2.0)) for t in theta.values())
