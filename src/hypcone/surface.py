"""Triangulated hyperbolic cone surfaces with edge lengths as coordinates.

A surface is a list of counterclockwise-oriented triangles, each bounded by
three directed sides.  A side refers to an undirected edge together with a
direction flag, and every edge is traversed exactly once in each direction
across the whole list — that pairing is the gluing.  The only metric data are
the edge lengths; every angle is derived through the hyperbolic law of
cosines, so the length vector is an honest coordinate system.

Two objects keep the gluing apart from the metric.  A `Triangulation` holds
the gluing in integer arrays: half-edge 3*t + k is side k of triangle t, and
each half-edge records its edge index and direction.  Composing "previous
side" with "twin" steps counterclockwise around the origin vertex of a
half-edge, so vertices are the orbits of that map.  `check_gluing`, which
its constructor runs, is the one check of a gluing (twin pairing,
connectivity, orbits, Euler characteristic), in whole-array passes.  The
fans are laid out from the orbits' least half-edges on first use, with no
Python loop over triangles or half-edges.  A `ConeSurface` is a
Triangulation plus a length array indexed by edge; it derives the corner
angles, and, on first use, the triangle areas and the running corner-angle
sums along each vertex's germs in cyclic order, whose totals are the cone
angles.  Every corner angle, of a surface, of a flip or
of `corner_angle`, comes from one kernel on arrays, `half_angle`: the
hyperbolic law of cosines in half-angle form, which forms no sinh, so it
neither overflows nor loses a thin angle.  Changing lengths reuses the
Triangulation and checks only the lengths.  One pass reads every surface, a wire
document (`build_surface`, `parse_surface`) or the library form
`ConeSurface(dict, sides)` with float() lengths; it refuses a malformed one,
or JSON nested too deeply to decode, naming the first fault.  An edge id is
a nonempty printable string with no space or '=', so it can key a report
row; inside, edge i is the i-th id in sorted order.

A cone angle theta near 2*pi*k (k >= 0) sits on a wall: the loop holonomy
around it is near the identity (k > 0) or near parabolic (k = 0, the cusp
limit), and the Poisson bivector divides by sin(theta/2).  Every report
reads the walls through one coordinate, `wall_margin(theta)` = |sin(theta/2)|.
Below `WALL_BAND` (about 3.16e-5) the angle is in the wall band: `validate`
reports `off_walls: false` and `holonomy` refuses the vertex.  `poisson`
refuses only below its own guard, which lies inside the band.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import (
    Disconnected,
    DimensionMismatch,
    NonManifold,
    NonPositiveLength,
    NotAdmissible,
    NumericalCollapse,
    OutOfRange,
    TriangleInequality,
)
from .sl2 import TRACE_TOL

# The wall band: a cone angle whose wall_margin is below this sits on a wall.
# In exact arithmetic that is where its loop trace 2|cos(theta/2)| exceeds
# 2 - TRACE_TOL, so the holonomy is no longer elliptic by `sl2.elliptic_trace`.
WALL_BAND = math.sqrt(TRACE_TOL * (1.0 - TRACE_TOL / 4.0))
# Flat-vs-hyperbolic classification tolerance on the curvature count chi.
CHI_TOL = 1e-9


def fmt17(x: float) -> str:
    """Shortest %.17g rendering; round-trips doubles exactly."""
    return "%.17g" % float(x)


def worst_at(column) -> int:
    """Index of the worst entry of a nonempty 1-D column: its first NaN if
    it has one, else its first maximum.

    The one reduction behind every gated row and its `_at` row (a minimum
    is the worst of the negated column).  A gate `worst < tol` fails on a
    NaN, so a NaN anywhere fails its report and the `_at` row names it.
    """
    return int(np.argmax(column))  # argmax takes the first NaN as the maximum


def wall_margin(theta):
    """|sin(theta/2)|, the one wall coordinate of cone angles (floats or arrays).

    It vanishes on the walls theta = 2*pi*k: for k > 0 the loop holonomy is
    trivial, k = 0 is the cusp limit, and the bivector divides by it.
    """
    return np.abs(np.sin(np.asarray(theta, dtype=float) / 2.0))


# ---------------------------------------------------------------------------
# hyperbolic law of cosines, in half-angle form
# ---------------------------------------------------------------------------

def corner_sums(l0, l1, l2):
    """The four sums `half_angle` takes, 2(s - a), 2(s - b), 2s and 2(s - c),
    for each corner k of triangles with sides l0, l1, l2 counterclockwise
    (floats, or arrays over triangles): a = l_k and b = l_{k-1} are the
    sides next to the corner, c = l_{k+1} the one opposite, s the half
    perimeter.  u + v - w is taken as min(u, v) + (max(u, v) - w), exact
    where w is the longest side, so a short sum keeps its digits.  Floats
    and arrays get the same exact and correctly rounded operations, and
    swapping a and b swaps the first two sums exactly.
    """
    hi, lo = (np.maximum, np.minimum) if isinstance(l0, np.ndarray) else (max, min)
    e0 = lo(l1, l2) + (hi(l1, l2) - l0)
    e1 = lo(l2, l0) + (hi(l2, l0) - l1)
    e2 = lo(l0, l1) + (hi(l0, l1) - l2)
    return ((e0, e1, e2), (e2, e0, e1),
            ((l0 + l2) + l1, (l1 + l0) + l2, (l2 + l1) + l0), (e1, e2, e0))


def half_angle(q, sides) -> np.ndarray:
    """Corner angles, entry [t, k] for corner k of triangle t, from the
    `corner_sums` q, shape (4, n, 3), of triangles that pass the strict
    triangle inequalities.

    tan^2(gamma/2) = sinh(s-a) sinh(s-b) / (sinh s sinh(s-c)), and with
    E(y) = -expm1(-2y), sinh y = e^y E(y) / 2, so tan(gamma/2) = e^-(s-c)
    sqrt E(s-a) sqrt E(s-b) / (sqrt E(s) sqrt E(s-c)): no sinh is formed
    and nothing overflows.  The roots of the first two are multiplied
    together, so the angle is symmetric in a and b bit for bit.  The
    denominator is at most 1, so a corner leaves the normal float range only
    where its numerator does; one whose numerator or denominator is below
    it, keeping too few digits, is refused as NumericalCollapse naming its
    sides from `sides[t]`, the first in index order.
    """
    root = np.sqrt(-np.expm1(-q))
    num, den = root[0] * root[1] * np.exp(q[3] * -0.5), root[2] * root[3]
    low = np.minimum(num, den)
    if not low.min() >= sys.float_info.min:
        t, k = divmod(int(np.flatnonzero(~(low >= sys.float_info.min))[0]), 3)
        a, b, c = (float(sides[t][j % 3]) for j in (k, k - 1, k + 1))
        raise NumericalCollapse(
            f"corner angle of sides ({a}, {b}, {c}) underflows: the numerator or "
            "denominator of its tangent is below the normal float range")
    return 2.0 * np.arctan2(num, den)


def check_corner(a: float, b: float, c: float):
    """Refuse a side that is not a positive real, then a failed strict
    triangle inequality."""
    for s in (a, b, c):
        if not (math.isfinite(s) and s > 0.0):
            raise NonPositiveLength(f"side length {s} is not a positive real")
    if a + b <= c or b + c <= a or c + a <= b:
        raise TriangleInequality(f"lengths ({a}, {b}, {c}) violate strict triangle inequalities")


def corner_angle(a: float, b: float, c: float) -> float:
    """Angle between the sides of lengths a and b, opposite the side c:
    `half_angle` on one corner, after `check_corner`.  It is corner 0 of the
    triangle whose sides, counterclockwise, are a, c, b."""
    check_corner(a, b, c)
    return float(half_angle(np.array(corner_sums(a, c, b))[:, None], [(a, c, b)])[0, 0])


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
    off_walls: bool    # no angle in the wall band (near 2*pi*k, k >= 0)
    small: bool        # all angles < pi


def classify_angles(data: AngleData) -> StratumReport:
    """Classify an angle vector; angle data with chi > CHI_TOL is rejected."""
    chi = data.chi
    if chi > CHI_TOL:
        raise NotAdmissible(f"curvature count chi = {chi} is positive")
    flat = abs(chi) <= CHI_TOL
    off_walls = bool(np.all(wall_margin(data.theta) >= WALL_BAND))
    small = all(t < math.pi for t in data.theta)
    return StratumReport(chi=chi, hyperbolic=chi < -CHI_TOL, flat=flat,
                         off_walls=off_walls, small=small)


# ---------------------------------------------------------------------------
# the surface
# ---------------------------------------------------------------------------

def nxt(h):
    """The next side of h's triangle, counterclockwise; ints or arrays."""
    return h - h % 3 + (h + 1) % 3


def prv(h):
    """The previous side of h's triangle; ints or arrays."""
    return h - h % 3 + (h + 2) % 3


def _lockstep(size: np.ndarray) -> tuple:
    """The schedule that steps through consecutive runs of the given sizes
    in lockstep, longest first.

    Returns (run, live, start, slot).  Term i of the runs laid end to end
    belongs to run run[i] and sits at slot[i].  Step k takes term k of each
    of the live[k] runs longer than k; with the runs taken longest first
    those are a prefix, so step k fills slots start[k] to start[k] + live[k]
    in that order, and term k + 1 of a run sits live[k] slots after its
    term k.
    """
    order = np.argsort(-size, kind="stable")
    live = np.searchsorted(-size[order], -np.arange(size.max(initial=0)))  # runs longer than k
    start = np.cumsum(live) - live
    rank = np.empty_like(order)
    rank[order] = np.arange(len(size))
    run = np.repeat(np.arange(len(size)), size)
    slot = start[np.arange(len(run)) - (np.cumsum(size) - size)[run]]
    slot += rank[run]
    return run, live, start, slot


def _running_sums(z: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Running sums of z along consecutive runs of the given sizes.

    Run t gets size[t] + 1 values, 0, z_0, z_0 + z_1, ..., up to its total,
    added left to right as a plain Python loop adds them.  Step k of the
    `_lockstep` schedule adds term k of every run longer than k, one addition
    of two slices.
    """
    run, live, start, slot = _lockstep(size)
    terms, sums = np.empty(len(z)), np.empty(len(z))
    terms[slot] = z
    acc = np.zeros(len(size))
    for at, n in zip(start.tolist(), live.tolist()):
        acc = acc[:n] + terms[at:at + n]
        sums[at:at + n] = acc
    run += np.arange(1, len(z) + 1)  # where the sum through each term goes
    out = np.zeros(len(z) + len(size))
    out[run] = sums[slot]
    return out


def _frozen(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _least_in_orbits(step: np.ndarray) -> np.ndarray:
    """The least element of each element's cycle under the permutation
    `step`, by doubling: entry i holds the least of i, step(i),
    step(step(i)), ..., over a window that doubles with every pass, and a
    pass that changes nothing leaves the entries constant along every
    cycle, so each is its cycle's least."""
    least = np.minimum(np.arange(len(step)), step)
    jump = step[step]
    while True:
        new = np.minimum(least, least[jump])
        if np.array_equal(new, least):
            return least
        least, jump = new, jump[jump]


def check_gluing(edge_ids, he_edge, he_dir) -> tuple:
    """Check a gluing given as side arrays, in whole-array passes.

    Half-edge 3t + k runs along edge `he_edge[3t + k]` (an index into
    `edge_ids`), forward where `he_dir` is 0.  Refused in this order:
    an edge that does not occur exactly once in each direction
    (NonManifold, the first such edge), triangles not glued to triangle 0,
    or no triangle at all (Disconnected), then an odd Euler characteristic
    or one above 2 (NonManifold).  Returns (halves, twin, sigma, least,
    euler): the (forward, backward) half-edges of each edge, the other
    half-edge of each half-edge's edge, the next germ about each half-edge's
    origin, the least half-edge of each half-edge's vertex orbit, and the
    Euler characteristic.

    Connectivity is min-label propagation with pointer jumping.  Labels are
    triangles; a pass gives each triangle the least label among its own and
    those across its sides, gives each label the least of those its holders
    got, then replaces each label by its own label.  Triangle t always holds
    a label <= t of its component, so a pass that changes nothing leaves
    every triangle labelled by the least triangle of its component.  The
    vertices are the orbits of sigma(h) = twin(prv(h)), the next germ
    counterclockwise about h's origin; twin is an involution without fixed
    points, so sigma is a permutation, and each orbit is counted at its
    least half-edge, found by doubling.
    """
    he_edge = np.asarray(he_edge, dtype=np.intp)
    he_dir = np.asarray(he_dir, dtype=np.intp)
    n_edges, nh = len(edge_ids), len(he_edge)
    nt = nh // 3

    # twin pairing: each edge once forward, once backward
    count = np.bincount(2 * he_edge + he_dir, minlength=2 * n_edges).reshape(-1, 2)
    bad = np.flatnonzero(np.any(count != 1, axis=1))
    if bad.size:
        i = int(bad[0])
        dirs = ["+-"[d] for d in he_dir[he_edge == i].tolist()]
        raise NonManifold(
            f"edge {edge_ids[i]!r} appears with directions {dirs}; "
            "need exactly one '+' and one '-'")
    halves = np.empty(2 * n_edges, dtype=np.intp)
    halves[2 * he_edge + he_dir] = np.arange(nh)
    halves = halves.reshape(n_edges, 2)
    twin = halves[he_edge, 1 - he_dir]

    # connectivity of the gluing
    a0, a1, a2 = (twin // 3).reshape(nt, 3).T
    label = np.arange(nt)
    while True:
        new = np.minimum(np.minimum(label, label[a0]), np.minimum(label[a1], label[a2]))
        np.minimum.at(new, label, new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    if label.any() or nt == 0:  # a walk from triangle 0 reaches 1 of 0 triangles
        raise Disconnected(
            f"triangles {np.flatnonzero(label).tolist()} are not glued to triangle 0")

    sigma = twin[prv(np.arange(nh))]
    least = _least_in_orbits(sigma)
    euler = int(np.count_nonzero(least == np.arange(nh))) - n_edges + nt
    if euler % 2:
        raise NonManifold(f"Euler characteristic {euler} is odd")
    if euler > 2:
        raise NonManifold(f"Euler characteristic {euler} exceeds 2")
    return halves, twin, sigma, least, euler


def _ranks_in_orbits(step: np.ndarray, least: np.ndarray) -> np.ndarray:
    """For each element i, the number of applications of the permutation
    `step` that take `least[i]`, the least element of i's cycle, to i: list
    ranking by pointer jumping along the inverse permutation, each cycle cut
    at its least element."""
    h = np.arange(len(step))
    root = least == h
    back = np.empty_like(step)
    back[step] = h
    back[root] = h[root]
    rank = (~root).astype(np.intp)
    while not np.array_equal(back, least):
        rank += rank[back]
        back = back[back]
    return rank


def _fan_layout(name: str) -> cached_property:
    """Triangulation attribute `name`, one of the four that
    `Triangulation._lay_out_fans` sets together on the first read of any."""
    def lay_out(self):
        self._lay_out_fans()
        return vars(self)[name]
    return cached_property(lay_out)


class Triangulation:
    """The gluing of a surface in integer arrays, checked once, immutable.

    Half-edge h = 3t + k is side k of triangle t.  It runs along edge
    `he_edge[h]`, an index into the sorted `edge_ids`, forward when
    `he_dir[h]` is 0 and backward when it is 1.  `halves[i]` holds the
    (forward, backward) half-edges of edge i and `twin[h]` the other
    half-edge of h's edge.  `vertex_of[h]` is the vertex h leaves.
    `fan_order` lists the half-edges leaving each vertex counterclockwise,
    from its least, vertex after vertex, `fan_size[v]` germs for vertex v.
    Vertices are numbered in order of their least half-edge.
    The constructor runs `check_gluing` and keeps what the layout needs;
    `vertex_of`, `fan_order`, `fan_size` and `n_vertices` are laid out
    together, in array passes, on the first read of any of them, and
    `edge_index` (edge id -> index) on its first read.  Each is then a plain
    attribute.  A `delaunay` report reads none of them off its flipped
    surface.
    """

    def __init__(self, edge_ids, he_edge, he_dir):
        he_edge = np.array(he_edge, dtype=np.intp)
        he_dir = np.array(he_dir, dtype=np.intp)
        halves, twin, sigma, least, euler = check_gluing(edge_ids, he_edge, he_dir)
        n_edges, nh = len(edge_ids), len(he_edge)
        self.edge_ids = tuple(edge_ids)
        self.n_edges, self.n_half, self.n_triangles = n_edges, nh, nh // 3
        self.genus = (2 - euler) // 2
        self.he_edge, self.he_dir = _frozen(he_edge), _frozen(he_dir)
        self.halves, self.twin = _frozen(halves), _frozen(twin)
        self._orbits = sigma, least

    def _lay_out_fans(self) -> None:
        """Set `vertex_of`, `fan_order`, `fan_size` and `n_vertices`: a
        vertex per orbit of sigma, numbered by its least half-edge, and each
        germ as many steps of sigma after the least in its fan as its rank."""
        sigma, least = self._orbits
        root = least == np.arange(self.n_half)
        vertex_of = (np.cumsum(root) - 1)[least]
        fan_size = np.bincount(vertex_of)
        start = np.cumsum(fan_size) - fan_size
        fan_order = np.empty(self.n_half, dtype=np.intp)
        fan_order[start[vertex_of] + _ranks_in_orbits(sigma, least)] = np.arange(self.n_half)
        vars(self).update(vertex_of=_frozen(vertex_of), fan_order=_frozen(fan_order),
                          fan_size=_frozen(fan_size), n_vertices=len(fan_size))

    vertex_of = _fan_layout("vertex_of")
    fan_order = _fan_layout("fan_order")
    fan_size = _fan_layout("fan_size")
    n_vertices = _fan_layout("n_vertices")

    @cached_property
    def edge_index(self) -> dict:
        return {e: i for i, e in enumerate(self.edge_ids)}

    @cached_property
    def triangles(self) -> tuple:
        """Each triangle's sides as (edge id, "+" or "-"): the wire form."""
        sides = [(self.edge_ids[e], "+-"[d])
                 for e, d in zip(self.he_edge.tolist(), self.he_dir.tolist())]
        return tuple(zip(sides[0::3], sides[1::3], sides[2::3]))


_DIRECTION = {"+": 0, "-": 1}


def _typed(values, types) -> bool:
    """Whether every value is an instance of `types` and none is a bool."""
    return all(issubclass(t, types) and t is not bool for t in set(map(type, values)))


def _float(eid, length) -> float:
    try:
        return float(length)
    except OverflowError:
        raise ValueError(f"edge {eid!r} has a length too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"edge {eid!r} has length {length!r}, not a number") from None


def _library_document(lengths, triangles) -> dict:
    """The wire document of `ConeSurface(dict, sides)`, each length through
    float(); lengths that are not a mapping, a length float() refuses or a
    triangle whose sides are not (edge id, direction) pairs is refused by
    name."""
    if not isinstance(lengths, Mapping):
        raise ValueError(f"edge lengths must be a mapping of edge id to length, not {lengths!r}")
    records = []
    for t, sides in enumerate(triangles):
        try:
            records.append({"sides": [{"edge": e, "dir": d} for e, d in sides]})
        except (TypeError, ValueError):
            raise ValueError(f"triangle {t} has sides {sides!r}, not (edge id, direction) "
                             "pairs") from None
    return {"edges": [{"id": e, "length": _float(e, x)} for e, x in lengths.items()],
            "triangles": records}


def _one_pass(data) -> tuple:
    """(lengths in edge order, Triangulation) of a wire document: the one
    reader of surface records.  Comprehensions and lookups build the arrays
    with no branch per record; value types are tested once per distinct
    type, and the id rule once on the ids joined.  `_refuse` names the first
    fault of a document this cannot take.
    """
    try:
        edges, triangles = data["edges"], data["triangles"]
        ids = [rec["id"] for rec in edges]
        lengths = [rec["length"] for rec in edges]
        sides = [rec["sides"] for rec in triangles]
        flat = list(chain.from_iterable(sides))
        refs = [side["edge"] for side in flat]
        dirs = [side["dir"] for side in flat]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        edge_ids = [ids[i] for i in order]
        index = dict(zip(edge_ids, range(len(ids))))
        try:
            he_edge = list(map(index.__getitem__, refs))
        except (LookupError, TypeError):  # a side may name edge "1" as 1
            he_edge = list(map(index.__getitem__, map(str, refs)))
        he_dir = list(map(_DIRECTION.__getitem__, dirs))
        length = np.array(lengths, dtype=float)[order]
        text = "".join(edge_ids)  # a TypeError unless every id is a str
        regular = (isinstance(data, dict) and _typed(chain((edges, triangles), sides), list)
                   and _typed(chain(edges, triangles, flat), dict)
                   and set(map(len, sides)) == {3} and len(index) == len(ids)
                   and "" not in index and text.isprintable() and " " not in text
                   and "=" not in text and _typed(lengths, (int, float)))
    except (LookupError, TypeError, ValueError, OverflowError, RecursionError):
        regular = False
    if not regular:
        _refuse(data)
    return length, Triangulation(edge_ids, he_edge, he_dir)


def _refuse(data):
    """Raise the ValueError naming the first offending record of a document
    `_one_pass` cannot take; build nothing.  Shapes and value types come
    first (the top level, the edge records, the triangle and side records),
    then contents (the edge ids and lengths, then the triangles' sides).
    """
    if not isinstance(data, dict):
        raise ValueError("top level must be an object")
    for key in ("edges", "triangles"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"top-level key {key!r} must hold a list")
    lengths = {}
    for rec in data["edges"]:
        if not isinstance(rec, dict) or "id" not in rec or "length" not in rec:
            raise ValueError(f"malformed edge record {rec!r}")
        eid, length = rec["id"], rec["length"]
        if not isinstance(eid, str):
            raise ValueError(f"edge id {eid!r} must be a string")
        if isinstance(length, bool) or not isinstance(length, (int, float)):
            raise ValueError(f"edge {eid!r} has length {length!r}, not a number")
        if eid in lengths:
            raise ValueError(f"duplicate edge id {eid!r}")
        lengths[eid] = length
    for rec in data["triangles"]:
        if not isinstance(rec, dict) or not isinstance(rec.get("sides"), list):
            raise ValueError(f"malformed triangle record {rec!r}")
        for side in rec["sides"]:
            if not isinstance(side, dict) or "edge" not in side or "dir" not in side:
                raise ValueError(f"malformed side record {side!r}")
    for eid, length in lengths.items():
        if not eid:
            raise ValueError(f"edge id {eid!r} must be a nonempty string")
        if not eid.isprintable() or " " in eid or "=" in eid:
            raise ValueError(f"edge id {eid!r} must be printable, with no space or '='")
        _float(eid, length)
    for t, rec in enumerate(data["triangles"]):
        if len(rec["sides"]) != 3:
            raise ValueError(f"triangle {t} has {len(rec['sides'])} sides, expected 3")
        for side in rec["sides"]:
            e, d = str(side["edge"]), str(side["dir"])
            if e not in lengths:
                raise ValueError(f"triangle {t} references unknown edge {e!r}")
            if d not in _DIRECTION:
                raise ValueError(f"triangle {t} has direction {d!r}, expected '+' or '-'")
    # the pass takes every document with a triangle and no fault above
    raise ValueError("surface needs at least one triangle")


class ConeSurface(Triangulation):
    """A Triangulation with one length per edge, and the angles they give.

    `ConeSurface(edges, triangles)` takes the library form: a dict of edge
    id -> length, each converted by float(), and each triangle's sides as
    (edge id, "+" or "-"), read by the one pass of the wire form.  With a
    Triangulation (or a surface) as `triangles`, `edges` is the length array
    in edge order; the surface shares that gluing, kept as `triangulation`,
    and checks only the lengths.  `length[i]` is the length of edge i,
    `angle[h]` the corner angle at the origin of half-edge h, and
    `cone_angle[v]` the angle sum at vertex v; all are read-only arrays.
    The angles come from one `half_angle` call on every corner, which
    refuses a corner below the normal float range naming its sides.
    The constructor runs every check and computes the corner angles.
    Derived on first read and then kept as plain attributes: the gluing's
    fan layout and `edge_index` (copied from the Triangulation when it has
    them already), `triangle_areas`, `fan_sums`, `cone_angle` and
    `lengths`.  A surface built only to be checked, such as the final
    surface of a `delaunay` report, pays for none of them.
    """

    def __init__(self, edges, triangles):
        if not isinstance(triangles, Triangulation):
            edges, triangles = _one_pass(_library_document(edges, triangles))
        # no Triangulation.__init__: share the arrays of a gluing checked already
        self.triangulation = getattr(triangles, "triangulation", triangles)
        vars(self).update(vars(self.triangulation))
        length = np.array(edges, dtype=float)
        if length.shape != (self.n_edges,):
            raise DimensionMismatch(f"expected {self.n_edges} lengths")
        bad = np.flatnonzero(~(np.isfinite(length) & (length > 0.0)))
        if bad.size:
            i = int(bad[0])
            raise NonPositiveLength(f"edge {self.edge_ids[i]!r} has length {length[i]}")

        # triangle inequalities, naming the offender; here and in the corner
        # sums a sum past the float range reads inf, as on floats
        self.length = _frozen(length)
        sides = length[self.he_edge].reshape(-1, 3)
        la, lb, lc = sides.T
        with np.errstate(over="ignore"):
            bad = np.flatnonzero((la + lb <= lc) | (lb + lc <= la) | (lc + la <= lb))
        if bad.size:
            raise TriangleInequality(
                f"{self._named(int(bad[0]))} violates the strict triangle inequalities")

        # corner k of triangle t sits at the origin of half-edge 3t + k
        with np.errstate(over="ignore"):
            q = np.stack([np.stack(row, axis=-1) for row in corner_sums(*sides.T)])
        self.angle = _frozen(half_angle(q, sides).ravel())

    def _named(self, t: int) -> str:
        """Triangle t with its edge ids and lengths, for an error message."""
        edges = self.he_edge[3 * t:3 * t + 3]
        ids = tuple(self.edge_ids[e] for e in edges.tolist())
        la, lb, lc = self.length[edges].tolist()
        return f"triangle {t} with edges {ids} and lengths ({la}, {lb}, {lc})"

    @cached_property
    def triangle_areas(self) -> np.ndarray:
        """pi minus the angle sum of each triangle, its area."""
        corners = self.angle.reshape(-1, 3)
        return _frozen(math.pi - (corners[:, 0] + corners[:, 1] + corners[:, 2]))

    @cached_property
    def fan_sums(self) -> np.ndarray:
        """The running corner-angle sums of each fan, added left to right in
        `fan_order`: fan_size[v] + 1 values for vertex v, from 0 through the
        angle before each germ to the cone angle, its last value."""
        return _frozen(_running_sums(self.angle[self.fan_order], self.fan_size))

    @cached_property
    def cone_angle(self) -> np.ndarray:
        return _frozen(self.fan_sums[np.cumsum(self.fan_size + 1) - 1])

    @cached_property
    def lengths(self) -> MappingProxyType:
        """Read-only edge id -> length."""
        return MappingProxyType(dict(zip(self.edge_ids, self.length.tolist())))

    def corner_gradients(self) -> tuple:
        """Gradient of every corner angle in the lengths of its triangle.

        Returns (edges, grads), both (n_half, 3): row h holds the edge indices
        of the sides h, prv(h), nxt(h) and the partials of angle[h] in their
        lengths, read from the stored corner angles.  The partials divide by
        the sinh of a side, so an edge whose sinh leaves the float range
        (a length above about 710.48) is refused as NumericalCollapse, naming
        it.  Both arrays are read-only, computed on the first call and kept.
        """
        return self._corner_gradients

    @cached_property
    def _corner_gradients(self) -> tuple:
        far = np.flatnonzero(self.length > math.asinh(sys.float_info.max))
        if far.size:
            i = int(far[0])
            raise NumericalCollapse(
                f"edge {self.edge_ids[i]!r} has length {float(self.length[i])}, whose sinh "
                "is past the float range; its angle gradients divide by it")
        h = np.arange(self.n_half)
        edge, p, n = self.he_edge, prv(h), nxt(h)
        length = self.length[edge]
        # the angle opposite side h sits at prv(h), the one opposite prv(h) at nxt(h)
        grads = corner_gradient(length, length[p], self.angle[p], self.angle[n])
        return (_frozen(np.stack([edge, edge[p], edge[n]], axis=1)),
                _frozen(np.stack(grads, axis=1)))

    # -- derived metric data ---------------------------------------------------

    def area(self) -> float:
        return sum(self.triangle_areas.tolist())

    # -- rebuilding ------------------------------------------------------------

    def with_lengths(self, updates: dict) -> "ConeSurface":
        """Same triangulation, some edge lengths replaced."""
        new = self.length.copy()
        for e, v in updates.items():
            if e not in self.edge_index:
                raise ValueError(f"unknown edge {e!r}")
            new[self.edge_index[e]] = float(v)
        return ConeSurface(new, self)

    def with_length_vector(self, vec) -> "ConeSurface":
        """Same triangulation, lengths given in edge order."""
        return ConeSurface(vec, self)


def build_surface(data: dict) -> ConeSurface:
    """Construct and fully validate a surface from its wire-format object;
    a malformed one is refused naming its first offending record."""
    return ConeSurface(*_one_pass(data))


def decode_document(text: str):
    """json.loads(text), refusing a document nested too deeply to decode."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("document nests too deeply to decode") from None


def parse_surface(text: str) -> ConeSurface:
    return build_surface(decode_document(text))


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
    return AngleData(theta=tuple(s.cone_angle.tolist()), genus=s.genus, n=s.n_vertices)
