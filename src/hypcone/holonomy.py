"""Vertex-loop holonomy from per-triangle local charts.

Every triangle t has its own canonical chart of the upper half-plane: the
origin of half-edge 3t sits at i and side 3t runs up the imaginary axis,
with the triangle to its left.  The normalizer N_h of side h is the isometry
sending side h of its triangle's chart onto the segment from i up to
i e^l.  With D(t) the dilation z -> e^t z and R(a) the counterclockwise
rotation by a about i, it comes in closed form from the stored lengths and
corner angles: N_0 = I and N_{k+1} = R(pi + alpha_{k+1}) D(-l_k) N_k.  The
transition across half-edge h, T_h = N_h^-1 R(pi) D(-l) N_{twin h}, maps the
chart of tri(twin h) onto the chart of tri(h).

Walking the fan of vertex v once from its base germ g_0 through
g_{k+1} = twin(prv g_k) gives prefix products P_k = T_{prv g_0} ...
T_{prv g_{k-1}}, which map the chart of tri(g_k) into the chart of tri(g_0).
The full product M_v is the holonomy of a small counterclockwise loop around
v: an elliptic element whose rotation angle is the cone angle mod 2*pi and
whose fixed point is v.  The walk started at g_k is P_k^-1 M_v P_k, so its
fixed point P_k^-1 fix(M_v) is read off the one walk.  The distance between
the fixed points at the two ends of an edge, both in one triangle's chart,
recovers the edge length: the computational content of the
length-coordinates/holonomy dictionary.  The fans walk in lockstep, longest
first: one array step per germ position advances every fan still live, and
the one fan left after the others end walks its tail on plain floats.  Each
entry is the two products and one sum of a float walk, so the digits are
those of a walk fan by fan, and no chart ever sits far from i, so nothing
drifts.
A vertex whose `surface.wall_margin` |sin(theta/2)| lies below
`surface.WALL_BAND` is on a wall (theta near 2*pi*k, k >= 0): there the loop
trace 2|cos(theta/2)| is within `sl2.TRACE_TOL` of 2 and the vertex is
refused as WallAngle.

Everything after the walk is one array pass per quantity over its (n, 4)
array of loops: the determinant check, the dump's canonical entries and
rotation angles, the trace law, the fixed points of the vertices an edge
list names, with masks for the wall and non-elliptic ones, and the 2E germ
images P_k^-1 fix(M_v) with the E recovered lengths.  The passes are the
`sl2` functions themselves, taken on arrays of entries (`_canonical`,
`_rotation`, `elliptic_fixed_point`, `_quotient`, `half_plane_distance`):
+ - * /, sqrt, hypot, abs and comparisons on arrays, with acos, cos and
asinh from `math`, so each digit is the one a float call gives.  No step
calls BLAS, so the report is the same under every BLAS kernel.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain

import numpy as np

from .errors import NotElliptic, NumericalCollapse, WallAngle
from .sl2 import (
    Sl2Matrix,
    _canonical,
    _each,
    _mul,
    _quotient,
    _rotation,
    elliptic_fixed_point,
    elliptic_trace,
    half_plane_distance,
)
from .surface import WALL_BAND, ConeSurface, _lockstep, nxt, prv, wall_margin, worst_at


def _local_charts(s: ConeSurface) -> tuple[np.ndarray, np.ndarray]:
    """Normalizers N_h and transitions T_h = N_h^-1 R(pi) D(-l) N_{twin h},
    both (n_half, 2, 2); N_h sends side h of tri(h)'s chart onto [i, i e^l].
    Every product is `sl2._mul` on arrays of entries, never a BLAS call.
    Products past the float range (sides of some hundreds) are left inf or
    nan: the walk refuses a loop through them by its determinant."""
    side = s.length[s.he_edge]
    angle = s.angle.reshape(-1, 3)
    n = np.empty((4, len(angle), 3))  # entry, triangle, side
    n[:, :, 0] = [[1.0], [0.0], [0.0], [1.0]]  # N_0 = I
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in (1, 2):
            half = (math.pi + angle[:, k]) / 2.0  # R(pi + alpha_k)
            rotate = (np.cos(half), np.sin(half), -np.sin(half), np.cos(half))
            shrink = np.exp(-side[k - 1::3] / 2.0)  # D(-l_{k-1})
            step = _mul(rotate, (shrink, 0.0, 0.0, 1.0 / shrink))
            n[:, :, k] = _mul(step, n[:, :, k - 1])
        n = n.reshape(4, -1)
        a, b, c, d = n

        grow = np.exp(side / 2.0)
        half_turn = (0.0, grow, -1.0 / grow, 0.0)  # R(pi) D(-l)
        t = _mul(_mul((d, -b, -c, a), half_turn), n[:, s.twin])
        return n.T.reshape(-1, 2, 2), np.stack(t, axis=-1).reshape(-1, 2, 2)


def _fan_walks(s: ConeSurface, transitions: np.ndarray) -> tuple:
    """The walks of every fan: the (n_half, 4) prefix products by germ and
    the (n, 4) loop products by vertex.

    The fans walk in lockstep, longest first, on the `_lockstep` schedule of
    their sizes: step k writes prefix k of every fan longer than k as one
    array product of the previous prefixes and transitions.  Once at most
    one fan is live, its tail runs on plain floats, and each loop is its
    fan's last prefix times its last transition.  Every entry is the two
    products and one sum of a float walk, so the digits are those of a walk
    fan by fan; products past the float range are left inf or nan, as on
    floats, without a warning, for the determinant check to refuse."""
    _, live, start, slot = _lockstep(s.fan_size)
    germ = np.empty_like(slot)
    germ[slot] = s.fan_order
    t = transitions.reshape(-1, 4)[prv(germ)].reshape(-1, 2, 2)
    walk = np.empty_like(t)
    walk[:live[0]] = np.eye(2)
    # the columns of the prefixes and the rows of the transitions, so that
    # walk[at] t[at] is two products and one sum per entry
    col0, col1 = walk[:, :, 0, None], walk[:, :, 1, None]
    row0, row1 = t[:, None, 0], t[:, None, 1]

    def times(at, out):
        np.multiply(col0[at], row0[at], out=out)
        out += col1[at] * row1[at]
        return out

    live, start = live.tolist(), start.tolist()
    alone = len(live) - live.count(1)  # the first step with one fan live, if any

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, min(alone + 1, len(live))):
            at, n = start[k - 1], live[k]
            times(slice(at, at + n), walk[start[k]:start[k] + n])
        if alone < len(live):  # its slots are the last ones, in order
            at = start[alone]
            entries = iter(t[at:-1].ravel().tolist())
            a, b, c, d = walk[at].ravel().tolist()
            tail = array("d")
            for ta, tb, tc, td in zip(entries, entries, entries, entries):
                a, b, c, d = (a * ta + b * tc, a * tb + b * td,
                              c * ta + d * tc, c * tb + d * td)
                tail.extend((a, b, c, d))
            walk[at + 1:] = np.frombuffer(tail).reshape(-1, 2, 2)
        last = slot[np.cumsum(s.fan_size) - 1]
        loops = times(last, np.empty((s.n_vertices, 2, 2)))
    prefix = np.empty((s.n_half, 4))
    prefix[germ] = walk.reshape(-1, 4)
    return prefix, loops.reshape(-1, 4)


class HolonomyAtlas:
    """Local-chart holonomy of a surface.

    * `normalizers[h]` and `transitions[h]` (both (n_half, 2, 2) arrays) are
      N_h and T_h of the module docstring.
    * The walks (`_fan_walks`) give the digits of a float walk fan by fan.
      Row g of the (n_half, 4) array `prefix` holds the entries
      (a, b, c, d) of the product [[a, b], [c, d]] that maps the chart of
      tri(g) into the chart of the triangle of its vertex's base germ, its
      least half-edge (first of v's germs in `surface.fan_order`).
    * Row v of the (n, 4) array `loops`, in the same order, is the loop
      holonomy M_v in that base chart as walked, not normalized; every
      determinant is positive and finite.
    * `margins[v]` is the `surface.wall_margin` of vertex v, evaluated once;
      below `surface.WALL_BAND` the vertex is on a wall, where its loop
      holonomy is refused and its dump row is tagged `wall`.
    """

    def __init__(self, surface: ConeSurface):
        self.surface = surface
        self.normalizers, self.transitions = _local_charts(surface)
        self.prefix, self.loops = _fan_walks(surface, self.transitions)
        a, b, c, d = self.loops.T
        with np.errstate(over="ignore", invalid="ignore"):
            det = a * d - b * c
        collapsed = ~((0.0 < det) & (det < math.inf))  # also NaN
        if collapsed.any():
            v = int(np.argmax(collapsed))
            raise NumericalCollapse(
                f"loop holonomy at vertex {v} has determinant {det[v].tolist()}")
        self.margins = wall_margin(surface.cone_angle)

    def dump(self) -> str:
        """Plain-text table of the vertex holonomies, one row per vertex: the
        canonical entries and the counterclockwise angle `sl2_log` takes."""
        m = _canonical(*self.loops.T)
        n = len(self.loops)
        tags = np.array(("%.17g " * n % tuple(_rotation(m)[1].tolist())).split(), dtype=object)
        tags[self.margins < WALL_BAND] = "wall"
        fields = chain.from_iterable(zip(range(n), *(e.tolist() for e in m), tags.tolist()))
        return "vertex %d: %.17g %.17g %.17g %.17g angle %s\n" * n % tuple(fields)


def develop(s: ConeSurface) -> HolonomyAtlas:
    """The local-chart holonomy atlas of s.

    Raises NumericalCollapse when a loop product loses its determinant.
    """
    return HolonomyAtlas(s)


def vertex_holonomy(atlas: HolonomyAtlas, v: int) -> Sl2Matrix:
    """Loop holonomy around vertex v, in the local chart of its base germ's
    triangle.

    Refused as WallAngle when the vertex is in the wall band (`margins`):
    the one wall refusal, which the report raises through as well.
    """
    margin = atlas.margins[v].tolist()
    if margin < WALL_BAND:
        raise WallAngle(f"cone angle {atlas.surface.cone_angle[v].tolist()} at vertex {v} has "
                        f"|sin(theta/2)| = {margin}, inside the wall band {WALL_BAND}")
    return Sl2Matrix.from_entries(*atlas.loops[v].tolist())


def _fixed_points(atlas: HolonomyAtlas, ends: np.ndarray) -> tuple:
    """Fixed points (x, y), indexed by vertex, of the loops around the
    vertices in the (n, k) array `ends`, each computed once in its base
    chart; NaN at every other vertex.

    A vertex on a wall is refused as WallAngle, a loop that is not elliptic
    by `sl2.elliptic_trace` as NotElliptic naming the vertex and the loop's
    trace.  The first row of `ends` holding a refused vertex raises: a
    WallAngle when one of its vertices has one, else its first NotElliptic.
    """
    n = atlas.surface.n_vertices
    needed = np.zeros(n, dtype=bool)
    needed[ends] = True
    at = np.flatnonzero(needed)
    loops = atlas.loops[at].T
    wall = atlas.margins < WALL_BAND
    refused = np.zeros(n, dtype=bool)
    refused[at] = wall[at] | ~elliptic_trace(loops[0] + loops[3])
    if refused.any():
        row = ends[refused[ends].any(axis=1)][0]
        walls = row[wall[row]].tolist()
        if walls:
            vertex_holonomy(atlas, walls[0])  # raises its WallAngle
        v = row[refused[row]][0].tolist()
        a, _, _, d = atlas.loops[v].tolist()
        raise NotElliptic(f"loop holonomy at vertex {v} has trace {a + d}, which is not elliptic")
    x, y = np.full(n, math.nan), np.full(n, math.nan)
    x[at], y[at] = elliptic_fixed_point(*loops)
    return x, y


def _germ_images(atlas: HolonomyAtlas, germs: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple:
    """Real and imaginary parts of P^-1 fix(M_v) = (d z - b) / (a - c z),
    with z = x[v] + i y[v] and P = prefix[g], for every germ g of `germs`.

    The quotient is `sl2._quotient`, CPython's complex division.
    """
    v = atlas.surface.vertex_of[germs]
    zx, zy = x[v], y[v]
    a, b, c, d = np.moveaxis(atlas.prefix[germs], -1, 0)
    return _quotient(d * zx - b, d * zy, a - c * zx, -(c * zy))


def _alengths(atlas: HolonomyAtlas, edges: np.ndarray) -> np.ndarray:
    """Lengths of the edges (indices) recovered from holonomy fixed points.

    Both endpoint loops of edge e are read in the local chart of the
    triangle of its smaller half-edge h, whose side e runs from the origin
    of h to that of nxt(h): the images of the two fixed points there are the
    ends of the edge, and their distance is its length.  Each vertex's fixed
    point is computed once; a refusal names the first vertex met in edge
    order, tail before head.
    """
    s = atlas.surface
    tail = s.halves[edges].min(axis=1)
    germs = np.stack([tail, nxt(tail)], axis=1)
    x, y = _germ_images(atlas, germs, *_fixed_points(atlas, s.vertex_of[germs]))
    return half_plane_distance(x[:, 0], y[:, 0], x[:, 1], y[:, 1])


def alength_from_fixed_points(atlas: HolonomyAtlas, e: str) -> float:
    """Edge length recovered as the distance between holonomy fixed points.

    Both endpoint loops are based in the local chart of the triangle of the
    edge's first half-edge, so their elliptic fixed points are the ends of
    the edge there and their distance is its length.
    """
    return float(_alengths(atlas, np.array([atlas.surface.edge_index[e]]))[0])


def holonomy_report(atlas: HolonomyAtlas) -> tuple:
    """Per-vertex trace-law error and per-edge length-recovery error, as
    columns.

    The trace law: |Tr| of the vertex loop equals 2|cos(theta/2)|.  Returns
    (traces, trace errors, recovered lengths, length errors, max error): the
    first two arrays in vertex order, the next two in edge order.  The max
    error is the `worst_at` entry of the errors, NaN if any error is NaN.
    """
    s = atlas.surface
    traces = np.abs(atlas.loops[:, 0] + atlas.loops[:, 3])
    cosines = _each(math.cos, s.cone_angle / 2.0)
    trace_errors = np.abs(traces - 2.0 * np.abs(cosines))
    lengths = _alengths(atlas, np.arange(s.n_edges))
    length_errors = np.abs(lengths - s.length)
    errors = np.concatenate((trace_errors, length_errors))
    max_error = float(errors[worst_at(errors)])
    return traces, trace_errors, lengths, length_errors, max_error
