"""Discrete developing maps and vertex-loop holonomy.

Triangles are laid out one by one in the upper half-plane across a
breadth-first spanning tree of the dual graph, so tree-adjacent triangles
share their developed edge exactly.  Every remaining gluing induces a
transition isometry between the two charts of its edge, and walking the fan
of corners around a vertex composes such transitions into the holonomy of a
small loop encircling it: an elliptic element whose counterclockwise rotation
angle is the cone angle mod 2*pi and whose fixed point is the developed
vertex.  Distances between such fixed points recover the edge lengths, which
is the computational content of the length-coordinates/holonomy dictionary.
"""

from __future__ import annotations

import math

from .errors import NumericalCollapse, WallAngle
from .sl2 import (
    HypPoint,
    Sl2Matrix,
    elliptic_rotation_angle,
    fixed_point,
    hyp_direction,
    hyp_distance,
    hyp_exp,
    normalizing_isometry,
)
from .surface import WALL_TOL, ConeSurface, corner_angle, fmt17, wall_distance

# A developed side shorter than this is treated as a degenerate layout.
COLLAPSE_TOL = 1e-12


def place_third(p: HypPoint, q: HypPoint, l_px: float, l_qx: float,
                l_pq: float | None = None) -> HypPoint:
    """Third triangle vertex, to the LEFT of the directed segment p -> q.

    l_px and l_qx are the required distances from p and from q; the base
    length defaults to the developed distance d(p, q).
    """
    if l_pq is None:
        l_pq = hyp_distance(p, q)
    alpha = corner_angle(l_pq, l_px, l_qx)
    return hyp_exp(p, hyp_direction(p, q) + alpha, l_px)


def _edge_chart_map(pos, s: ConeSurface, h: int) -> Sl2Matrix:
    """Isometry taking the chart of tri(twin h) to the chart of tri(h).

    Both charts contain a developed copy of the directed edge under h; the
    returned element maps one copy onto the other.
    """
    h2 = s.twin[h]
    n_here = normalizing_isometry(pos[h], pos[s.nxt(h)])
    n_there = normalizing_isometry(pos[s.nxt(h2)], pos[h2])
    return n_here.inverse() @ n_there


def _fan_walk(chart_maps, s: ConeSurface, germ: int) -> Sl2Matrix:
    """Holonomy of the counterclockwise corner loop around the origin vertex
    of `germ`, expressed in the atlas chart of tri(germ).

    `chart_maps[h]` is the chart transition across half-edge h.
    """
    m = Sl2Matrix.identity()
    g = germ
    for _ in s.vertex_germs[s.vertex_of[germ]]:
        shared = s.prv(g)
        m = m @ chart_maps[shared]
        g = s.twin[shared]
    return m


def _refuse_wall(s: ConeSurface, v: int) -> None:
    """Raise WallAngle when vertex v's loop holonomy is (numerically) trivial."""
    theta = s.cone_angle[v]
    if wall_distance(theta) < WALL_TOL:
        raise WallAngle(
            f"cone angle {theta} at vertex {v} is within {WALL_TOL} of 2*pi*k")


class HolonomyAtlas:
    """Developed triangle charts plus the holonomy data derived from them.

    `pos[h]` is the developed position of the origin vertex of half-edge h in
    the chart of its triangle.  Charts agree across spanning-tree edges.  The
    chart transition across every half-edge is computed once from the
    positions at construction; every fan walk (the vertex-loop holonomies
    and the walks behind length recovery) multiplies entries of that table.
    `transitions` is its view on the non-tree edges, keyed by edge id.
    """

    def __init__(self, surface: ConeSurface, base: int, pos, tree_edges):
        self.surface = surface
        self.base = base
        self.pos = tuple(pos)
        self.tree_edges = frozenset(tree_edges)
        s = surface

        for t in range(len(s.triangles)):
            for k in range(3):
                h = 3 * t + k
                side = hyp_distance(pos[h], pos[s.nxt(h)])
                if not math.isfinite(side) or side < COLLAPSE_TOL:
                    raise NumericalCollapse(
                        f"developed side of triangle {t} has length {side}")

        self.chart_maps = tuple(
            _edge_chart_map(pos, s, h) for h in range(s.n_half))
        self.transitions = {
            e: self.chart_maps[s.halfedges_of_edge(e)[0]]
            for e in s.edge_ids if e not in self.tree_edges}
        self.vertex_matrix = tuple(
            _fan_walk(self.chart_maps, s, orbit[0]) for orbit in s.vertex_germs)

    def vertex_center(self, v: int) -> HypPoint:
        """Developed position of vertex v in its base germ's chart."""
        return self.pos[self.surface.vertex_germs[v][0]]

    def transformed(self, g: Sl2Matrix) -> "HolonomyAtlas":
        """The atlas with every chart moved by the isometry g.

        All derived elements are honestly recomputed from the moved
        positions, so this doubles as an equivariance check.
        """
        moved = [g.apply(p) for p in self.pos]
        return HolonomyAtlas(self.surface, self.base, moved, self.tree_edges)

    def dump(self) -> str:
        """Plain-text table: developed triangles, then vertex holonomies."""
        s = self.surface
        lines = []
        for t in range(len(s.triangles)):
            coords = []
            for k in range(3):
                p = self.pos[3 * t + k]
                coords += [fmt17(p.x), fmt17(p.y)]
            lines.append("triangle %d: %s" % (t, " ".join(coords)))
        for v in range(s.n_vertices):
            m = self.vertex_matrix[v].mat
            entries = " ".join(fmt17(m[i, j]) for i in range(2) for j in range(2))
            theta = s.cone_angle[v]
            if wall_distance(theta) < WALL_TOL:
                tag = "wall"
            else:
                tag = fmt17(elliptic_rotation_angle(self.vertex_matrix[v]))
            lines.append("vertex %d: %s angle %s" % (v, entries, tag))
        return "\n".join(lines) + "\n"


def develop(s: ConeSurface, base: int = 0) -> HolonomyAtlas:
    """Lay the triangles out across a breadth-first dual spanning tree.

    The base triangle is placed with its first vertex at i and its first side
    running up the imaginary axis; each new triangle is placed onto the
    already-developed copy of its connecting edge.
    """
    if not 0 <= base < len(s.triangles):
        raise ValueError(f"no triangle {base}")
    pos: list = [None] * s.n_half
    h0 = 3 * base
    p = HypPoint(0.0, 1.0)
    q = HypPoint(0.0, math.exp(s.length_of(h0)))
    pos[h0] = p
    pos[s.nxt(h0)] = q
    pos[s.prv(h0)] = place_third(p, q, s.length_of(s.prv(h0)),
                                 s.length_of(s.nxt(h0)), s.length_of(h0))

    tree_edges = []
    placed = {base}
    queue = [base]
    while queue:
        t = queue.pop(0)
        for k in range(3):
            h = 3 * t + k
            h2 = s.twin[h]
            t2 = s.tri(h2)
            if t2 in placed:
                continue
            placed.add(t2)
            tree_edges.append(s.he_edge[h])
            pos[h2] = pos[s.nxt(h)]
            pos[s.nxt(h2)] = pos[h]
            pos[s.prv(h2)] = place_third(
                pos[h2], pos[s.nxt(h2)], s.length_of(s.prv(h2)),
                s.length_of(s.nxt(h2)), s.length_of(h2))
            queue.append(t2)

    return HolonomyAtlas(s, base, pos, tree_edges)


def vertex_holonomy(atlas: HolonomyAtlas, v: int) -> Sl2Matrix:
    """Loop holonomy around vertex v, based in its base germ's chart.

    Refused when the cone angle sits on a wall (a positive multiple of 2*pi),
    where the loop holonomy collapses to the identity.
    """
    _refuse_wall(atlas.surface, v)
    return atlas.vertex_matrix[v]


def alength_from_fixed_points(atlas: HolonomyAtlas, e: str) -> float:
    """Edge length recovered as the distance between holonomy fixed points.

    Both endpoint loops are based in the chart of the edge's first developed
    copy, so their elliptic fixed points are the developed endpoints and
    their distance is the length of the edge.
    """
    s = atlas.surface
    h = min(s.halfedges_of_edge(e))
    for end in (h, s.nxt(h)):
        _refuse_wall(s, s.vertex_of[end])
    hol_tail = _fan_walk(atlas.chart_maps, s, h)
    hol_head = _fan_walk(atlas.chart_maps, s, s.nxt(h))
    return hyp_distance(fixed_point(hol_tail), fixed_point(hol_head))


def holonomy_report(atlas: HolonomyAtlas):
    """Per-vertex trace-law error and per-edge length-recovery error.

    The trace law: |Tr| of the vertex loop equals 2|cos(theta/2)|.  Returns
    (vertex rows, edge rows, max error) with rows (label, value, error).
    """
    s = atlas.surface
    vrows = []
    verr = 0.0
    for v in range(s.n_vertices):
        tr = abs(atlas.vertex_matrix[v].trace())
        want = 2.0 * abs(math.cos(s.cone_angle[v] / 2.0))
        err = abs(tr - want)
        verr = max(verr, err)
        vrows.append((v, tr, err))
    erows = []
    eerr = 0.0
    for e in s.edge_ids:
        got = alength_from_fixed_points(atlas, e)
        err = abs(got - s.lengths[e])
        eerr = max(eerr, err)
        erows.append((e, got, err))
    return vrows, erows, max(verr, eerr)
