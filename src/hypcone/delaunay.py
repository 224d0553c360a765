"""Intrinsic Delaunay retriangulation by hyperbolic edge flips.

The local quality measure of an interior edge is psi0 = pi - (alpha + beta),
the two corner angles opposite the edge in its incident triangles; an edge is
locally Delaunay when psi0 >= 0.  A flip replaces the edge by the other
diagonal of the quadrilateral formed by its two triangles, keeping its id,
and rewires the quad; the underlying metric is untouched, only the
triangulation of it changes.  The quadrilateral's angles at the two ends of
the edge are sums of stored corner angles; the flip needs both below pi, and
the new length follows from the hyperbolic law of cosines at one end, so
nothing is developed into the half-plane (Bobenko & Springborn 2007;
Gillespie, Springborn & Crane 2021).  Repeatedly flipping the worst edge
terminates in a triangulation with all psi0 >= 0, the Delaunay refinement of
the metric's Voronoi dual.

The flip loop works on a mutable `FlipState`: a flip rewires the two
triangles in their slots, recomputes their six corner angles, and re-keys
the at most five edges of the quadrilateral in a heap of (psi0, edge id), so
a flip costs O(log E) instead of a rebuild of the surface and a rescan of
every edge.  The result is validated once, by the one `ConeSurface` built at
the end.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTermination, UnflippableConfiguration
from .surface import ConeSurface, corner_angle, fmt17

# An edge counts as non-Delaunay only below -PSI_TOL, so floating-point
# zeros do not trigger flip loops.
PSI_TOL = 1e-10
MAX_FLIPS = 10 ** 6


@dataclass(frozen=True)
class FlipMove:
    """One executed flip: where, and what it did to the length."""

    edge: str
    tri_plus: int
    tri_minus: int
    pre_length: float
    post_length: float
    pre_psi0: float


def edge_invariant(s: ConeSurface, e: str) -> float:
    """psi0(e) = pi minus the two corner angles opposite e."""
    hf, hb = s.halfedges_of_edge(e)
    return math.pi - s.angle_at(s.prv(hf)) - s.angle_at(s.prv(hb))


def edge_invariants(s: ConeSurface) -> dict:
    return {e: edge_invariant(s, e) for e in s.edge_ids}


def flip_new_length(s: ConeSurface, e: str) -> float:
    """Length of the replacement diagonal, with the embeddability check.

    The edge runs p -> q with apex x left of it and apex y right of it.  The
    diagonal x-y crosses the edge exactly when the quadrilateral's angles at
    p and q are both below pi; its length comes from the law of cosines at p
    in the half-angle form
    sinh^2(c/2) = sinh^2((a-b)/2) + sinh a sinh b sin^2(gamma_p/2),
    which stays accurate for short diagonals.
    """
    hf, hb = s.halfedges_of_edge(e)
    if s.tri(hf) == s.tri(hb):
        raise UnflippableConfiguration(
            f"edge {e!r} bounds the same triangle twice")
    gamma_p = s.angle_at(hf) + s.angle_at(s.nxt(hb))
    gamma_q = s.angle_at(hb) + s.angle_at(s.nxt(hf))
    if not (gamma_p < math.pi and gamma_q < math.pi):
        raise UnflippableConfiguration(
            f"diagonal replacing edge {e!r} does not cross it "
            f"(quadrilateral angles {gamma_p} and {gamma_q} at its ends)")
    a = s.length_of(s.prv(hf))
    b = s.length_of(s.nxt(hb))
    half = math.sinh((a - b) / 2.0) ** 2 + \
        math.sinh(a) * math.sinh(b) * math.sin(gamma_p / 2.0) ** 2
    return 2.0 * math.asinh(math.sqrt(half))


class FlipState:
    """Mutable triangulation of a fixed metric, changed one flip at a time.

    It holds copies of what `flip_new_length` and `edge_invariant` read:
    lengths, the side records he_edge/he_dir, the (forward, backward)
    half-edge pair of every edge and the corner angles, behind the accessors
    of `ConeSurface`, so both functions take either object.  Twins, vertex
    orbits and fans are not kept; `surface()` builds and validates them.
    """

    nxt = staticmethod(ConeSurface.nxt)
    prv = staticmethod(ConeSurface.prv)
    tri = ConeSurface.tri
    length_of = ConeSurface.length_of
    angle_at = ConeSurface.angle_at
    halfedges_of_edge = ConeSurface.halfedges_of_edge

    def __init__(self, s: ConeSurface):
        self.lengths = dict(s.lengths)
        self.he_edge = list(s.he_edge)
        self.he_dir = list(s.he_dir)
        self._halves = {e: list(s.halfedges_of_edge(e)) for e in s.edge_ids}
        self._angle = [s.angle_at(h) for h in range(s.n_half)]

    def flip(self, e: str) -> FlipMove:
        """Replace e by the cross diagonal of its quadrilateral, in place.

        The two rewired triangles keep their slots: the one that held the
        forward half-edge gets sides [e forward, old prv(backward), old
        nxt(forward)], the other [e backward, old prv(forward), old
        nxt(backward)].  Their six corner angles are recomputed, which also
        checks the strict triangle inequalities.
        """
        new_len = flip_new_length(self, e)
        hf, hb = self.halfedges_of_edge(e)
        move = FlipMove(edge=e, tri_plus=self.tri(hf), tri_minus=self.tri(hb),
                        pre_length=self.lengths[e], post_length=new_len,
                        pre_psi0=edge_invariant(self, e))
        sides = (((e, "+"), self._side(self.prv(hb)), self._side(self.nxt(hf))),
                 ((e, "-"), self._side(self.prv(hf)), self._side(self.nxt(hb))))
        self.lengths[e] = new_len
        slots = self.slots(move)
        for h, (eid, d) in zip(slots, sides[0] + sides[1]):
            self.he_edge[h], self.he_dir[h] = eid, d
            self._halves[eid][d == "-"] = h
        for h in slots:
            self._angle[h] = corner_angle(self.length_of(h), self.length_of(self.prv(h)),
                                          self.length_of(self.nxt(h)))
        return move

    @staticmethod
    def slots(move: FlipMove) -> tuple:
        """Half-edges of the two triangles a flip rewired."""
        return tuple(3 * t + k for t in (move.tri_plus, move.tri_minus) for k in range(3))

    def _side(self, h: int) -> tuple:
        return self.he_edge[h], self.he_dir[h]

    def surface(self) -> ConeSurface:
        """The current triangulation as a fully validated surface."""
        tris = [tuple(zip(self.he_edge[h:h + 3], self.he_dir[h:h + 3]))
                for h in range(0, len(self.he_edge), 3)]
        return ConeSurface(self.lengths, tris)


def flip(s: ConeSurface, e: str):
    """Replace e by the cross diagonal of its quadrilateral.

    Returns (new surface, FlipMove); the slot layout is `FlipState.flip`'s.
    """
    state = FlipState(s)
    move = state.flip(e)
    return state.surface(), move


def make_delaunay(s: ConeSurface, tol: float = PSI_TOL):
    """Flip the most negative edge (ties by id) until all psi0 >= -tol.

    The worst edge comes from a heap of (psi0, edge id) with lazy
    invalidation: an entry counts only while its psi0 is the edge's current
    one.  After a flip only the edges of the rewired quadrilateral are
    re-keyed.  At most MAX_FLIPS flips are made.  Returns (final surface,
    list of FlipMove); the final surface is built once, after the last flip,
    and is `s` itself when no edge needed a flip.
    """
    state = FlipState(s)
    psi = {e: edge_invariant(state, e) for e in s.edge_ids}
    heap = [(val, e) for e, val in psi.items() if val < -tol]
    heapq.heapify(heap)
    moves = []
    while heap:
        val, e = heapq.heappop(heap)
        if val != psi[e]:
            continue
        if len(moves) == MAX_FLIPS:
            raise NonTermination(
                f"still not Delaunay after {MAX_FLIPS} flips; last edge {moves[-1].edge!r}")
        move = state.flip(e)
        moves.append(move)
        for f in {state.he_edge[h] for h in state.slots(move)}:
            psi[f] = edge_invariant(state, f)
            if psi[f] < -tol:
                heapq.heappush(heap, (psi[f], f))
    return (state.surface() if moves else s), moves


def flip_length_jacobian(s: ConeSurface, e: str, rel_step: float = 1e-6) -> np.ndarray:
    """Row of d(new length)/d(a_k) by central differences.

    This is the only nontrivial row of the Jacobian of the flip coordinate
    change; all other coordinates are carried through unchanged.  The new
    length reads only the lengths of e and its quadrilateral's sides, so the
    other entries are exactly zero.
    """
    row = np.zeros(s.n_edges)
    hf, hb = s.halfedges_of_edge(e)
    # a set: on a one-vertex torus a side can occur twice in the quadrilateral
    quad = {s.he_edge[h] for h in (hf, s.nxt(hf), s.prv(hf), hb, s.nxt(hb), s.prv(hb))}
    for eid in quad:
        a = s.lengths[eid]
        h = rel_step * max(1.0, a)
        up = flip_new_length(s.with_lengths({eid: a + h}), e)
        dn = flip_new_length(s.with_lengths({eid: a - h}), e)
        row[s.edge_index[eid]] = (up - dn) / (2.0 * h)
    return row


def flip_coordinate_jacobian(s: ConeSurface, e: str) -> np.ndarray:
    """Full N x N Jacobian of the flip coordinate change at s."""
    jac = np.eye(s.n_edges)
    jac[s.edge_index[e], :] = flip_length_jacobian(s, e)
    return jac


def move_log_lines(moves) -> list:
    """One line per flip: edge, pre-length, post-length, pre-psi0."""
    return ["flip %s pre %s post %s psi0 %s" %
            (m.edge, fmt17(m.pre_length), fmt17(m.post_length), fmt17(m.pre_psi0))
            for m in moves]
