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

The flip loop works on a mutable `FlipState`: a copy of the surface's side
arrays, lengths and corner angles under the same names, so the edge
invariant and the flip length read a surface and a state alike.  A flip
rewires the two triangles in their slots, recomputes their six corner
angles, and re-keys the at most five edges of the quadrilateral in a heap of
(psi0, edge index), so a flip costs O(log E) instead of a rebuild of the
surface and a rescan of every edge.  The integer side arrays and the
lengths go straight to one `Triangulation` and one `ConeSurface` at the end,
which check them once and compute the corner angles afresh.  That surface
lays out and sums its fans, sums its areas and indexes its ids only on
first use, so the `delaunay` report, which reads psi0 and the lengths off
it, pays for none of them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTermination, NumericalCollapse, UnflippableConfiguration
from .surface import (ConeSurface, Triangulation, check_corner, corner_sums, fmt17, half_angle,
                      nxt, prv)

# An edge counts as non-Delaunay only below -PSI_TOL, so floating-point
# zeros do not trigger flip loops.
PSI_TOL = 1e-10
MAX_FLIPS = 10 ** 6
# Central-difference step of flip_length_jacobian, relative to max(1, length).
JACOBIAN_STEP = 1e-6


@dataclass(frozen=True)
class FlipMove:
    """One executed flip: where, and what it did to the length."""

    edge: str
    tri_plus: int
    tri_minus: int
    pre_length: float
    post_length: float
    pre_psi0: float


def edge_invariant(s, e: str) -> float:
    """psi0(e) = pi minus the two corner angles opposite e; s is a
    ConeSurface or a FlipState."""
    hf, hb = s.halves[s.edge_index[e]]
    return math.pi - s.angle[prv(hf)] - s.angle[prv(hb)]


def edge_invariants(s: ConeSurface) -> dict:
    hf, hb = s.halves.T
    psi = math.pi - s.angle[prv(hf)] - s.angle[prv(hb)]
    return dict(zip(s.edge_ids, psi.tolist()))


def _cross_term(a: float, b: float, s: float) -> float:
    """sinh a sinh b s^2 for sides a, b and 0 < s <= 1.

    Where that product is not finite (sinh a sinh b past the float range,
    or times an s^2 that underflows) it is (sinh a s)(sinh b s), and past
    asinh(float max) ~ 710.48 a factor is exp(y + log(E(y) s / 2)) with
    E(y) = -expm1(-2y), as in `surface.half_angle`: a long side next to a
    tiny angle keeps a moderate term.
    """
    try:
        term = math.sinh(a) * math.sinh(b) * s ** 2
        if term < math.inf:
            return term
    except OverflowError:  # a sinh past the float range
        pass
    factors = []
    for y in (a, b):
        try:
            factors.append(math.sinh(y) * s)
        except OverflowError:
            factors.append(math.exp(y + math.log(-math.expm1(-2.0 * y) / 2.0 * s)))
    return factors[0] * factors[1]


def flip_new_length(s, e: str) -> float:
    """Length of the replacement diagonal, with the embeddability check.

    The edge runs p -> q with apex x left of it and apex y right of it.  The
    diagonal x-y crosses the edge exactly when the quadrilateral's angles at
    p and q are both below pi; its length comes from the law of cosines at p
    in the half-angle form
    sinh^2(c/2) = sinh^2((a-b)/2) + sinh a sinh b sin^2(gamma_p/2),
    which stays accurate for short diagonals (`_cross_term` keeps the last
    term where sinh a sinh b alone overflows); a diagonal whose sinh^2(c/2)
    leaves the float range is refused as NumericalCollapse.  s is a
    ConeSurface or a FlipState.
    """
    hf, hb = s.halves[s.edge_index[e]]
    if hf // 3 == hb // 3:
        raise UnflippableConfiguration(
            f"edge {e!r} bounds the same triangle twice")
    gamma_p = s.angle[hf] + s.angle[nxt(hb)]
    gamma_q = s.angle[hb] + s.angle[nxt(hf)]
    if not (gamma_p < math.pi and gamma_q < math.pi):
        raise UnflippableConfiguration(
            f"diagonal replacing edge {e!r} does not cross it "
            f"(quadrilateral angles {gamma_p} and {gamma_q} at its ends)")
    a = s.length[s.he_edge[prv(hf)]]
    b = s.length[s.he_edge[nxt(hb)]]
    try:
        half = math.sinh((a - b) / 2.0) ** 2 + _cross_term(a, b, math.sin(gamma_p / 2.0))
    except OverflowError:  # sinh((a - b)/2), its square or an exp past the float range
        half = math.inf
    if not half < math.inf:
        raise NumericalCollapse(
            f"diagonal replacing edge {e!r} overflows: sinh^2 of half its length "
            "is past the float range")
    return 2.0 * math.asinh(math.sqrt(half))


class FlipState:
    """Mutable triangulation of a fixed metric, changed one flip at a time.

    It holds mutable copies of a surface's side arrays `he_edge`/`he_dir`,
    its (forward, backward) pairs `halves` and its `length` and `angle`
    arrays, under the same names, so `flip_new_length` and `edge_invariant`
    read either object the same way.  Twins, vertex orbits and fans are not
    kept; `surface()` builds and checks them.
    """

    def __init__(self, s: ConeSurface):
        self.edge_ids, self.edge_index = s.edge_ids, s.edge_index
        self.he_edge, self.he_dir = s.he_edge.tolist(), s.he_dir.tolist()
        self.halves = s.halves.tolist()
        self.length, self.angle = s.length.tolist(), s.angle.tolist()

    def flip(self, e: str) -> FlipMove:
        """Replace e by the cross diagonal of its quadrilateral, in place.

        The two rewired triangles keep their slots: the one that held the
        forward half-edge gets sides [e forward, old prv(backward), old
        nxt(forward)], the other [e backward, old prv(forward), old
        nxt(backward)].  Each rewired triangle's sides are checked as
        `corner_angle` checks them; its six corners take their sums on
        floats and their angles from one `half_angle` call.
        """
        new_len = flip_new_length(self, e)
        i = self.edge_index[e]
        hf, hb = self.halves[i]
        move = FlipMove(edge=e, tri_plus=hf // 3, tri_minus=hb // 3,
                        pre_length=self.length[i], post_length=new_len,
                        pre_psi0=edge_invariant(self, e))
        old = [(self.he_edge[h], self.he_dir[h]) for h in (prv(hb), nxt(hf), prv(hf), nxt(hb))]
        self.length[i] = new_len
        slots = self.slots(move)
        for h, (f, d) in zip(slots, [(i, 0), *old[:2], (i, 1), *old[2:]]):
            self.he_edge[h], self.he_dir[h] = f, d
            self.halves[f][d] = h
        sides = [[self.length[self.he_edge[h]] for h in slots[:3]],
                 [self.length[self.he_edge[h]] for h in slots[3:]]]
        for l0, l1, l2 in sides:  # corner_angle's checks of corner 0 cover all three
            check_corner(l0, l2, l1)
        # copied contiguous: the kernel takes a strided view more slowly
        q = np.array([corner_sums(*triangle) for triangle in sides]).swapaxes(0, 1).copy()
        for h, angle in zip(slots, half_angle(q, sides).ravel().tolist()):
            self.angle[h] = angle
        return move

    @staticmethod
    def slots(move: FlipMove) -> tuple:
        """Half-edges of the two triangles a flip rewired."""
        return tuple(3 * t + k for t in (move.tri_plus, move.tri_minus) for k in range(3))

    def surface(self) -> ConeSurface:
        """The current triangulation as a fully checked surface, built from
        the state's side arrays and lengths alone, like any other."""
        gluing = Triangulation(self.edge_ids, self.he_edge, self.he_dir)
        return ConeSurface(self.length, gluing)


def flip(s: ConeSurface, e: str):
    """Replace e by the cross diagonal of its quadrilateral.

    Returns (new surface, FlipMove); the slot layout is `FlipState.flip`'s.
    """
    state = FlipState(s)
    move = state.flip(e)
    return state.surface(), move


def make_delaunay(s: ConeSurface, tol: float = PSI_TOL):
    """Flip the most negative edge (ties by id) until all psi0 >= -tol.

    The worst edge comes from a heap of (psi0, edge index) with lazy
    invalidation: an entry counts only while its psi0 is the edge's current
    one.  Edge indices follow the sorted ids, so ties go to the smallest id.
    After a flip only the edges of the rewired quadrilateral are re-keyed.
    At most MAX_FLIPS flips are made.  A tol that is not a finite number
    >= 0 is refused with ValueError.  Returns (final surface, list of
    FlipMove); the final surface is built once, after the last flip, and is
    `s` itself when no edge needed a flip.
    """
    # NaN fails every comparison, so it is refused with the infinities
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, not {tol!r}")
    state = FlipState(s)
    psi = list(edge_invariants(s).values())
    heap = [(val, i) for i, val in enumerate(psi) if val < -tol]
    heapq.heapify(heap)
    moves = []
    while heap:
        val, i = heapq.heappop(heap)
        if val != psi[i]:
            continue
        if len(moves) == MAX_FLIPS:
            raise NonTermination(
                f"still not Delaunay after {MAX_FLIPS} flips; last edge {moves[-1].edge!r}")
        move = state.flip(s.edge_ids[i])
        moves.append(move)
        for f in {state.he_edge[h] for h in state.slots(move)}:
            psi[f] = edge_invariant(state, s.edge_ids[f])
            if psi[f] < -tol:
                heapq.heappush(heap, (psi[f], f))
    return (state.surface() if moves else s), moves


def flip_length_jacobian(s: ConeSurface, e: str) -> np.ndarray:
    """Row of d(new length)/d(a_k) by central differences.

    This is the only nontrivial row of the Jacobian of the flip coordinate
    change; all other coordinates are carried through unchanged.  The new
    length reads only the lengths of e and its quadrilateral's sides, so the
    other entries are exactly zero.  The step is JACOBIAN_STEP relative to
    max(1, length).
    """
    row = np.zeros(s.n_edges)
    hf, hb = s.halves[s.edge_index[e]]
    # a set: on a one-vertex torus a side can occur twice in the quadrilateral
    quad = set(s.he_edge[[hf, nxt(hf), prv(hf), hb, nxt(hb), prv(hb)]].tolist())
    for i in quad:
        a = float(s.length[i])
        h = JACOBIAN_STEP * max(1.0, a)
        up, dn = s.length.copy(), s.length.copy()
        up[i], dn[i] = a + h, a - h
        row[i] = (flip_new_length(s.with_length_vector(up), e)
                  - flip_new_length(s.with_length_vector(dn), e)) / (2.0 * h)
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
