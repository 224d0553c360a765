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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTermination, UnflippableConfiguration
from .surface import ConeSurface, fmt17

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


def flip(s: ConeSurface, e: str):
    """Replace e by the cross diagonal of its quadrilateral.

    Returns (new surface, FlipMove).  The two rewired triangles keep their
    slots: the one that held the forward half-edge gets sides
    [e forward, old prv(backward), old nxt(forward)], the other
    [e backward, old prv(forward), old nxt(backward)].
    """
    new_len = flip_new_length(s, e)
    hf, hb = s.halfedges_of_edge(e)

    def rec(h):
        return (s.he_edge[h], s.he_dir[h])

    tris = list(s.triangles)
    tris[s.tri(hf)] = ((e, "+"), rec(s.prv(hb)), rec(s.nxt(hf)))
    tris[s.tri(hb)] = ((e, "-"), rec(s.prv(hf)), rec(s.nxt(hb)))
    lengths = dict(s.lengths)
    lengths[e] = new_len
    move = FlipMove(edge=e, tri_plus=s.tri(hf), tri_minus=s.tri(hb),
                    pre_length=s.lengths[e], post_length=new_len,
                    pre_psi0=edge_invariant(s, e))
    return ConeSurface(lengths, tris), move


def make_delaunay(s: ConeSurface, tol: float = PSI_TOL):
    """Flip the most negative edge (ties by id) until all psi0 >= -tol.

    Returns (final surface, list of FlipMove).
    """
    moves = []
    for _ in range(MAX_FLIPS):
        worst = None
        worst_val = -tol
        for e in s.edge_ids:
            val = edge_invariant(s, e)
            if val < worst_val:
                worst, worst_val = e, val
        if worst is None:
            return s, moves
        s, move = flip(s, worst)
        moves.append(move)
    raise NonTermination(
        f"still not Delaunay after {MAX_FLIPS} flips; last edge {moves[-1].edge!r}")


def flip_length_jacobian(s: ConeSurface, e: str, rel_step: float = 1e-6) -> np.ndarray:
    """Row of d(new length)/d(a_k) by central differences.

    This is the only nontrivial row of the Jacobian of the flip coordinate
    change; all other coordinates are carried through unchanged.
    """
    row = np.zeros(s.n_edges)
    for k, eid in enumerate(s.edge_ids):
        a = s.lengths[eid]
        h = rel_step * max(1.0, a)
        up = flip_new_length(s.with_lengths({eid: a + h}), e)
        dn = flip_new_length(s.with_lengths({eid: a - h}), e)
        row[k] = (up - dn) / (2.0 * h)
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
