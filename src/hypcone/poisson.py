"""The explicit Poisson bivector in edge-length coordinates.

For edges i, j the coefficient eta(da_i, da_j) is a sum over vertices and
over ordered pairs of distinct outgoing germs (one germ of each edge at that
vertex) of sin(theta/2 - d)/sin(theta/2), where theta is the cone angle and d
is the clockwise angle from the first germ to the second.  Swapping the germs
replaces d by theta - d and negates the coefficient, so the matrix built from
the raw ordered sum is antisymmetric bit for bit.

Certified structure: the cone-angle gradients span the radical (P grad theta
= 0), the rank is the dimension 6g - 6 + 2n of the leaves, and the Jacobi
identity holds, checked by finite differences.  The coefficients blow up like
1/sin(theta/2) as a cone angle approaches a multiple of 2*pi; evaluation is
refused inside a small guard band around those walls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, WallAngle
from .surface import ConeSurface, corner_angle_gradient

# Refuse the bivector when some |sin(theta_h/2)| falls below this.
WALL_GUARD = 1e-6


def wall_margins(s: ConeSurface) -> np.ndarray:
    """|sin(theta_h/2)| per vertex — the denominators of the bivector."""
    return np.array([abs(math.sin(t / 2.0)) for t in s.cone_angle])


def eta_matrix(s: ConeSurface, wall_guard: float = WALL_GUARD) -> np.ndarray:
    """The N x N bivector matrix P[i][j] = eta(da_i, da_j)."""
    margins = wall_margins(s)
    for v, m in enumerate(margins):
        if m < wall_guard:
            raise WallAngle(
                f"vertex {v} has cone angle {s.cone_angle[v]} with "
                f"|sin(theta/2)| = {m} below the {wall_guard} guard")
    n = s.n_edges
    p = np.zeros((n, n))
    for fan in s.fans:
        theta = fan.theta
        half = theta / 2.0
        denom = math.sin(half)
        m = len(fan.germs)
        for a in range(m):
            i = s.edge_index[s.he_edge[fan.germs[a]]]
            for b in range(a + 1, m):
                j = s.edge_index[s.he_edge[fan.germs[b]]]
                d_cw = theta - (fan.prefix[b] - fan.prefix[a])
                c = math.sin(half - d_cw) / denom
                p[i, j] += c
                p[j, i] -= c
    return p


def angle_gradients(s: ConeSurface) -> np.ndarray:
    """Analytic gradients d(theta_h)/d(a_k), one row per vertex."""
    g = np.zeros((s.n_vertices, s.n_edges))
    for v, orbit in enumerate(s.vertex_germs):
        for h in orbit:
            da, db, dc = corner_angle_gradient(
                s.length_of(h), s.length_of(s.prv(h)), s.length_of(s.nxt(h)))
            g[v, s.edge_index[s.he_edge[h]]] += da
            g[v, s.edge_index[s.he_edge[s.prv(h)]]] += db
            g[v, s.edge_index[s.he_edge[s.nxt(h)]]] += dc
    return g


def radical_residuals(p: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Scaled residuals ||P g||_inf / (||P||_inf ||g||_inf + 1) per vertex."""
    if grads.ndim != 2 or grads.shape[1] != p.shape[0]:
        raise DimensionMismatch("gradient rows must match the matrix dimension")
    pnorm = float(np.max(np.abs(p)))
    out = []
    for g in grads:
        out.append(float(np.max(np.abs(p @ g))) /
                   (pnorm * float(np.max(np.abs(g))) + 1.0))
    return np.array(out)


def bivector_rank(p: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Rank by singular values, cutting below rel_tol times the largest."""
    sv = np.linalg.svd(p, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def _eta_derivatives(s: ConeSurface, step: float, wall_guard: float):
    """Central finite differences of eta_matrix in every length coordinate."""
    def at(e, a):
        return eta_matrix(s.with_lengths({e: a}), wall_guard=wall_guard)

    return np.array([(at(e, s.lengths[e] + step) - at(e, s.lengths[e] - step))
                     / (2.0 * step) for e in s.edge_ids])


def jacobi_residual(s: ConeSurface, step_scale: float = 1e-5,
                    perturbation: np.ndarray | None = None,
                    wall_guard: float = WALL_GUARD) -> float:
    """Scaled maximal Jacobi-identity defect over all coordinate triples.

    J[i,j,k] = sum_l (P[i,l] d_l P[j,k] + P[j,l] d_l P[k,i] + P[k,l] d_l P[i,j])
    with central differences of step step_scale * max(a); the result is
    normalized by max|P| * max|dP|.  `perturbation` (a constant antisymmetric
    matrix added to P) exists to demonstrate that the check detects fake
    bivectors; the genuine one passes at the finite-difference floor.
    """
    p0 = eta_matrix(s, wall_guard=wall_guard)
    if perturbation is not None:
        q = np.asarray(perturbation, dtype=float)
        if q.shape != p0.shape:
            raise DimensionMismatch("perturbation shape mismatch")
        p0 = p0 + q
    step = step_scale * max(s.lengths.values())
    deriv = _eta_derivatives(s, step, wall_guard)
    t1 = np.einsum("il,ljk->ijk", p0, deriv)
    jac = t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1)
    scale = float(np.max(np.abs(p0))) * float(np.max(np.abs(deriv))) + 1e-300
    return float(np.max(np.abs(jac))) / scale


def comparison_note():
    """Documented relation to the standard symplectic structure on the
    moduli space; nothing here is computed."""
    return (
        ("comparison.target", "Weil-Petersson Poisson structure"),
        ("comparison.constant", "1/8 up to global sign"),
        ("comparison.status",
         "documented only; the sign convention varies in the literature; "
         "every property certified here is invariant under constant rescaling"),
    )
