"""The explicit Poisson bivector in edge-length coordinates.

For edges i, j the coefficient eta(da_i, da_j) is a sum over vertices and
over ordered pairs of distinct outgoing germs (one germ of each edge at that
vertex) of sin(theta/2 - d)/sin(theta/2), where theta is the cone angle and d
is the clockwise angle from the first germ to the second.  Swapping the germs
replaces d by theta - d and negates the coefficient, so the matrix built from
the raw ordered sum is antisymmetric bit for bit.

Certified structure: the cone-angle gradients span the radical (P grad theta
= 0), the rank is the dimension 6g - 6 + 2n of the leaves, and the Jacobi
identity holds.  The Jacobi check differentiates P analytically: theta and
the angle between two germs are sums of corner angles, so the chain rule
through the closed-form corner-angle gradient gives each vertex's share of
d(eta) in a factored form (`EtaDerivative`), and the Jacobi sum is
evaluated one edge slice at a time over the edges near that edge.  No
surface is rebuilt and no E^3 array is formed.  The coefficients blow up like
1/sin(theta/2) as a cone angle approaches a multiple of 2*pi; evaluation is
refused inside a small guard band around those walls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, WallAngle
from .surface import ConeSurface

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
    edges, grads = s.corner_gradients()
    g = np.zeros((s.n_vertices, s.n_edges))
    np.add.at(g, (np.repeat(s.vertex_of, 3), edges.ravel()), grads.ravel())
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


class EtaDerivative:
    """d(eta) by the chain rule, in factored form, built from stored angles.

    The germ pair a < b of the fan at a vertex contributes
    c = sin(d - theta/2) / sin(theta/2) to eta, with d = prefix[b] - prefix[a],
    so its derivative is

        C[a, b] (dprefix[b] - dprefix[a]) - S[a, b] dtheta,
        C = cos(d - theta/2) / sin(theta/2),  S = sin(d) / (2 sin^2(theta/2)),

    where dprefix and dtheta are sums of corner-angle gradients.  Extending
    C symmetrically and S antisymmetrically makes the formula hold for every
    ordered pair.  Corners are stored fan by fan: corner a of vertex v is row
    first[v] + a of `sides` (the edges of its triangle, side 0 that of germ
    a) and `partials` (the partials of its angle in their lengths).  Per
    vertex v, `ls[v]` are the edges of the triangles around v, `q[v][a]` and
    `dtheta[v]` the gradients of prefix[a] and theta in their lengths,
    `es[v]` the edges with a germ at v, and `c[v]`, `sn[v]` hold C and S.
    `pair_*` list the pairs a < b of every fan with their C and S.
    """

    def __init__(self, s: ConeSurface):
        edges, grads = s.corner_gradients()
        order = np.concatenate([fan.germs for fan in s.fans])
        self.sides, self.partials = edges[order], grads[order]
        self.size = np.array([len(fan.germs) for fan in s.fans])
        self.first = np.cumsum(self.size) - self.size
        self.ls, self.q, self.dtheta, self.es, self.c, self.sn = [], [], [], [], [], []
        pairs = []
        for v, fan in enumerate(s.fans):
            m, at = self.size[v], self.corners(v)
            ls, where = np.unique(self.sides[at], return_inverse=True)
            g = np.zeros((m, len(ls)))  # corner-angle gradients
            np.add.at(g, (np.repeat(np.arange(m), 3), where.ravel()), self.partials[at].ravel())
            self.ls.append(ls)
            self.q.append(np.cumsum(g, axis=0) - g)
            self.dtheta.append(g.sum(axis=0))
            self.es.append(np.unique(self.sides[at, 0]))
            half = fan.theta / 2.0
            denom = math.sin(half)
            a, b = np.triu_indices(m, 1)
            d = np.array(fan.prefix)[b] - np.array(fan.prefix)[a]
            c = np.zeros((m, m))
            sn = np.zeros((m, m))
            c[a, b] = c[b, a] = np.cos(d - half) / denom
            sn[a, b] = np.sin(d) / (2.0 * denom * denom)
            sn[b, a] = -sn[a, b]
            self.c.append(c)
            self.sn.append(sn)
            pairs.append((self.first[v] + a, self.first[v] + b, np.full(len(a), v),
                          c[a, b], sn[a, b]))
        self.pair_a, self.pair_b, self.pair_v, self.pair_c, self.pair_sn = (
            np.concatenate(x) for x in zip(*pairs))
        self.corner_span = [np.arange(f, f + m) for f, m in zip(self.first, self.size)]
        count = self.size * (self.size - 1) // 2
        self.pair_span = [np.arange(f, f + m) for f, m in zip(np.cumsum(count) - count, count)]

    def corners(self, v: int) -> slice:
        return slice(self.first[v], self.first[v] + self.size[v])

    def column(self, v: int, k: int) -> np.ndarray:
        """(L, m) array of d eta_v(germ a, da_k) / da_l for l in ls[v].

        Summed over the germs of edge k at v (a loop has two); edge k must
        have a germ at v.
        """
        x, y = self.q[v].T, self.dtheta[v][:, None]
        c, sn = self.c[v], self.sn[v]
        return sum(c[:, b] * (x[:, b:b + 1] - x) - y * sn[:, b]
                   for b in np.flatnonzero(self.sides[self.corners(v), 0] == k))

    def contract(self, w: np.ndarray, verts: list) -> tuple:
        """sum_l w[l] d eta_v / da_l over the fans of `verts`, pair by pair.

        Returns (j, k, value): one entry per germ pair a < b of those fans,
        with j, k the edges of germs a and b; entries on the same (j, k)
        add up.  Costs one pass over the fans' corners and pairs.
        """
        gs = np.concatenate([self.corner_span[v] for v in verts])
        ps = np.concatenate([self.pair_span[v] for v in verts])
        z = np.sum(self.partials[gs] * w[self.sides[gs]], axis=1)  # w . dcorner
        size = self.size[verts]
        start = np.cumsum(size) - size
        run = np.cumsum(z) - z
        x = np.zeros(len(self.sides))
        x[gs] = run - np.repeat(run[start], size)  # w . dprefix
        y = np.zeros(len(self.size))
        y[verts] = np.add.reduceat(z, start)  # w . dtheta
        a, b = self.pair_a[ps], self.pair_b[ps]
        value = self.pair_c[ps] * (x[b] - x[a]) - self.pair_sn[ps] * y[self.pair_v[ps]]
        return self.sides[a, 0], self.sides[b, 0], value


def jacobi_residual(s: ConeSurface, perturbation: np.ndarray | None = None,
                    wall_guard: float = WALL_GUARD) -> float:
    """Scaled maximal Jacobi-identity defect over all coordinate triples.

    J[i,j,k] = sum_l (P[i,l] D[l,j,k] + P[j,l] D[l,k,i] + P[k,l] D[l,i,j])
    with D[l] = dP/da_l from `EtaDerivative`; the result is normalized by
    max|P| * max|D|.  J is built one slice i at a time as
    J[i] = sum_l P[i,l] D[l] + B - B^T with B = P M and M[l,k] = D[l,k,i].
    A slice is restricted to the edges where it can be nonzero: the edges at
    the vertices whose fans have a side l with P[i,l] != 0, and the nonzeros
    of the columns of P that M reaches.  For the genuine bivector these lie
    within two hops of edge i.  `perturbation` (a constant antisymmetric
    matrix added to P) exists to demonstrate that the check detects fake
    bivectors; the genuine one passes at rounding level.
    """
    p = eta_matrix(s, wall_guard=wall_guard)
    if perturbation is not None:
        q = np.asarray(perturbation, dtype=float)
        if q.shape != p.shape:
            raise DimensionMismatch("perturbation shape mismatch")
        p = p + q
    der = EtaDerivative(s)
    touching = [[] for _ in range(s.n_edges)]  # vertices v with l in ls[v]
    for v, ls in enumerate(der.ls):
        for l in ls.tolist():
            touching[l].append(v)
    ends = [sorted({s.vertex_of[h] for h in s.halfedges_of_edge(e)}) for e in s.edge_ids]
    in_row = [np.flatnonzero(row) for row in p]
    in_col = [np.flatnonzero(col) for col in p.T]
    pos = np.zeros(s.n_edges, dtype=int)  # slice-local position of an edge
    j_max = d_max = 0.0
    for i in range(s.n_edges):
        near = sorted(set(ends[i]).union(*(touching[l] for l in in_row[i].tolist())))
        rows_l = np.unique(np.concatenate([der.ls[v] for v in ends[i]]))
        cols_k = np.unique(np.concatenate([der.es[v] for v in ends[i]]))
        idx = np.unique(np.concatenate([der.es[v] for v in near] +
                                       [in_col[l] for l in rows_l.tolist()]))
        n = len(idx)
        pos[idx] = np.arange(n)
        j, k, value = der.contract(p[i], near)  # sum_l P[i,l] D[l], one triangle
        jac = np.bincount(pos[j] * n + pos[k], weights=value, minlength=n * n).reshape(n, n)
        # M[l, k] = D[l, k, i] from the one or two ends of edge i, and B = P M
        m = np.zeros((len(rows_l), len(cols_k)))
        for v in ends[i]:
            np.add.at(m, (np.searchsorted(rows_l, der.ls[v])[:, None],
                          np.searchsorted(cols_k, der.sides[der.corners(v), 0])),
                      der.column(v, i))
        d_max = max(d_max, float(np.max(np.abs(m))))
        jac[:, pos[cols_k]] += p[idx[:, None], rows_l] @ m
        j_max = max(j_max, float(np.max(np.abs(jac - jac.T))))
    return j_max / (float(np.max(np.abs(p))) * d_max + 1e-300)


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
