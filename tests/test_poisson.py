import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    genus1_two_cone_surface,
    jacobi_table,
    sphere3_surface,
    stellar_surface,
    svd_rank,
    torus_surface,
    vertex_germs,
)

from hypcone import (
    angle_gradients,
    bivector_rank,
    eta_matrix,
    jacobi_residual,
    radical_residuals,
)
from hypcone.errors import DimensionMismatch, WallAngle
import hypcone.poisson as poisson
from hypcone.poisson import (EtaDerivative, FanPairs, certify_gram, comparison_note, forming_cover,
                             rounding_cover)
from hypcone.surface import wall_margin


def fd_eta_derivatives(s, step):
    """Central finite differences of eta_matrix in every length coordinate."""
    def at(e, a):
        return eta_matrix(s.with_lengths({e: a}))

    return np.array([(at(e, s.lengths[e] + step) - at(e, s.lengths[e] - step))
                     / (2.0 * step) for e in s.edge_ids])


def dense_eta_derivative(s):
    """D[l, j, k] = d eta(da_j, da_k) / da_l assembled from EtaDerivative."""
    der = EtaDerivative(FanPairs(s))
    pair, side = der.pair_sides(np.arange(len(der.lo)))
    value = der.derivative(pair, side)
    d = np.zeros((s.n_edges,) * 3)
    l, j, k = der.side_l[side], der.lo[pair], der.hi[pair]
    np.add.at(d, (l, j, k), value)
    np.add.at(d, (l, k, j), -value)
    return d


def dense_jacobi(p, d):
    """The Jacobi residual of P with derivative tensor D, by one E^4 contraction."""
    t1 = np.einsum("il,ljk->ijk", p, d)
    jac = t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1)
    return float(np.max(np.abs(jac))) / (float(np.max(np.abs(p))) * float(np.max(np.abs(d))))


class SliceEtaDerivative:
    """d(eta) per vertex fan, as the slice-by-slice check used it.

    Per vertex v, `ls[v]` are the edges of the triangles around v, `q[v][a]`
    and `dtheta[v]` the gradients of prefix[a] and theta in their lengths,
    `es[v]` the edges with a germ at v, and `c[v]`, `sn[v]` the m x m
    matrices of C (symmetric) and S (antisymmetric) of `FanPairs`.
    """

    def __init__(self, s):
        edges, grads = s.corner_gradients()
        order = np.concatenate(vertex_germs(s))
        self.sides, self.partials = edges[order], grads[order]
        self.size = s.fan_size
        self.first = np.cumsum(self.size) - self.size
        self.ls, self.q, self.dtheta, self.es, self.c, self.sn = [], [], [], [], [], []
        pairs = []
        for v in range(s.n_vertices):
            m, at = self.size[v], self.corners(v)
            # the angle from germ 0 to each germ: fan v's first m running sums
            prefix = s.fan_sums[self.first[v] + v:self.first[v] + v + m]
            ls, where = np.unique(self.sides[at], return_inverse=True)
            g = np.zeros((m, len(ls)))  # corner-angle gradients
            np.add.at(g, (np.repeat(np.arange(m), 3), where.ravel()),
                      self.partials[at].ravel())
            self.ls.append(ls)
            self.q.append(np.cumsum(g, axis=0) - g)
            self.dtheta.append(g.sum(axis=0))
            self.es.append(np.unique(self.sides[at, 0]))
            half = s.cone_angle[v] / 2.0
            denom = math.sin(half)
            a, b = np.triu_indices(m, 1)
            d = prefix[b] - prefix[a]
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
        self.pair_span = [np.arange(f, f + m)
                          for f, m in zip(np.cumsum(count) - count, count)]

    def corners(self, v):
        return slice(self.first[v], self.first[v] + self.size[v])

    def column(self, v, k):
        """(L, m) array of d eta_v(germ a, da_k) / da_l for l in ls[v]."""
        x, y = self.q[v].T, self.dtheta[v][:, None]
        c, sn = self.c[v], self.sn[v]
        return sum(c[:, b] * (x[:, b:b + 1] - x) - y * sn[:, b]
                   for b in np.flatnonzero(self.sides[self.corners(v), 0] == k))

    def contract(self, w, verts):
        """(j, k, value): sum_l w[l] d eta_v / da_l per germ pair of `verts`."""
        gs = np.concatenate([self.corner_span[v] for v in verts])
        ps = np.concatenate([self.pair_span[v] for v in verts])
        z = np.sum(self.partials[gs] * w[self.sides[gs]], axis=1)
        size = self.size[verts]
        start = np.cumsum(size) - size
        run = np.cumsum(z) - z
        x = np.zeros(len(self.sides))
        x[gs] = run - np.repeat(run[start], size)
        y = np.zeros(len(self.size))
        y[verts] = np.add.reduceat(z, start)
        a, b = self.pair_a[ps], self.pair_b[ps]
        value = self.pair_c[ps] * (x[b] - x[a]) - self.pair_sn[ps] * y[self.pair_v[ps]]
        return self.sides[a, 0], self.sides[b, 0], value


def slice_jacobi_residual(s, perturbation=None):
    """The Jacobi residual one edge slice at a time, the reference check.

    J[i] = sum_l P[i,l] D[l] + B - B^T with B = P M and M[l,k] = D[l,k,i],
    restricted to the edges near edge i.
    """
    p = eta_matrix(s)
    if perturbation is not None:
        p = p + perturbation
    der = SliceEtaDerivative(s)
    touching = [[] for _ in range(s.n_edges)]  # vertices v with l in ls[v]
    for v, ls in enumerate(der.ls):
        for l in ls.tolist():
            touching[l].append(v)
    ends = [sorted(set(s.vertex_of[hs].tolist())) for hs in s.halves]
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
        j, k, value = der.contract(p[i], near)
        jac = np.bincount(pos[j] * n + pos[k], weights=value,
                          minlength=n * n).reshape(n, n)
        m = np.zeros((len(rows_l), len(cols_k)))
        for v in ends[i]:
            np.add.at(m, (np.searchsorted(rows_l, der.ls[v])[:, None],
                          np.searchsorted(cols_k, der.sides[der.corners(v), 0])),
                      der.column(v, i))
        d_max = max(d_max, float(np.max(np.abs(m))))
        jac[:, pos[cols_k]] += p[idx[:, None], rows_l] @ m
        j_max = max(j_max, float(np.max(np.abs(jac - jac.T))))
    return j_max / (float(np.max(np.abs(p))) * d_max + 1e-300)


def test_equilateral_torus_frozen_value(torus):
    # all three pairs of loop edges see the same six-germ fan; the ordered
    # sum collapses to 2 (sin 2g - sin g) / sin 3g with g = theta/6
    p = eta_matrix(torus)
    g = torus.cone_angle[0] / 6.0
    want = 2.0 * (math.sin(2 * g) - math.sin(g)) / math.sin(3 * g)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert p[i, j] == pytest.approx(want, abs=1e-12)
        assert p[j, i] == pytest.approx(-want, abs=1e-12)


def test_antisymmetry_is_exact(corpus):
    for s in corpus:
        p = eta_matrix(s)
        assert np.all(p + p.T == 0.0)
        assert np.all(np.diag(p) == 0.0)


def test_ranks(torus, sphere3, tetra, g1n2):
    for s, want in ((torus, 2), (sphere3, 0), (tetra, 2), (g1n2, 4)):
        p = eta_matrix(s)
        assert bivector_rank(p, angle_gradients(s))[0] == want == svd_rank(p)
        assert want == 6 * s.genus - 6 + 2 * s.n_vertices


def test_three_cone_sphere_bivector_vanishes(sphere3):
    # the two triangles of the doubled triangle contribute opposite terms
    assert np.max(np.abs(eta_matrix(sphere3))) < 1e-14


def test_rank_stability_on_random_lengths():
    rng = np.random.default_rng(40)
    for _ in range(20):
        s = torus_surface(*rng.uniform(1.0, 2.0, size=3))
        try:
            p = eta_matrix(s)
        except WallAngle:
            continue
        assert bivector_rank(p, angle_gradients(s))[0] == 2 == svd_rank(p)


def _stellar_inputs():
    """Seeded stellar surfaces of 30 to 600 edges in both families."""
    for edges in (30, 90, 300, 600):
        for start, base in (("tet", 6), ("tor", 3)):
            for seed in (1, 2):
                yield stellar_surface((edges - base) // 3, seed, start=start)


def _least_scaled_eigenvalue(p, grads):
    """lambda_min of K = P^T P + G^T G scaled to unit diagonal, by eigvalsh."""
    k = p.T @ p + grads.T @ grads
    d = 1.0 / np.sqrt(np.diag(k))
    return float(np.linalg.eigvalsh(k * d[:, None] * d)[0])


def test_certified_rank_matches_the_svd_oracle(corpus):
    # the certificate proves rank E - n wherever the SVD count finds it, and
    # its margin is a lower bound on the least eigenvalue of the scaled K
    checked = 0
    for s in itertools.chain(corpus, _stellar_inputs()):
        try:
            p = eta_matrix(s)
        except WallAngle:
            continue
        grads = angle_gradients(s)
        least = _least_scaled_eigenvalue(p, grads)
        rank, margin = bivector_rank(p, grads)
        assert rank == svd_rank(p) == s.n_edges - s.n_vertices == 6 * s.genus - 6 + 2 * s.n_vertices
        # the second factorization lifts the margin to a share of lambda_min
        assert least / 100.0 < margin <= least
        checked += 1
    assert checked >= 20


def test_gradient_gram_is_factored_once(monkeypatch):
    # G G^T is proved definite by one factorization; only K is refined
    orders = []
    factor = poisson._factor
    monkeypatch.setattr(poisson, "_factor",
                        lambda a, *args: orders.append(len(a)) or factor(a, *args))
    s = stellar_surface(18, seed=1)  # 60 edges, 22 vertices
    rank, margin = bivector_rank(eta_matrix(s), angle_gradients(s))
    assert rank == s.n_edges - s.n_vertices and margin > 0.0
    assert orders.count(s.n_vertices) == 1
    assert orders.count(s.n_edges) == 2


def test_three_cone_sphere_certifies_rank_zero(sphere3):
    rank, margin = bivector_rank(eta_matrix(sphere3), angle_gradients(sphere3))
    assert (rank, margin > 0.0) == (0, True)


def test_a_rank_drop_breaks_the_certificate():
    s = stellar_surface(28, 1)  # 90 edges, 32 vertices
    p, grads = eta_matrix(s), angle_gradients(s)
    assert bivector_rank(p, grads)[0] == 58
    # Zeroing one row and its column leaves an antisymmetric matrix of the
    # same rank (the oracle agrees): its new kernel vector e_17 is not
    # annihilated by G, so the certificate still holds.
    zeroed = p.copy()
    zeroed[17, :] = 0.0
    zeroed[:, 17] = 0.0
    assert bivector_rank(zeroed, grads)[0] == svd_rank(zeroed) == 58
    # Projecting out x = P e_17, which G annihilates up to rounding, drops
    # the rank by two, and the certificate fails.
    x = p[:, 17] / np.linalg.norm(p[:, 17])
    keep = np.eye(s.n_edges) - np.outer(x, x)
    projected = keep @ p @ keep
    projected = (projected - projected.T) / 2.0
    assert svd_rank(projected) == 56
    assert bivector_rank(projected, grads) == (None, 0.0)


def _unit_diagonal_matrix(n, lam):
    """(M, lambda): the float matrix I - c J / n whose scaling to unit
    diagonal has least eigenvalue about lam, and that eigenvalue exactly."""
    c = (1.0 - lam) / (1.0 - lam / n)
    diag, off = 1.0 - c / n, -c / n
    m = np.full((n, n), off)
    np.fill_diagonal(m, diag)
    s = 1.0 / np.sqrt(diag)  # the certificate's scale factor, equal for every row
    exact = Fraction(s) ** 2 * (Fraction(diag) + (n - 1) * Fraction(off))
    return m, float(exact)


@pytest.mark.parametrize("ratio, certified", [(1.1, True), (0.9, False)])
def test_certificate_decides_at_the_shift(ratio, certified):
    # a Gram matrix whose least eigenvalue is just above or just below the
    # shift of the first factorization is certified or refused; it is taken
    # as the Gram matrix of a dense n x n X, whose forming term is
    # n gamma_{n+2}
    n = 40
    forming = forming_cover([poisson._nonzeros(np.full((n, n), n ** -0.5))], n)
    assert forming == pytest.approx(n * poisson._gamma(n + 2), rel=1e-12)
    shift = rounding_cover(n, forming, float(n), 1.0, 0.0) * (1.0 + 2.0 ** -10)
    m, lam = _unit_diagonal_matrix(n, ratio * shift)
    assert lam == pytest.approx(ratio * shift, rel=1e-3)
    margin = certify_gram(m, forming)
    if certified:
        assert 0.0 < margin <= lam
    else:
        assert margin is None


def test_shift_covers_the_trace_term():
    # E^2 u at 4,800 edges, as documented, plus the forming term it is given
    cover = rounding_cover(4800, 1e-10, 4800.0, 1.0, 0.0)
    assert cover == pytest.approx(4800 * 4800 * 2.0 ** -53 + 1e-10, rel=2e-3)


def _exact_gram(x):
    """X^T X with each entry the correctly rounded exact sum: every product
    split into its float and its exact rounding error (Dekker), the lot
    summed by math.fsum."""
    def halves(v):
        t = 134217729.0 * v  # 2^27 + 1
        high = t - (t - v)
        return high, v - high

    hi, lo = halves(x)
    out = np.empty((x.shape[1],) * 2)
    for i in range(x.shape[1]):
        prod = x[:, i, None] * x
        err = (((hi[:, i, None] * hi - prod) + hi[:, i, None] * lo + lo[:, i, None] * hi)
               + lo[:, i, None] * lo)
        terms = np.concatenate((prod, err)).T.tolist()
        out[i] = [math.fsum(row) for row in terms]
    return out


def test_forming_cover_bounds_the_true_forming_error():
    # the sparse forming term bounds the largest row sum of the scaled error
    # |fl(X^T X) - X^T X|, for K (X = [P; G]) formed both ways and for
    # G G^T (X = G^T); it is far below the dense count E gamma_{E+n+2}
    s = stellar_surface(48, 1)  # 150 edges, 52 vertices
    p, grads = eta_matrix(s), angle_gradients(s)
    n_e = s.n_edges
    parts = [poisson._nonzeros(p), poisson._nonzeros(grads)]
    rows, cols, vals = parts[1]
    accumulated = np.zeros((n_e, n_e))
    for part in parts:
        poisson._add_gram(accumulated, *part)
    x = np.vstack((p, grads))
    cases = [(x, x.T @ x, parts), (x, accumulated, parts),
             (grads.T, grads @ grads.T, [(cols, rows, vals)])]
    for factor, formed, blocks in cases:
        exact = _exact_gram(factor)
        error = np.abs(formed - exact)
        assert error.max() > 0.0
        scale = 1.0 / np.sqrt(np.diag(formed))
        worst = float(np.max(scale * (error @ scale)))
        cover = forming_cover(blocks, len(formed))
        assert worst <= cover
        assert cover < len(formed) * poisson._gamma(len(factor) + 2) / 10.0


def test_blocked_factor_matches_lapack(monkeypatch):
    # several blocks: the panels below the diagonal blocks and the pivots
    # equal LAPACK's factor, the diagonal blocks keep no factor, and the
    # strict upper triangle is neither read nor written
    monkeypatch.setattr(poisson, "RANK_BLOCK", 16)
    monkeypatch.setattr(poisson, "SUBSTITUTION_LEAF", 4)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 50))
    m = x @ x.T + 50.0 * np.eye(50)
    m = (m + m.T) / 2.0
    a, diag = m.copy(), np.diag(m).copy()
    pivots = poisson._factor(a, diag, 0.5)
    low = np.linalg.cholesky(m - 0.5 * np.eye(50))
    assert poisson._block_size(50) == 13  # blocks start at rows 0, 13, 26 and 39
    block = np.arange(50) // 13
    panels = block[:, None] > block
    assert np.allclose(a[panels], low[panels], rtol=0.0, atol=1e-12)
    assert np.allclose(pivots, np.diag(low), rtol=0.0, atol=1e-12)
    assert np.array_equal(np.tril(a[:13, :13], -1), np.tril(m[:13, :13], -1))
    assert np.array_equal(np.triu(a, 1), np.triu(m, 1))
    spoiled = m.copy()
    spoiled[np.triu_indices(50, 1)] = np.nan
    assert np.array_equal(poisson._factor(spoiled, diag, 0.5), pivots)
    assert np.array_equal(np.tril(spoiled), np.tril(a))
    m[49, 49] = -1.0  # not positive definite: the last pivot fails
    assert poisson._factor(m.copy(), np.diag(m).copy(), 0.5) is None


@pytest.mark.parametrize("rank_block", [1024, 32], ids=["one-block", "blocked"])
def test_margin_factorization_reads_the_upper_triangle(monkeypatch, rank_block):
    # the margin's factorization reads only the upper triangle of K~, which
    # the first one left untouched: spoiling the lower triangle after the
    # first changes no digit of the margin
    monkeypatch.setattr(poisson, "RANK_BLOCK", rank_block)
    s = stellar_surface(48, 1)  # 150 edges, 52 vertices
    x = np.vstack((eta_matrix(s), angle_gradients(s)))
    k, forming = x.T @ x, forming_cover([poisson._nonzeros(x)], s.n_edges)
    want = certify_gram(k.copy(), forming)
    first_factor, firsts = poisson._first_factor, []

    def spoil_lower(a, forming):
        first = first_factor(a, forming)
        firsts.append(first[3](first[2]))
        a[np.tril_indices(len(a), -1)] = np.nan
        return first

    monkeypatch.setattr(poisson, "_first_factor", spoil_lower)
    assert certify_gram(k.copy(), forming) == want
    assert want > firsts[0] > 0.0  # the margin is the second factorization's


def test_blocks_are_equal_and_at_most_rank_block():
    assert poisson.RANK_BLOCK == 1024
    sizes = {n: poisson._block_size(n) for n in (1, 1023, 1024, 1025, 1200, 2048, 2049, 4800)}
    assert sizes == {1: 1, 1023: 1023, 1024: 1024, 1025: 513, 1200: 600,
                     2048: 1024, 2049: 683, 4800: 960}


def test_blocked_certificate_agrees_with_one_block(monkeypatch):
    # K accumulated from the nonzeros in the memory of p and factored in
    # blocks, against the dense product and one LAPACK call
    s = stellar_surface(48, 1)  # 150 edges, 52 vertices
    p, grads = eta_matrix(s), angle_gradients(s)
    kept = p.copy()
    rank, margin = bivector_rank(p, grads)
    assert np.array_equal(p, kept)  # the dense product leaves p as it was
    monkeypatch.setattr(poisson, "DENSE_GRAM_BYTES", 0)
    monkeypatch.setattr(poisson, "RANK_BLOCK", 32)
    monkeypatch.setattr(poisson, "SUBSTITUTION_LEAF", 8)
    blocked_rank, blocked_margin = bivector_rank(p, grads)
    assert (blocked_rank, rank) == (98, 98)
    assert blocked_margin == pytest.approx(margin, rel=1e-8)
    assert not np.array_equal(p, kept)  # p held K


def test_certificate_memory_at_1200_edges():
    # above DENSE_GRAM_BYTES K is built in the memory of p: the certificate's
    # tracemalloc peak stays below one E x E array, where the dense product
    # would add (2E + n) E doubles (27 MB here)
    s = stellar_surface(398, seed=1)
    p, grads = eta_matrix(s), angle_gradients(s)
    assert s.n_edges == 1200
    tracemalloc.start()
    try:
        assert bivector_rank(p, grads)[0] == 798
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1200 * 1200 * 8


def test_angle_gradients_match_finite_differences(skew_tetra):
    s = skew_tetra
    grads = angle_gradients(s)
    step = 1e-6
    for k, e in enumerate(s.edge_ids):
        a = s.lengths[e]
        hi = s.with_lengths({e: a + step}).cone_angle
        lo = s.with_lengths({e: a - step}).cone_angle
        fd = (np.array(hi) - np.array(lo)) / (2 * step)
        assert np.allclose(grads[:, k], fd, atol=1e-7)


def test_gradients_span_radical(corpus):
    for s in corpus:
        p = eta_matrix(s)
        grads = angle_gradients(s)
        res = radical_residuals(jacobi_table(s, p), grads)
        assert np.all(res < 1e-8)
        # the radical has dimension n here, so gradients + rank fill the space
        assert bivector_rank(p, grads)[0] + s.n_vertices == s.n_edges
        assert svd_rank(p) + s.n_vertices == s.n_edges
        assert np.linalg.matrix_rank(grads, tol=1e-10) == s.n_vertices


def test_radical_residuals_match_per_vertex_products(skew_g1n2):
    # the table read against a mat-vec per vertex, on a P that the
    # gradients do not annihilate
    s = skew_g1n2
    rng = np.random.default_rng(44)
    q = rng.uniform(-1.0, 1.0, size=(s.n_edges, s.n_edges))
    p = eta_matrix(s) + (q - q.T)
    grads = angle_gradients(s)
    want = [np.max(np.abs(p @ g)) / (np.max(np.abs(p)) * np.max(np.abs(g)) + 1.0)
            for g in grads]
    assert radical_residuals(jacobi_table(s, p), grads) == pytest.approx(want, rel=1e-12)


def test_radical_residuals_rejects_bad_shape(torus):
    with pytest.raises(DimensionMismatch):
        radical_residuals(jacobi_table(torus), np.zeros((1, 5)))


@pytest.mark.parametrize("start, k", [("tet", 48), ("tor", 49)])
def test_jacobi_table_from_cells_matches_a_dense_scan(start, k):
    # FanPairs sums the cells of P once and lists them as a dense scan of P
    # finds them; the Jacobi table takes its incidences and max|P| from
    # them, and comes out as the one built from a dense scan of the same P,
    # the way an outside p enters
    s = stellar_surface(k, seed=1, start=start)
    assert s.n_edges == 150
    p = eta_matrix(s)
    rows, cols = np.nonzero(p)
    cells = FanPairs(s).cells
    assert np.array_equal(cells[0], rows) and np.array_equal(cells[1], cols)
    assert np.array_equal(cells[2].view(np.int64), p[rows, cols].view(np.int64))
    table, scanned = jacobi_table(s), jacobi_table(s, p)
    # row r reaches fan v when P[r, l] != 0 for a side l of v
    reach = np.zeros((s.n_vertices, s.n_edges), dtype=bool)
    for v, l in zip(table.der.side_v.tolist(), table.der.side_l.tolist()):
        reach[v] |= p[:, l] != 0.0
    v, r = np.nonzero(reach)
    assert np.array_equal(np.repeat(np.arange(s.n_vertices), np.diff(table.fan_first)), v)
    assert np.array_equal(table.r, r)
    assert np.array_equal(table.r, scanned.r)
    assert np.array_equal(table.fan_first, scanned.fan_first)
    for name in ("x", "bound"):
        assert np.array_equal(getattr(table, name).view(np.int64),
                              getattr(scanned, name).view(np.int64)), name
    assert table.p_max == scanned.p_max == np.max(np.abs(p))
    assert table.max_abs() == scanned.max_abs()


@pytest.mark.parametrize("start, k", [("tet", 48), ("tor", 49)])
def test_radical_table_matches_exact_sums(start, k):
    # x at theta of incidence (v, r) is (P G^T)[r, v], summed from the
    # products P[r, l] * (a corner's partial in side l) of fan v's corners.
    # Each product passes at most m + 2 roundings on its way into x (m the
    # fan's size: one for the product, two for the corner's three sides,
    # m - 1 for the running sum over corners); each G[v, l] sums at most 3m
    # partials, and the reference rounds the product P[r, l] G[v, l] and its
    # math.fsum once each.  So |x - fsum| <= gamma_{4m+4} A, A the sum of
    # |P[r, l]| |partial| over the fan's corners (Higham, Accuracy and
    # Stability of Numerical Algorithms, ch. 3).  A is computed with at most
    # 3m + 2 roundings, which gamma_{7m+6} covers too (Higham, Lemma 3.3)
    s = stellar_surface(k, seed=1, start=start)
    assert s.n_edges == 150
    p, grads = eta_matrix(s), angle_gradients(s)
    table = jacobi_table(s, p)
    v = np.repeat(np.arange(s.n_vertices), np.diff(table.fan_first))
    m = table.der.size[v]
    x = table.x[table.xoff + m]
    edges, partials = s.corner_gradients()
    weight = np.zeros_like(grads)  # the sum of |partial| at (v, l)
    np.add.at(weight, (np.repeat(s.vertex_of, 3), edges.ravel()), np.abs(partials).ravel())
    for t in range(len(v)):
        r, w = table.r[t], v[t]
        want = math.fsum((p[r] * grads[w]).tolist())
        scale = math.fsum((np.abs(p[r]) * weight[w]).tolist())
        assert abs(x[t] - want) <= poisson._gamma(7 * int(m[t]) + 6) * scale
    # the dense product, here only as an oracle, has no nonzero off the
    # incidences
    rows, cols = np.nonzero(p @ grads.T)
    incidences = set(zip(table.r.tolist(), v.tolist()))
    assert rows.size and set(zip(rows.tolist(), cols.tolist())) <= incidences
    # P = 0 reaches no fan: every radical row is 0
    zero = radical_residuals(jacobi_table(s, np.zeros_like(p)), grads)
    assert zero.shape == (s.n_vertices,) and not zero.any()


def test_radical_memory_at_1200_edges():
    # the radical is read off the Jacobi table: its tracemalloc peak stays
    # below one n x E array of doubles, the size of the product P G^T
    s = stellar_surface(398, seed=1)
    assert s.n_edges == 1200
    grads, table = angle_gradients(s), jacobi_table(s)
    tracemalloc.start()
    try:
        residuals = radical_residuals(table, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(residuals < 1e-8)
    assert peak < s.n_vertices * s.n_edges * 8


def test_jacobi_identity(torus, sphere3, skew_tetra, skew_g1n2):
    for s in (torus, sphere3, skew_tetra, skew_g1n2):
        assert jacobi_residual(s)[0] < 1e-12


def test_eta_derivative_matches_finite_differences(corpus):
    # the chain-rule derivative against central differences of eta_matrix
    for s in corpus:
        fd = fd_eta_derivatives(s, 1e-5 * max(s.lengths.values()))
        d = dense_eta_derivative(s)
        assert np.max(np.abs(d - fd)) <= 1e-6 * np.max(np.abs(fd)) + 1e-12
        assert np.all(d == -d.transpose(0, 2, 1))


def test_jacobi_slices_match_dense_contraction(skew_torus, tetra, skew_tetra, g1n2,
                                               skew_g1n2):
    # the blocked check against the slice-by-slice reference and the full
    # E^3 tensor, on the corpus and a 150-edge torus with a 61-germ vertex;
    # a dense perturbation makes every triple nonzero
    rng = np.random.default_rng(42)
    tor = stellar_surface(49, seed=1, start="tor")
    assert tor.n_edges == 150 and tor.fan_size.max() >= 50
    for s in (skew_torus, tetra, skew_tetra, g1n2, skew_g1n2, tor):
        p, d = eta_matrix(s), dense_eta_derivative(s)
        assert jacobi_residual(s)[0] < 1e-12 and dense_jacobi(p, d) < 1e-12
        q = rng.uniform(-1.0, 1.0, size=p.shape)
        q = 0.1 * (q - q.T)
        got = jacobi_residual(s, p=p + q)[0]
        assert got == pytest.approx(dense_jacobi(p + q, d), rel=1e-9)
        assert got == pytest.approx(slice_jacobi_residual(s, perturbation=q), rel=1e-9)


def dense_jacobi_at(p, d):
    """The sorted triples with the two largest |J| of the dense contraction,
    as (triple, |J| there, the second largest |J|)."""
    t1 = np.einsum("il,ljk->ijk", p, d)
    jac = np.abs(t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1))
    triples = np.array(list(itertools.combinations(range(len(p)), 3)))
    values = jac[tuple(triples.T)]
    order = np.argsort(-values, kind="stable")
    second = values[order[1]] if len(order) > 1 else 0.0
    return tuple(triples[order[0]].tolist()), values[order[0]], second


def test_jacobi_at_matches_dense_argmax(skew_torus, tetra, skew_tetra, g1n2, skew_g1n2):
    # dense perturbations put the maximum on a triple whose terms are summed,
    # single-entry ones often on a term alone on its triple; both must name
    # the triple of the dense E^3 contraction wherever its maximum is clear
    rng = np.random.default_rng(46)
    tor = stellar_surface(9, seed=1, start="tor")
    cases = []
    for s in (skew_torus, tetra, skew_tetra, g1n2, skew_g1n2, tor,
              stellar_surface(16, seed=2, start="tet")):
        q = rng.uniform(-1.0, 1.0, size=(s.n_edges, s.n_edges))
        cases.append((s, 0.1 * (q - q.T)))
    for _ in range(40):
        q = np.zeros((tor.n_edges, tor.n_edges))
        i, j = rng.choice(tor.n_edges, 2, replace=False)
        q[i, j], q[j, i] = 0.1, -0.1
        cases.append((tor, q))
    checked = 0
    for s, q in cases:
        p, d = eta_matrix(s), dense_eta_derivative(s)
        want, top, second = dense_jacobi_at(p + q, d)
        triple = jacobi_residual(s, p=p + q)[1]
        if top > second * (1.0 + 1e-9):
            assert triple == want
            checked += 1
    assert checked >= 40


def test_jacobi_at_without_terms(skew_torus):
    # eta = 0 on the three-cone sphere, so no triple has a term
    assert jacobi_residual(sphere3_surface()) == (0.0, None)
    p = eta_matrix(skew_torus)
    assert jacobi_residual(skew_torus, p=p - p) == (0.0, None)
    residual, triple = jacobi_residual(skew_torus)
    assert triple == (0, 1, 2) and 0.0 < residual < 1e-12


def test_jacobi_single_entry_perturbations():
    # a perturbation of one entry moves few triples, so the maximum often
    # sits on a triple whose germ pairs share their two edges (the loops and
    # double edges of the stellar torus), where pairs must be summed
    s = stellar_surface(9, seed=1, start="tor")
    p, d = eta_matrix(s), dense_eta_derivative(s)
    rng = np.random.default_rng(45)
    for _ in range(40):
        q = np.zeros_like(p)
        i, j = rng.choice(s.n_edges, 2, replace=False)
        q[i, j], q[j, i] = 0.1, -0.1
        assert jacobi_residual(s, p=p + q)[0] == pytest.approx(
            dense_jacobi(p + q, d), rel=1e-9)


def test_jacobi_blocks_match_slices_at_300_edges():
    s = stellar_surface(98, seed=1)
    assert s.n_edges == 300
    rng = np.random.default_rng(43)
    q = rng.uniform(-1.0, 1.0, size=(300, 300))
    q = 0.1 * (q - q.T)
    assert jacobi_residual(s, p=eta_matrix(s) + q)[0] == pytest.approx(
        slice_jacobi_residual(s, perturbation=q), rel=1e-9)


def test_jacobi_reuses_given_bivector(skew_g1n2):
    p = eta_matrix(skew_g1n2)
    assert jacobi_residual(skew_g1n2, p=p) == jacobi_residual(skew_g1n2)
    with pytest.raises(DimensionMismatch):
        jacobi_residual(skew_g1n2, p=p[:-1, :-1])


def test_jacobi_refuses_a_bivector_that_is_not_antisymmetric(skew_torus):
    # the rows reaching a fan are read off a column of P, so a symmetric part
    # would give a wrong residual without a word: it is refused, naming the
    # first nonzero cell whose mirror is not its negative
    p = eta_matrix(skew_torus)
    u = np.random.default_rng(47).uniform(-1.0, 1.0, size=p.shape)
    with pytest.raises(ValueError, match=r"^p is not antisymmetric: p\[0, 0\] = "):
        jacobi_residual(skew_torus, p=p + 0.1 * (u + u.T))
    one = p.copy()
    one[2, 1] += 1e-3
    with pytest.raises(ValueError) as info:
        jacobi_residual(skew_torus, p=one)
    assert str(info.value) == (f"p is not antisymmetric: p[2, 1] = {float(one[2, 1])!r} "
                               f"is not -p[1, 2] = {float(-one[1, 2])!r}")


def test_jacobi_memory_budget():
    # the blocks bound the transient memory: the tracemalloc peak on a
    # 600-edge torus with a 121-germ vertex stays at or below the 12.2 MB
    # of the slice-by-slice check it replaced
    s = stellar_surface(199, seed=1, start="tor")
    assert s.n_edges == 600
    tracemalloc.start()
    try:
        assert jacobi_residual(s)[0] < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.2e6


@pytest.mark.parametrize("k", [19, 49])
def test_jacobi_digits_do_not_depend_on_the_block_size(monkeypatch, k):
    # each triple's terms are summed once, in term order, however the sweep
    # cuts them into blocks of whole runs: one report from a block per run
    # (k = 19 only, to stay fast), where the pending terms of a slice span
    # the most blocks, from blocks far smaller than a slice, the default
    # ones and one block for all terms
    s = stellar_surface(k, seed=3, start="tor")
    assert s.n_edges == 3 + 3 * k
    results = set()
    for block in (1, 64, 8192, 2 ** 22) if k == 19 else (64, 8192, 2 ** 22):
        monkeypatch.setattr(poisson, "BLOCK_ENTRIES", block)
        results.add(jacobi_residual(s))
    assert len(results) == 1


def test_jacobi_near_wall():
    # the second cone angle of the two-cone genus-1 family reaches 2*pi as h
    # falls to ~1.41759.  The certificate keeps rounding-level accuracy down
    # to a margin of ~3e-5, and it evaluates no perturbed surface that could
    # step inside the 1e-6 guard
    hstar = 1.4175908249541211
    for dh, margin in ((5e-2, 7e-2), (5e-3, 7e-3), (5e-4, 7e-4), (1e-4, 1.4e-4),
                       (2e-5, 2.8e-5)):
        s = genus1_two_cone_surface(h=hstar - dh)
        assert wall_margin(s.cone_angle)[1] == pytest.approx(margin, rel=0.02)
        assert jacobi_residual(s)[0] < 1e-12


@pytest.mark.parametrize("base", [0, 1 << 61], ids=["packed", "argsort"])
def test_sort_helpers_match_numpy_and_in_order_sums(base):
    # keys at or above 2^(62 - bits) leave no room for the positions (an
    # argsort, as on inputs of about 41k edges or more); below, they are
    # packed into the low bits.  The values are multiples of 1/8 far from
    # the float limits, so every sum is exact in any order
    rng = np.random.default_rng(23)
    key = base + rng.integers(0, 8, 60) * 1_000_003
    value = rng.integers(-40, 40, 60) / 8.0
    if base:  # both arrays take the argsort
        assert int(key.min()) >= 1 << (62 - (key.size - 1).bit_length())
        assert base >= 1 << (62 - (5 - 1).bit_length())
    assert np.array_equal(poisson._unique(key.copy()), np.unique(key))
    distinct, where = poisson._unique(key.copy(), inverse=True)
    want, want_where = np.unique(key, return_inverse=True)
    assert np.array_equal(distinct, want) and np.array_equal(where, want_where)
    sums = {}
    for k, v in zip(key.tolist(), value.tolist()):
        sums[k] = sums.get(k, 0.0) + v
    top = max(abs(v) for v in sums.values())
    assert poisson._max_abs_by_key(key.copy(), value) == (
        top, min(k for k, v in sums.items() if abs(v) == top))
    # a tie: the smallest key at the maximum is named
    tie = np.array([base + 9, base + 4, base + 9, base + 7, base + 4])
    assert poisson._max_abs_by_key(tie.copy(), np.array([1.5, -2.0, 0.5, 1.0, 0.0])) == (
        2.0, base + 4)
    # a NaN sum is the worst, at the smallest key whose sum is NaN
    spoiled = np.array([1.5, np.inf, 0.5, np.nan, -np.inf])  # keys 4 and 7 sum to NaN
    with np.errstate(invalid="ignore"):  # as under jacobi_residual
        got = poisson._max_abs_by_key(tie.copy(), spoiled)
    assert math.isnan(got[0]) and got[1] == base + 4
    assert poisson._worse(got, (np.inf, base)) == got
    assert poisson._worse((2.0, base + 7), (2.0, base + 4)) == (2.0, base + 4)
    # both layouts sum the values of a key in the same order
    inexact = rng.standard_normal(60)
    packed = poisson._sum_by_key(key - base, inexact)[1]
    assert np.array_equal(poisson._sum_by_key(key.copy(), inexact)[1], packed)
    # as np.add.reduceat adds a segment: the first value plus the pairwise
    # sum of the rest, not left to right, wherever the values sit
    v = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-3, 4, size=(2000, 3))
    triples = base + np.repeat(np.arange(1, 2001), 3)
    shifted = poisson._sum_by_key(np.append(base, triples), np.append(1.0, v.ravel()))[1]
    sums = poisson._sum_by_key(triples, v.ravel())[1]
    assert sums.tolist() == (v[:, 0] + (v[:, 1] + v[:, 2])).tolist() == shifted[1:].tolist()
    assert sums.tolist() != ((v[:, 0] + v[:, 1]) + v[:, 2]).tolist()


def test_jacobi_at_300_edges():
    s = stellar_surface(98, seed=1)
    assert s.n_edges == 300
    t0 = time.perf_counter()
    res = jacobi_residual(s)[0]
    assert res < 1e-12
    assert time.perf_counter() - t0 < 3.0


def test_jacobi_detects_fake_bivector(skew_torus, skew_tetra, skew_g1n2):
    rng = np.random.default_rng(41)
    for s in (skew_torus, skew_tetra, skew_g1n2):
        n = s.n_edges
        q = rng.uniform(-1.0, 1.0, size=(n, n))
        q = q - q.T
        q *= 0.1 / np.max(np.abs(q))
        assert jacobi_residual(s)[0] < 1e-5
        assert jacobi_residual(s, p=eta_matrix(s) + q)[0] > 1e-2


def _pinned_surfaces():
    """The README torus and seeded stellar surfaces of 150 and 600 edges."""
    yield "readme", torus_surface(1.0, 1.0, 1.9)
    for edges in (150, 600):
        for start, base in (("tet", 6), ("tor", 3)):
            for seed in (1, 2):
                yield f"{start}{edges}-{seed}", stellar_surface((edges - base) // 3, seed,
                                                                start=start)


# (jacobi_residual, its sorted triple, lone terms evaluated) of the genuine
# eta.  The residuals and triples are those of the check that evaluated
# every term; the bound on the lone terms must keep them to the last digit.
# Two surfaces evaluate a few lone terms: on tor150-1 one row's bound is 1.29
# times the largest near sum, on tor600-2 one equals it exactly.
JACOBI_PINS = {
    "readme": (4.915507984677403e-16, (0, 1, 2), 0),
    "tet150-1": (9.12539692566554e-16, (4, 16, 46), 0),
    "tet150-2": (2.927901010457327e-15, (61, 66, 136), 0),
    "tor150-1": (4.246943192872505e-15, (17, 113, 148), 10),
    "tor150-2": (4.8141923729551974e-15, (59, 91, 135), 0),
    "tet600-1": (5.998573561285902e-15, (131, 270, 527), 0),
    "tet600-2": (1.8332040684717765e-14, (226, 467, 590), 0),
    "tor600-1": (1.250093753958434e-15, (15, 85, 249), 0),
    "tor600-2": (8.11201354550339e-16, (110, 152, 364), 63),
}


def _jacobi_counts(s, p):
    """(max |J|, triple, near terms, lone terms evaluated, lone terms
    skipped) of the unscaled check of p on s."""
    terms = jacobi_table(s, p)
    return (*terms.max_abs(), terms.near_terms, terms.lone_evaluated, terms.lone_skipped)


def _no_bounds(monkeypatch):
    """Make every bound on a lone term or a derivative entry infinite, so
    that the check evaluates every one of them."""
    monkeypatch.setattr(poisson.JacobiTerms, "lone_bounds",
                        staticmethod(lambda der, v, *_: np.full(len(v), np.inf)))
    monkeypatch.setattr(EtaDerivative, "side_bounds",
                        lambda self: np.full(len(self.side_l), np.inf))


def test_jacobi_digits_are_pinned():
    for name, s in _pinned_surfaces():
        residual, triple = jacobi_residual(s)
        assert (residual, triple) == JACOBI_PINS[name][:2], name


def test_jacobi_bounds_change_no_digit(monkeypatch, skew_torus, skew_tetra, skew_g1n2):
    # the same (residual, triple) when every lone term and derivative entry
    # is evaluated, for the genuine eta and for the perturbed bivectors of
    # the fake-bivector and single-entry tests
    cases = [(s, None) for _, s in _pinned_surfaces()]
    rng = np.random.default_rng(41)
    for s in (skew_torus, skew_tetra, skew_g1n2):
        n = s.n_edges
        q = rng.uniform(-1.0, 1.0, size=(n, n))
        q = q - q.T
        q *= 0.1 / np.max(np.abs(q))
        cases.append((s, eta_matrix(s) + q))
    s = stellar_surface(9, seed=1, start="tor")
    p = eta_matrix(s)
    rng = np.random.default_rng(45)
    for _ in range(40):
        q = np.zeros_like(p)
        i, j = rng.choice(s.n_edges, 2, replace=False)
        q[i, j], q[j, i] = 0.1, -0.1
        cases.append((s, p + q))
    bounded = [jacobi_residual(s, p=p) for s, p in cases]
    _no_bounds(monkeypatch)
    assert [jacobi_residual(s, p=p) for s, p in cases] == bounded


def test_jacobi_counts_what_it_evaluates(monkeypatch, skew_torus, skew_tetra, skew_g1n2):
    for name, s in _pinned_surfaces():
        *_, near, evaluated, skipped = _jacobi_counts(s, eta_matrix(s))
        assert evaluated == JACOBI_PINS[name][2], name
        # every term with three distinct edges is counted once: a row of P
        # reaching fan v meets each pair of v that does not have it as an edge
        terms = jacobi_table(s)
        der = terms.der
        fan = np.repeat(np.arange(len(der.size)), np.diff(terms.fan_first))
        fan_pairs = np.bincount(der.v, minlength=len(der.size))
        owner, pair = poisson._expand(np.searchsorted(der.v, fan), fan_pairs[fan])
        distinct = (der.lo[pair] != terms.r[owner]) & (der.hi[pair] != terms.r[owner])
        assert near + evaluated + skipped == np.count_nonzero(distinct), name
        assert skipped > 0 or name == "readme", name
    # a fake bivector has its lone terms evaluated where they may reach the
    # maximum: on the small surfaces of the fake-bivector test every term is
    # near and none is skipped, while at 102 edges the near sums are so
    # large that most lone terms are, and skipping changes neither the
    # residual nor its triple
    rng = np.random.default_rng(41)
    for s, small in ((skew_torus, True), (skew_tetra, True), (skew_g1n2, True),
                     (stellar_surface(32, seed=1), False)):
        n = s.n_edges
        q = rng.uniform(-1.0, 1.0, size=(n, n))
        q = q - q.T
        q *= 0.1 / np.max(np.abs(q))
        got = _jacobi_counts(s, eta_matrix(s) + q)
        with monkeypatch.context() as m:
            _no_bounds(m)
            want = _jacobi_counts(s, eta_matrix(s) + q)
        assert got[:3] == want[:3] and want[4] == 0
        assert got[3] + got[4] == want[3]
        assert got[4] == 0 if small else got[4] > 0


def test_wall_guard(torus):
    near_wall = torus_surface(1e-3)
    assert wall_margin(near_wall.cone_angle)[0] < 1e-6
    with pytest.raises(WallAngle) as err:
        eta_matrix(near_wall)
    assert "vertex 0" in str(err.value)
    # margins of a healthy surface are what the formula says
    m = wall_margin(torus.cone_angle)
    assert m[0] == pytest.approx(abs(math.sin(torus.cone_angle[0] / 2)))


def test_relabeling_equivariance(skew_torus):
    # renaming edges permutes rows and columns bit for bit
    renames = {"x": "q", "y": "a", "z": "m"}
    renamed = torus_surface(1.0, 1.3, 1.7)
    renamed = renamed.with_lengths({})  # copy
    relabeled = type(skew_torus)(
        {renames[e]: skew_torus.lengths[e] for e in skew_torus.edge_ids},
        [[(renames[e], d) for e, d in tri] for tri in skew_torus.triangles],
    )
    p = eta_matrix(skew_torus)
    q = eta_matrix(relabeled)
    perm = [relabeled.edge_index[renames[e]] for e in skew_torus.edge_ids]
    assert np.all(q[np.ix_(perm, perm)] == p)


def test_comparison_note_is_static():
    keys = [k for k, _ in comparison_note()]
    assert keys == ["comparison.target", "comparison.constant", "comparison.status"]
