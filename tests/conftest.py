import math
import os
import random

import numpy as np
import pytest

from hypcone import ConeSurface
from hypcone.poisson import FanPairs, JacobiTerms
from hypcone.surface import prv
from hypcone.sl2 import E_VEC, F_VEC, H_VEC


# The rank oracle counts singular values above RANK_TOL times the largest.
RANK_TOL = 1e-8


def jacobi_table(s, p=None):
    """The Jacobi table of s and p, by default the bivector of s.  Any other
    p must be exactly antisymmetric; it enters, as in `jacobi_residual`,
    through its nonzero cells, found by a dense scan."""
    pairs = FanPairs(s)
    if p is None:
        return JacobiTerms(pairs, pairs.matrix())
    assert np.array_equal(p, -p.T), "p is not antisymmetric"
    rows, cols = np.nonzero(p)
    pairs.cells = rows, cols, p[rows, cols]
    return JacobiTerms(pairs, p)


def svd_rank(p):
    """The rank of p by a full SVD, cutting below RANK_TOL times the largest
    singular value: the oracle for `bivector_rank`'s certificate."""
    sv = np.linalg.svd(p, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def killing_constant(samples: int = 64, seed: int = 7) -> float:
    """Empirical constant c with Killing(X,Y) = c * B(X,Y).

    The Killing form is computed directly from the adjoint representation on
    the basis (H, E, F); the ratio is constant and |c| = 4.  The sign that
    comes out of the computation is +4.
    """
    basis = [v.mat for v in (H_VEC, E_VEC, F_VEC)]

    def ad(xm):
        cols = []
        for bm in basis:
            comm = xm @ bm - bm @ xm
            cols.append([comm[0, 0], comm[0, 1], comm[1, 0]])
        return np.array(cols).T

    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        cx = rng.normal(size=3)
        cy = rng.normal(size=3)
        xm = cx[0] * basis[0] + cx[1] * basis[1] + cx[2] * basis[2]
        ym = cy[0] * basis[0] + cy[1] * basis[1] + cy[2] * basis[2]
        b = np.trace(xm @ ym)
        if abs(b) < 1e-3:
            continue
        ratios.append(float(np.trace(ad(xm) @ ad(ym)) / b))
    return float(np.mean(ratios))


def torus_surface(a=1.2, b=None, c=None):
    """One-vertex torus: two triangles glued along all three edges."""
    b = a if b is None else b
    c = a if c is None else c
    return ConeSurface(
        {"x": a, "y": b, "z": c},
        [
            [("x", "+"), ("y", "+"), ("z", "+")],
            [("x", "-"), ("y", "-"), ("z", "-")],
        ],
    )


def sphere3_surface(a=1.0, b=1.2, c=1.4):
    """Three-cone sphere: a triangle doubled across its boundary."""
    return ConeSurface(
        {"p": a, "q": b, "r": c},
        [
            [("p", "+"), ("q", "+"), ("r", "+")],
            [("r", "-"), ("q", "-"), ("p", "-")],
        ],
    )


def tetra_surface(lengths=None):
    """Boundary of a tetrahedron, four vertices."""
    if lengths is None:
        lengths = {k: 1.3 for k in ("ab", "ac", "ad", "bc", "bd", "cd")}
    return ConeSurface(
        lengths,
        [
            [("ab", "+"), ("bc", "+"), ("ac", "-")],
            [("ac", "+"), ("cd", "+"), ("ad", "-")],
            [("ad", "+"), ("bd", "-"), ("ab", "-")],
            [("bd", "+"), ("cd", "-"), ("bc", "-")],
        ],
    )


def genus1_two_cone_surface(h=1.6, w=1.6, s0=1.0, s1=1.0, s2=1.0, s3=1.0):
    """Genus-1 surface with two cone points, four triangles."""
    return ConeSurface(
        {"h": h, "w": w, "s0": s0, "s1": s1, "s2": s2, "s3": s3},
        [
            [("h", "+"), ("s1", "-"), ("s0", "+")],
            [("w", "+"), ("s2", "-"), ("s1", "+")],
            [("h", "-"), ("s3", "-"), ("s2", "+")],
            [("w", "-"), ("s0", "-"), ("s3", "+")],
        ],
    )


def stellar_surface(k, seed, base=1.3, jitter=0.05, start="tet"):
    """A start surface after k seeded stellar subdivisions.

    `start` is "tet" (tetrahedron boundary, genus 0, E = 6 + 3k) or "tor"
    (one-vertex torus, genus 1, E = 3 + 3k).  Each step puts a new vertex in
    a uniformly chosen triangle and joins it to the three corners; every edge
    then gets length base * (1 + u) with u uniform in [-jitter, jitter].
    """
    rng = random.Random(seed)
    first = {"tet": tetra_surface, "tor": torus_surface}[start]()
    sides = [list(t) for t in first.triangles]
    edges = list(first.edge_ids)
    for _ in range(k):
        t = int(rng.random() * len(sides))
        s0, s1, s2 = sides[t]
        ea, eb, ec = (f"e{len(edges) + i}" for i in range(3))
        edges += [ea, eb, ec]  # from each corner to the new vertex
        sides[t] = [s0, (eb, "+"), (ea, "-")]
        sides += [[s1, (ec, "+"), (eb, "-")], [s2, (ea, "+"), (ec, "-")]]
    lengths = {e: base * (1.0 + jitter * (2.0 * rng.random() - 1.0)) for e in edges}
    return ConeSurface(lengths, sides)


def stretch(s, seed, fraction=0.03, factor=1.8):
    """Copy of s with a seeded `fraction` of its edges lengthened by `factor`.

    No two stretched edges lie on one triangle.  On stellar_surface lengths
    (at most 1.365) a factor of 1.8 keeps every strict triangle inequality,
    since 1.8 * 1.365 < 2 * 1.235, and leaves the metric non-Delaunay.
    """
    rng = random.Random(seed)
    ids = list(s.edge_ids)
    rng.shuffle(ids)
    triangles_of = {}
    for t, sides in enumerate(s.triangles):
        for e, _ in sides:
            triangles_of.setdefault(e, set()).add(t)
    chosen, used = [], set()
    for e in ids:
        if len(chosen) == max(1, round(fraction * len(ids))):
            break
        if not triangles_of[e] & used:
            chosen.append(e)
            used |= triangles_of[e]
    return s.with_lengths({e: factor * s.lengths[e] for e in chosen})


def scanned_halfedges(s, e):
    """(forward, backward) half-edges of e found by scanning every half-edge."""
    hs = [h for h in range(s.n_half) if s.he_edge[h] == s.edge_index[e]]
    assert len(hs) == 2
    return tuple(sorted(hs, key=lambda h: s.he_dir[h] != 0))


def halfedges(s, e):
    """The stored (forward, backward) half-edges of edge id e, as ints."""
    return tuple(s.halves[s.edge_index[e]].tolist())


def side_length(s, h):
    """Length of the edge half-edge h runs along."""
    return float(s.length[s.he_edge[h]])


def bits(values):
    """The float64 bit patterns of values, for comparisons bit for bit."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def blas_env(coretype):
    """The environment of a subprocess whose OpenBLAS loads the kernel
    `coretype` (a name such as "Haswell"), or this one's for None."""
    if coretype is None:
        return None
    return {**os.environ, "OPENBLAS_CORETYPE": coretype}


def vertex_germs(s):
    """The half-edges leaving each vertex of s, counterclockwise from its
    least, walked one germ at a time by g -> twin(prv(g)): the reference
    for `s.fan_order` and `s.fan_size`.  Vertices come in order of their
    least half-edge, as in `s.vertex_of`."""
    germs, seen = [], set()
    for h in range(s.n_half):
        orbit, g = [], h
        while g not in seen:
            seen.add(g)
            orbit.append(g)
            g = int(s.twin[prv(g)])
        if orbit:
            germs.append(orbit)
    return germs


def count_constructions(monkeypatch, cls):
    """A list that collects every instance of cls constructed from now on."""
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def equilateral_torus_angle(a):
    """Cone angle of the equilateral one-vertex torus with edge length a."""
    return 6.0 * math.acos(math.cosh(a) / (math.cosh(a) + 1.0))


@pytest.fixture
def torus():
    return torus_surface()


@pytest.fixture
def skew_torus():
    return torus_surface(1.0, 1.3, 1.7)


@pytest.fixture
def sphere3():
    return sphere3_surface()


@pytest.fixture
def tetra():
    return tetra_surface()


@pytest.fixture
def skew_tetra():
    return tetra_surface(
        {"ab": 1.1, "ac": 1.3, "ad": 1.2, "bc": 1.25, "bd": 1.35, "cd": 1.15}
    )


@pytest.fixture
def g1n2():
    return genus1_two_cone_surface()


@pytest.fixture
def skew_g1n2():
    return genus1_two_cone_surface(h=1.55, w=1.7, s0=0.95, s1=1.05, s2=1.0, s3=1.1)


@pytest.fixture
def corpus(torus, skew_torus, sphere3, tetra, skew_tetra, g1n2, skew_g1n2):
    return [torus, skew_torus, sphere3, tetra, skew_tetra, g1n2, skew_g1n2]
