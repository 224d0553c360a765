import math
import time

import numpy as np
import pytest

from conftest import genus1_two_cone_surface, stellar_surface, torus_surface

from hypcone import (
    angle_gradients,
    bivector_rank,
    eta_matrix,
    jacobi_residual,
    radical_residuals,
    wall_margins,
)
from hypcone.errors import DimensionMismatch, WallAngle
from hypcone.poisson import EtaDerivative, comparison_note


def fd_eta_derivatives(s, step):
    """Central finite differences of eta_matrix in every length coordinate."""
    def at(e, a):
        return eta_matrix(s.with_lengths({e: a}))

    return np.array([(at(e, s.lengths[e] + step) - at(e, s.lengths[e] - step))
                     / (2.0 * step) for e in s.edge_ids])


def dense_eta_derivative(s):
    """D[l, j, k] = d eta(da_j, da_k) / da_l assembled from EtaDerivative."""
    der = EtaDerivative(s)
    d = np.zeros((s.n_edges,) * 3)
    for v in range(s.n_vertices):
        germ_edges = der.sides[der.corners(v), 0]
        for k in der.es[v]:
            np.add.at(d, (der.ls[v][:, None], germ_edges, k), der.column(v, k))
    return d


def dense_jacobi(p, d):
    """The Jacobi residual of P with derivative tensor D, by one E^4 contraction."""
    t1 = np.einsum("il,ljk->ijk", p, d)
    jac = t1 + t1.transpose(1, 2, 0) + t1.transpose(2, 0, 1)
    return float(np.max(np.abs(jac))) / (float(np.max(np.abs(p))) * float(np.max(np.abs(d))))


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
        assert bivector_rank(p) == want
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
        assert bivector_rank(p) == 2


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
        res = radical_residuals(p, grads)
        assert np.all(res < 1e-8)
        # the radical has dimension n here, so gradients + rank fill the space
        assert bivector_rank(p) + s.n_vertices == s.n_edges
        assert np.linalg.matrix_rank(grads, tol=1e-10) == s.n_vertices


def test_radical_residuals_rejects_bad_shape(torus):
    with pytest.raises(DimensionMismatch):
        radical_residuals(eta_matrix(torus), np.zeros((1, 5)))


def test_jacobi_identity(torus, sphere3, skew_tetra, skew_g1n2):
    for s in (torus, sphere3, skew_tetra, skew_g1n2):
        assert jacobi_residual(s) < 1e-12


def test_eta_derivative_matches_finite_differences(corpus):
    # the chain-rule derivative against central differences of eta_matrix
    for s in corpus:
        fd = fd_eta_derivatives(s, 1e-5 * max(s.lengths.values()))
        d = dense_eta_derivative(s)
        assert np.max(np.abs(d - fd)) <= 1e-6 * np.max(np.abs(fd)) + 1e-12
        assert np.all(d == -d.transpose(0, 2, 1))


def test_jacobi_slices_match_dense_contraction(skew_torus, tetra, skew_tetra, g1n2,
                                               skew_g1n2):
    # the slice-by-slice evaluation, restricted to nearby edges, against the
    # full E^3 tensor; a dense perturbation makes every slice global
    rng = np.random.default_rng(42)
    for s in (skew_torus, tetra, skew_tetra, g1n2, skew_g1n2):
        p, d = eta_matrix(s), dense_eta_derivative(s)
        assert jacobi_residual(s) < 1e-12 and dense_jacobi(p, d) < 1e-12
        q = rng.uniform(-1.0, 1.0, size=p.shape)
        q = 0.1 * (q - q.T)
        assert jacobi_residual(s, perturbation=q) == pytest.approx(
            dense_jacobi(p + q, d), rel=1e-9)


def test_jacobi_near_wall():
    # the second cone angle of the two-cone genus-1 family reaches 2*pi as h
    # falls to ~1.41759.  The certificate keeps rounding-level accuracy down
    # to a margin of ~3e-5, and it evaluates no perturbed surface that could
    # step inside the 1e-6 guard
    hstar = 1.4175908249541211
    for dh, margin in ((5e-2, 7e-2), (5e-3, 7e-3), (5e-4, 7e-4), (1e-4, 1.4e-4),
                       (2e-5, 2.8e-5)):
        s = genus1_two_cone_surface(h=hstar - dh)
        assert wall_margins(s)[1] == pytest.approx(margin, rel=0.02)
        assert jacobi_residual(s) < 1e-12


def test_jacobi_at_300_edges():
    s = stellar_surface(98, seed=1)
    assert s.n_edges == 300
    t0 = time.perf_counter()
    res = jacobi_residual(s)
    assert res < 1e-12
    assert time.perf_counter() - t0 < 3.0


def test_jacobi_detects_fake_bivector(skew_torus, skew_tetra, skew_g1n2):
    rng = np.random.default_rng(41)
    for s in (skew_torus, skew_tetra, skew_g1n2):
        n = s.n_edges
        q = rng.uniform(-1.0, 1.0, size=(n, n))
        q = q - q.T
        q *= 0.1 / np.max(np.abs(q))
        assert jacobi_residual(s) < 1e-5
        assert jacobi_residual(s, perturbation=q) > 1e-2


def test_wall_guard(torus):
    near_wall = torus_surface(1e-3)
    assert wall_margins(near_wall)[0] < 1e-6
    with pytest.raises(WallAngle) as err:
        eta_matrix(near_wall)
    assert "vertex 0" in str(err.value)
    # margins of a healthy surface are what the formula says
    m = wall_margins(torus)
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
