import math

import numpy as np
import pytest

from conftest import torus_surface

from hypcone import (
    angle_gradients,
    bivector_rank,
    eta_matrix,
    jacobi_residual,
    radical_residuals,
    wall_margins,
)
from hypcone.errors import DimensionMismatch, WallAngle
from hypcone.poisson import comparison_note


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
        assert jacobi_residual(s) < 1e-5


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
