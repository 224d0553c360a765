import math

import numpy as np
import pytest

from conftest import bits, killing_constant
from hypcone import (
    HypPoint,
    Sl2Matrix,
    Sl2Vector,
    axis_vector,
    elliptic_about,
    elliptic_pair_pairing,
    geodesic_pair_pairing,
    hyp_distance,
    hyp_exp,
    hyperbolic_along,
    log_perturbation,
    mixed_pairing,
    normalizing_isometry,
    sl2_exp,
    sl2_log,
    trace_form,
)
from hypcone.errors import (
    CoincidentFixedPoints,
    DegenerateDirection,
    NoBranch,
    NotElliptic,
    NotHyperbolic,
    NotSemisimple,
    NumericalCollapse,
    OutOfRange,
)
from hypcone.selftest import LOG_TOL, log_expansion_residuals
from hypcone.sl2 import (
    DET_TOL,
    E_VEC,
    F_VEC,
    H_VEC,
    TRACE_TOL,
    _canonical,
    _element,
    _hyperbolic_axis,
    _kind,
    _rotation,
    elliptic_fixed_point,
    hyp_direction,
)

I2 = np.eye(2)
IDENTITY = Sl2Matrix.from_entries(1.0, 0.0, 0.0, 1.0)


def center(m: Sl2Matrix) -> HypPoint:
    """The fixed point of elliptic m, as a point of the half-plane."""
    return HypPoint(*elliptic_fixed_point(m.a, m.b, m.c, m.d))


def projectively_close(m: Sl2Matrix, other: Sl2Matrix, tol: float = 1e-9) -> bool:
    """Whether m and other agree entrywise within tol up to the sign of PSL(2,R)."""
    d1 = max(abs(m.a - other.a), abs(m.b - other.b), abs(m.c - other.c), abs(m.d - other.d))
    d2 = max(abs(m.a + other.a), abs(m.b + other.b), abs(m.c + other.c), abs(m.d + other.d))
    return min(d1, d2) <= tol


def axes_relation(pairing: float, tol: float = TRACE_TOL) -> str:
    """Decode geodesic_pair_pairing: 'crossing', 'disjoint' or 'asymptotic'."""
    a = abs(pairing)
    if a < 2.0 - tol:
        return "crossing"
    if a > 2.0 + tol:
        return "disjoint"
    return "asymptotic"


def random_point(rng):
    return HypPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))


# ---------------------------------------------------------------------------
# points and distance
# ---------------------------------------------------------------------------


def test_point_validation():
    with pytest.raises(OutOfRange):
        HypPoint(0.0, 0.0)
    with pytest.raises(OutOfRange):
        HypPoint(0.0, -1.0)
    with pytest.raises(OutOfRange):
        HypPoint(math.inf, 1.0)
    p = HypPoint.from_complex(1 + 2j)
    assert (p.x, p.y) == (1.0, 2.0)
    assert p.z == 1 + 2j


def test_distance_frozen_values():
    # vertical segment: d(i, e^t i) = t
    assert hyp_distance(HypPoint(0, 1), HypPoint(0, math.e)) == pytest.approx(1.0)
    # cosh d = 1 + |p-q|^2 / (2 Im p Im q) gives cosh d = 3/2 here
    assert hyp_distance(HypPoint(0, 1), HypPoint(1, 1)) == pytest.approx(
        math.acosh(1.5), abs=1e-15
    )


@pytest.mark.parametrize("d", [1e-9, 1e-6, 1.0])
def test_distance_keeps_relative_precision(d):
    # on the imaginary axis d(i, iy) = log y exactly; y - 1 is exact for the
    # rounded y, so log1p gives the true distance between the two floats
    y = math.exp(d)
    want = math.log1p(y - 1.0)
    got = hyp_distance(HypPoint(0.0, 1.0), HypPoint(0.0, y))
    assert abs(got - want) <= 1e-12 * want
    assert hyp_distance(HypPoint(0.0, y), HypPoint(0.0, 1.0)) == got


def test_distance_against_endpoint_oracle():
    # independent route: move the geodesic circle to the imaginary axis and
    # read off d = |log(tan(phi_q/2) / tan(phi_p/2))| from the polar angles
    rng = np.random.default_rng(3)
    for _ in range(200):
        p, q = random_point(rng), random_point(rng)
        if abs(p.x - q.x) < 1e-6:
            continue
        c = (abs(q.z) ** 2 - abs(p.z) ** 2) / (2.0 * (q.x - p.x))
        phi_p = math.atan2(p.y, p.x - c)
        phi_q = math.atan2(q.y, q.x - c)
        want = abs(math.log(math.tan(phi_q / 2) / math.tan(phi_p / 2)))
        assert hyp_distance(p, q) == pytest.approx(want, abs=1e-11)


def test_direction_is_tangent_angle():
    assert hyp_direction(HypPoint(0, 1), HypPoint(0, 2)) == pytest.approx(math.pi / 2)
    # tangent at i of the circle through i and 1+i, turned toward 1+i
    assert hyp_direction(HypPoint(0, 1), HypPoint(1, 1)) == pytest.approx(
        math.pi / 2 - math.atan(2)
    )


def test_exp_of_direction_hits_target():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        d = hyp_distance(p, q)
        if d < 1e-3:
            continue
        r = hyp_exp(p, hyp_direction(p, q), d)
        assert abs(r.z - q.z) < 1e-10


# ---------------------------------------------------------------------------
# traceless vectors and the invariant form
# ---------------------------------------------------------------------------


def test_basis_brackets():
    assert np.allclose(H_VEC.bracket(E_VEC).mat, 2 * E_VEC.mat)
    assert np.allclose(H_VEC.bracket(F_VEC).mat, -2 * F_VEC.mat)
    assert np.allclose(E_VEC.bracket(F_VEC).mat, H_VEC.mat)


def test_trace_form_table():
    assert trace_form(H_VEC, H_VEC) == pytest.approx(2.0)
    assert trace_form(E_VEC, F_VEC) == pytest.approx(1.0)
    assert trace_form(E_VEC, E_VEC) == 0.0
    assert trace_form(H_VEC, E_VEC) == 0.0


def test_trace_form_ad_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        x = Sl2Vector([[a[0], a[1]], [a[2], -a[0]]])
        y = Sl2Vector([[b[0], b[1]], [b[2], -b[0]]])
        g = elliptic_about(random_point(rng), float(rng.uniform(0.3, 5.0)))
        got = trace_form(x.conjugate_by(g), y.conjugate_by(g))
        assert got == pytest.approx(trace_form(x, y), abs=1e-10)


def test_killing_multiple_of_trace_form():
    assert abs(killing_constant()) == pytest.approx(4.0, abs=1e-9)


def test_vector_rejects_trace():
    with pytest.raises(ValueError):
        Sl2Vector([[1.0, 0.0], [0.0, 0.5]])
    # a non-finite entry has no trace to check: max(1, nan) is 1, nan > tol
    # is False, and inf - inf is nan
    for bad in ([[math.nan, 0.0], [0.0, 0.0]], [[math.inf, 1.0], [0.0, -math.inf]],
                [[0.0, -math.inf], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            Sl2Vector(bad)


# ---------------------------------------------------------------------------
# matrices: canonical representative, exp, log, classification
# ---------------------------------------------------------------------------


def test_canonical_representative():
    m = Sl2Matrix([[-1.0, 0.0], [0.0, -1.0]])
    assert np.allclose(m.mat, I2)
    g = Sl2Matrix([[2.0, 0.0], [0.0, 0.5]])
    neg = Sl2Matrix(-g.mat)
    assert np.allclose(neg.mat, g.mat)
    assert projectively_close(g, neg)
    scaled = Sl2Matrix(3.0 * np.array([[2.0, 0.0], [0.0, 0.5]]))
    assert np.allclose(scaled.mat, g.mat)


def test_canonical_and_rotation_take_batches():
    # `_canonical` and `_rotation`'s angle on arrays of entries give the
    # float calls' digits: determinants kept within DET_TOL of 1 and
    # rescaled just past it or far from it, both signs of the trace, trace 0
    # with either sign of c, and traces past 2, where acos is clamped at 1
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(400, 4))
    rows = rows[rows[:, 0] * rows[:, 3] - rows[:, 1] * rows[:, 2] > 0.0]
    rows[::3] /= np.sqrt(rows[::3, 0] * rows[::3, 3] - rows[::3, 1] * rows[::3, 2])[:, None]
    rows[1::3] = rows[::3][:len(rows[1::3])] * (1.0 + 1e-11)  # det drifts by 2e-11
    rows = np.vstack([rows, [[0.0, 1.0, -1.0, 0.0], [0.0, -1.0, 1.0, 0.0],
                             [-2.0, 0.0, 0.0, -0.5], [3.0, 1.0, 1.0, 1.0]]])
    canonical = _canonical(*rows.T)
    assert bits(np.array(canonical).T) == bits([_canonical(*row) for row in rows.tolist()])
    assert bits(_rotation(canonical)[1]) == \
        bits([_rotation(_element(tuple(row)))[1] for row in np.array(canonical).T.tolist()])


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        Sl2Matrix([[1.0, 1.0], [1.0, 1.0]])


def test_exp_frozen_cases():
    assert np.allclose(
        sl2_exp(Sl2Vector([[0.5, 0.0], [0.0, -0.5]])).mat,
        [[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]],
    )
    a = math.pi / 4
    assert np.allclose(
        sl2_exp(Sl2Vector([[0.0, a], [-a, 0.0]])).mat,
        [[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]],
    )
    assert np.allclose(sl2_exp(E_VEC).mat, [[1.0, 1.0], [0.0, 1.0]])


def test_exp_matches_power_series():
    rng = np.random.default_rng(6)
    for _ in range(100):
        c = rng.normal(size=3) * 0.7
        x = Sl2Vector([[c[0], c[1]], [c[2], -c[0]]])
        term, total = np.eye(2), np.eye(2)
        for n in range(1, 25):
            term = term @ x.mat / n
            total = total + term
        got = sl2_exp(x).mat
        if total[0, 0] + total[1, 1] < 0:
            total = -total
        assert np.allclose(got, total, atol=1e-12)


def test_exp_tiny_argument():
    x = Sl2Vector([[1e-10, 2e-10], [-3e-10, -1e-10]])
    got = sl2_exp(x).mat
    assert np.allclose(got, I2 + x.mat, atol=1e-18)


def test_classify_kinds():
    assert _kind(IDENTITY) == "identity"
    assert _kind(Sl2Matrix([[1.0, 1.0], [0.0, 1.0]])) == "parabolic"
    hyp = Sl2Matrix([[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]])
    assert _kind(hyp) == "hyperbolic"
    assert _hyperbolic_axis(hyp)[3] == pytest.approx(1.0)
    ell = elliptic_about(HypPoint(0, 1), 0.7)
    assert _kind(ell) == "elliptic"
    assert _rotation(ell)[1] == pytest.approx(0.7)


def test_kind_matches_reference_across_the_trace_bands():
    # traces stepped by ulps across 2 - TRACE_TOL, 2 and 2 + TRACE_TOL, and
    # inside the band between elements near and far from the identity
    edges = (0.5, 2.0 - TRACE_TOL, 2.0 - TRACE_TOL / 2.0, 2.0, 2.0 + TRACE_TOL, 3.0)
    traces = set()
    for edge in edges:
        t = edge
        for _ in range(4):
            t = math.nextafter(t, 0.0)
        for _ in range(9):
            traces.add(t)
            t = math.nextafter(t, 4.0)
    elements = []
    for t in sorted(traces):
        for b in (1.0, 4e-10, TRACE_TOL, 2e-9, 1e-3):
            # det = t^2/4 - b c is 1 within DET_TOL, so the trace stays t
            elements.append(Sl2Matrix.from_entries(t / 2.0, b, (t * t / 4.0 - 1.0) / b, t / 2.0))
        elements.append(Sl2Matrix.from_entries(t / 2.0, 0.0, 0.0, 2.0 / t))
    elements.append(IDENTITY)
    elements.append(Sl2Matrix.from_entries(1.0, -TRACE_TOL, 0.0, 1.0))
    elements.append(Sl2Matrix.from_entries(1.0, 0.0, math.nextafter(TRACE_TOL, 1.0), 1.0))
    kinds = [_kind(m) for m in elements]
    assert kinds == [ref_kind(RefMatrix.twin(m)) for m in elements]
    assert set(kinds) == {"elliptic", "parabolic", "hyperbolic", "identity"}


def test_rotation_angle_unfolds_to_0_2pi():
    # the trace only sees the projective class, so the unsigned angle of a
    # 3*pi/2 rotation is pi/2, while the directed angle keeps 3*pi/2
    m = elliptic_about(HypPoint(0.3, 1.2), 3 * math.pi / 2)
    assert _rotation(m) == pytest.approx((math.pi / 2, 3 * math.pi / 2))


def test_rotation_direction_is_counterclockwise():
    # a quarter turn about i moves 2i to the left half of the unit circle
    r = elliptic_about(HypPoint(0, 1), math.pi / 2)
    img = r.apply(HypPoint(0, 2))
    assert img.x < 0
    assert abs(img.z) == pytest.approx(1.0)
    assert img.z == pytest.approx(-0.6 + 0.8j)


def test_log_frozen_cases():
    a = math.pi / 4
    rot = Sl2Matrix([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    assert np.allclose(sl2_log(rot).mat, [[0.0, a], [-a, 0.0]], atol=1e-14)
    m = Sl2Matrix([[math.e, 0.0], [0.0, 1.0 / math.e]])
    assert np.allclose(sl2_log(m).mat, H_VEC.mat, atol=1e-14)
    par = Sl2Matrix([[1.0, 2.5], [0.0, 1.0]])
    assert np.allclose(sl2_log(par).mat, [[0.0, 2.5], [0.0, 0.0]])
    with pytest.raises(NoBranch):
        sl2_log(IDENTITY)


def test_log_exp_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = rng.normal(size=3)
        x = Sl2Vector([[c[0], c[1]], [c[2], -c[0]]])
        m = sl2_exp(x)
        back = sl2_exp(sl2_log(m))
        assert projectively_close(m, back, tol=1e-10)


def test_log_elliptic_branch_counterclockwise():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = random_point(rng)
        nu = float(rng.uniform(0.05, 2 * math.pi - 0.05))
        x = sl2_log(elliptic_about(p, nu))
        # the branch keeps the full directed angle, not its fold into (0, pi]
        assert 2.0 * math.sqrt(x.det()) == pytest.approx(nu, abs=1e-9)
        assert projectively_close(sl2_exp(x), elliptic_about(p, nu), tol=1e-9)


def test_axis_vector_normalization():
    m = Sl2Matrix([[math.exp(0.7), 0.0], [0.0, math.exp(-0.7)]])
    v = axis_vector(m)
    assert np.allclose(v.mat, H_VEC.mat)
    assert trace_form(v, v) == pytest.approx(2.0)
    u = axis_vector(elliptic_about(HypPoint(0.5, 2.0), 1.1))
    assert trace_form(u, u) == pytest.approx(-2.0)
    with pytest.raises(NotSemisimple):
        axis_vector(Sl2Matrix([[1.0, 1.0], [0.0, 1.0]]))


def test_fixed_point_recovers_center():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = random_point(rng)
        m = elliptic_about(p, float(rng.uniform(0.1, 2 * math.pi - 0.1)))
        assert abs(center(m).z - p.z) < 1e-10
    with pytest.raises(NotElliptic):
        center(Sl2Matrix([[math.e, 0.0], [0.0, 1.0 / math.e]]))


# ---------------------------------------------------------------------------
# geometric constructors
# ---------------------------------------------------------------------------


def test_normalizing_isometry():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        if hyp_distance(p, q) < 1e-3:
            continue
        w = normalizing_isometry(p, q)
        assert abs(w.apply(p).z - 1j) < 1e-12
        img = w.apply(q)
        assert abs(img.x) < 1e-10
        assert img.y > 1.0  # q goes up the axis


def test_hyperbolic_along_endpoints_and_length():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u, v = sorted(rng.uniform(-3, 3, size=2))
        if v - u < 0.1:
            continue
        ell = float(rng.uniform(0.2, 2.5))
        for a, b in ((u, v), (v, u)):
            m = hyperbolic_along(a, b, ell)
            assert _hyperbolic_axis(m)[3] == pytest.approx(ell, abs=1e-9)
            # endpoints of the axis are fixed
            assert m.apply(complex(a, 0)) == pytest.approx(complex(a, 0), abs=1e-9)
            assert m.apply(complex(b, 0)) == pytest.approx(complex(b, 0), abs=1e-9)
        # apex of the half-circle moves toward v by ell
        c, r = (u + v) / 2.0, (v - u) / 2.0
        apex = HypPoint(c, r)
        img = hyperbolic_along(u, v, ell).apply(apex)
        assert hyp_distance(apex, img) == pytest.approx(ell, abs=1e-9)
        assert img.x > apex.x


def isometry_mapping_segment(p1, q1, p2, q2):
    """The orientation-preserving isometry with p1 -> p2 and the ray toward q1
    mapped onto the ray toward q2 (exact when d(p1,q1) = d(p2,q2))."""
    return normalizing_isometry(p2, q2).inverse() @ normalizing_isometry(p1, q1)


def test_isometry_mapping_segment():
    p1, q1 = HypPoint(0, 1), HypPoint(1, 1.5)
    p2, q2 = HypPoint(-1, 2), HypPoint(0.5, 0.7)
    d = hyp_distance(p1, q1)
    q2 = hyp_exp(p2, hyp_direction(p2, q2), d)  # make the segments congruent
    g = isometry_mapping_segment(p1, q1, p2, q2)
    assert abs(g.apply(p1).z - p2.z) < 1e-10
    assert abs(g.apply(q1).z - q2.z) < 1e-10


# ---------------------------------------------------------------------------
# pairings of axis vectors
# ---------------------------------------------------------------------------


def test_elliptic_pairing_frozen():
    s1 = elliptic_about(HypPoint(0, 1), 1.0)
    s2 = elliptic_about(HypPoint(0, math.e), 2.0)
    val, br = elliptic_pair_pairing(s1, s2)
    assert val == pytest.approx(-2.0 * math.cosh(1.0), abs=1e-12)
    # bracket of the two unit rotation generators is a translation along the
    # common axis (here the imaginary axis, pointing from i to e*i)
    assert np.allclose(br.mat, 2.0 * math.sinh(1.0) * H_VEC.mat, atol=1e-12)


def test_elliptic_pairing_rejects_same_center():
    p = HypPoint(0.4, 1.3)
    with pytest.raises(CoincidentFixedPoints):
        elliptic_pair_pairing(elliptic_about(p, 1.0), elliptic_about(p, 2.0))


def test_geodesic_pairing_crossing_perpendicular():
    r1 = Sl2Matrix([[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]])
    r2 = hyperbolic_along(-1.0, 1.0, 1.0)
    val = geodesic_pair_pairing(r1, r2)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert axes_relation(val) == "crossing"


def test_geodesic_pairing_asymptotic():
    # the imaginary axis and the vertical at Re=1 share the endpoint infinity
    r1 = Sl2Matrix([[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]])
    shift = Sl2Matrix([[1.0, 1.0], [0.0, 1.0]])
    r2 = Sl2Matrix(shift.mat @ r1.mat @ np.linalg.inv(shift.mat))
    val = geodesic_pair_pairing(r1, r2)
    assert abs(val) == pytest.approx(2.0, abs=1e-12)
    assert axes_relation(val) == "asymptotic"


def test_geodesic_pairing_disjoint_distance():
    # parallel verticals would be asymptotic; use two nested half-circles
    r1 = hyperbolic_along(-1.0, 1.0, 0.8)
    r2 = hyperbolic_along(-4.0, -2.0, 1.1)
    val = geodesic_pair_pairing(r1, r2)
    assert abs(val) > 2.0
    assert axes_relation(val) == "disjoint"


def test_mixed_pairing_signs_and_magnitude():
    up = Sl2Matrix([[math.exp(0.5), 0.0], [0.0, math.exp(-0.5)]])
    left = mixed_pairing(up, elliptic_about(HypPoint(-1, 1), 1.3))
    right = mixed_pairing(up, elliptic_about(HypPoint(1, 1), 1.3))
    assert left == pytest.approx(2.0, abs=1e-12)   # sinh(dist) = 1 here
    assert right == pytest.approx(-2.0, abs=1e-12)
    on_axis = mixed_pairing(up, elliptic_about(HypPoint(0, 2), 0.7))
    assert on_axis == pytest.approx(0.0, abs=1e-12)


def test_pairing_isometry_invariance():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s1 = elliptic_about(random_point(rng), float(rng.uniform(0.2, 6.0)))
        s2 = elliptic_about(random_point(rng), float(rng.uniform(0.2, 6.0)))
        g = elliptic_about(random_point(rng), float(rng.uniform(0.2, 6.0)))
        gm = g.mat
        conj = [Sl2Matrix(gm @ s.mat @ np.linalg.inv(gm)) for s in (s1, s2)]
        try:
            v1, _ = elliptic_pair_pairing(s1, s2)
            v2, _ = elliptic_pair_pairing(conj[0], conj[1])
        except CoincidentFixedPoints:
            continue
        assert v2 == pytest.approx(v1, abs=1e-9)


# ---------------------------------------------------------------------------
# first-order logarithm coefficient
# ---------------------------------------------------------------------------


def test_log_perturbation_along_itself():
    # u = s gives exp(ts) exp(s) = exp((1+t)s), so the slope is s itself
    for m in (
        elliptic_about(HypPoint(0.2, 1.5), 1.3),
        Sl2Matrix([[math.exp(0.4), 0.0], [0.0, math.exp(-0.4)]]),
    ):
        s = sl2_log(m)
        d = log_perturbation(s, s)
        assert np.allclose(d.mat, s.mat, atol=1e-9)


def test_log_perturbation_linearity():
    s = sl2_log(elliptic_about(HypPoint(0.1, 1.1), 2.1))
    u1 = Sl2Vector([[0.3, -0.2], [0.5, -0.3]])
    u2 = Sl2Vector([[-0.1, 0.7], [0.2, 0.1]])
    d1 = log_perturbation(s, u1)
    d2 = log_perturbation(s, u2)
    both = log_perturbation(s, u1 + u2)
    assert np.allclose(both.mat, (d1 + d2).mat, atol=1e-9)


def test_log_perturbation_rejects_parabolic_direction():
    with pytest.raises(DegenerateDirection):
        log_perturbation(E_VEC, H_VEC)


# Seeds whose suite failed against a Richardson-extrapolated log slope, about
# 1e-6 off near parabolic hyperbolic bases and order 1 off at rotation angles
# above pi; the exp-side oracle has no such loss.
@pytest.mark.parametrize("seed", [5, 16, 18, 28, 56, 83, 88, 90, 111, 118, 136, 139,
                                  157, 169, 172, 192, 195, 197])
def test_log_expansion_suite_seeds(seed):
    residuals, = log_expansion_residuals(np.random.default_rng(seed), 200)
    assert np.all(residuals < LOG_TOL)


# ---------------------------------------------------------------------------
# numpy reference: the array-based arithmetic the float layer replaced
# ---------------------------------------------------------------------------


class RefVector:
    """A traceless matrix on a read-only numpy array (the array-based layer)."""

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        tr = arr[0, 0] + arr[1, 1]
        scale = max(1.0, float(np.max(np.abs(arr))))
        if abs(tr) > 1e-12 * scale:
            raise ValueError(f"matrix is not traceless (trace {tr})")
        arr = arr.copy()
        half = tr / 2.0
        arr[0, 0] -= half
        arr[1, 1] -= half
        arr.flags.writeable = False
        self.mat = arr

    def bracket(self, other):
        return RefVector(self.mat @ other.mat - other.mat @ self.mat)


class RefMatrix:
    """A projective unit-determinant matrix on a read-only numpy array, with
    the canonical representative of the array-based layer."""

    def __init__(self, mat):
        arr = np.array(mat, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        det = float(arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0])
        if not math.isfinite(det) or det <= 0.0:
            raise ValueError(f"matrix determinant {det} is not positive")
        if abs(det - 1.0) > DET_TOL:
            arr /= math.sqrt(det)
        tr = arr[0, 0] + arr[1, 1]
        if tr < 0.0:
            arr = -arr
        elif tr == 0.0:
            if arr[1, 0] < 0.0 or (arr[1, 0] == 0.0 and arr[0, 1] < 0.0):
                arr = -arr
        arr.flags.writeable = False
        self.mat = arr

    @classmethod
    def twin(cls, m):
        """The reference element with exactly the entries of m."""
        ref = cls.__new__(cls)
        ref.mat = m.mat
        return ref

    def __matmul__(self, other):
        return RefMatrix(self.mat @ other.mat)

    def inverse(self):
        m = self.mat
        return RefMatrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    def trace(self):
        return float(self.mat[0, 0] + self.mat[1, 1])

    def apply(self, z):
        m = self.mat
        return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def ref_trace_form(x, y):
    return float(np.trace(x.mat @ y.mat))


def ref_kind(m):
    t = m.trace()
    if abs(t) <= 2.0 - TRACE_TOL:
        return "elliptic"
    if t >= 2.0 + TRACE_TOL:
        return "hyperbolic"
    if float(np.max(np.abs(m.mat - I2))) <= TRACE_TOL:
        return "identity"
    return "parabolic"


def ref_elliptic_unit_and_angle(m):
    t = m.trace()
    half = 2.0 * math.acos(min(1.0, max(-1.0, t / 2.0)))
    u = (m.mat - (t / 2.0) * I2) / math.sin(half / 2.0)
    if u[1, 0] < 0.0:
        return u, half
    return -u, 2.0 * math.pi - half


def ref_hyperbolic_unit(m):
    t = m.trace()
    ell = 2.0 * math.acosh(t / 2.0)
    return (m.mat - (t / 2.0) * I2) / math.sinh(ell / 2.0), ell


def ref_sl2_log(m):
    kind = ref_kind(m)
    if kind == "parabolic":
        n = m.mat - I2
        return RefVector(n - ((n[0, 0] + n[1, 1]) / 2.0) * I2)
    if kind == "hyperbolic":
        v, ell = ref_hyperbolic_unit(m)
        return RefVector((ell / 2.0) * v)
    assert kind == "elliptic"
    u, nu = ref_elliptic_unit_and_angle(m)
    return RefVector((nu / 2.0) * u)


def ref_axis_vector(m):
    kind = ref_kind(m)
    if kind == "elliptic":
        return RefVector(ref_elliptic_unit_and_angle(m)[0])
    assert kind == "hyperbolic"
    return RefVector(ref_hyperbolic_unit(m)[0])


def ref_rotation_angle(m):
    assert ref_kind(m) == "elliptic"
    return ref_elliptic_unit_and_angle(m)[1]


def ref_fixed_point(m):
    return complex(*elliptic_fixed_point(*m.mat.ravel().tolist()))


def relative_gap(got, want):
    """max |got - want| over max |want|, entrywise."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def random_axis(rng):
    """Boundary endpoints (u, v) of an axis in [-3, 3], at least 1 apart."""
    u, v = rng.uniform(-3.0, 3.0, size=2).tolist()
    if abs(u - v) < 1.0:
        v = u + 1.0 if u < v else u - 1.0
    return u, v


def random_elements(rng, count):
    """Seeded elliptic, hyperbolic and generic elements, each with its
    reference twin.

    Entries stay below about 10, so that no product's determinant drifts
    from 1 by DET_TOL through rounding alone: there the normalizer's
    rescale switches on or off with the last bit of the determinant.
    """
    out = []
    for k in range(count):
        if k % 3 == 0:
            m = elliptic_about(random_point(rng), float(rng.uniform(0.1, 2 * math.pi - 0.1)))
        elif k % 3 == 1:
            m = hyperbolic_along(*random_axis(rng), float(rng.uniform(0.3, 2.0)))
        else:
            raw = rng.normal(size=(2, 2))
            while abs(np.linalg.det(raw)) < 0.25:
                raw = rng.normal(size=(2, 2))
            if np.linalg.det(raw) < 0.0:
                raw[0] = -raw[0]
            m = Sl2Matrix(raw)
        out.append((m, RefMatrix.twin(m)))
    return out


def test_normalization_matches_reference_bitwise():
    rng = np.random.default_rng(31)
    raws = [rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(3000)]
    raws += [np.array([[0.0, 2.0], [-0.5, 0.0]]), np.array([[0.0, -2.0], [0.5, 0.0]]),
             np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([[1.0, 3.0], [0.0, 1.0]])]
    # unit determinant to within DET_TOL, which is kept without rescaling
    raws += [np.array([[1.0 + 4e-13, 0.5], [0.0, 1.0]]) * sign for sign in (1, -1)]
    checked = 0
    for raw in raws:
        if np.linalg.det(raw) <= 0.0:
            continue
        got, want = Sl2Matrix(raw).mat, RefMatrix(raw).mat
        assert got.tobytes() == want.tobytes()
        assert Sl2Matrix.from_entries(*raw.ravel().tolist()).mat.tobytes() == want.tobytes()
        checked += 1
    assert checked > 1000
    for raw in raws[:500]:
        raw = raw.copy()
        raw[1, 1] = -raw[0, 0] * (1.0 + 1e-14)  # traceless up to rounding
        x, want = Sl2Vector(raw), RefVector(raw).mat
        assert (x.a, x.b, x.c) == (want[0, 0], want[0, 1], want[1, 0])
        assert abs(x.mat[1, 1] - want[1, 1]) <= 1e-15 * np.max(np.abs(want))


def test_group_operations_match_reference():
    rng = np.random.default_rng(32)
    elements = random_elements(rng, 300)
    for (m, rm), (n, rn) in zip(elements, elements[1:] + elements[:1]):
        assert relative_gap((m @ n).mat, (rm @ rn).mat) <= 1e-14
        assert relative_gap(m.inverse().mat, rm.inverse().mat) <= 1e-14
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.25, 2.5))
        assert abs(m.apply(z) - rm.apply(z)) <= 1e-14 * abs(rm.apply(z))


def test_logs_axes_and_fixed_points_match_reference():
    rng = np.random.default_rng(33)
    for m, rm in random_elements(rng, 600):
        kind = _kind(m)
        assert kind == ref_kind(rm)
        if kind in ("parabolic", "identity"):
            continue
        assert relative_gap(sl2_log(m).mat, ref_sl2_log(rm).mat) <= 1e-14
        assert relative_gap(axis_vector(m).mat, ref_axis_vector(rm).mat) <= 1e-14
        if kind == "elliptic":
            got, want = center(m).z, ref_fixed_point(rm)
            assert abs(got - want) <= 1e-14 * abs(want)
    par = Sl2Matrix([[1.0, 2.5], [0.0, 1.0]])
    assert relative_gap(sl2_log(par).mat, ref_sl2_log(RefMatrix.twin(par)).mat) <= 1e-14


def test_pairings_match_reference():
    rng = np.random.default_rng(34)
    for _ in range(300):
        s1 = elliptic_about(random_point(rng), float(rng.uniform(0.1, 2 * math.pi - 0.1)))
        s2 = elliptic_about(random_point(rng), float(rng.uniform(0.1, 2 * math.pi - 0.1)))
        r1 = hyperbolic_along(*random_axis(rng), 1.3)
        r2 = hyperbolic_along(*random_axis(rng), 0.7)
        rs1, rs2, rr1, rr2 = (RefMatrix.twin(g) for g in (s1, s2, r1, r2))
        l1, l2 = ref_axis_vector(rs1), ref_axis_vector(rs2)
        val, br = elliptic_pair_pairing(s1, s2)
        want = ref_trace_form(l1, l2)
        assert abs(val - want) <= 1e-14 * abs(want)
        assert relative_gap(br.mat, l1.bracket(l2).mat) <= 1e-14
        want = ref_trace_form(ref_axis_vector(rr1), ref_axis_vector(rr2))
        assert abs(geodesic_pair_pairing(r1, r2) - want) <= 1e-14 * max(1.0, abs(want))
        want = ref_trace_form(ref_axis_vector(rr1), l1)
        assert abs(mixed_pairing(r1, s1) - want) <= 1e-14 * max(1.0, abs(want))


def test_mat_is_a_read_only_copy():
    m = elliptic_about(HypPoint(0.3, 1.2), 1.0)
    x = sl2_log(m)
    for arr, want in ((m.mat, RefMatrix(m.mat).mat), (x.mat, RefVector(x.mat).mat)):
        assert arr.shape == want.shape == (2, 2)
        assert arr.dtype == want.dtype
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
    assert m.mat is not m.mat


@pytest.mark.parametrize("bad", [
    [[1.0, 1.0], [1.0, 1.0]],
    [[-1.0, 0.0], [0.0, 1.0]],
    [[math.nan, 0.0], [0.0, 1.0]],
    [[math.inf, 0.0], [0.0, 1.0]],
    [[1e200, 0.0], [0.0, 1e200]],
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
    [1.0, 0.0, 0.0, 1.0],
    [[1.0, 2.0], [3.0]],
    "abc",
    [[1.0, 0.0], [0.0, 0.5]],
])
def test_bad_input_matches_reference(bad):
    for ours, ref in ((Sl2Matrix, RefMatrix), (Sl2Vector, RefVector)):
        try:
            with np.errstate(all="ignore"):
                ref(bad)
        except Exception as exc:  # the reference's exception, to compare with
            want = (type(exc), str(exc))
        else:
            want = None
        if want is None:
            ours(bad)
            continue
        with pytest.raises(want[0]) as got:
            ours(bad)
        assert str(got.value) == want[1]


def test_operations_make_no_numpy_call(monkeypatch):
    import hypcone.sl2 as sl2_mod

    p, q = HypPoint(0.3, 1.2), HypPoint(-0.4, 0.8)
    monkeypatch.setattr(sl2_mod, "np", None)  # any numpy call raises
    s1, s2 = elliptic_about(p, 1.0), elliptic_about(q, 4.0)
    r1, r2 = hyperbolic_along(-1.0, 2.0, 0.8), hyperbolic_along(1.5, -0.5, 1.7)
    g = normalizing_isometry(p, q) @ isometry_mapping_segment(p, q, q, hyp_exp(q, 0.3, 1.0))
    g = g @ g.inverse() @ IDENTITY @ Sl2Matrix.from_entries(2.0, 1.0, 1.0, 1.0)
    assert projectively_close(g, Sl2Matrix.from_entries(2.0, 1.0, 1.0, 1.0))
    g.apply(p)
    g.apply(0.5 + 2j)
    x = sl2_log(s1) + 2.0 * sl2_log(r1) - (-axis_vector(s2))
    x.conjugate_by(g).bracket(x)
    trace_form(x, x)
    _kind(sl2_exp(x))
    _rotation(s2)
    center(s1)
    log_perturbation(sl2_log(s1), x)
    log_perturbation(sl2_log(r1), x)
    elliptic_pair_pairing(s1, s2)
    geodesic_pair_pairing(r1, r2)
    mixed_pairing(r1, s1)


# ---------------------------------------------------------------------------
# constructors and pairings against their chains of public operations
# ---------------------------------------------------------------------------
#
# Each chain builds the element from Sl2Matrix products, each one
# normalized, and pairs axis vectors by trace_form.  The library composes
# the same products on floats; both must agree bit for bit, and where the
# chain raises, in the exception's type and message.  `product` records
# whether the raw product drifted past DET_TOL, so that a rescale happened
# between the factors.


def product(x, y, drifted):
    det = (x.a * y.a + x.b * y.c) * (x.c * y.b + x.d * y.d) \
        - (x.a * y.b + x.b * y.d) * (x.c * y.a + x.d * y.c)
    drifted.append(not abs(det - 1.0) <= DET_TOL)
    return x @ y


def chain_translate_to(p):
    r = math.sqrt(p.y)
    return Sl2Matrix.from_entries(r, p.x / r, 0.0, 1.0 / r)


def chain_rotation_at_i(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return Sl2Matrix.from_entries(c, s, -s, c)


def chain_elliptic_about(p, angle, drifted):
    g = chain_translate_to(p)
    return product(product(g, chain_rotation_at_i(angle), drifted), g.inverse(), drifted)


def chain_hyperbolic_along(u, v, length, drifted):
    if length <= 0.0:
        raise OutOfRange("translation length must be positive")
    if u == v:
        raise OutOfRange("axis endpoints must be distinct")
    if v > u:
        r = math.sqrt(v - u)
        g = Sl2Matrix.from_entries(v / r, u / r, 1.0 / r, 1.0 / r)
    else:
        r = math.sqrt(u - v)
        g = Sl2Matrix.from_entries(v / r, -u / r, 1.0 / r, -1.0 / r)
    h = length / 2.0
    shift = Sl2Matrix.from_entries(math.exp(h), 0.0, 0.0, math.exp(-h))
    return product(product(g, shift, drifted), g.inverse(), drifted)


def chain_hyp_exp(p, direction, dist):
    g = chain_translate_to(p) @ chain_rotation_at_i(direction - math.pi / 2.0)
    return g.apply(HypPoint(0.0, math.exp(dist)))


def chain_normalizing_isometry(p, q):
    g = chain_translate_to(p).inverse()
    phi = hyp_direction(HypPoint(0.0, 1.0), g.apply(q))
    return chain_rotation_at_i(math.pi / 2.0 - phi) @ g


def chain_elliptic_pair(s1, s2):
    for s in (s1, s2):
        if _kind(s) != "elliptic":
            raise NotElliptic("both inputs must be elliptic")
    if hyp_distance(center(s1), center(s2)) < 1e-9:
        raise CoincidentFixedPoints("fixed points coincide; no joining axis")
    l1, l2 = axis_vector(s1), axis_vector(s2)
    return trace_form(l1, l2), l1.bracket(l2)


def chain_geodesic_pair(r1, r2):
    for r in (r1, r2):
        if _kind(r) != "hyperbolic":
            raise NotHyperbolic("both inputs must be hyperbolic")
    return trace_form(axis_vector(r1), axis_vector(r2))


def chain_mixed(r, s):
    if _kind(r) != "hyperbolic":
        raise NotHyperbolic("first argument must be hyperbolic")
    if _kind(s) != "elliptic":
        raise NotElliptic("second argument must be elliptic")
    return trace_form(axis_vector(r), axis_vector(s))


def outcome(fn, *args):
    """("value", bit patterns of every float fn returns) or ("raise", type,
    message); -0.0 and +0.0 differ."""
    try:
        value = fn(*args)
    except Exception as exc:  # the outcome under comparison
        return "raise", type(exc), str(exc)
    floats = []
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, Sl2Matrix):
            floats += [item.a, item.b, item.c, item.d]
        elif isinstance(item, Sl2Vector):
            floats += [item.a, item.b, item.c]
        elif isinstance(item, HypPoint):
            floats += [item.x, item.y]
        else:
            floats.append(item)
    return "value", bits(floats)


def sweep_inputs(seed=41, count=3000):
    """Seeded points, angles and axes out to the extremes: |x| and |u| up
    to 1e6, y from 1e-4 to 1e2, angles from -pi to 3pi (past pi,
    cos(angle/2) < 0), axis widths from 1e-4 to 10."""
    rng = np.random.default_rng(seed)

    def coord():
        if rng.random() < 0.3:
            return float(rng.uniform(-3.0, 3.0))
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0))

    def point():
        return HypPoint(coord(), float(10.0 ** rng.uniform(-4.0, 2.0)))

    rows = []
    for _ in range(count):
        u = coord()
        v = u + float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 1.0))
        rows.append((point(), float(rng.uniform(-math.pi, 3.0 * math.pi)), u, v,
                     float(10.0 ** rng.uniform(-2.0, 1.0)), point(),
                     float(rng.uniform(-7.0, 7.0)), float(rng.uniform(-8.0, 8.0))))
    return rows


def test_hyperbolic_along_refuses_a_lost_determinant():
    # the axis sits 1e6 from 0 at width 1e-3; the last product's
    # determinant is negative from rounding alone
    with pytest.raises(NumericalCollapse) as err:
        hyperbolic_along(1e6, 1e6 + 1e-3, 1.0)
    message = str(err.value)
    assert all(repr(x) in message for x in (1e6, 1e6 + 1e-3, 1.0))
    assert "determinant" in message


def test_constructors_and_pairings_equal_their_chains_bit_for_bit():
    rows = sweep_inputs()
    mismatches, elements = [], []
    drift = {"elliptic": 0, "hyperbolic": 0}

    def compare(name, got, want):
        if got != want:
            mismatches.append((name, got, want))

    for p, angle, u, v, length, q, direction, dist in rows:
        for kind, fn, chain, args in (
                ("elliptic", elliptic_about, chain_elliptic_about, (p, angle)),
                ("hyperbolic", hyperbolic_along, chain_hyperbolic_along, (u, v, length))):
            drifted = []
            want = outcome(chain, *args, drifted)
            got = outcome(fn, *args)
            drift[kind] += any(drifted)
            if kind == "hyperbolic" and want[:2] == ("raise", ValueError):
                # the one refusal that changes: named, with its inputs
                named = (got[:2] == ("raise", NumericalCollapse) and got[2].endswith(want[2])
                         and all(repr(x) in got[2] for x in args))
                if not named:
                    mismatches.append(("hyperbolic_along", got, want))
                continue
            compare(fn.__name__, got, want)
            if want[0] == "value":
                elements.append(fn(*args))
        compare("hyp_exp", outcome(hyp_exp, p, direction, dist),
                outcome(chain_hyp_exp, p, direction, dist))
        compare("normalizing_isometry", outcome(normalizing_isometry, p, q),
                outcome(chain_normalizing_isometry, p, q))

    rng = np.random.default_rng(43)
    pairs = [(elements[i], elements[j])
             for i, j in rng.integers(len(elements), size=(3000, 2)).tolist()]
    # two rotations about one point, at different angles: coincident centres
    centres = [HypPoint(x, y) for x, y in rng.uniform(0.5, 2.0, size=(50, 2)).tolist()]
    pairs += [(elliptic_about(p, 1.0), elliptic_about(p, 2.5)) for p in centres]
    for a, b in pairs:
        compare("elliptic_pair_pairing", outcome(elliptic_pair_pairing, a, b),
                outcome(chain_elliptic_pair, a, b))
        compare("geodesic_pair_pairing", outcome(geodesic_pair_pairing, a, b),
                outcome(chain_geodesic_pair, a, b))
        compare("mixed_pairing", outcome(mixed_pairing, a, b), outcome(chain_mixed, a, b))
    assert not mismatches, (len(mismatches), mismatches[:3])
    # the sweep reaches rescales between the factors of both constructors
    assert min(drift.values()) >= 500, drift


# Batches: the functions of sl2, on equal-length arrays of entries, against
# the float calls element by element.

def batch_of(items):
    """One batch of floats, points, elements or vectors, for the batch call."""
    first = items[0]
    if isinstance(first, float):
        return np.array(items)
    names = type(first).__slots__
    one = object.__new__(type(first))
    for name in names:
        object.__setattr__(one, name, np.array([getattr(x, name) for x in items]))
    return one


def entries(x):
    """The entries of a call's result, in order: floats for a float call,
    arrays for a batch call."""
    if isinstance(x, tuple):
        return [y for part in x for y in entries(part)]
    if isinstance(x, (float, np.ndarray)):
        return [x]
    return [getattr(x, name) for name in type(x).__slots__]


def batch_samples():
    rng = np.random.default_rng(3)
    n = 300
    points = [tuple(p) for p in np.column_stack((rng.uniform(-2, 2, n),
                                                 rng.uniform(0.25, 2.5, n))).tolist()]
    others = points[1:] + points[:1]
    angles = rng.uniform(0.1, 2.0 * math.pi - 0.1, n).tolist()
    ends = rng.uniform(-3.0, 3.0, (n, 2)).tolist()
    lengths = rng.uniform(0.3, 2.5, n).tolist()
    rotations = [elliptic_about(HypPoint(*p), a) for p, a in zip(points, angles)]
    translations = [hyperbolic_along(u, v, ell) for (u, v), ell in zip(ends, lengths)]
    bases = [sl2_log(m) for pair in zip(rotations, translations) for m in pair]
    directions = [Sl2Vector.from_entries(*x) for x in rng.normal(size=(len(bases), 3)).tolist()]
    # |det| below 1e-8: the series of exp's coefficients
    small = [1e-5 * x for x in directions]
    return {
        "elliptic_about": (elliptic_about, [(HypPoint(*p), a) for p, a in zip(points, angles)]),
        "hyperbolic_along": (hyperbolic_along, [(u, v, ell) for (u, v), ell in zip(ends, lengths)]),
        "normalizing_isometry": (normalizing_isometry,
                                 [(HypPoint(*p), HypPoint(*q)) for p, q in zip(points, others)]),
        "hyp_distance": (hyp_distance,
                         [(HypPoint(*p), HypPoint(*q)) for p, q in zip(points, others)]),
        "elliptic_pair_pairing": (elliptic_pair_pairing,
                                  list(zip(rotations, rotations[1:] + rotations[:1]))),
        "geodesic_pair_pairing": (geodesic_pair_pairing,
                                  list(zip(translations, translations[1:] + translations[:1]))),
        "mixed_pairing": (mixed_pairing, list(zip(translations, rotations))),
        "sl2_log": (sl2_log, [(m,) for m in rotations + translations]),
        "log_perturbation": (log_perturbation, list(zip(bases, directions))),
        "sl2_exp": (sl2_exp, [(x,) for x in bases + directions + small]),
    }


BATCH_SAMPLES = batch_samples()


@pytest.mark.parametrize("name", list(BATCH_SAMPLES))
def test_batch_call_gives_the_float_calls(name):
    fn, samples = BATCH_SAMPLES[name]
    want = [entries(fn(*args)) for args in samples]
    got = entries(fn(*(batch_of(list(column)) for column in zip(*samples))))
    assert bits(np.array(got).T) == bits(want)
    # a float call keeps Python floats
    assert all(type(x) is float for row in want for x in row)


def refusal(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


ROTATION = elliptic_about(HypPoint(0.5, 1.0), 1.0)
TRANSLATION = hyperbolic_along(-1.0, 1.0, 1.0)
PARABOLIC = Sl2Matrix.from_entries(1.0, 1.0, 0.0, 1.0)
# A float call of each refusal the batch functions raise: (function, args).
REFUSALS = {
    "half-plane": (HypPoint, (1.0, -1.0)),
    "direction": (hyp_direction, (HypPoint(0.5, 1.0), HypPoint(0.5, 1.0))),
    "determinant": (Sl2Matrix.from_entries, (1.0, 0.0, 0.0, -1.0)),
    "length": (hyperbolic_along, (0.0, 1.0, -1.0)),
    "endpoints": (hyperbolic_along, (2.0, 2.0, 1.0)),
    "collapse": (hyperbolic_along, (1e6, 1e6 + 1e-3, 1.0)),
    "identity-log": (sl2_log, (IDENTITY,)),
    "axis": (axis_vector, (PARABOLIC,)),
    "fixed-point": (elliptic_fixed_point, tuple(TRANSLATION)),
    "not-elliptic": (elliptic_pair_pairing, (TRANSLATION, ROTATION)),
    "coincident": (elliptic_pair_pairing, (ROTATION, elliptic_about(HypPoint(0.5, 1.0), 2.0))),
    "not-hyperbolic": (geodesic_pair_pairing, (TRANSLATION, ROTATION)),
    "mixed-first": (mixed_pairing, (ROTATION, ROTATION)),
    "mixed-second": (mixed_pairing, (TRANSLATION, TRANSLATION)),
    "direction-type": (log_perturbation, (E_VEC, H_VEC)),
}


@pytest.mark.parametrize("kind", list(REFUSALS))
def test_refused_batch_of_one_raises_what_the_float_call_raises(kind):
    fn, args = REFUSALS[kind]
    assert refusal(fn, *(batch_of([x]) for x in args)) == refusal(fn, *args)


def test_refused_batch_raises_its_first_failing_check_at_its_first_failing_element():
    # every check runs on the whole batch in the call's order: the batch
    # raises the first check that any element fails, with the values of the
    # first element that fails that check
    ends = [(0.0, 1.0, 1.0), (1e6, 1e6 + 1e-3, 1.0), (2.0, 2.0, 1.0), (3.0, 5e6, 1.0)]
    assert refusal(hyperbolic_along, *(np.array(c) for c in zip(*ends))) == \
        refusal(hyperbolic_along, *ends[2]) == (OutOfRange, "axis endpoints must be distinct")
    ends = [(0.0, 1.0, 1.0), (1e6, 1e6 + 1e-3, 1.0), (1e6 + 1.0, 1e6 + 1.001, 1.0)]
    want = refusal(hyperbolic_along, *ends[1])
    assert want[0] is NumericalCollapse and want[1].startswith(
        "translation by 1.0 along the axis from 1000000.0 to 1000000.001: ")
    assert refusal(hyperbolic_along, *(np.array(c) for c in zip(*ends))) == want
    # the second element fails the endpoint check, the third the length
    # check, which comes first
    ends = [(0.0, 1.0, 1.0), (2.0, 2.0, 1.0), (0.5, -1.0, -1.0)]
    assert refusal(hyperbolic_along, *(np.array(c) for c in zip(*ends))) == \
        refusal(hyperbolic_along, *ends[2]) == (OutOfRange, "translation length must be positive")

    rotations = [elliptic_about(HypPoint(0.5 * k, 1.0), 1.0) for k in range(4)]
    firsts = [rotations[0], rotations[1], TRANSLATION, rotations[3]]
    seconds = rotations[1:] + rotations[:1]
    assert refusal(elliptic_pair_pairing, batch_of(firsts), batch_of(seconds)) == \
        (NotElliptic, "both inputs must be elliptic")
    # the first check of mixed_pairing passes on every element
    assert refusal(mixed_pairing, batch_of([TRANSLATION] * 4), batch_of(firsts)) == \
        refusal(mixed_pairing, TRANSLATION, TRANSLATION) == \
        (NotElliptic, "second argument must be elliptic")
    assert refusal(HypPoint, np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, -2.0])) == \
        refusal(HypPoint, 1.0, -1.0)
    # a parabolic element and then the identity: the message names the first
    assert refusal(axis_vector, batch_of([ROTATION, PARABOLIC, IDENTITY])) == \
        (NotSemisimple, "no axis vector for a parabolic element")
