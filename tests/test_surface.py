import decimal
import json
import math
import random
import re
import sys
from collections import Counter
from itertools import chain
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    bits,
    count_constructions,
    equilateral_torus_angle,
    halfedges,
    scanned_halfedges,
    side_length,
    stellar_surface,
    tetra_surface,
    torus_surface,
    vertex_germs,
)

from hypcone import (
    AngleData,
    ConeSurface,
    build_surface,
    classify_angles,
    cone_angles,
    corner_angle,
    parse_surface,
    serialize_surface,
)
import hypcone.surface as surface_mod
from hypcone.errors import (
    Disconnected,
    DimensionMismatch,
    HypconeError,
    NonManifold,
    NonPositiveLength,
    NotAdmissible,
    NumericalCollapse,
    OutOfRange,
    TriangleInequality,
)
import hypcone.delaunay as delaunay_mod
from hypcone.delaunay import FlipState
from hypcone.surface import (
    Triangulation,
    _running_sums,
    corner_gradient,
    corner_sums,
    half_angle,
    nxt,
    prv,
)


# ---------------------------------------------------------------------------
# corner angles
# ---------------------------------------------------------------------------


def corner_angle_gradient(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Partial derivatives of corner_angle(a, b, c) in (a, b, c)."""
    alpha, beta = corner_angle(b, c, a), corner_angle(c, a, b)
    return tuple(float(d) for d in corner_gradient(a, b, alpha, beta))


def test_corner_angle_equilateral_frozen():
    # cosh 2a = cosh^2 a cosh a - ... ; for the equilateral triangle the law
    # of cosines collapses to cos(angle) = cosh a / (cosh a + 1)
    a = 1.2
    want = math.acos(math.cosh(a) / (math.cosh(a) + 1.0))
    assert corner_angle(a, a, a) == pytest.approx(want, abs=1e-15)


def test_corner_angles_sum_below_pi():
    rng = np.random.default_rng(30)
    for _ in range(200):
        a, b, c = rng.uniform(0.2, 2.5, size=3)
        if a + b <= c or b + c <= a or a + c <= b:
            continue
        total = corner_angle(a, b, c) + corner_angle(b, c, a) + corner_angle(c, a, b)
        assert 0.0 < total < math.pi


def test_corner_angle_validation():
    with pytest.raises(NonPositiveLength):
        corner_angle(0.0, 1.0, 1.0)
    with pytest.raises(TriangleInequality):
        corner_angle(1.0, 1.0, 2.5)


def test_corner_angle_gradient_matches_differences():
    rng = np.random.default_rng(31)
    step = 1e-6
    for _ in range(50):
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        if a + b <= c + 0.1 or b + c <= a + 0.1 or a + c <= b + 0.1:
            continue
        grads = corner_angle_gradient(a, b, c)
        for k, (lo, hi) in enumerate(
            [(a - step, a + step), (b - step, b + step), (c - step, c + step)]
        ):
            args_lo = [a, b, c]
            args_hi = [a, b, c]
            args_lo[k] = lo
            args_hi[k] = hi
            fd = (corner_angle(*args_hi) - corner_angle(*args_lo)) / (2 * step)
            assert grads[k] == pytest.approx(fd, abs=1e-7)


@pytest.mark.parametrize("t", [1e-6, 1e-8])
def test_corner_angle_gradient_short_edges(t):
    # a tiny equilateral triangle is Euclidean to first order: every angle is
    # 60 degrees, d/da = d/db = -cot(60)/t and d/dc = 1/(t sin 60)
    da, db, dc = corner_angle_gradient(t, t, t)
    side = -1.0 / (math.tan(math.pi / 3) * t)
    assert da == pytest.approx(side, rel=1e-6)
    assert db == pytest.approx(side, rel=1e-6)
    assert dc == pytest.approx(1.0 / (t * math.sin(math.pi / 3)), rel=1e-6)


def oracle_angle(a, b, c):
    """The corner angle between sides a and b, opposite c: tan^2(gamma/2) =
    sinh(s-a) sinh(s-b) / (sinh s sinh(s-c)) from sinh products in `decimal`,
    at 80 digits past those a short half sum cancels, finished with
    math.atan.  The half sums are exact fractions first."""
    a, b, c = map(Fraction, (a, b, c))
    halves = [(b + c - a) / 2, (c + a - b) / 2, (a + b + c) / 2, (a + b - c) / 2]
    with decimal.localcontext() as ctx:
        ctx.prec = 80 + max(0, -math.floor(math.log10(min(halves))))
        sa, sb, s, sc = (decimal.Decimal(x.numerator) / x.denominator for x in halves)

        def sinh(x):
            e = x.exp()
            return (e - 1 / e) / 2

        tan2 = sinh(sa) * sinh(sb) / (sinh(s) * sinh(sc))
        return 2.0 * math.atan(float(tan2.sqrt()))


def test_corner_angle_overflow_is_not_an_angle():
    # sinh(400)^2 overflows, and sinh itself past 710: the acos law refused
    # these corners or, before that, returned pi.  The half-angle kernel forms
    # no sinh, so they get their tiny angles, and a torus of them builds
    for sides in [(400.0, 400.0, 400.0), (400.0, 400.0, 1.0), (300.0, 300.0, 1.0),
                  (720.0, 1400.0, 720.0), (1000.0, 1000.0, 1000.0)]:
        assert corner_angle(*sides) == pytest.approx(oracle_angle(*sides), rel=1e-12)
        assert corner_angle(*sides) < 1e-80
    assert corner_angle(300.0, 300.0, 1.0) == pytest.approx(1.0730811870563e-130, rel=1e-12)
    assert corner_angle(400.0, 400.0, 1.0) == pytest.approx(3.9919435442881e-174, rel=1e-12)
    s = torus_surface(400.0)
    assert s.cone_angle[0] == pytest.approx(6 * corner_angle(400.0, 400.0, 400.0), rel=1e-15)


@pytest.mark.parametrize("scale", [1e-158, 1e-161, 1e-200, 1e-300])
def test_corner_angle_underflow_is_not_an_angle(scale):
    # the thin corner of sides (a, a, 1) has an angle near 1 / sinh a.  At
    # sinh a = 1 / scale it is an angle near scale (the acos law lost it to
    # 0.0, or refused it past 710); at sinh a = 1 / (scale * 2.2e-308) it is
    # below the normal float range and refused, not returned as 0 or with
    # the few digits of a subnormal
    a = math.asinh(1.0 / scale)
    assert corner_angle(a, a, 1.0) == pytest.approx(oracle_angle(a, a, 1.0), rel=1e-13)
    assert torus_surface(a, a, 1.0).cone_angle[0] > 0.0
    a = math.asinh(1.0 / scale) + math.asinh(1.0 / sys.float_info.min)
    with pytest.raises(NumericalCollapse, match=r"^corner angle of sides \(.*\) underflows: "):
        corner_angle(a, a, 1.0)
    with pytest.raises(NumericalCollapse):
        torus_surface(a, a, 1.0)


def test_corner_angle_short_sides_keep_their_angles():
    # short sides are Euclidean to first order; the acos law refused them
    # below about 1e-154 and the kernel keeps them down to subnormal sides,
    # where its products of roots leave the normal range
    for scale in (1e-20, 1e-150, 1e-200, 1e-300):
        for sides in [(1.0, 1.05, 0.97), (1.05, 0.97, 1.0)]:
            sides = tuple(scale * x for x in sides)
            assert corner_angle(*sides) == pytest.approx(oracle_angle(*sides), rel=2e-16)
    with pytest.raises(NumericalCollapse):
        corner_angle(1e-310, 1.05e-310, 0.97e-310)


@pytest.mark.parametrize("sides", [(1e-20, 1.0, 1.0), (1.0, 1e-20, 1.0), (1.0, 1.0, 1e-20)])
def test_corner_angle_thin_sides_are_not_an_underflow(sides):
    # a side below half an ulp of the other two fails the strict float
    # triangle inequalities before any angle is taken; just above that, the
    # corner gets its angle and is not refused
    with pytest.raises(TriangleInequality):
        corner_angle(*sides)
    thin = tuple(1.2e-16 if x == 1e-20 else x for x in sides)
    assert corner_angle(*thin) == pytest.approx(oracle_angle(*thin), rel=1e-15)


def corner_outcome(sides):
    """corner_angle of the sides, or the type and message of its error."""
    try:
        return corner_angle(*sides)
    except HypconeError as exc:
        return type(exc), str(exc)


def random_triangles(rng, family, count):
    """Seeded sides (a, b, c) that keep the strict triangle inequalities."""
    out = []
    for _ in range(count):
        if family == "short":
            sides = [1e-20 * (1.0 + 0.5 * rng.random()) for _ in range(3)]
        elif family == "unit":
            scale = 10.0 ** rng.uniform(-3.0, 1.0)
            sides = [scale * (1.0 + 0.9 * rng.random()) for _ in range(3)]
        elif family == "thin":
            a, c = rng.uniform(1.0, 300.0), rng.uniform(1e-3, 1.0)
            sides = [a, a + 0.5 * c * rng.random(), c]
        else:  # long, past where the acos law's sinh and its products overflowed
            a, b = rng.uniform(100.0, 500.0), rng.uniform(100.0, 500.0)
            sides = [a, b, abs(a - b) + (a + b - abs(a - b)) * rng.uniform(0.01, 0.99)]
        rng.shuffle(sides)
        out.append(tuple(sides))
    return out


def raises_like(fn, want):
    """Assert that fn() raises the error (type, message) `want`."""
    with pytest.raises(want[0]) as info:
        fn()
    assert type(info.value) is want[0] and str(info.value) == want[1]


def test_corner_angle_matches_a_decimal_oracle():
    # every family within 5e-13 of the oracle, short and unit sides within an
    # ulp in the median (eps-relative), and the same angles from the array
    # form a surface build evaluates
    rng = random.Random("corner-angles")
    eps = sys.float_info.epsilon
    for family in ("short", "unit", "thin", "long"):
        triangles = random_triangles(rng, family, 400)
        got = np.array([corner_angle(*t) for t in triangles])
        want = np.array([oracle_angle(*t) for t in triangles])
        rel = np.abs(got - want) / want
        assert rel.max() <= 5e-13, family
        if family in ("short", "unit"):
            assert np.median(rel) <= eps, family
        sides = np.array(triangles)[:, [0, 2, 1]]  # corner 0 sees sides a, b, opposite c
        q = np.stack([np.stack(row, axis=-1) for row in corner_sums(*sides.T)])
        assert bits(half_angle(q, sides)[:, 0]) == bits(got)


def test_corner_angle_is_symmetric_bitwise():
    # swapping the two sides next to the corner swaps two factors of one
    # product: the same angle bit for bit (a 3-cone sphere, where eta is 0,
    # depends on it)
    rng = random.Random("mirror")
    for family in ("short", "unit", "thin", "long"):
        triangles = random_triangles(rng, family, 400)
        assert bits([corner_angle(a, b, c) for a, b, c in triangles]) == \
            bits([corner_angle(b, a, c) for a, b, c in triangles])


@pytest.mark.parametrize("sides", [
    (2000.0, 2000.0, 2000.0),  # past where sinh overflows the angle underflows
    (800.0, 800.0, 1.0),  # the same, between two long sides
    (1e-310, 1.05e-310, 0.97e-310),  # subnormal: the products of roots underflow
    (0.0, 1.0, 1.0),
    (-1.0, -1.0, 0.5),
    (1.0, 1.0, math.nan),
    (1.0, 1.0, 2.5),
    (1e-20, 1.0, 1.0),
    (1.0, 0.5, 0.5000000000000001),  # b + c rounds to a
])
def test_corner_angles_refuse_as_corner_angle(monkeypatch, sides):
    # a flip checks its two new triangles and evaluates their six corners in
    # one kernel call: it refuses the first corner, in slot order, that
    # corner_angle refuses, with the same error.  The flipped torus's new
    # triangles get the sides (a, b) of edges x, y and the diagonal c
    a, b, c = sides
    state = FlipState(torus_surface())
    state.length[state.edge_index["x"]], state.length[state.edge_index["y"]] = a, b
    monkeypatch.setattr(delaunay_mod, "flip_new_length", lambda s, e: c)
    slots = [3 * (h // 3) + k for h in state.halves[state.edge_index["z"]] for k in range(3)]
    with pytest.raises(HypconeError) as info:
        state.flip("z")
    corners = [tuple(state.length[state.he_edge[g]] for g in (h, prv(h), nxt(h)))
               for h in slots]
    assert all(x in sides for corner in corners for x in corner)
    want = next(w for w in map(corner_outcome, corners) if not isinstance(w, float))
    assert (type(info.value), str(info.value)) == want


@pytest.mark.parametrize("first,later", [(1500.0, 1500.0), (1.0, 1500.0)])
def test_surface_build_names_the_first_refused_corner(first, later):
    # triangle 0 (ab, bc, ac) has sides `first`, the others two sides `later`:
    # an equilateral face of 1500 has an angle near e^-750, below the normal
    # float range, and so does the corner between the two long sides of a
    # face (1, 1500, 1500); the build names the first such corner in
    # half-edge order, as corner_angle names it
    gluing = tetra_surface().triangulation
    length = np.array([first if e in ("ab", "ac", "bc") else later
                       for e in gluing.edge_ids])
    side = length[gluing.he_edge].tolist()
    corners = [(side[h], side[prv(h)], side[nxt(h)]) for h in range(gluing.n_half)]
    want = next(w for w in map(corner_outcome, corners) if not isinstance(w, float))
    assert want[0] is NumericalCollapse
    raises_like(lambda: ConeSurface(length, gluing), want)


def test_corner_gradients_match_per_corner_formula(skew_tetra):
    edges, grads = skew_tetra.corner_gradients()
    for h in range(skew_tetra.n_half):
        sides = (h, prv(h), nxt(h))
        assert list(edges[h]) == [skew_tetra.he_edge[g] for g in sides]
        want = corner_angle_gradient(*(side_length(skew_tetra, g) for g in sides))
        assert grads[h] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# admissibility and the angle stratum
# ---------------------------------------------------------------------------


def test_angle_data_validation():
    with pytest.raises(OutOfRange):
        AngleData((-1.0, 1.0, 1.0), 0, 3)
    with pytest.raises(DimensionMismatch):
        AngleData((1.0, 1.0), 0, 3)
    with pytest.raises(NotAdmissible):
        # chi = -1 + 3/2 = 1/2 > 0: no hyperbolic structure
        classify_angles(AngleData((math.pi, math.pi, math.pi), 0, 3))


def test_classify_angles_flags():
    hyp = classify_angles(AngleData((2.0, 2.0, 2.0), 0, 3))
    assert hyp.hyperbolic and not hyp.flat and hyp.off_walls and hyp.small
    wall = classify_angles(AngleData((2 * math.pi, 1.5, 1.5, 1.5), 0, 4))
    assert not wall.off_walls
    flat = classify_angles(AngleData((math.pi,) * 4, 0, 4))
    assert flat.flat and not flat.hyperbolic and flat.off_walls
    big = classify_angles(AngleData((3.5, 1.0, 1.0), 0, 3))
    assert not big.small


# ---------------------------------------------------------------------------
# combinatorics of the corpus
# ---------------------------------------------------------------------------


def test_torus_combinatorics(torus):
    assert torus.genus == 1
    assert torus.n_vertices == 1
    assert torus.n_edges == 3
    assert cone_angles(torus).chi == pytest.approx(
        torus.cone_angle[0] / (2 * math.pi) - 1
    )


def test_torus_cone_angle_frozen(torus):
    assert torus.cone_angle[0] == pytest.approx(equilateral_torus_angle(1.2), abs=1e-12)


def test_sphere_combinatorics(sphere3):
    assert sphere3.genus == 0
    assert sphere3.n_vertices == 3
    # doubling a triangle: each cone angle is twice the opposite corner; the
    # vertex between sides p and q sees the corner opposite r in both copies
    a, b, c = 1.0, 1.2, 1.4
    corners = {
        "pq": 2 * corner_angle(a, b, c),
        "qr": 2 * corner_angle(b, c, a),
        "rp": 2 * corner_angle(c, a, b),
    }
    assert sorted(sphere3.cone_angle) == pytest.approx(sorted(corners.values()))


def test_tetra_combinatorics(tetra):
    assert tetra.genus == 0
    assert tetra.n_vertices == 4
    # equilateral: every vertex collects three identical corners
    corner = corner_angle(1.3, 1.3, 1.3)
    assert list(tetra.cone_angle) == pytest.approx([3 * corner] * 4)


def test_genus1_two_cones(g1n2):
    assert g1n2.genus == 1
    assert g1n2.n_vertices == 2
    assert g1n2.n_edges == 6


def test_gauss_bonnet(corpus):
    for s in corpus:
        assert s.area() == pytest.approx(-2 * math.pi * cone_angles(s).chi, abs=1e-8)
        assert s.area() == pytest.approx(sum(s.triangle_areas), abs=1e-12)


def test_edge_count_formula(corpus):
    for s in corpus:
        assert s.n_edges == 6 * s.genus - 6 + 3 * s.n_vertices


# ---------------------------------------------------------------------------
# vertex fans
# ---------------------------------------------------------------------------


def test_halfedges_of_edge_matches_scan(corpus):
    for s in corpus:
        for e in s.edge_ids:
            assert halfedges(s, e) == scanned_halfedges(s, e)


def fan_sums_of(s, v):
    """The fan_size[v] + 1 running sums of vertex v in `s.fan_sums`."""
    at = int(np.sum(s.fan_size[:v] + 1))
    return s.fan_sums[at:at + s.fan_size[v] + 1].tolist()


def test_fans_partition_halfedges(corpus):
    for s in corpus:
        germs = vertex_germs(s)
        seen = sorted(g for orbit in germs for g in orbit)
        assert seen == list(range(s.n_half))
        assert s.fan_size.tolist() == [len(orbit) for orbit in germs]
        assert s.fan_order.tolist() == [g for orbit in germs for g in orbit]
        for v, orbit in enumerate(germs):
            assert all(s.vertex_of[g] == v for g in orbit)


def test_fan_angles_sum_to_cone_angle(corpus):
    for s in corpus:
        for v, orbit in enumerate(vertex_germs(s)):
            sums = fan_sums_of(s, v)
            assert math.fsum(s.angle[g] for g in orbit) == pytest.approx(
                s.cone_angle[v], abs=1e-10)
            assert sums[0] == 0.0 and sums[-1] == s.cone_angle[v]


def test_cone_angle_is_a_plain_left_to_right_sum():
    # sum() adds floats with compensation from Python 3.12 on; the cone angle
    # is the plain running sum the fan sums and the bivector use
    for s in [stellar_surface(k, seed=k, start=start)
              for k in (30, 98, 199) for start in ("tet", "tor")]:
        angle = s.angle.tolist()
        for v, orbit in enumerate(vertex_germs(s)):
            theta, running = 0.0, [0.0]
            for g in orbit:
                theta += angle[g]
                running.append(theta)
            assert s.cone_angle[v] == theta
            assert fan_sums_of(s, v) == running


def plain_running_sums(z, size):
    """0 and then the sum through each term of every run, in a plain loop."""
    out, at = [], 0
    for m in size.tolist():
        acc = 0.0
        out.append(acc)
        for x in z[at:at + m].tolist():
            acc += x
            out.append(acc)
        at += m
    return np.array(out)


def test_running_sums_match_a_plain_loop_bitwise():
    # the slot layout (runs longest first, one slice addition per step) must
    # not change the order of any addition: empty and equal-length runs, and
    # terms over ten orders of magnitude, so that any reordering shows
    rng = np.random.default_rng(7)
    for trial in range(300):
        size = rng.integers(0 if trial % 3 == 0 else 1, 30, size=int(rng.integers(0, 40)))
        n = int(size.sum())
        z = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, size=n)
        assert _running_sums(z, size).tobytes() == plain_running_sums(z, size).tobytes()
    s = stellar_surface(199, seed=1, start="tor")
    z = s.angle[s.fan_order]
    assert _running_sums(z, s.fan_size).tobytes() == plain_running_sums(z, s.fan_size).tobytes()


def test_fan_order_follows_triangle_corners(torus):
    # around the single vertex the six germs alternate between the two
    # triangles: consecutive germs always live in different triangles
    germs = vertex_germs(torus)[0]
    assert torus.fan_size[0] == len(germs) == 6
    for k, g in enumerate(germs):
        succ = germs[(k + 1) % len(germs)]
        assert g // 3 != succ // 3


def test_cone_angles_helper(torus):
    assert cone_angles(torus).theta == torus.cone_angle


# ---------------------------------------------------------------------------
# validation of bad gluings
# ---------------------------------------------------------------------------


def test_rejects_unpaired_edge():
    with pytest.raises(NonManifold):
        ConeSurface(
            {"x": 1.0, "y": 1.0, "z": 1.0},
            [
                [("x", "+"), ("y", "+"), ("z", "+")],
                [("x", "+"), ("y", "-"), ("z", "-")],
            ],
        )


def test_rejects_disconnected():
    tri = lambda a, b, c: [
        [(a, "+"), (b, "+"), (c, "+")],
        [(a, "-"), (b, "-"), (c, "-")],
    ]
    with pytest.raises(Disconnected):
        ConeSurface(
            {"x": 1.0, "y": 1.0, "z": 1.0, "u": 1.0, "v": 1.0, "w": 1.0},
            tri("x", "y", "z") + tri("u", "v", "w"),
        )


def test_rejects_bad_lengths():
    with pytest.raises(NonPositiveLength):
        torus_surface(-1.0)
    with pytest.raises(TriangleInequality):
        torus_surface(1.0, 1.0, 2.1)


def test_rejects_length_beyond_float_range():
    # float(10**400) overflows; that is bad input, not a numerical failure
    with pytest.raises(ValueError, match="too large"):
        torus_surface(10**400)


def test_triangle_inequality_message_names_culprit():
    with pytest.raises(TriangleInequality) as err:
        torus_surface(1.0, 1.0, 2.1)
    msg = str(err.value)
    assert "x" in msg and "z" in msg


def test_rejects_malformed_wire_data():
    with pytest.raises(ValueError):
        build_surface({"edges": [], "triangles": []})
    with pytest.raises(ValueError):
        build_surface(
            {
                "edges": [{"id": "x", "length": 1.0}],
                "triangles": [{"sides": [{"edge": "x", "dir": "+"}]}],
            }
        )
    with pytest.raises(ValueError):
        build_surface(
            {
                "edges": [{"id": "x", "length": 1.0}, {"id": "x", "length": 2.0}],
                "triangles": [],
            }
        )


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_serialize_parse_roundtrip(corpus):
    for s in corpus:
        text = serialize_surface(s)
        back = parse_surface(text)
        assert back.lengths == s.lengths
        assert back.triangles == s.triangles
        # canonical form: serialization is a fixed point
        assert serialize_surface(back) == text


def test_serialized_form_is_plain_json(torus):
    doc = json.loads(serialize_surface(torus))
    assert set(doc) == {"edges", "triangles"}
    assert doc["edges"][0] == {"id": "x", "length": 1.2}
    assert doc["triangles"][0]["sides"][0] == {"edge": "x", "dir": "+"}


def test_build_surface_from_wire(torus):
    doc = json.loads(serialize_surface(torus))
    s = build_surface(doc)
    assert s.cone_angle == torus.cone_angle


def test_regular_wire_document_takes_one_pass(monkeypatch):
    # every accepted document is built by the one pass, without the
    # refusal: a plain one, one with a numpy length and one that names an
    # edge by an int
    s = stellar_surface(400, seed=3, start="tor")
    assert s.n_edges == 1203

    def refuse(data):
        raise AssertionError("refused")

    monkeypatch.setattr(surface_mod, "_refuse", refuse)
    doc = json.loads(serialize_surface(s))
    built = build_surface(doc)
    assert built.edge_ids == s.edge_ids and built.triangles == s.triangles
    assert bits(built.length) == bits(s.length) and bits(built.angle) == bits(s.angle)
    doc["edges"][0]["length"] = np.float64(doc["edges"][0]["length"])
    numpy_length = build_surface(doc)
    assert bits(numpy_length.length) == bits(s.length)
    assert bits(numpy_length.angle) == bits(s.angle)
    plain = json.loads(serialize_surface(torus_surface(1.2)).replace('"x"', '"1"'))
    int_refs = json.loads(serialize_surface(torus_surface(1.2)).replace('"edge":"x"', '"edge":1')
                          .replace('"x"', '"1"'))
    assert {side["edge"] for t in int_refs["triangles"] for side in t["sides"]} == {1, "y", "z"}
    a, b = build_surface(int_refs), build_surface(plain)
    assert a.edge_ids == b.edge_ids == ("1", "y", "z") and a.triangles == b.triangles
    assert bits(a.length) == bits(b.length) and bits(a.angle) == bits(b.angle)


def library_form(doc):
    """The (dict, sides) arguments of ConeSurface for a wire document."""
    return ({rec["id"]: rec["length"] for rec in doc["edges"]},
            [[(side["edge"], side["dir"]) for side in t["sides"]] for t in doc["triangles"]])


def outcome(build):
    try:
        s = build()
    except Exception as exc:  # the refusal, compared by type and message
        return type(exc), str(exc)
    return s.edge_ids, s.triangles, bits(s.length), bits(s.angle)


def test_library_form_and_wire_form_load_alike(corpus):
    # ConeSurface(dict, sides) enters the pass of build_surface: the same
    # surface bit for bit, and the same refusal of a bad length, id or
    # reference
    for s in corpus:
        doc = json.loads(serialize_surface(s))
        assert outcome(lambda: ConeSurface(*library_form(doc))) == outcome(lambda: s)
        assert outcome(lambda: build_surface(doc)) == outcome(lambda: s)
    rng = random.Random("library-form")
    bad = {"length": [-1.0, 0.0, float("nan"), float("inf"), 10**400, 400.0],
           "id": ["", "x y", "x=y", "x\ny", "\t", "a\u00a0b", 7],
           "edge": ["w", "", "1", 7, None, "x y"]}
    refused = 0
    for k in range(300):
        doc = json.loads(serialize_surface(rng.choice(corpus)))
        key = rng.choice(sorted(bad))
        if key == "edge":
            rec = rng.choice(rng.choice(doc["triangles"])["sides"])
        else:
            rec = rng.choice(doc["edges"])
        rec[key] = rng.choice(bad[key])
        wire = outcome(lambda: build_surface(doc))
        assert outcome(lambda: ConeSurface(*library_form(doc))) == wire, (k, rec)
        refused += len(wire) == 2
    assert refused > 250
    # where the forms differ on purpose: the library form takes each length
    # through float(), the wire form only JSON numbers
    doc = json.loads(serialize_surface(corpus[0]))
    doc["edges"][0]["length"] = "1.2"
    with pytest.raises(ValueError, match="has length '1.2', not a number"):
        build_surface(doc)
    for length in ("1.2", np.float32(1.2), True):
        doc["edges"][0]["length"] = length
        got = ConeSurface(*library_form(doc))
        assert got.length[0] == float(length)


TORUS_SIDES = [[("x", "+"), ("y", "+"), ("z", "+")], [("x", "-"), ("y", "-"), ("z", "-")]]


@pytest.mark.parametrize("lengths, sides, message", [
    ({"x": 1.0, "y": 1.0, "z": 1.9}, [[("x", "+"), ("y", "+"), ("z",)], TORUS_SIDES[1]],
     r"triangle 0 has sides \[\('x', '\+'\), \('y', '\+'\), \('z',\)\], "
     r"not \(edge id, direction\) pairs"),
    ([1.0, 1.0, 1.9], TORUS_SIDES,
     r"edge lengths must be a mapping of edge id to length, not \[1.0, 1.0, 1.9\]"),
    ({"x": None, "y": 1.0, "z": 1.9}, TORUS_SIDES, r"edge 'x' has length None, not a number"),
], ids=["side-not-a-pair", "lengths-not-a-mapping", "length-none"])
def test_library_form_names_its_fault(lengths, sides, message):
    # a shape the wire form has no record for is refused like a wire fault:
    # one ValueError naming it, not a Python error from the conversion
    with pytest.raises(ValueError) as info:
        ConeSurface(lengths, sides)
    assert type(info.value) is ValueError and re.fullmatch(message, str(info.value))


# ---------------------------------------------------------------------------
# replacing lengths
# ---------------------------------------------------------------------------


def test_with_lengths(torus):
    moved = torus.with_lengths({"x": 1.3})
    assert moved.lengths["x"] == 1.3
    assert moved.lengths["y"] == 1.2
    assert torus.lengths["x"] == 1.2  # original untouched
    assert moved.triangles == torus.triangles


def test_gluing_is_checked_once(monkeypatch):
    built = count_constructions(monkeypatch, Triangulation)
    s = torus_surface(1.0, 1.3, 1.7)
    assert built == [s.triangulation]
    moved = s.with_lengths({"x": 1.1})
    scaled = s.with_length_vector(1.01 * s.length)
    assert moved.triangulation is s.triangulation is scaled.triangulation
    assert moved.lengths["x"] == 1.1 and list(scaled.length) == list(1.01 * s.length)
    # the lengths are still checked, naming the triangle
    with pytest.raises(TriangleInequality,
                       match=r"triangle 0 with edges \('x', 'y', 'z'\) and lengths \(1.0, 1.3, 2.5\)"):
        s.with_lengths({"z": 2.5})
    with pytest.raises(NonPositiveLength):
        s.with_length_vector([1.0, -1.3, 1.7])
    assert len(built) == 1


def walked_gluing(edge_ids, he_edge, he_dir):
    """The gluing checks and fan layout as Python walks over the triangles
    and half-edges: the reference for `check_gluing` and the Triangulation
    layout.  Returns (halves, twin, vertex_of, fan_order, fan_size) as
    lists, or raises the refusal of the first fault."""
    n_edges = len(edge_ids)
    he_edge, he_dir = np.array(he_edge, dtype=np.intp), np.array(he_dir, dtype=np.intp)
    nh, nt = len(he_edge), len(he_edge) // 3
    count = np.bincount(2 * he_edge + he_dir, minlength=2 * n_edges).reshape(-1, 2)
    bad = np.flatnonzero(np.any(count != 1, axis=1))
    if bad.size:
        i = int(bad[0])
        dirs = ["+-"[d] for d in he_dir[he_edge == i].tolist()]
        raise NonManifold(f"edge {edge_ids[i]!r} appears with directions {dirs}; "
                          "need exactly one '+' and one '-'")
    halves = np.empty(2 * n_edges, dtype=np.intp)
    halves[2 * he_edge + he_dir] = np.arange(nh)
    halves = halves.reshape(n_edges, 2)
    twin = halves[he_edge, 1 - he_dir]
    across = (twin // 3).tolist()
    reached, stack = {0}, [0]
    while stack:
        t = stack.pop()
        for t2 in across[3 * t:3 * t + 3]:
            if t2 not in reached:
                reached.add(t2)
                stack.append(t2)
    if len(reached) != nt:
        raise Disconnected(f"triangles {sorted(set(range(nt)) - reached)} are not glued "
                           "to triangle 0")
    sigma = twin[prv(np.arange(nh))].tolist()
    vertex_of, orbits = [-1] * nh, []
    for h in range(nh):
        if vertex_of[h] >= 0:
            continue
        orbit, g = [], h
        while vertex_of[g] < 0:
            vertex_of[g] = len(orbits)
            orbit.append(g)
            g = sigma[g]
        orbits.append(orbit)
    euler = len(orbits) - n_edges + nt
    if euler % 2:
        raise NonManifold(f"Euler characteristic {euler} is odd")
    if euler > 2:
        raise NonManifold(f"Euler characteristic {euler} exceeds 2")
    return (halves.tolist(), twin.tolist(), vertex_of, [g for o in orbits for g in o],
            [len(o) for o in orbits])


def random_gluings(seed, count):
    """(edge ids, he_edge, he_dir) of seeded random gluings of 2 to 24
    triangles: one to three parts of an even number of triangles, the sides
    of each part paired at random and the triangles then shuffled; each
    gluing is left as it is, or gets one direction flipped, or one side
    moved to another edge."""
    rng = random.Random(seed)
    for _ in range(count):
        parts = [2 * rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        nt = sum(parts)
        n_edges = 3 * nt // 2
        order = list(range(nt))
        rng.shuffle(order)
        slots, at = [], 0
        for size in parts:
            part = [3 * t + k for t in order[at:at + size] for k in range(3)]
            rng.shuffle(part)
            slots += part
            at += size
        he_edge, he_dir = [0] * (3 * nt), [0] * (3 * nt)
        for k, h in enumerate(slots):
            he_edge[h], he_dir[h] = k // 2, k % 2
        kind = rng.randrange(3)
        if kind == 1:
            he_dir[rng.randrange(3 * nt)] ^= 1
        elif kind == 2:
            he_edge[rng.randrange(3 * nt)] = rng.randrange(n_edges)
        yield [f"e{i:02d}" for i in range(n_edges)], he_edge, he_dir


def test_array_gluing_check_matches_the_walk(corpus):
    # valid gluings: the arrays of the walk, bit for bit
    surfaces = corpus + [stellar_surface(k, seed=1, start=start)
                         for k in (0, 48, 398) for start in ("tet", "tor")]
    for s in surfaces:
        sides = (s.edge_ids, s.he_edge.tolist(), s.he_dir.tolist())
        t = Triangulation(*sides)
        halves, twin, vertex_of, fan_order, fan_size = walked_gluing(*sides)
        assert t.halves.tolist() == halves and t.twin.tolist() == twin
        assert t.vertex_of.tolist() == vertex_of
        assert t.fan_order.tolist() == fan_order and t.fan_size.tolist() == fan_size
        assert t.vertex_of.dtype == t.fan_order.dtype == t.fan_size.dtype == np.intp
    # seeded random gluings, most of them malformed, and the empty one (the
    # walk from triangle 0 reaches more triangles than it has): the same refusal
    outcomes = Counter()
    for edge_ids, he_edge, he_dir in chain([([], [], [])], random_gluings("gluings", 600)):
        try:
            want = walked_gluing(edge_ids, he_edge, he_dir)
        except HypconeError as err:
            with pytest.raises(type(err)) as got:
                Triangulation(edge_ids, he_edge, he_dir)
            assert str(got.value) == str(err)
            with pytest.raises(type(err)) as got:
                surface_mod.check_gluing(edge_ids, he_edge, he_dir)
            assert str(got.value) == str(err)
            outcomes[type(err).__name__] += 1
            continue
        t = Triangulation(edge_ids, he_edge, he_dir)
        assert (t.halves.tolist(), t.twin.tolist(), t.vertex_of.tolist(),
                t.fan_order.tolist(), t.fan_size.tolist()) == want
        outcomes["valid"] += 1
    assert min(outcomes[k] for k in ("valid", "NonManifold", "Disconnected")) >= 50, outcomes


def test_lazy_fan_layout_matches_the_walked_germs(corpus):
    # the first read of any layout attribute lays out all four, as the germs
    # walked one at a time give them; a surface built on a gluing gets the
    # same layout whether or not the gluing laid its fans out first
    names = ("vertex_of", "fan_order", "fan_size", "n_vertices")
    surfaces = corpus + [stellar_surface(k, seed=1, start=start)
                         for k in (0, 48, 398) for start in ("tet", "tor")]
    gluings = [(s.edge_ids, s.he_edge.tolist(), s.he_dir.tolist()) for s in surfaces]
    for sides in random_gluings("gluings", 600):
        try:
            walked_gluing(*sides)
        except HypconeError:
            continue
        gluings.append(sides)
    assert len(gluings) >= 60
    for k, sides in enumerate(gluings):
        t = Triangulation(*sides)
        assert not set(names) & set(vars(t))
        getattr(t, names[k % 4])
        assert set(names) <= set(vars(t))
        germs = vertex_germs(t)
        assert t.n_vertices == len(germs)
        assert t.fan_order.tolist() == [g for orbit in germs for g in orbit]
        assert t.fan_size.tolist() == [len(orbit) for orbit in germs]
        vertex_of = [0] * t.n_half
        for v, orbit in enumerate(germs):
            for g in orbit:
                vertex_of[g] = v
        assert t.vertex_of.tolist() == vertex_of
        length = np.ones(t.n_edges)
        fresh = ConeSurface(length, Triangulation(*sides))
        laid = ConeSurface(length, t)
        assert set(names) <= set(vars(laid)) and not set(names) & set(vars(fresh))
        for name in names:
            assert np.array_equal(getattr(fresh, name), getattr(t, name))
            assert np.array_equal(getattr(laid, name), getattr(t, name))
        assert fresh.vertex_of.dtype == fresh.fan_order.dtype == fresh.fan_size.dtype == np.intp


def test_triangulation_arrays(skew_tetra):
    s = skew_tetra
    assert s.triangles == s.triangulation.triangles
    for h in range(s.n_half):
        assert s.twin[s.twin[h]] == h != s.twin[h]
        assert s.halves[s.he_edge[h], s.he_dir[h]] == h
    assert list(s.fan_order) == [g for orbit in vertex_germs(s) for g in orbit]
    assert list(s.fan_size) == [len(orbit) for orbit in vertex_germs(s)]
    for array in (s.he_edge, s.twin, s.halves, s.vertex_of, s.length, s.angle, s.cone_angle):
        with pytest.raises(ValueError):
            array[0] = 0


def test_length_vector_roundtrip(skew_tetra):
    vec = skew_tetra.length.copy()
    assert list(vec) == [skew_tetra.lengths[e] for e in skew_tetra.edge_ids]
    same = skew_tetra.with_length_vector(vec)
    assert same.lengths == skew_tetra.lengths
