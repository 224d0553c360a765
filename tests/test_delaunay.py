import math
from collections import Counter

import numpy as np
import pytest

from conftest import (
    bits,
    count_constructions,
    halfedges,
    scanned_halfedges,
    side_length,
    stellar_surface,
    stretch,
    tetra_surface,
    torus_surface,
)

from hypcone import (
    ConeSurface,
    HypPoint,
    corner_angle,
    edge_invariant,
    edge_invariants,
    eta_matrix,
    flip,
    flip_coordinate_jacobian,
    flip_new_length,
    hyp_distance,
    hyp_exp,
    make_delaunay,
    normalizing_isometry,
)
import hypcone.delaunay as delaunay_mod
from hypcone.cli import main
from hypcone.delaunay import PSI_TOL, flip_length_jacobian, move_log_lines
from hypcone.sl2 import hyp_direction
from hypcone.surface import Triangulation, fmt17, nxt, parse_surface, prv, serialize_surface
from hypcone.errors import (
    Disconnected,
    NonManifold,
    NonPositiveLength,
    NonTermination,
    TriangleInequality,
    UnflippableConfiguration,
    WallAngle,
)


def metric_fingerprint(s):
    """Invariants of the metric that flips must not touch."""
    return (
        s.genus,
        s.n_vertices,
        tuple(round(t, 9) for t in sorted(s.cone_angle)),
        round(s.area(), 9),
    )


def test_edge_invariant_is_opposite_angle_defect(skew_torus):
    s = skew_torus
    for e in s.edge_ids:
        hf, hb = halfedges(s, e)
        want = math.pi - s.angle[prv(hf)] - s.angle[prv(hb)]
        assert edge_invariant(s, e) == pytest.approx(want, abs=1e-14)
    assert edge_invariants(s) == {e: edge_invariant(s, e) for e in s.edge_ids}


def test_flip_length_against_law_of_cosines():
    # independent trig route: open the quadrilateral at the shared corner and
    # apply the law of cosines to the two sides meeting there
    s = torus_surface(1.0, 1.0, 1.9)
    for e in s.edge_ids:
        hf, hb = halfedges(s, e)
        lpx = side_length(s, prv(hf))
        lpy = side_length(s, nxt(hb))
        spread = s.angle[hf] + s.angle[nxt(hb)]
        coshd = math.cosh(lpx) * math.cosh(lpy) - math.sinh(lpx) * math.sinh(
            lpy
        ) * math.cos(spread)
        try:
            got = flip_new_length(s, e)
        except UnflippableConfiguration:
            continue
        assert got == pytest.approx(math.acosh(coshd), abs=1e-12)


@pytest.mark.parametrize("sides, e, want", [
    ((360.0, 360.0, 719.64), "z", 1.2363029869129913722),
    ((711.0, 100.0, 711.0), "x", 711.0),
    ((711.0, 700.0, 711.0), "x", 711.0000334031226367879),
])
def test_flip_length_next_to_long_sides(sides, e, want):
    # sinh a sinh b of the two sides at p overflows (and sinh 711 alone),
    # while the diagonal is moderate; want from the law of cosines in mpmath
    # at 1,500 digits
    s = torus_surface(*sides)
    assert flip_new_length(s, e) == pytest.approx(want, rel=4e-16)


def test_make_delaunay_flips_next_to_long_sides():
    # the one flip of the torus (360, 360, 719.64), refused while its
    # sinh a sinh b overflowed
    out, moves = make_delaunay(torus_surface(360.0, 360.0, 719.64))
    assert [m.edge for m in moves] == ["z"]
    assert out.lengths["z"] == 1.2363029869129911
    assert min(edge_invariants(out).values()) >= 0.0


def developed_flip_length(s, e):
    """Reference flip: develop the quadrilateral of e into the half-plane.

    The edge runs p -> q up the imaginary axis, with apex x placed to its
    left and apex y to its right.  Returns the developed distance d(x, y), or
    None when p and q do not lie on opposite sides of the geodesic x-y.
    """
    hf, hb = halfedges(s, e)
    if hf // 3 == hb // 3:
        return None
    ln = s.lengths[e]
    p = HypPoint(0.0, 1.0)
    q = HypPoint(0.0, math.exp(ln))

    def apex(p, q, l_px, l_qx):  # turned left of p -> q by the corner at p
        return hyp_exp(p, hyp_direction(p, q) + corner_angle(ln, l_px, l_qx), l_px)

    x = apex(p, q, side_length(s, prv(hf)), side_length(s, nxt(hf)))
    y = apex(q, p, side_length(s, prv(hb)), side_length(s, nxt(hb)))
    norm = normalizing_isometry(x, y)
    if not norm.apply(p.z).real * norm.apply(q.z).real < 0.0:
        return None
    return hyp_distance(x, y)


def random_tori_and_tetrahedra(rng, count):
    """Seeded tori and tetrahedra with lengths spread wide enough that some
    quadrilaterals are reflex at an end of their diagonal."""
    keys = ("ab", "ac", "ad", "bc", "bd", "cd")
    out = []
    while len(out) < count:
        try:
            if len(out) % 2:
                out.append(tetra_surface(dict(zip(keys, rng.uniform(0.2, 3.0, size=6)))))
            else:
                out.append(torus_surface(*rng.uniform(0.2, 3.0, size=3)))
        except TriangleInequality:
            continue
    return out


def test_flip_length_matches_developed_quad(corpus):
    surfaces = corpus + random_tori_and_tetrahedra(np.random.default_rng(3), 200)
    verdicts = Counter()
    for s in surfaces:
        for e in s.edge_ids:
            want = developed_flip_length(s, e)
            try:
                got = flip_new_length(s, e)
            except UnflippableConfiguration:
                got = None
            assert (got is None) == (want is None), (s.lengths, e)
            if got is not None:
                assert got == pytest.approx(want, rel=0, abs=1e-12)
            verdicts[got is None] += 1
    # both verdicts occur, so the reflex-quad branch is exercised
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_flip_preserves_metric(skew_g1n2):
    before = metric_fingerprint(skew_g1n2)
    flipped, move = flip(skew_g1n2, "h")
    assert metric_fingerprint(flipped) == before
    assert move.edge == "h"
    assert move.pre_length == skew_g1n2.lengths["h"]
    assert flipped.lengths["h"] == move.post_length
    assert set(flipped.edge_ids) == set(skew_g1n2.edge_ids)


def test_flip_makes_bad_edge_good():
    s = torus_surface(1.0, 1.0, 1.9)
    assert edge_invariant(s, "z") < 0
    flipped, _ = flip(s, "z")
    assert edge_invariant(flipped, "z") > 0


def test_double_flip_restores_geometry(skew_g1n2):
    # flipping twice returns the same metric triangulation (possibly with
    # relabeled directions), so compare everything by edge id
    s = skew_g1n2
    once, _ = flip(s, "w")
    twice, _ = flip(once, "w")
    for e in s.edge_ids:
        assert twice.lengths[e] == pytest.approx(s.lengths[e], abs=1e-9)
    tri_ids = lambda t: Counter(frozenset(Counter(e for e, _ in tri).items()) for tri in t.triangles)
    assert tri_ids(twice) == tri_ids(s)
    assert np.allclose(twice.cone_angle, s.cone_angle, atol=1e-9)
    psi_s = edge_invariants(s)
    psi_t = edge_invariants(twice)
    for e in s.edge_ids:
        assert psi_t[e] == pytest.approx(psi_s[e], abs=1e-9)


def test_self_glued_edge_is_unflippable():
    s = ConeSurface(
        {"x": 1.0, "y": 1.5, "z": 1.0},
        [[("x", "+"), ("x", "-"), ("y", "+")], [("y", "-"), ("z", "+"), ("z", "-")]],
    )
    with pytest.raises(UnflippableConfiguration):
        flip(s, "x")
    # such edges never block the algorithm: their invariant is positive
    assert edge_invariant(s, "x") > 0


def test_make_delaunay_demo_torus():
    s = torus_surface(1.0, 1.0, 1.9)
    final, moves = make_delaunay(s)
    assert len(moves) == 1
    assert moves[0].edge == "z"
    assert moves[0].pre_psi0 == pytest.approx(edge_invariant(s, "z"))
    assert min(edge_invariants(final).values()) >= -PSI_TOL
    assert metric_fingerprint(final) == metric_fingerprint(s)


def test_make_delaunay_fixed_point(torus, sphere3, tetra):
    for s in (torus, sphere3, tetra):
        final, moves = make_delaunay(s)
        assert moves == []
        assert final.lengths == s.lengths


def seeded_delaunay_inputs():
    """60 seeded one-vertex tori and tetrahedra with lengths in [1, 2]."""
    rng = np.random.default_rng(42)
    out = []
    for _ in range(60):
        combinatorics = rng.uniform()
        if combinatorics < 0.5:
            out.append(torus_surface(*rng.uniform(1.0, 2.0, size=3)))
        else:
            keys = ("ab", "ac", "ad", "bc", "bd", "cd")
            out.append(tetra_surface(dict(zip(keys, rng.uniform(1.0, 2.0, size=6)))))
    return out


def test_make_delaunay_randomized():
    done = 0
    for s in seeded_delaunay_inputs():
        try:
            before = metric_fingerprint(s)
        except WallAngle:  # pragma: no cover
            continue
        final, moves = make_delaunay(s)
        assert min(edge_invariants(final).values()) >= -PSI_TOL
        assert metric_fingerprint(final) == before
        # replay the flips: every surface passed through keeps its edge index
        passed = [s]
        for move in moves:
            passed.append(flip(passed[-1], move.edge)[0])
        assert passed[-1].lengths == final.lengths
        for t in passed:
            for e in t.edge_ids:
                assert halfedges(t, e) == scanned_halfedges(t, e)
        done += 1
    assert done == 60


def rescan_make_delaunay(s, tol=PSI_TOL):
    """Reference flip loop: rebuild the surface after every flip and scan
    every edge for the most negative psi0, ties by the first id."""
    moves = []
    while True:
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


def scrambled_stellar_surface(k, seed):
    return stretch(stellar_surface(k, seed), seed)


def test_make_delaunay_matches_rescan(corpus):
    surfaces = corpus + seeded_delaunay_inputs() + [
        scrambled_stellar_surface(98, seed) for seed in (1, 2, 3)]  # 300 edges
    flipped = 0
    for s in surfaces:
        final, moves = make_delaunay(s)
        want, want_moves = rescan_make_delaunay(s)
        assert moves == want_moves
        assert final.lengths == want.lengths
        assert final.triangles == want.triangles
        assert edge_invariants(final) == edge_invariants(want)
        flipped += len(moves)
    assert flipped >= 30


def test_make_delaunay_builds_one_surface(monkeypatch):
    s = scrambled_stellar_surface(398, 1)  # 1,200 edges
    built = []
    init = ConeSurface.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConeSurface, "__init__", counting_init)
    final, moves = make_delaunay(s)
    assert len(moves) >= 30
    assert built == [final]


def test_make_delaunay_checks_gluing_once(monkeypatch):
    s = scrambled_stellar_surface(398, 1)  # 1,200 edges
    built = count_constructions(monkeypatch, Triangulation)
    final, moves = make_delaunay(s)
    assert len(moves) >= 30
    assert built == [final.triangulation]


def test_delaunay_result_matches_a_fresh_build(corpus):
    # the result is built from its lengths and gluing like any surface:
    # every array derived from its corner angles equals a fresh build's,
    # bit for bit
    scrambled = [stretch(stellar_surface(k, seed, start=start), seed)
                 for start, k in (("tet", 198), ("tor", 199), ("tet", 398), ("tor", 399))
                 for seed in (1, 2)]  # 600 and 1,200 edges
    flipped = 0
    for s in corpus + scrambled:
        final, moves = make_delaunay(s)
        fresh = ConeSurface(final.length, final.triangulation)
        for name in ("angle", "fan_sums", "cone_angle", "triangle_areas"):
            assert bits(getattr(final, name)) == bits(getattr(fresh, name)), name
        flipped += bool(moves)
    assert flipped >= len(scrambled)


def test_flip_state_angles_match_array_built_surface():
    # a flip takes the sums of its six corners on floats, a surface build
    # those of all corners on arrays, and both pass them to the one kernel:
    # the angles must agree bit for bit
    s = scrambled_stellar_surface(398, 1)
    final, moves = make_delaunay(s)
    assert len(moves) >= 30
    state = delaunay_mod.FlipState(s)
    for move in moves:
        state.flip(move.edge)
    assert state.he_edge == final.he_edge.tolist()
    assert bits(state.angle) == bits(ConeSurface(final.length, final).angle)


def test_flip_state_surface_computes_its_own_angles():
    # the surface of a flip state takes only its gluing and lengths: a
    # corrupted corner angle of the state does not reach it
    s = scrambled_stellar_surface(98, 1)
    state = delaunay_mod.FlipState(s)
    move = state.flip(make_delaunay(s)[1][0].edge)
    state.angle[state.slots(move)[0]] += 0.25
    built = state.surface()
    assert bits(built.angle) == bits(ConeSurface(built.length, built.triangulation).angle)


def test_make_delaunay_flip_limit(monkeypatch):
    s = scrambled_stellar_surface(98, 1)
    _, moves = make_delaunay(s)
    assert len(moves) >= 2
    # exactly MAX_FLIPS flips are allowed; one more needed flip is refused
    monkeypatch.setattr(delaunay_mod, "MAX_FLIPS", len(moves))
    assert make_delaunay(s)[1] == moves
    monkeypatch.setattr(delaunay_mod, "MAX_FLIPS", len(moves) - 1)
    with pytest.raises(NonTermination) as info:
        make_delaunay(s)
    assert str(info.value) == (f"still not Delaunay after {len(moves) - 1} flips; "
                               f"last edge {moves[-2].edge!r}")


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_make_delaunay_refuses_a_tol_that_is_not_finite_and_nonnegative(monkeypatch, tol):
    # refused before any flip: with MAX_FLIPS this small, a loop that ran on
    # with tol = -1 would end in NonTermination, not in the ValueError
    monkeypatch.setattr(delaunay_mod, "MAX_FLIPS", 3)
    s = torus_surface(1.0, 1.0, 1.9)
    with pytest.raises(ValueError) as info:
        make_delaunay(s, tol=tol)
    assert str(info.value) == f"tol must be a finite number >= 0, not {tol!r}"
    final, moves = make_delaunay(s, tol=0.0)
    assert [m.edge for m in moves] == ["z"] and min(edge_invariants(final).values()) >= 0.0


def report(capsys, tmp_path, s, fmt):
    path = tmp_path / "in.json"
    path.write_text(serialize_surface(s))
    code = main(["delaunay", "--input", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def surface_rows(s):
    """The delaunay report's rows as (key, value text), read off the surface
    make_delaunay returns for the document of s."""
    final, moves = make_delaunay(parse_surface(serialize_surface(s)))
    psi = edge_invariants(final)
    at = min(final.edge_ids, key=psi.get)
    return ([("flips", str(len(moves)))]
            + [(f"move.{i}", line) for i, line in enumerate(move_log_lines(moves))]
            + [(f"psi.{e}", fmt17(psi[e])) for e in final.edge_ids]
            + [("psi_min", fmt17(psi[at])), ("psi_min_at", at)]
            + [(f"length.{e}", fmt17(x)) for e, x in zip(final.edge_ids, final.length.tolist())])


def test_report_rows_match_the_built_surface(capsys, tmp_path, corpus):
    # the report's rows, in both formats, are those of the surface
    # make_delaunay builds
    surfaces = (corpus + seeded_delaunay_inputs() + [scrambled_stellar_surface(98, 1)]
                + [tetra_surface(), torus_surface(1.3, 1.3, 1.3)])  # no flip, a tie
    flipped = 0
    for s in surfaces:
        rows = surface_rows(s)
        for fmt, sep in (("text", ": "), ("structured", "=")):
            assert report(capsys, tmp_path, s, fmt) == (
                0, "".join(f"{key}{sep}{value}\n" for key, value in rows))
        flipped += rows[0][1] != "0"
    assert flipped >= 7
    # the equilateral torus ties every edge: the first id is the worst
    assert ("psi_min_at", "x") in surface_rows(torus_surface(1.3, 1.3, 1.3))


def test_report_checks_the_flipped_surface_but_sums_no_fan(monkeypatch, capsys, tmp_path):
    # the report builds and checks the input surface and make_delaunay's;
    # it reads psi0 and the lengths, so neither sums its fans, lays them
    # out or sums its areas, and only the input, which FlipState reads,
    # indexes its ids
    s = scrambled_stellar_surface(48, 1)  # 150 edges
    surfaces = count_constructions(monkeypatch, ConeSurface)
    gluings = count_constructions(monkeypatch, Triangulation)
    code, out = report(capsys, tmp_path, s, "structured")
    assert code == 0 and not out.startswith("flips=0\n")
    assert len(surfaces) == len(gluings) == 2
    assert [built.triangulation for built in surfaces] == gluings
    layout = {"vertex_of", "fan_order", "fan_size", "n_vertices"}
    for built in surfaces + gluings:
        assert not {"fan_sums", "cone_angle", "lengths", "triangle_areas"} & set(vars(built))
        assert not layout & set(vars(built))
    given, flipped = surfaces
    assert "edge_index" in vars(given)
    assert "edge_index" not in vars(flipped)


def swap_two_half_edges(state):
    """Two half-edges of opposite directions trade edges: each of the two
    edges then occurs twice in one direction."""
    i, j = state.edge_index["e10"], state.edge_index["e20"]
    hf, hb = state.halves[i][0], state.halves[j][1]
    state.he_edge[hf], state.he_edge[hb] = j, i


def cut_off_two_triangles(state, t=5, u=40):
    """Triangles t and u glued only to each other, the old neighbours of t
    glued to those of u in their place: the pair is cut off the rest."""
    own = [(state.he_edge[h], state.he_dir[h]) for h in range(3 * t, 3 * t + 3)]
    other = [(state.he_edge[h], state.he_dir[h]) for h in range(3 * u, 3 * u + 3)]
    assert not {e for e, _ in own} & {e for e, _ in other}
    twins = [state.halves[e][1 - d] for e, d in own]
    for (e, d), h in zip(own, range(3 * u + 2, 3 * u - 1, -1)):
        state.he_edge[h], state.he_dir[h] = e, 1 - d
    for (f, d), g in zip(other, twins):
        state.he_edge[g], state.he_dir[g] = f, d


def stretch_a_side(state):
    state.length[state.edge_index["e10"]] = 10.0


def make_a_length_nan(state):
    state.length[state.edge_index["e20"]] = math.nan


@pytest.mark.parametrize("corrupt, error", [
    (swap_two_half_edges, NonManifold), (cut_off_two_triangles, Disconnected),
    (stretch_a_side, TriangleInequality), (make_a_length_nan, NonPositiveLength)])
def test_report_refuses_a_corrupted_flip_state(monkeypatch, capsys, tmp_path, corrupt, error):
    # the flipped state is checked as any surface build checks its input: a
    # state corrupted after the last flip ends the report in that refusal
    s = scrambled_stellar_surface(48, 1)  # 150 edges
    surface = delaunay_mod.FlipState.surface

    def corrupted_surface(state):
        corrupt(state)
        return surface(state)

    monkeypatch.setattr(delaunay_mod.FlipState, "surface", corrupted_surface)
    with pytest.raises(error) as built:
        make_delaunay(s)
    path = tmp_path / "in.json"
    path.write_text(serialize_surface(s))
    assert main(["delaunay", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error[{error.__name__}]: {built.value}\n")


def full_flip_length_jacobian(s, e, rel_step=1e-6):
    """Reference row: central differences in every edge length."""
    row = np.zeros(s.n_edges)
    for k, eid in enumerate(s.edge_ids):
        a = s.lengths[eid]
        h = rel_step * max(1.0, a)
        up = flip_new_length(s.with_lengths({eid: a + h}), e)
        dn = flip_new_length(s.with_lengths({eid: a - h}), e)
        row[k] = (up - dn) / (2.0 * h)
    return row


def test_flip_length_jacobian_matches_full_differences(corpus):
    cases = [(s, e) for s in corpus for e in s.edge_ids]
    s = scrambled_stellar_surface(18, 1)  # 60 edges
    cases += [(s, e) for e in s.edge_ids[::10]]
    checked = 0
    for s, e in cases:
        try:
            flip_new_length(s, e)
        except UnflippableConfiguration:
            continue
        assert flip_length_jacobian(s, e).tobytes() == \
            full_flip_length_jacobian(s, e).tobytes()
        checked += 1
    assert checked >= 20


def test_bivector_transport_through_flip():
    # the bivector lives on the moduli space: expressed in post-flip
    # coordinates it must pull back to the pre-flip matrix along the
    # numerical Jacobian of the coordinate change
    cases = [torus_surface(1.0, 1.0, 1.9), torus_surface(1.3, 1.1, 2.0)]
    for s in cases:
        for e in s.edge_ids:
            try:
                flipped, _ = flip(s, e)
            except UnflippableConfiguration:
                continue
            j = flip_coordinate_jacobian(s, e)
            p_pre = eta_matrix(s)
            p_post = eta_matrix(flipped)
            err = np.max(np.abs(j @ p_pre @ j.T - p_post))
            assert err <= 1e-4 * max(1.0, np.max(np.abs(p_post)))


def test_move_log_lines():
    s = torus_surface(1.0, 1.0, 1.9)
    _, moves = make_delaunay(s)
    lines = move_log_lines(moves)
    assert len(lines) == 1
    assert lines[0].startswith("flip z pre 1.8999999999999999 post ")
    assert "psi0 -" in lines[0]
