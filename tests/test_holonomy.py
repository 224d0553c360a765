import math
import re
import subprocess
import sys
from array import array
from itertools import islice

import numpy as np
import pytest

from conftest import (blas_env, halfedges, side_length, stellar_surface, tetra_surface,
                      torus_surface, vertex_germs)
from test_sl2 import RefMatrix, ref_rotation_angle

from hypcone import (
    HypPoint,
    Sl2Matrix,
    alength_from_fixed_points,
    develop,
    holonomy_report,
    hyp_distance,
    serialize_surface,
    vertex_holonomy,
)
import hypcone.holonomy as holonomy_mod
import hypcone.cli as cli
from hypcone.cli import main
from hypcone.errors import NotElliptic, NumericalCollapse, WallAngle
from hypcone.sl2 import (_canonical, _rotation, elliptic_fixed_point, elliptic_trace,
                         half_plane_distance, hyp_direction)
from hypcone.surface import WALL_BAND, fmt17, nxt, prv, wall_margin


def corner(atlas, h):
    """Origin of half-edge h in the local chart of tri(h): N_h^-1(i)."""
    (a, b), (c, d) = atlas.normalizers[h].tolist()
    return HypPoint.from_complex((d * 1j - b) / (a - c * 1j))


def center(m):
    """The fixed point of elliptic m in the upper half-plane."""
    return complex(*elliptic_fixed_point(m.a, m.b, m.c, m.d))


def fresh_walk(atlas, germ):
    """Loop holonomy around the origin of `germ`, walked from germ itself and
    expressed in the local chart of tri(germ).

    This is the per-end walk the report once repeated for every edge end, at
    a cost of sum(deg^2); it is kept here as the reference for the one walk
    per vertex.
    """
    s = atlas.surface
    m = Sl2Matrix.from_entries(1.0, 0.0, 0.0, 1.0)
    g = germ
    for _ in range(s.fan_size[s.vertex_of[germ]]):
        shared = prv(g)
        m = m @ Sl2Matrix(atlas.transitions[shared])
        g = s.twin[shared]
    return m


def walk_fan_by_fan(s, transitions):
    """The prefix and loop products of `holonomy._fan_walks`, walked one fan
    at a time on plain floats, each fan from its base germ: the walk the
    lockstep replaced, kept here as its reference."""
    entries = iter(array("d", transitions.reshape(-1, 4)[prv(s.fan_order)].tobytes()))
    steps = zip(entries, entries, entries, entries)
    walk, loops = array("d"), array("d")
    for size in s.fan_size.tolist():
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for ta, tb, tc, td in islice(steps, size):
            walk.extend((a, b, c, d))
            a, b, c, d = (a * ta + b * tc, a * tb + b * td,
                          c * ta + d * tc, c * tb + d * td)
        loops.extend((a, b, c, d))
    prefix = np.empty((s.n_half, 4))
    prefix[s.fan_order] = np.frombuffer(walk).reshape(-1, 4)
    return prefix, np.frombuffer(loops).reshape(-1, 4)


def reference_report(atlas):
    """holonomy_report as the per-edge loop computed it, in rows (label,
    value, error): a trace law per vertex, then a wall test and a fixed point
    at each of the 2E edge ends and one scalar distance per edge."""
    s = atlas.surface
    vrows, verr = [], 0.0
    for v, ((a, _, _, d), theta) in enumerate(zip(atlas.loops.tolist(),
                                                   s.cone_angle.tolist())):
        tr, want = abs(a + d), 2.0 * abs(math.cos(theta / 2.0))
        verr = max(verr, abs(tr - want))
        vrows.append((v, tr, abs(tr - want)))
    erows, eerr = [], 0.0
    for e, length in zip(s.edge_ids, s.length.tolist()):
        h = min(halfedges(s, e))
        ends = []
        for g in (h, nxt(h)):
            v = int(s.vertex_of[g])
            if not elliptic_trace(2.0 * abs(math.cos(s.cone_angle[v] / 2.0))):
                raise WallAngle(f"at vertex {v} ")
        for g in (h, nxt(h)):
            z = complex(*elliptic_fixed_point(*atlas.loops[s.vertex_of[g]].tolist()))
            a, b, c, d = atlas.prefix[g].tolist()
            ends.append((d * z - b) / (a - c * z))
        got = half_plane_distance(ends[0].real, ends[0].imag, ends[1].real, ends[1].imag)
        eerr = max(eerr, abs(got - length))
        erows.append((e, got, abs(got - length)))
    return vrows, erows, max(verr, eerr)


def report_rows(atlas):
    """The columns of holonomy_report as the rows of `reference_report`."""
    s = atlas.surface
    traces, trace_errors, lengths, length_errors, maxerr = holonomy_report(atlas)
    return (list(zip(range(s.n_vertices), traces.tolist(), trace_errors.tolist())),
            list(zip(s.edge_ids, lengths.tolist(), length_errors.tolist())), maxerr)


def scalar_dump(atlas):
    """The dump as the per-vertex loop printed it: one Sl2Matrix per vertex,
    then its `_rotation` angle or the wall tag."""
    rows = []
    for v, (loop, margin) in enumerate(zip(atlas.loops.tolist(), atlas.margins.tolist())):
        m = Sl2Matrix.from_entries(*loop)
        tag = "wall" if margin < WALL_BAND else fmt17(_rotation(m)[1])
        rows.append("vertex %d: %.17g %.17g %.17g %.17g angle %s\n" % (v, m.a, m.b, m.c, m.d, tag))
    return "".join(rows)


def test_wall_distance():
    # the wall coordinate |sin(theta/2)| is half the distance to the nearest
    # wall 2*pi*k, to first order; the walls now include k = 0
    assert wall_margin(2 * math.pi) < 5e-10
    assert wall_margin(4 * math.pi - 1e-3) == pytest.approx(1e-3 / 2)
    assert wall_margin(1.0) == pytest.approx(math.sin(0.5))
    theta = np.array([2 * math.pi, 4 * math.pi - 1e-3, 1.0])
    assert wall_margin(theta).tolist() == [wall_margin(t) for t in theta.tolist()]


def test_developed_sides_have_stored_lengths(corpus):
    # each triangle developed into its own chart has its stored side lengths
    for s in corpus:
        atlas = develop(s)
        for h in range(s.n_half):
            t = 3 * (h // 3)  # the chart of tri(h) puts its side t on [i, i e^l]
            assert atlas.normalizers[t].tolist() == [[1.0, 0.0], [0.0, 1.0]]
            got = hyp_distance(corner(atlas, h), corner(atlas, nxt(h)))
            assert got == pytest.approx(side_length(s, h), abs=1e-9)


def test_developed_corners_have_metric_angles(corpus):
    # acid test of chart orientation: every corner angle of a triangle in its
    # own chart equals the law-of-cosines value, so no triangle is reflected
    for s in corpus:
        atlas = develop(s)
        for h in range(s.n_half):
            here = corner(atlas, h)
            toward = hyp_direction(here, corner(atlas, nxt(h)))
            back = hyp_direction(here, corner(atlas, prv(h)))
            spread = (back - toward) % (2 * math.pi)
            assert spread == pytest.approx(s.angle[h], abs=1e-9)


def test_vertex_holonomy_rotation_angle(corpus):
    for s in corpus:
        atlas = develop(s)
        for v in range(s.n_vertices):
            m = vertex_holonomy(atlas, v)
            want = s.cone_angle[v] % (2 * math.pi)
            assert _rotation(m)[1] == pytest.approx(want, abs=1e-8)


def test_vertex_holonomy_fixes_developed_vertex(corpus):
    # the loop is based in the local chart of its base germ's triangle, so it
    # fixes the vertex where that chart puts it, N_g^-1(i)
    for s in corpus:
        atlas = develop(s)
        for v, germs in enumerate(vertex_germs(s)):
            z = center(vertex_holonomy(atlas, v))
            g = germs[0]
            assert abs(z - corner(atlas, g).z) < 1e-8
            if g % 3 == 0:
                assert corner(atlas, g).z == 1j


def test_germ_fixed_points_match_fresh_walks(corpus):
    # the fixed points P_k^-1 fix(M_v) the report reads off the one walk per
    # vertex, in one array pass, are those of the walks started at each germ
    for s in corpus + [stellar_surface(48, seed=1, start="tor")]:
        atlas = develop(s)
        germs = np.arange(s.n_half)
        fix = holonomy_mod._fixed_points(atlas, s.vertex_of[germs][:, None])
        x, y = holonomy_mod._germ_images(atlas, germs, *fix)
        for g in range(s.n_half):
            want = center(fresh_walk(atlas, g))
            assert abs(complex(x[g], y[g]) - want) < 1e-12


def test_trace_law_and_length_recovery(corpus):
    for s in corpus:
        vrows, erows, maxerr = report_rows(develop(s))
        assert maxerr < 1e-8
        for v, trace, err in vrows:
            want = 2.0 * abs(math.cos(s.cone_angle[v] / 2.0))
            assert trace == pytest.approx(want, abs=1e-8)
        for e, recovered, err in erows:
            assert recovered == pytest.approx(s.lengths[e], abs=1e-8)


@pytest.mark.parametrize("surface", ["corpus", "tet-1200", "tor-1200"])
def test_report_matches_per_edge_reference(surface, corpus):
    # the array pass gives the rows of the per-edge loop bit for bit
    surfaces = {"corpus": corpus,
                "tet-1200": [stellar_surface(398, seed=2, start="tet")],
                "tor-1200": [stellar_surface(399, seed=2, start="tor")]}[surface]
    for s in surfaces:
        atlas = develop(s)
        want = reference_report(atlas)
        assert report_rows(atlas) == want
        for e, got, _ in want[1][:5]:
            assert alength_from_fixed_points(atlas, e) == got


@pytest.mark.parametrize("surface", ["corpus", "readme-torus", "tor-1200"])
def test_array_pass_matches_scalar_path(surface, corpus):
    # the dump's canonical rows and angles, the loop fixed points and the
    # trace-law columns are those of the per-vertex scalar path, bit for bit
    surfaces = {"corpus": corpus,
                "readme-torus": [torus_surface(1.0, 1.0, 1.9)],
                "tor-1200": [stellar_surface(399, seed=3, start="tor")]}[surface]
    for s in surfaces:
        atlas = develop(s)
        loops = atlas.loops.tolist()
        assert np.array(_canonical(*atlas.loops.T)).T.tolist() == \
            [list(_canonical(*loop)) for loop in loops]
        assert atlas.dump() == scalar_dump(atlas)
        x, y = holonomy_mod._fixed_points(atlas, np.arange(s.n_vertices)[:, None])
        assert [complex(*z) for z in zip(x.tolist(), y.tolist())] == \
            [complex(*elliptic_fixed_point(*loop)) for loop in loops]
        assert report_rows(atlas)[0] == reference_report(atlas)[0]


LONG_TETRA = {e: 400.0 * (1 + 0.03 * i) for i, e in enumerate(("ab", "ac", "ad", "bc", "bd", "cd"))}


@pytest.mark.parametrize("s", [
    torus_surface(1.0, 1.0, 1.9),
    tetra_surface(),
    stellar_surface(48, seed=1, start="tet"), stellar_surface(49, seed=1, start="tor"),
    stellar_surface(398, seed=1, start="tet"), stellar_surface(399, seed=1, start="tor"),
    torus_surface(100.0),
    tetra_surface(LONG_TETRA),
], ids=["readme-torus", "tetra", "tet-150", "tor-150", "tet-1200", "tor-1200", "torus-100",
        "long-tetra"])
def test_lockstep_walk_is_the_walk_fan_by_fan(s):
    # one fan (the whole walk is the float tail), four fans of 3 (no tail),
    # a unique largest fan (array steps, then its tail), a loop that loses
    # its determinant and transitions holding inf: every prefix and loop,
    # NaN included, has the bytes of the walk fan by fan
    transitions = holonomy_mod._local_charts(s)[1]
    prefix, loops = holonomy_mod._fan_walks(s, transitions)
    want_prefix, want_loops = walk_fan_by_fan(s, transitions)
    assert (prefix.shape, loops.shape) == ((s.n_half, 4), (s.n_vertices, 4))
    assert prefix.tobytes() == want_prefix.tobytes()
    assert loops.tobytes() == want_loops.tobytes()


def test_one_fixed_point_per_vertex(monkeypatch):
    # a report enters _fixed_points once, and that call evaluates the loops
    # of exactly the vertices its ends name: one edge costs two fixed points
    s = stellar_surface(199, seed=4, start="tor")
    atlas = develop(s)
    calls = []

    def recording(atlas, ends):
        x, y = fixed_points(atlas, ends)
        calls.append((set(ends.ravel().tolist()), set(np.flatnonzero(~np.isnan(x)).tolist())))
        return x, y

    fixed_points = holonomy_mod._fixed_points
    monkeypatch.setattr(holonomy_mod, "_fixed_points", recording)
    holonomy_report(atlas)
    assert calls == [(set(range(s.n_vertices)), set(range(s.n_vertices)))]
    calls.clear()
    alength_from_fixed_points(atlas, s.edge_ids[0])
    [(named, evaluated)] = calls
    assert len(named) == 2 and evaluated == named


def test_refusal_names_first_vertex_in_edge_order():
    # with several vertices refused, the report names the first one met
    # walking the edges in order, tail before head, as the per-edge loop did
    s = stellar_surface(48, seed=5, start="tet")
    atlas = develop(s)
    margins = atlas.margins

    def band(refuse):  # put the vertices of `refuse` into the atlas's wall band
        atlas.margins = margins.copy()
        atlas.margins[list(refuse)] = 0.0

    refuse = set(range(s.n_vertices // 2, s.n_vertices, 7)) | {s.n_vertices - 1}
    band(refuse)
    order = []
    for e in s.edge_ids:
        h = min(halfedges(s, e))
        order += [int(s.vertex_of[g]) for g in (h, nxt(h))]
    first = next(v for v in order if v in refuse)
    assert first != min(refuse)
    with pytest.raises(WallAngle, match=f" at vertex {first} has "):
        holonomy_report(atlas)
    # within one edge both walls are tested before either fixed point: a
    # wall at the head comes before a non-elliptic loop at the tail, whose
    # trace is put past 2 - TRACE_TOL
    tail, head = order[0], order[1]
    band({head})
    atlas.loops[tail, 0] = 2.0000004 - atlas.loops[tail, 3]
    assert not elliptic_trace(atlas.loops[tail, 0] + atlas.loops[tail, 3])
    with pytest.raises(WallAngle, match=f" at vertex {head} has "):
        holonomy_report(atlas)
    band(set())
    a, _, _, d = atlas.loops[tail].tolist()
    with pytest.raises(NotElliptic, match=f"^loop holonomy at vertex {tail} has trace "
                                          f"{re.escape(str(a + d))}, which is not elliptic$"):
        holonomy_report(atlas)


def test_alength_single_edge(skew_g1n2):
    atlas = develop(skew_g1n2)
    for e in skew_g1n2.edge_ids:
        got = alength_from_fixed_points(atlas, e)
        assert got == pytest.approx(skew_g1n2.lengths[e], abs=1e-8)


def test_transitions_map_twin_chart_onto_chart(corpus):
    for s in corpus:
        atlas = develop(s)
        assert len(atlas.transitions) == s.n_half
        for h in range(s.n_half):
            # the normalizer puts side h on [i, i e^l] ...
            n = Sl2Matrix(atlas.normalizers[h])
            assert abs(n.apply(corner(atlas, h).z) - 1j) < 1e-9
            top = 1j * math.exp(side_length(s, h))
            assert abs(n.apply(corner(atlas, nxt(h)).z) - top) < 1e-9
            # ... and the transition takes the copy of the edge in the chart
            # of tri(twin h) onto its copy in the chart of tri(h)
            m = Sl2Matrix(atlas.transitions[h])
            h2 = s.twin[h]
            assert abs(m.apply(corner(atlas, nxt(h2)).z) - corner(atlas, h).z) < 1e-9
            assert abs(m.apply(corner(atlas, h2).z) - corner(atlas, nxt(h)).z) < 1e-9


@pytest.mark.parametrize("sides", [(3e-3, 3.15e-3, 2.91e-3), (30.0, 30.0, 30.0)])
def test_near_wall_is_named_wall_angle(sides, tmp_path, capsys):
    # cone angles 7.9e-6 from 2*pi and 3.7e-6 from 0: both lie in the wall
    # band, where the loop trace 2|cos(theta/2)| is within sl2.TRACE_TOL of 2
    # and sl2.elliptic_trace stops calling an element elliptic
    s = torus_surface(*sides)
    atlas = develop(s)
    assert atlas.dump().splitlines()[-1].endswith(" angle wall")
    with pytest.raises(WallAngle, match="at vertex 0 "):
        vertex_holonomy(atlas, 0)
    with pytest.raises(WallAngle, match="at vertex 0 "):
        holonomy_report(atlas)
    path = tmp_path / "near_wall.json"
    path.write_text(serialize_surface(s))
    assert main(["holonomy", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[WallAngle]: ") and "at vertex 0 " in err


def test_wall_angle_refused():
    # the equilateral torus angle walks through 2*pi as the side shrinks
    s = torus_surface(2e-5)
    assert wall_margin(s.cone_angle[0]) < 5e-10
    atlas = develop(s)
    with pytest.raises(WallAngle):
        vertex_holonomy(atlas, 0)
    with pytest.raises(WallAngle):
        alength_from_fixed_points(atlas, "x")


def refused_at_vertex_0(s, error, tmp_path, capsys):
    """Assert that the holonomy report of s, in the library and through the
    CLI, is refused by `error` naming vertex 0, with its exit code; returns
    the CLI's stderr."""
    with pytest.raises(error, match=" at vertex 0 "):
        holonomy_report(develop(s))
    path = tmp_path / "refused.json"
    path.write_text(serialize_surface(s))
    assert main(["holonomy", "--input", str(path)]) == error.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error[{error.__name__}]: ") and " at vertex 0 " in err
    return err


def test_degenerate_layout_collapses(tmp_path, capsys):
    # the cone angle of the 1e-13 torus is 2*pi - 2e-15: a wall, refused
    # before anything is read off its loop
    s = torus_surface(1e-13)
    assert wall_margin(s.cone_angle[0]) < WALL_BAND
    refused_at_vertex_0(s, WallAngle, tmp_path, capsys)


@pytest.mark.parametrize("s, error, det", [
    (torus_surface(40.0), WallAngle, None),  # cone angle 2.5e-8
    (torus_surface(53.5, 56.175, 51.895), WallAngle, None),  # cone angle 8.9e-11
    (torus_surface(100.0), NumericalCollapse, "-9.7210982149446e+50"),  # cone angle 2.3e-21
    (torus_surface(150.0), NumericalCollapse, "0.0"),  # cone angle 3.2e-32
    (tetra_surface({e: 80.0 for e in ("ab", "ac", "ad", "bc", "bd", "cd")}),
     WallAngle, None),  # cone angle 2.5e-17
], ids=["torus-40", "torus-53.5", "torus-100", "torus-150", "tetra-80"])
def test_failed_layout_is_numerical_collapse(s, error, det, tmp_path, capsys):
    # on very long edges the cone angles fall into the wall band (exit 2),
    # unless the loop product loses its determinant before the wall test:
    # that is a numerical failure (exit 3), not bad input
    assert wall_margin(s.cone_angle[0]) < WALL_BAND
    if error is NumericalCollapse:
        with pytest.raises(NumericalCollapse,
                           match=f"^loop holonomy at vertex 0 has determinant {re.escape(det)}$"):
            develop(s)
    refused_at_vertex_0(s, error, tmp_path, capsys)


def test_collapse_names_first_vertex(monkeypatch):
    # every loop determinant is checked at once, and the first vertex in
    # order whose determinant is not positive and finite is named
    s = stellar_surface(48, seed=5, start="tet")
    walks = holonomy_mod._fan_walks

    def collapsing(surface, transitions):
        prefix, loops = walks(surface, transitions)
        loops[[7, 3]] = 0.0
        loops[9, 0] = math.inf
        return prefix, loops

    monkeypatch.setattr(holonomy_mod, "_fan_walks", collapsing)
    with pytest.raises(NumericalCollapse, match="^loop holonomy at vertex 3 has determinant 0.0$"):
        develop(s)


def test_long_edge_loop_not_elliptic_names_vertex(monkeypatch, tmp_path, capsys):
    # off the walls, a walked loop whose |trace| rounds past 2 - TRACE_TOL is
    # refused naming the vertex and that trace (exit 2).  With the acos
    # law's angles the 19-edge torus walked to 2.0000004; with the
    # half-angle law its loop is elliptic, so the walk is given that trace
    s = torus_surface(19.0)
    assert wall_margin(s.cone_angle[0]) >= WALL_BAND

    def develop_past_two(surface):
        atlas = develop(surface)
        atlas.loops[0, 0] = 2.0000004 - atlas.loops[0, 3]
        return atlas

    with pytest.raises(NotElliptic, match=" at vertex 0 "):
        holonomy_report(develop_past_two(s))
    monkeypatch.setattr(cli, "develop", develop_past_two)
    path = tmp_path / "refused.json"
    path.write_text(serialize_surface(s))
    assert main(["holonomy", "--input", str(path)]) == NotElliptic.exit_code
    a, _, _, d = develop_past_two(s).loops[0].tolist()
    assert capsys.readouterr().err == \
        f"error[NotElliptic]: loop holonomy at vertex 0 has trace {a + d}, which is not elliptic\n"


@pytest.mark.parametrize("s", [
    torus_surface(10.5), torus_surface(12.0), torus_surface(12.0, 12.6, 11.64),
    tetra_surface({e: 10.0 for e in ("ab", "ac", "ad", "bc", "bd", "cd")}),
    tetra_surface({e: 11.5 for e in ("ab", "ac", "ad", "bc", "bd", "cd")}),
], ids=["torus-10.5", "torus-12", "skew-torus-12", "tetra-10", "tetra-11.5"])
def test_long_edges_pass_the_certificate(s):
    # every triangle of the local charts closes with its corner angles, so
    # the certificate is as good as the angles: with the acos law's, which
    # lose up to 6e-8 of a small angle, these read 1.3e-8 to 1.0e-5
    maxerr = holonomy_report(develop(s))[-1]
    assert maxerr < 1e-8


@pytest.mark.parametrize("start, k, seed, base", [
    ("tet", 1598, 1, 1.3), ("tor", 1599, 1, 1.3),
    ("tor", 1600, "L6.0", 6.0), ("tor", 1600, "L8.0", 8.0),
], ids=["tet-1598", "tor-1599", "tor-1600-base-6", "tor-1600-base-8"])
def test_certificate_at_4800_edges(start, k, seed, base, tmp_path, capsys):
    # the local charts do not drift: both 4,800-edge families, and the
    # 4,803-edge tori with edges near 6 and near 8, pass the 1e-8 gate, in
    # the library and through the CLI
    s = stellar_surface(k, seed=seed, base=base, start=start)
    assert s.n_edges == (4800 if base == 1.3 else 4803)
    maxerr = holonomy_report(develop(s))[-1]
    assert maxerr < 1e-8
    path = tmp_path / "big.json"
    path.write_text(serialize_surface(s))
    assert main(["holonomy", "--input", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_holonomy_report_does_not_depend_on_the_blas_kernel(coretype, tmp_path, capsys):
    # the charts are element-wise 2x2 products, never a BLAS call, so every
    # OpenBLAS kernel gives the bytes of the default kernel's report
    for name, s in (("torus", torus_surface(1.0, 1.0, 1.9)),
                    ("stellar", stellar_surface(198, seed=1))):  # 600 edges
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_surface(s))
        argv = ["holonomy", "--format", "structured", "--input", str(path)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0
        proc = subprocess.run([sys.executable, "-m", "hypcone.cli", *argv],
                              capture_output=True, text=True, env=blas_env(coretype))
        assert (proc.returncode, proc.stderr, proc.stdout) == (code, err, out), name


def test_dump_text(skew_g1n2):
    text = develop(skew_g1n2).dump()
    lines = text.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["vertex 0", "vertex 1"]
    assert len(lines[0].split()) == 8  # label, index, four entries, "angle", angle
    wall = develop(torus_surface(2e-5)).dump()
    assert "angle wall" in wall


@pytest.mark.parametrize("surface, walls", [
    (stellar_surface(49, 1, start="tor"), 0),
    (torus_surface(3e-3, 3.15e-3, 2.91e-3), 1),
], ids=["stellar-tor-150", "near-wall-torus"])
def test_vertex_dump_rows_match_reference(surface, walls):
    # every vertex row as the array-based layer printed it: the entries of
    # the normalized loop, then its directed angle or the wall tag
    atlas = develop(surface)
    rows = [line for line in atlas.dump().splitlines() if line.startswith("vertex ")]
    want = []
    for v, (a, b, c, d) in enumerate(atlas.loops.tolist()):
        ref = RefMatrix([[a, b], [c, d]])
        entries = " ".join(fmt17(x) for x in ref.mat.ravel().tolist())
        if elliptic_trace(2.0 * abs(math.cos(surface.cone_angle[v] / 2.0))):
            tag = fmt17(ref_rotation_angle(ref))
        else:
            tag = "wall"
        want.append(f"vertex {v}: {entries} angle {tag}")
    assert rows == want
    assert sum(row.endswith(" wall") for row in rows) == walls
