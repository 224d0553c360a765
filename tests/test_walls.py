"""One wall: validate, holonomy and poisson read the same wall_margin."""

import math

import numpy as np
import pytest

from conftest import stellar_surface, torus_surface
from test_sl2 import RefMatrix, ref_rotation_angle

import hypcone.holonomy as holonomy_mod
import hypcone.surface as surface_mod
from hypcone import develop, serialize_surface, vertex_holonomy
from hypcone.cli import main
from hypcone.errors import WallAngle
from hypcone.poisson import WALL_GUARD
from hypcone.sl2 import _canonical, elliptic_trace
from hypcone.surface import WALL_BAND, classify_angles, cone_angles, fmt17, wall_margin

# the equilateral torus angle runs from 2*pi (side -> 0) down to 0 (side ->
# infinity); it leaves the band near side 8.6e-3 and enters it again near 24
SIDES = sorted(set(np.geomspace(2e-5, 30.0, 40).tolist()
                   + np.linspace(8e-3, 9.2e-3, 7).tolist()
                   + np.linspace(22.0, 26.0, 7).tolist()))
TORI = [(a, a, a) for a in SIDES] + [(1e-3, 1e-3, 1e-3), (3e-3, 3.15e-3, 2.91e-3)]


def report(capsys, *argv):
    code = main(list(argv) + ["--format", "structured"])
    captured = capsys.readouterr()
    rows = dict(line.split("=", 1) for line in captured.out.splitlines())
    return code, rows, captured.err


def test_wall_band_is_the_loop_trace_test():
    # below WALL_BAND exactly where the loop trace 2|cos(theta/2)| leaves
    # sl2.elliptic_trace, on angles 1e-9 to 1e-6 either side of each band
    # edge near 0, 2*pi and 4*pi (closer in, the trace's rounding decides)
    rng = np.random.default_rng(7)
    edge = 2.0 * math.asin(WALL_BAND)
    for wall in (0.0, 2.0 * math.pi, 4.0 * math.pi):
        for side in (wall - edge, wall + edge):
            if side < 0.0:
                continue
            offset = 10.0 ** rng.uniform(-9.0, -6.0, 2000) * rng.choice([-1.0, 1.0], 2000)
            theta = side + offset
            inside = wall_margin(theta) < WALL_BAND
            by_trace = [not elliptic_trace(2.0 * abs(math.cos(t / 2.0))) for t in theta.tolist()]
            assert inside.tolist() == by_trace
            assert 0 < int(inside.sum()) < len(theta)


@pytest.mark.parametrize("sides", TORI, ids=lambda s: "%.3g-%.3g-%.3g" % s)
def test_every_report_reads_one_wall(sides, tmp_path, capsys):
    s = torus_surface(*sides)
    margin = float(wall_margin(s.cone_angle[0]))
    inside = margin < WALL_BAND
    path = tmp_path / "torus.json"
    path.write_text(serialize_surface(s))

    assert classify_angles(cone_angles(s)).off_walls is not inside
    code, rows, _ = report(capsys, "validate", "--input", str(path))
    assert code == 0 and rows["off_walls"] == ("false" if inside else "true")

    atlas = develop(s)
    assert atlas.dump().splitlines()[-1].endswith(" angle wall") is inside
    if inside:
        with pytest.raises(WallAngle, match="at vertex 0 "):
            vertex_holonomy(atlas, 0)
    else:
        vertex_holonomy(atlas, 0)
    code, rows, err = report(capsys, "holonomy", "--input", str(path))
    if inside:
        assert code == 2 and err.startswith("error[WallAngle]: ") and "at vertex 0 " in err
    else:
        # off the band only the loop's own trace can refuse: past side ~18 the
        # long-edge charts lose it (NotElliptic, exit 2), a fault of its own
        assert "WallAngle" not in err
        if code != 2:
            assert not rows["vertex.0"].endswith(" angle wall")

    # poisson refuses exactly below its guard, inside the band
    code, rows, err = report(capsys, "poisson", "--input", str(path))
    assert (code == 2) is (margin < WALL_GUARD)
    if code == 2:
        assert err.startswith("error[WallAngle]: vertex 0 ")
    else:
        assert rows["wall_margin.0"] == fmt17(margin)
    for guard, refused in ((margin, False), (math.nextafter(margin, math.inf), True)):
        code, _, err = report(capsys, "poisson", "--input", str(path),
                              "--tol", f"wall={fmt17(guard)}", "--tol", "jacobi=1e9",
                              "--tol", "radical=1e9")
        assert (code == 2) is refused, (guard, err)


def test_band_evaluated_once_per_vertex(monkeypatch, tmp_path, capsys):
    # one wall_margin per vertex per report: the atlas keeps the margins for
    # the dump, the trace rows and the length recovery
    s = stellar_surface(30, seed=3, start="tor")
    path = tmp_path / "stellar.json"
    path.write_text(serialize_surface(s))
    evaluated = []

    def counting(theta):
        evaluated.append(np.size(theta))
        return wall_margin(theta)

    monkeypatch.setattr(holonomy_mod, "wall_margin", counting)
    monkeypatch.setattr(surface_mod, "wall_margin", counting)
    for sub in ("holonomy", "validate"):
        evaluated.clear()
        code, _, _ = report(capsys, sub, "--input", str(path))
        assert code == 0 and sum(evaluated) == s.n_vertices, sub


def test_dump_angle_is_the_rotation_angle():
    # the dump reads each vertex angle off the canonical entries, bit for
    # bit the counterclockwise angle of the array-based reference
    atlases = [develop(stellar_surface(k, seed=seed, start=start))
               for k, seed, start in ((40, 1, "tet"), (40, 2, "tor"), (120, 3, "tet"))]
    want = [[fmt17(ref_rotation_angle(RefMatrix(row.reshape(2, 2))))
             for row in np.array(_canonical(*atlas.loops.T)).T] for atlas in atlases]
    for atlas, angles in zip(atlases, want):
        rows = [line for line in atlas.dump().splitlines() if line.startswith("vertex ")]
        assert [row.rsplit(" angle ", 1)[1] for row in rows] == angles
