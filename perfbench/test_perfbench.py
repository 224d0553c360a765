"""The benchmark's own tests; small surfaces, a few seconds in all.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math

import pytest

import oracles
from run import import_cli, make_surface
from spans import Tracer, instrument
from speed import REFERENCE_S, WINDOW_S, Speedometer
from surfaces import (FAMILIES, STRETCH_FACTOR, k_for_edges, stellar, stretch,
                      wall_margin)

cli, HolonomyAtlas = import_cli()
from hypcone import build_surface  # noqa: E402


def report(sub, surface, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(surface.to_json())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([sub, "--format", "structured", "--input", str(path)])
    return code, out.getvalue()


def rows_of(sub, surface, tmp_path):
    code, text = report(sub, surface, tmp_path)
    assert code == 0
    return oracles.parse(text)


def problems(sub, surface, rows):
    text = "".join(f"{k}={v}\n" for k, v in rows.items())
    return oracles.check(sub, oracles.Expected(surface), 0, text)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 7, 40])
def test_generators_give_expected_g_v_e(family, k):
    s = stellar(family, k, "t")
    genus, v, e = (0, 4 + k, 6 + 3 * k) if family == "tet" else (1, 1 + k, 3 + 3 * k)
    assert (s.genus, s.n_vertices, s.n_edges, len(s.sides)) == (genus, v, e, 2 * e // 3)
    built = build_surface(json.loads(s.to_json()))
    assert (built.genus, built.n_vertices, built.n_edges) == (genus, v, e)
    assert all(0.95 * 1.3 <= ln <= 1.05 * 1.3 for ln in s.lengths.values())


def test_generators_are_seeded():
    assert stellar("tor", 20, "a").to_json() == stellar("tor", 20, "a").to_json()
    assert stellar("tor", 20, "a").to_json() != stellar("tor", 20, "b").to_json()
    assert make_surface("fixed", "tet", 60, 1).to_json() == \
        make_surface("fixed", "tet", 60, 2).to_json()


@pytest.mark.parametrize("family", FAMILIES)
def test_stretch_makes_a_valid_non_delaunay_metric(family, tmp_path):
    s = stellar(family, k_for_edges(family, 150), "t")
    t = stretch(s, "t")
    changed = [e for e in s.lengths if t.lengths[e] != s.lengths[e]]
    assert len(changed) == round(0.03 * s.n_edges)
    assert all(t.lengths[e] == STRETCH_FACTOR * s.lengths[e] for e in changed)
    for tri in t.sides:
        assert sum(e in changed for e, _ in tri) <= 1
    rows = rows_of("delaunay", t, tmp_path)
    assert int(rows["flips"]) == len(changed)
    assert problems("delaunay", t, rows) == []


def test_off_wall_margin():
    for key in "abcdefgh":
        assert wall_margin(stellar("tor", 20, key, min_margin=0.2)) >= 0.2


@pytest.mark.parametrize("sub", ["validate", "holonomy", "poisson"])
def test_oracles_accept_genuine_reports(sub, tmp_path):
    s = stellar("tet", k_for_edges("tet", 30), "t")
    assert problems(sub, s, rows_of(sub, s, tmp_path)) == []


def test_holonomy_oracle_rejects_a_perturbed_length(tmp_path):
    s = stellar("tor", 9, "t")
    rows = rows_of("holonomy", s, tmp_path)
    rows["alength.e5"] = repr(float(rows["alength.e5"]) + 1e-7)
    assert any("alength.e5" in p for p in problems("holonomy", s, rows))


def test_poisson_oracle_rejects_non_antisymmetric_p(tmp_path):
    s = stellar("tet", 8, "t")
    rows = rows_of("poisson", s, tmp_path)
    first = rows["P.ab"].split()
    first[1] = repr(math.nextafter(float(first[1]), math.inf))
    rows["P.ab"] = " ".join(first)
    assert "P is not exactly antisymmetric" in problems("poisson", s, rows)


def test_poisson_oracle_rejects_p_off_the_radical(tmp_path):
    s = stellar("tet", 8, "t")
    rows = rows_of("poisson", s, tmp_path)
    ids = sorted(s.lengths)
    for i, a in enumerate(ids):  # add a constant antisymmetric matrix
        row = [float(x) for x in rows[f"P.{a}"].split()]
        row = [x + (0.5 if j > i else -0.5 if j < i else 0.0) for j, x in enumerate(row)]
        rows[f"P.{a}"] = " ".join(repr(x) for x in row)
    assert any("finite differences" in p for p in problems("poisson", s, rows))


def test_delaunay_oracle_rejects_negative_psi(tmp_path):
    t = stretch(stellar("tet", k_for_edges("tet", 60), "t"), "t")
    rows = rows_of("delaunay", t, tmp_path)
    assert int(rows["flips"]) >= 1
    unflipped = {k: v for k, v in rows.items() if not k.startswith("move.")}
    unflipped["flips"] = "0"
    unflipped.update({f"length.{e}": repr(ln) for e, ln in t.lengths.items()})
    assert any(p.startswith("psi0(") for p in problems("delaunay", t, unflipped))


def test_delaunay_oracle_rejects_a_changed_length(tmp_path):
    t = stretch(stellar("tor", k_for_edges("tor", 60), "t"), "t")
    rows = rows_of("delaunay", t, tmp_path)
    e = rows["move.0"].split()[1]
    rows[f"length.{e}"] = repr(float(rows[f"length.{e}"]) * (1 + 1e-9))
    assert any(p.startswith(f"length.{e}") for p in problems("delaunay", t, rows))


def test_validate_oracle_rejects_a_changed_cone_angle(tmp_path):
    s = stellar("tor", 9, "t")
    rows = rows_of("validate", s, tmp_path)
    rows["theta.3"] = repr(float(rows["theta.3"]) + 1e-8)
    assert any(p.startswith("theta.3") for p in problems("validate", s, rows))


def test_selftest_oracle_and_exit_codes():
    assert oracles.check("selftest", None, 0, "pass=true\n") == []
    assert oracles.check("selftest", None, 0, "pass=false\n") != []
    assert oracles.check("selftest", None, 3, "pass=true\n") == ["exit code 3"]


def test_self_times_subtract_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0, 0]
    own = tracer.self_times()
    assert own["outer"] + own["inner"] == pytest.approx(spans[0][2] - spans[0][1])
    assert own["outer"] >= 0.0


def test_instrument_records_every_layer_and_restores_cli(tmp_path):
    before = dict(vars(cli))
    dump = HolonomyAtlas.dump
    s = stretch(stellar("tet", 8, "t"), "t")
    tracer = Tracer()
    with instrument(cli, HolonomyAtlas, tracer):
        for sub in ("validate", "holonomy", "poisson", "delaunay"):
            report(sub, s, tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["selftest"])
    assert vars(cli) == before and HolonomyAtlas.dump is dump
    names = set(tracer.self_times())
    assert names == {"surface.build", "holonomy.develop", "holonomy.report",
                     "holonomy.dump", "poisson.eta", "poisson.gradients",
                     "poisson.radical", "poisson.rank", "poisson.jacobi",
                     "delaunay.make", "delaunay.invariants", "selftest.run"}
    assert tracer.counts["delaunay.flips"] >= 1


def test_speedometer_rescales_by_nearby_samples():
    meter = Speedometer()
    r = REFERENCE_S
    meter.samples = [(0.0, 2 * r), (10.0, r), (10.5, 0.01), (11.0 + WINDOW_S / 2, r),
                     (20.0, 2 * r)]
    assert meter.sampling_time(10.2, 11.0) == 0.01
    near = (r + 0.01 + r) / 3
    assert meter.at_reference(10.2, 11.0) == pytest.approx((0.8 - 0.01) * r / near)
    meter.samples = [(0.0, 2 * r)]  # nothing near: the mean of all samples
    assert meter.at_reference(5.0, 6.0) == pytest.approx(0.5)
