import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    blas_env,
    count_constructions,
    jacobi_table,
    sphere3_surface,
    stellar_surface,
    tetra_surface,
    torus_surface,
)

import hypcone.cli as cli
import hypcone.delaunay as delaunay_mod
import hypcone.errors as errors
import hypcone.holonomy as holonomy_mod
import hypcone.poisson as poisson_mod
import hypcone.surface as surface_mod
from hypcone import eta_matrix, serialize_surface
from hypcone.cli import build_parser, main
from hypcone.poisson import FanPairs, JacobiTerms
from hypcone.surface import fmt17


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(serialize_surface(torus_surface()))
    return str(path)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(serialize_surface(torus_surface(1.0, 1.0, 1.9)))
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.json"
    path.write_text(serialize_surface(tetra_surface()))
    return str(path)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(serialize_surface(sphere3_surface(1.0, 1.0, 1.0)))
    return str(path)


@pytest.fixture
def wall_file(tmp_path):
    path = tmp_path / "wall.json"
    path.write_text(serialize_surface(torus_surface(1e-3)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_dict(out, sep=": "):
    return dict(line.split(sep, 1) for line in out.splitlines())


def test_validate(capsys, torus_file):
    code, out, _ = run(capsys, "validate", "--input", torus_file)
    assert code == 0
    doc = as_dict(out)
    assert doc["valid"] == "true"
    assert doc["genus"] == "1"
    assert doc["hyperbolic"] == "true"
    assert float(doc["theta.0"]) == pytest.approx(5.224829489105457)


def test_structured_format(capsys, torus_file):
    code, out, _ = run(capsys, "validate", "--input", torus_file,
                       "--format", "structured")
    assert code == 0
    doc = as_dict(out, sep="=")
    assert doc["valid"] == "true"


def test_poisson_report(capsys, torus_file):
    code, out, _ = run(capsys, "poisson", "--input", torus_file)
    assert code == 0
    doc = as_dict(out)
    assert doc["rank"] == "2"
    assert doc["rank_expected"] == "2"
    assert float(doc["rank_margin"]) > 0.0
    assert float(doc["radical_max"]) < 1e-8
    assert float(doc["jacobi"]) < 1e-5
    keys = report_keys(out)
    assert keys[keys.index("rank") + 1:keys.index("rank") + 3] == ["rank_expected", "rank_margin"]
    assert keys[keys.index("jacobi") + 1] == "jacobi_at"
    assert doc["jacobi_at"] == "x y z"
    assert doc["comparison.constant"] == "1/8 up to global sign"
    row = [float(x) for x in doc["P.x"].split()]
    assert row[0] == 0.0


def test_holonomy_report(capsys, torus_file):
    code, out, _ = run(capsys, "holonomy", "--input", torus_file)
    assert code == 0
    doc = as_dict(out)
    assert float(doc["max_error"]) < 1e-8
    assert float(doc["alength.x"]) == pytest.approx(1.2, abs=1e-8)
    assert "vertex.0" in doc
    assert not any(key == "base" or key.startswith("triangle.") for key in doc)


def test_delaunay_run(capsys, demo_file):
    code, out, _ = run(capsys, "delaunay", "--input", demo_file)
    assert code == 0
    doc = as_dict(out)
    assert doc["flips"] == "1"
    assert doc["move.0"].startswith("flip z ")
    assert float(doc["psi_min"]) >= -1e-10


def report_keys(out):
    return [line.split(": ", 1)[0] for line in out.splitlines()]


def test_holonomy_names_worst_row(capsys, torus_file):
    _, out, _ = run(capsys, "holonomy", "--input", torus_file)
    keys, doc = report_keys(out), as_dict(out)
    assert keys[keys.index("max_error") + 1] == "max_error_at"
    errors = [(key.replace("_error", ""), float(value)) for key, value in doc.items()
              if key.startswith(("trace_error.", "alength_error."))]
    worst = max(err for _, err in errors)
    assert float(doc["max_error"]) == worst
    assert doc["max_error_at"] == next(label for label, err in errors if err == worst)


@pytest.mark.parametrize("trace_error, length_errors, worst", [
    (0.5, [0.1, 0.5, 0.2], "trace.0"),
    (0.1, [0.2, 0.5, 0.5], "alength.y"),
], ids=["trace-alength", "alength-alength"])
def test_holonomy_names_first_worst_row_on_ties(capsys, monkeypatch, torus_file,
                                                trace_error, length_errors, worst):
    # an exact tie at the maximum names the first row in report order
    def tied(atlas):
        return (np.array([1.0]), np.array([trace_error]), np.ones(3), np.array(length_errors),
                0.5)

    monkeypatch.setattr(cli, "holonomy_report", tied)
    code, out, _ = run(capsys, "holonomy", "--input", torus_file)
    doc = as_dict(out)
    assert code == 3
    assert (doc["max_error"], doc["max_error_at"]) == ("0.5", worst)


@pytest.mark.parametrize("fixture", ["demo_file", "torus_file"])
def test_delaunay_names_worst_edge(capsys, request, fixture):
    # psi0 of x ties with y on the demo torus and with y and z on the
    # equilateral one; the first row in report order is named
    _, out, _ = run(capsys, "delaunay", "--input", request.getfixturevalue(fixture))
    keys, doc = report_keys(out), as_dict(out)
    assert keys[keys.index("psi_min") + 1] == "psi_min_at"
    psi = {key[4:]: float(value) for key, value in doc.items() if key.startswith("psi.")}
    assert doc["psi_min_at"] == "x"
    assert psi["x"] == min(psi.values()) == float(doc["psi_min"])


@pytest.mark.parametrize("fixture", ["tetra_file", "sphere_file"])
def test_poisson_names_worst_vertex(capsys, request, fixture):
    # the three residuals of the equilateral sphere can tie; the first row
    # in report order is named
    _, out, _ = run(capsys, "poisson", "--input", request.getfixturevalue(fixture))
    keys, doc = report_keys(out), as_dict(out)
    assert keys[keys.index("radical_max") + 1] == "radical_max_at"
    radical = [(key[len("radical."):], float(value)) for key, value in doc.items()
               if key.startswith("radical.")]
    worst = max(res for _, res in radical)
    assert float(doc["radical_max"]) == worst
    assert doc["radical_max_at"] == next(v for v, res in radical if res == worst)


def spoil_trace_errors(monkeypatch, s, at, bad):
    exact = cli.holonomy_report

    def spoiled(atlas):
        traces, trace_errors, *rest = exact(atlas)
        trace_errors[at] = bad
        return (traces, trace_errors, *rest)

    monkeypatch.setattr(cli, "holonomy_report", spoiled)
    return "max_error", f"max_error_at: trace.{at}"


def spoil_length_errors(monkeypatch, s, at, bad):
    exact = holonomy_mod._alengths

    def spoiled(atlas, edges):
        lengths = exact(atlas, edges)
        lengths[at] = bad
        return lengths

    monkeypatch.setattr(holonomy_mod, "_alengths", spoiled)
    # the report's own largest error is the spoiled one too
    assert repr(holonomy_mod.holonomy_report(holonomy_mod.develop(s))[-1]) == repr(abs(bad))
    return "max_error", f"max_error_at: alength.{s.edge_ids[at]}"


def spoil_radical_rows(monkeypatch, s, at, bad):
    exact = poisson_mod.radical_residuals

    def spoiled(table, grads):
        rows = exact(table, grads)
        rows[at] = bad
        return rows

    monkeypatch.setattr(poisson_mod, "radical_residuals", spoiled)
    return "radical_max", f"radical_max_at: {at}"


def spoil_jacobi_terms(monkeypatch, s, at, bad):
    # the near terms of the first, a middle or the last triple that has any
    table = jacobi_table(s)
    keys = np.unique(table.terms(table.der, 0, len(table.run_slice))[0])
    target = int(keys[[0, len(keys) // 2, -1][at]])
    exact = JacobiTerms.terms

    def spoiled(self, der, g0, g1):
        key, value = exact(self, der, g0, g1)
        value[key == target] = bad
        return key, value

    monkeypatch.setattr(JacobiTerms, "terms", spoiled)
    n = s.n_edges
    triple = (target // (n * n), target // n % n, target % n)
    return "jacobi", "jacobi_at: " + " ".join(s.edge_ids[i] for i in triple)


def spoil_psi(monkeypatch, s, at, bad):
    # only the report's column: make_delaunay reads the exact invariants
    exact = delaunay_mod.edge_invariants

    def spoiled(result):
        psi = exact(result)
        psi[result.edge_ids[at]] = -bad
        return psi

    monkeypatch.setattr(cli, "delaunay_mod", SimpleNamespace(
        **{**vars(delaunay_mod), "edge_invariants": spoiled}))
    return "psi_min", f"psi_min_at: {s.edge_ids[at]}"


GATED_COLUMNS = {
    "trace-errors": ("holonomy", spoil_trace_errors, "n_vertices"),
    "length-errors": ("holonomy", spoil_length_errors, "n_edges"),
    "radical-rows": ("poisson", spoil_radical_rows, "n_vertices"),
    "jacobi-terms": ("poisson", spoil_jacobi_terms, None),
    "psi": ("delaunay", spoil_psi, "n_edges"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("column", list(GATED_COLUMNS))
def test_a_spoiled_gated_entry_fails_its_report_and_is_named(capsys, monkeypatch, tmp_path,
                                                             column, position, bad):
    # NaN, or an infinity in the worst direction (-inf for psi0), at one
    # entry of a gated column: the report exits 3 and its _at row names the
    # entry, wherever it sits
    s = stellar_surface(8, 1)
    path = tmp_path / "s.json"
    path.write_text(serialize_surface(s))
    sub, spoil, size = GATED_COLUMNS[column]
    index = ["first", "middle", "last"].index(position)
    at = index if size is None else [0, getattr(s, size) // 2, getattr(s, size) - 1][index]
    key, named = spoil(monkeypatch, s, at, bad)
    code, out, err = run(capsys, sub, "--input", str(path))
    assert (code, err) == (3, "")
    assert f"{key}: {-bad if key == 'psi_min' else bad}\n{named}\n" in out


def readme_demos():
    """(subcommand, rows) of every `$ hypcone ...` demo in the README's
    "Command line" section, without the elided `...` rows."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    demos = []
    for line in section.splitlines():
        if line.startswith("$ hypcone "):
            demos.append((line.split()[2], []))
        elif demos and line == "```":  # the end of the block of demos
            break
        elif demos and line and line != "...":
            demos[-1][1].append(line)
    return demos


def test_readme_demos_are_pinned(capsys, demo_file):
    # every row the README prints comes out byte for byte on its demo torus
    demos = readme_demos()
    assert [sub for sub, _ in demos] == ["validate", "poisson", "holonomy", "delaunay"]
    for sub, rows in demos:
        code, out, _ = run(capsys, sub, "--input", demo_file)
        assert code == 0
        assert [row for row in rows if row not in out.splitlines()] == [], sub


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    doc = as_dict(out)
    assert doc["pass"] == "true"
    assert doc["lemma.rotation-pairs.count"] == "500"
    assert float(doc["lemma.log-expansion.residual"]) < 1e-6


def test_output_is_deterministic(capsys, torus_file):
    _, first, _ = run(capsys, "poisson", "--input", torus_file)
    _, again, _ = run(capsys, "poisson", "--input", torus_file)
    assert first == again


def test_floats_roundtrip_exactly(capsys, torus_file):
    _, out, _ = run(capsys, "validate", "--input", torus_file)
    theta = as_dict(out)["theta.0"]
    assert float(repr(float(theta))) == float(theta)


def test_exit_codes(capsys, tmp_path, torus_file, wall_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": [], "triangles": []}))
    assert run(capsys, "validate", "--input", str(bad))[0] == 1
    assert run(capsys, "validate", "--input", str(tmp_path / "nope.json"))[0] == 1
    assert run(capsys, "poisson", "--input", torus_file, "--tol", "bogus=1")[0] == 1
    assert run(capsys, "poisson", "--input", wall_file)[0] == 2
    assert run(capsys, "poisson", "--input", torus_file,
               "--tol", "jacobi=1e-30")[0] == 3


def test_tolerance_must_be_finite_and_nonnegative(capsys, torus_file):
    # a NaN or negative wall guard switches the guard off, and psi=-1 has
    # the flip loop chase an unreachable threshold; validate reads no
    # tolerance, so only the parse can refuse these
    for key in cli.TOL_DEFAULTS:
        for raw in ("nan", "inf", "-inf", "-1"):
            code, out, err = run(capsys, "validate", "--input", torus_file,
                                 "--tol", f"{key}={raw}")
            assert (code, out) == (1, ""), (key, raw)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert repr(key) in err and repr(raw) in err
    for key, raw in (("psi", "0"), ("wall", "0.0"), ("lemma", "1e300")):
        assert run(capsys, "validate", "--input", torus_file, "--tol", f"{key}={raw}")[0] == 0


# the exit code of every package error, and of the standard errors a run may end in
EXIT_CODES = {
    errors.NonManifold: 1, errors.Disconnected: 1, errors.TriangleInequality: 1,
    errors.NonPositiveLength: 1, errors.NotAdmissible: 1, errors.OutOfRange: 1,
    errors.DimensionMismatch: 1,
    errors.WallAngle: 2, errors.DegenerateDirection: 2, errors.CoincidentFixedPoints: 2,
    errors.NotElliptic: 2, errors.NotHyperbolic: 2, errors.NotSemisimple: 2,
    errors.UnflippableConfiguration: 2,
    errors.NoBranch: 3, errors.NumericalCollapse: 3,
    errors.NonTermination: 3,
    OSError: 1, ValueError: 1, json.JSONDecodeError: 1, OverflowError: 3,
}


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["validate"],
    ["validate", "--input", "x.json", "--bogus"],
    ["selftest", "--format", "xml"],
    ["selftest", "--seed", "abc"],
    ["selftest", "--seed", "-1"],
    ["selftest", "--seed", "1.5"],
])
def test_usage_errors_exit_1_in_one_line(capsys, argv):
    # exit 2 is a refused evaluation; a command line argparse refuses is bad input
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "--seed" in argv:
        assert err.startswith("error: argument --seed: ") and repr(argv[-1]) in err


def test_seed_takes_every_integer_from_0(capsys):
    for seed in ("0", "1729", str(2 ** 70)):
        code, out, _ = run(capsys, "selftest", "--seed", seed)
        assert code == 0 and out.startswith(f"seed: {int(seed)}\n")


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hypcone selftest [-h]")


def test_every_error_keeps_its_exit_code(monkeypatch, capsys, torus_file):
    package = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.HypconeError)}
    assert package - {errors.HypconeError} <= set(EXIT_CODES)
    for cls, want in EXIT_CODES.items():
        def fail(path, cls=cls):
            raise cls("boom", "doc", 0) if cls is json.JSONDecodeError else cls("boom")

        monkeypatch.setattr(cli, "_load_surface", fail)
        code, out, err = run(capsys, "validate", "--input", torus_file)
        assert (code, out) == (want, ""), cls
        assert err.startswith(f"error[{cls.__name__}]: boom") and err.count("\n") == 1


def test_tolerances_do_not_leak_between_calls(capsys, torus_file):
    # the parser is built once; a --tol of one call is gone in the next
    assert build_parser() is build_parser()
    assert run(capsys, "poisson", "--input", torus_file, "--tol", "jacobi=1e-30")[0] == 3
    assert run(capsys, "poisson", "--input", torus_file)[0] == 0
    assert run(capsys, "poisson", "--input", torus_file, "--tol", "radical=1e-30")[0] == 3
    assert run(capsys, "poisson", "--input", torus_file)[0] == 0


def test_poisson_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use; the Jacobi check sorts without it
    path = tmp_path / "stellar.json"
    path.write_text(serialize_surface(stellar_surface(16, seed=2, start="tor")))
    script = ("import sys\n"
              "from hypcone.cli import main\n"
              f"code = main(['poisson', '--input', {str(path)!r}])\n"
              "sys.exit(10 + code if 'numpy.ma' in sys.modules else code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "jacobi_at: " in proc.stdout


def _torus_doc(**edge_fields):
    doc = json.loads(serialize_surface(torus_surface()))
    for rec in doc["edges"]:
        rec.update(edge_fields)
    return doc


def _scalar_sides():
    doc = _torus_doc()
    doc["triangles"][0]["sides"] = 5
    return doc


@pytest.mark.parametrize("doc, code", [
    (_torus_doc(length=2000.0), 3),   # past where sinh overflows: the angle underflows
    (_torus_doc(length=[1.0]), 1),
    (_scalar_sides(), 1),
    (_torus_doc(length=1e308), 3),   # a + b overflows; the angle underflows, not pi
    (_torus_doc(length=10**400), 1),  # no float holds it
    (_torus_doc(length=1e-310), 3),  # products of roots of subnormal sums underflow
], ids=["overflow", "list-length", "scalar-sides", "overflow-product", "huge-integer",
        "underflow-product"])
def test_bad_input_exits_without_traceback(tmp_path, doc, code):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "hypcone.cli", "validate", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error[") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("scale", [1e-310, 1e-320])
def test_tiny_lengths_are_refused(capsys, tmp_path, scale):
    # subnormal sides: the kernel's products of roots leave the normal float
    # range and keep too few digits; every subcommand refuses with exit 3
    path = tmp_path / "tiny.json"
    doc = _torus_doc()
    for rec, x in zip(doc["edges"], (1.0, 1.05, 0.97)):
        rec["length"] = x * scale
    path.write_text(json.dumps(doc))
    for sub in ("validate", "holonomy", "poisson", "delaunay"):
        code, out, err = run(capsys, sub, "--input", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error[NumericalCollapse]: corner angle of sides (")
        assert "underflows" in err and err.count("\n") == 1


SWEEP = [10.0 ** k for k in range(-300, 301, 5)] + [
    1e-161, 1e-158, 3.0, 30.0, 40.0, 300.0, 400.0, 700.0, 1000.0, 1e308]


@pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (1.0, 1.05, 0.97), (1.0, 1.0, 1.999),
                                   (1.0, 1.0, 1e-3)], ids=["equilateral", "skew", "flat", "thin"])
def test_torus_scale_sweep_ends_in_a_documented_exit(capsys, tmp_path, shape):
    # from 1e-300 to 1e308 every run ends in an exit code 0-3 with at most
    # one line on stderr and no warning, thin shapes included
    path = tmp_path / "torus.json"
    doc = json.loads(serialize_surface(torus_surface()))
    for a in SWEEP:
        for rec, x in zip(doc["edges"], shape):
            rec["length"] = x * a
        path.write_text(json.dumps(doc))
        for sub in ("validate", "holonomy", "poisson", "delaunay"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = run(capsys, sub, "--input", str(path))
            assert code in (0, 1, 2, 3), (a, sub)
            assert err.count("\n") <= 1 and not caught, (a, sub, err, caught)


def test_long_sided_tetrahedron_ends_in_one_line_without_a_warning(capsys, tmp_path):
    # sides near 400 on a surface of four vertices: the transitions hold inf,
    # and the fans walk in lockstep, so an unguarded array product would warn
    # where the float walk of a one-vertex torus cannot.  Its loop at vertex 0
    # has a NaN determinant (exit 3) and its cone angles lie on the wall
    ids = ("ab", "ac", "ad", "bc", "bd", "cd")
    s = tetra_surface({e: 400.0 * (1 + 0.03 * i) for i, e in enumerate(ids)})
    path = tmp_path / "long.json"
    path.write_text(serialize_surface(s))
    got = {}
    for sub in ("validate", "holonomy", "poisson", "delaunay"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, sub, "--input", str(path))
        assert not caught, (sub, caught)
        got[sub] = code
        if sub == "holonomy":
            assert err == "error[NumericalCollapse]: loop holonomy at vertex 0 has determinant nan\n"
    assert got == {"validate": 0, "holonomy": 3, "poisson": 2, "delaunay": 0}


def test_tolerance_override_loosens(capsys, wall_file):
    # widening the guard turns the wall refusal into a huge-but-finite matrix
    code, out, _ = run(capsys, "poisson", "--input", wall_file,
                       "--tol", "wall=1e-9", "--tol", "jacobi=1e9",
                       "--tol", "radical=1e9")
    assert code == 0


def test_installed_entry_point(demo_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hypcone.cli", "delaunay", "--input", demo_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "psi_min" in proc.stdout


def test_poisson_rows_format_every_entry(capsys, tmp_path, sphere3, g1n2):
    # eta = 0 on the three-cone sphere, and on g1n2 some cells sum their
    # pairs to exactly 0.0: both leave +0.0 in the dense matrix, printed "0",
    # where negating a zero cell for its mirror would print "-0"
    path = tmp_path / "surface.json"
    for s in (sphere3, g1n2, stellar_surface(48, 1)):  # the last: 150 edges
        path.write_text(serialize_surface(s))
        _, out, _ = run(capsys, "poisson", "--input", str(path))
        rows = {k: v for k, v in as_dict(out).items() if k.startswith("P.")}
        assert list(rows) == [f"P.{e}" for e in s.edge_ids]
        for e, row in zip(s.edge_ids, eta_matrix(s).tolist()):
            assert rows[f"P.{e}"] == " ".join(fmt17(x) for x in row)
            assert "-0" not in rows[f"P.{e}"].split()


def test_poisson_builds_one_fan_pair_table(monkeypatch, capsys, tmp_path):
    # the bivector, its wall margins and the Jacobi check share one table,
    # and the radical and the Jacobi check one Jacobi table
    path = tmp_path / "stellar.json"
    path.write_text(serialize_surface(stellar_surface(30, seed=1)))  # 96 edges
    built = count_constructions(monkeypatch, FanPairs)
    tables = count_constructions(monkeypatch, JacobiTerms)
    assert main(["poisson", "--input", str(path)]) == 0
    assert len(built) == len(tables) == 1
    rows = capsys.readouterr().out.splitlines()
    assert sum(row.startswith("wall_margin.") for row in rows) == 34


def test_thin_corner_poisson_is_a_named_refusal(capsys, tmp_path):
    # the thin corners of sides (300, 300, 1), near 1e-130, keep their angles
    # (acos lost them to 0.0 and poisson refused the torus): poisson
    # certifies it.  Next to a side past the range of sinh, as in (360, 360,
    # 719.64), the angle gradients would divide by that sinh: poisson
    # refuses in one line naming the edge, with no RuntimeWarning
    path = tmp_path / "thin.json"
    for lengths, code in [((300.0, 300.0, 1.0), 0), ((360.0, 360.0, 719.64), 3)]:
        doc = _torus_doc()
        for rec, x in zip(doc["edges"], lengths):
            rec["length"] = x
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hypcone.cli", "poisson",
             "--input", str(path)], capture_output=True, text=True)
        assert proc.returncode == code, lengths
    assert proc.stdout == ""
    assert proc.stderr == (
        "error[NumericalCollapse]: edge 'z' has length 719.64, whose sinh is past the "
        "float range; its angle gradients divide by it\n")
    assert run(capsys, "validate", "--input", str(path))[0] == 0
    # its one flip, next to two sides whose sinh product overflows, is made
    code, out, err = run(capsys, "delaunay", "--input", str(path))
    assert (code, err) == (0, "")
    assert "length.z: 1.2363029869129911\n" in out


@pytest.mark.parametrize("surface, coretype",
                         [("tetra", None), ("sphere3", None), ("tetra", "Prescott"),
                          ("sphere3", "Prescott")],
                         ids=["tetra", "sphere3", "tetra-Prescott", "sphere3-Prescott"])
def test_tiny_sides_leave_the_rank_uncertified_without_a_warning(tmp_path, surface, coretype):
    # sides near 1e-300 give angle gradients near 1e300, whose Gram products
    # leave the float range: the report prints every row, with the rank
    # uncertified, and exits 3 with nothing on stderr.  The OpenBLAS Prescott
    # kernel forms NaN (inf - inf) in those products where others give inf.
    # Uncertified is the right verdict, not only an overflow: each gradient
    # of a cone angle is O(1/l), while their sum, minus the gradient of the
    # area, is O(l), so the rows of G are dependent to rounding even when
    # scaled by powers of two (least singular values 3.5e-16 and 7.0e-17
    # beside ones of about 2)
    ids = ("ab", "ac", "ad", "bc", "bd", "cd")
    s = {"tetra": lambda: tetra_surface({e: 1e-300 * (1 + 0.03 * i) for i, e in enumerate(ids)}),
         "sphere3": lambda: sphere3_surface(1e-300, 1.1e-300, 1.2e-300)}[surface]()
    path = tmp_path / "tiny.json"
    path.write_text(serialize_surface(s))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hypcone.cli", "poisson",
         "--input", str(path)], capture_output=True, text=True, env=blas_env(coretype))
    assert (proc.returncode, proc.stderr) == (3, "")
    assert "rank: uncertified\nrank_expected: " in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("comparison.status: ")


def test_unguarded_tiny_torus_overflows_the_jacobi_sweep_without_a_warning(tmp_path):
    # a torus near the 2*pi wall (margin 3.2e-16): with the wall guard off,
    # the Jacobi sweep's terms and the entries of D leave the float range,
    # and the report still exits 3 with nothing on stderr.  Its Jacobi sums
    # are NaN, and a NaN is the worst value: jacobi reads nan and jacobi_at
    # names the one triple.  The default guard refuses the shape in one line
    doc = _torus_doc()
    for rec, x in zip(doc["edges"], (1e-300, 1.05e-300, 0.97e-300)):
        rec["length"] = x
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "hypcone.cli", "poisson",
            "--input", str(path)]
    proc = subprocess.run(argv + ["--tol", "wall=0"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert "\njacobi: nan\njacobi_at: x y z\n" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("comparison.status: ")
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error[WallAngle]: vertex 0 has cone angle ")
    assert proc.stderr.count("\n") == 1


@functools.cache
def _stellar_text(k):
    return serialize_surface(stellar_surface(k, seed=1))


@pytest.mark.parametrize("sub, k", [("validate", 2400), ("holonomy", 2400),
                                    ("poisson", 100), ("delaunay", 2400)])
def test_closed_stdout_ends_in_one_line(tmp_path, sub, k):
    # the reader is gone before the report, larger than a 64 KiB pipe
    # buffer, is written: one stderr line and exit 1, with no traceback and
    # nothing from the interpreter's own flush at exit
    path = tmp_path / "stellar.json"
    path.write_text(_stellar_text(k))
    proc = subprocess.Popen([sys.executable, "-m", "hypcone.cli", sub, "--input", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.startswith("error[BrokenPipeError]: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("start, k", [("tet", 398), ("tor", 399)])
def test_poisson_certifies_1200_edges(capsys, tmp_path, start, k):
    path = tmp_path / "stellar.json"
    path.write_text(serialize_surface(stellar_surface(k, seed=1, start=start)))
    code, out, err = run(capsys, "poisson", "--input", str(path))
    doc = as_dict(out)
    assert (code, err) == (0, "")
    assert doc["rank"] == doc["rank_expected"] == ("798" if start == "tet" else "800")
    assert float(doc["rank_margin"]) > 0.0
    # every printed cell is its cell of eta_matrix, bit for bit
    s = stellar_surface(k, seed=1, start=start)
    printed = np.array([[float(x) for x in doc[f"P.{e}"].split()] for e in s.edge_ids])
    assert np.array_equal(printed.view(np.int64), eta_matrix(s).view(np.int64))


def test_poisson_takes_corner_gradients_once(monkeypatch, capsys, tmp_path):
    # the fan-pair table and the cone-angle gradients share one evaluation
    path = tmp_path / "stellar.json"
    path.write_text(serialize_surface(stellar_surface(18, seed=1)))
    calls = []
    gradient = surface_mod.corner_gradient
    monkeypatch.setattr(surface_mod, "corner_gradient",
                        lambda *args: calls.append(args) or gradient(*args))
    code, _, err = run(capsys, "poisson", "--input", str(path))
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_uncertified_rank_prints_every_row_and_exits_3(monkeypatch, capsys, torus_file):
    _, want, _ = run(capsys, "poisson", "--input", torus_file)
    monkeypatch.setattr(cli.poisson_mod, "certify_gram", lambda *args, **kwargs: None)
    code, out, err = run(capsys, "poisson", "--input", torus_file)
    assert (code, err) == (3, "")
    assert report_keys(out) == report_keys(want)
    doc = as_dict(out)
    assert (doc["rank"], doc["rank_expected"], doc["rank_margin"]) == ("uncertified", "2", "0")
    assert {k: v for k, v in doc.items() if not k.startswith("rank")} == {
        k: v for k, v in as_dict(want).items() if not k.startswith("rank")}


def test_flush_waits_for_a_full_nonblocking_stdout(monkeypatch):
    # a raw stdout on a full non-blocking descriptor takes nothing and
    # returns None: flush waits for it to drain instead of spinning, then
    # writes the rest
    state = {"full": True, "calls": 0, "taken": bytearray()}

    class Raw:
        def write(self, data):
            state["calls"] += 1
            assert state["calls"] < 20, "flush spins on a full descriptor"
            if state["full"]:
                return None
            state["taken"] += data[:5]
            return min(5, len(data))

        def flush(self):
            pass

    raw = Raw()

    def wait(readable, writable, failed):
        assert writable == [raw]
        state["full"] = False
        return [], writable, []

    stdout = type("Stdout", (), {"buffer": raw, "encoding": "utf-8", "errors": "strict",
                                 "flush": lambda self: None})()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(cli.select, "select", wait)
    out = cli.Emitter("text")
    out.put("key", "value")
    out.put("x", 1.5)
    out.flush()
    assert bytes(state["taken"]) == b"key: value\nx: 1.5\n"
    assert state["calls"] == 1 + 4  # None once, then 18 bytes 5 at a time


def test_unbuffered_stdout_closed_mid_report_exits_1(tmp_path):
    # Unbuffered, a report larger than the pipe reaches it as one write that
    # the kernel cuts short when the reader leaves; the rest of the report
    # must raise, not vanish: one stderr line and exit 1.
    path = tmp_path / "stellar.json"
    path.write_text(_stellar_text(398))  # 1,200 edges
    proc = subprocess.Popen([sys.executable, "-m", "hypcone.cli", "holonomy", "--input", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": "1"})
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.startswith("error[BrokenPipeError]: ") and err.count("\n") == 1, err
