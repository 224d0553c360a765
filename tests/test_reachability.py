"""Every function of the package is entered by a subcommand or named in README
code: a function that is neither is code to keep up for nothing.

Run as a script, `python tests/test_reachability.py INPUTS OUT`, this file is
the driver the test starts in a subprocess.  It turns on a profile hook before
it imports hypcone, runs `cli.main` with every subcommand in both formats on
the surfaces in the directory INPUTS, with refused documents and usage errors,
then the README's Library snippet and the `Sl2Matrix` forms the README
describes.  It writes the functions of the package it entered, as
[file, first line, name] triples, to OUT as JSON.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypcone"
FORMATS = ("text", "structured")
# Each a command line of its own: usage errors, refused options and a seed.
USAGE = (
    [],
    ["frobnicate"],
    ["validate"],
    ["validate", "--input", "missing.json"],
    ["selftest", "--seed", "-1"],
    ["selftest", "--tol", "lemma=nan"],
    ["selftest", "--seed", "7"],
)
# Documents every subcommand refuses, each by another first fault.
REFUSED = {
    "top.json": "[1]",
    "edge-record.json": '{"edges": [{"id": "x"}], "triangles": []}',
    "not-json.json": "{",
    "deep.json": "[" * 100000 + "]" * 100000,
}


def drive(inputs: Path, out: Path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    import hypcone.cli as cli
    from hypcone import Sl2Matrix
    from test_exports import readme_python

    surfaces = sorted(p.name for p in inputs.glob("*.json"))
    for sub in ("validate", "holonomy", "poisson", "delaunay"):
        for name in surfaces:
            # the large surface serves the memory-bounded rank path only
            if sub == "poisson" or not name.startswith("large-"):
                for fmt in FORMATS:
                    cli.main([sub, "--input", str(inputs / name), "--format", fmt])
    for fmt in FORMATS:
        cli.main(["selftest", "--format", fmt])
    for argv in USAGE:
        cli.main(argv)
    for snippet in readme_python():
        exec(snippet, {})
    m = Sl2Matrix([[2.0, 1.0], [1.0, 1.0]])
    (m @ Sl2Matrix.from_entries(1.0, 0.5, 0.0, 1.0)).inverse().mat
    sys.setprofile(None)
    found = {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
             for code in entered}
    out.write_text(json.dumps(sorted(f for f in found if f[0].startswith(str(PACKAGE)))))


def functions():
    """(file, first line, name) of every function and method of the package
    but dunders, the first line a decorator's where it has one."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield str(path.resolve()), first, node.name


def write_inputs(inputs: Path):
    from conftest import (genus1_two_cone_surface, sphere3_surface, stellar_surface, stretch,
                          tetra_surface, torus_surface)
    from hypcone import serialize_surface

    surfaces = {
        "torus": torus_surface(),
        "skew-torus": torus_surface(1.0, 1.3, 1.7),
        "sphere3": sphere3_surface(),
        "tetra": tetra_surface(),
        "skew-tetra": tetra_surface({"ab": 1.1, "ac": 1.3, "ad": 1.2,
                                     "bc": 1.25, "bd": 1.35, "cd": 1.15}),
        "g1n2": genus1_two_cone_surface(),
        "skew-g1n2": genus1_two_cone_surface(h=1.55, w=1.7, s0=0.95, s1=1.05, s2=1.0,
                                             s3=1.1),
        # 150 edges, stretched so that delaunay flips
        "stretched": stretch(stellar_surface(48, seed=1), seed=1),
        # 1,200 edges, past the dense Gram matrix of the rank certificate
        "large-tor": stellar_surface(399, seed=1, start="tor"),
    }
    for name, s in surfaces.items():
        (inputs / f"{name}.json").write_text(serialize_surface(s))
    # a torus whose side z = 3 fails the triangle inequalities
    doc = json.loads(serialize_surface(torus_surface()))
    doc["edges"][2]["length"] = 3.0
    (inputs / "inequality.json").write_text(json.dumps(doc))
    for name, text in REFUSED.items():
        (inputs / name).write_text(text)


def test_every_function_is_entered_or_documented(tmp_path):
    from test_exports import readme_code_words

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_inputs(inputs)
    out = tmp_path / "entered.json"
    proc = subprocess.run([sys.executable, __file__, str(inputs), str(out)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(f) for f in json.loads(out.read_text())}
    named = readme_code_words()
    idle = [f"{Path(path).name}:{line} {name}" for path, line, name in functions()
            if (path, line, name) not in entered and name not in named]
    assert idle == [], idle


if __name__ == "__main__":
    drive(Path(sys.argv[1]), Path(sys.argv[2]))
