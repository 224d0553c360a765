"""Malformed and mutated wire documents through every subcommand.

The literal cases pin the message and exit code of each way a document can
be malformed; the sweep feeds seeded random mutations of valid documents to
all four surface subcommands and requires a documented exit with no
traceback.
"""

import copy
import json
import random

import pytest

from conftest import genus1_two_cone_surface, sphere3_surface, tetra_surface, torus_surface

from hypcone import serialize_surface
from hypcone.cli import main


def torus_doc():
    return json.loads(serialize_surface(torus_surface()))


def edited(**paths):
    """The torus document with the values at the given paths replaced.

    A path is a key name with '__' between steps, such as edges__0__length;
    a value of DROP deletes the entry, and an index one past the end of a
    list appends to it.
    """
    doc = torus_doc()
    for path, value in paths.items():
        *steps, last = [int(s) if s.isdigit() else s for s in path.split("__")]
        node = doc
        for step in steps:
            node = node[step]
        if value is DROP:
            del node[last]
        elif last == len(node):
            node.append(value)
        else:
            node[last] = value
    return doc


def renamed(eid):
    """The torus document with edge x renamed eid, in its record and sides."""
    return json.loads(json.dumps(torus_doc()).replace('"x"', json.dumps(eid)))


DROP = object()
SIDE = {"edge": "x", "dir": "+"}

# name -> (document, or its JSON text, exit code, the one line on stderr)
CASES = {
    "top-level-list": ([], 1, "error[ValueError]: top level must be an object"),
    "missing-triangles": (edited(triangles=DROP), 1,
                          "error[ValueError]: top-level key 'triangles' must hold a list"),
    "edges-not-a-list": (edited(edges={"x": 1.2}), 1,
                         "error[ValueError]: top-level key 'edges' must hold a list"),
    "edge-missing-length": (edited(edges__1__length=DROP), 1,
                            "error[ValueError]: malformed edge record {'id': 'y'}"),
    "edge-key-misspelled": (edited(edges__2=({"id": "z", "lenght": 1.2})), 1,
                            "error[ValueError]: malformed edge record {'id': 'z', 'lenght': 1.2}"),
    "edge-not-a-dict": (edited(edges__0=["x", 1.2]), 1,
                        "error[ValueError]: malformed edge record ['x', 1.2]"),
    "bool-length": (edited(edges__0__length=True), 1,
                    "error[ValueError]: edge 'x' has length True, not a number"),
    "string-length": (edited(edges__1__length="1.2"), 1,
                      "error[ValueError]: edge 'y' has length '1.2', not a number"),
    "huge-length": (edited(edges__2__length=10**400), 1,
                    "error[ValueError]: edge 'z' has a length too large for a float"),
    "empty-id": (edited(edges__0__id="", triangles__0__sides__0__edge=""), 1,
                 "error[ValueError]: edge id '' must be a nonempty string"),
    "int-id": (edited(edges__1__id=7), 1, "error[ValueError]: edge id 7 must be a string"),
    "duplicate-id": (edited(edges__2__id="x"), 1, "error[ValueError]: duplicate edge id 'x'"),
    "triangle-without-sides": (edited(triangles__1={"side": []}), 1,
                               "error[ValueError]: malformed triangle record {'side': []}"),
    "side-missing-dir": (edited(triangles__0__sides__1={"edge": "y"}), 1,
                         "error[ValueError]: malformed side record {'edge': 'y'}"),
    "side-not-a-dict": (edited(triangles__1__sides__2="z-"), 1,
                        "error[ValueError]: malformed side record 'z-'"),
    "unknown-edge": (edited(triangles__1__sides__0__edge="w"), 1,
                     "error[ValueError]: triangle 1 references unknown edge 'w'"),
    "bad-direction": (edited(triangles__0__sides__2__dir="*"), 1,
                      "error[ValueError]: triangle 0 has direction '*', expected '+' or '-'"),
    "int-direction": (edited(triangles__1__sides__0__dir=1), 1,
                      "error[ValueError]: triangle 1 has direction '1', expected '+' or '-'"),
    "two-sides": (edited(triangles__0__sides__2=DROP), 1,
                  "error[ValueError]: triangle 0 has 2 sides, expected 3"),
    "four-sides": (edited(triangles__1__sides__3=SIDE), 1,
                   "error[ValueError]: triangle 1 has 4 sides, expected 3"),
    "no-triangles": (edited(triangles=[]), 1,
                     "error[ValueError]: surface needs at least one triangle"),
    "edge-before-triangle": (edited(edges__1__length=False, triangles__0="sides"), 1,
                             "error[ValueError]: edge 'y' has length False, not a number"),
    "earlier-triangle": (edited(triangles__0__sides__1__edge="v",
                                triangles__1__sides__1__dir="-+"), 1,
                         "error[ValueError]: triangle 0 references unknown edge 'v'"),
    "unpaired-edge": (edited(triangles__1__sides__0__dir="+"), 1,
                      "error[NonManifold]: edge 'x' appears with directions ['+', '+']; "
                      "need exactly one '+' and one '-'"),
    "nan-length": (edited(edges__1__length=float("nan")), 1,
                   "error[NonPositiveLength]: edge 'y' has length nan"),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, 1,
                     "error[ValueError]: document nests too deeply to decode"),
    "newline-id": (renamed("x\nflips=99"), 1,
                   "error[ValueError]: edge id 'x\\nflips=99' must be printable, "
                   "with no space or '='"),
    "space-id": (renamed("x y"), 1,
                 "error[ValueError]: edge id 'x y' must be printable, with no space or '='"),
    "equals-id": (renamed("x=1"), 1,
                  "error[ValueError]: edge id 'x=1' must be printable, with no space or '='"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(CASES))
def test_malformed_document_names_its_first_fault(capsys, tmp_path, name):
    doc, code, line = CASES[name]
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for sub in ("validate", "holonomy", "poisson", "delaunay"):
        assert run(capsys, sub, "--input", str(path)) == (code, "", line + "\n"), sub


def test_edge_references_read_through_str(capsys, tmp_path):
    # a side names its edge by the text of its value: 1 refers to edge "1"
    doc = json.loads(serialize_surface(torus_surface(1.2)).replace('"x"', '"1"'))
    for side in doc["triangles"][0]["sides"] + doc["triangles"][1]["sides"]:
        if side["edge"] == "1":
            side["edge"] = 1
    path = tmp_path / "int-refs.json"
    path.write_text(json.dumps(doc))
    plain = tmp_path / "plain.json"
    plain.write_text(serialize_surface(torus_surface(1.2)).replace('"x"', '"1"'))
    assert run(capsys, "validate", "--input", str(path)) == \
        run(capsys, "validate", "--input", str(plain))


# the values a mutation puts in place of an entry
VALUES = [None, True, False, 0, -1, 1, 2.5, 1e-200, 400.0, 10**400, float("nan"),
          float("inf"), "", "x", "y", "+", "-", "e1", [], {}, [1.0], {"id": "x"},
          {"edge": "x", "dir": "+"}]


def mutate(doc, rng):
    """doc with one seeded random change: a replaced, deleted, duplicated or
    added entry anywhere in its tree, or a rescaled length."""
    nodes = []

    def walk(node):
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = list(range(len(node)))
        else:
            return
        nodes.append((node, keys))
        for key in keys:
            walk(node[key])

    walk(doc)
    node, keys = rng.choice(nodes)
    kind = rng.randrange(5)
    if not keys or kind == 0:  # add an entry
        value = copy.deepcopy(rng.choice(VALUES))
        if isinstance(node, list):
            node.insert(rng.randrange(len(node) + 1), value)
        else:
            node[rng.choice(["id", "length", "edge", "dir", "sides", "extra"])] = value
        return
    key = rng.choice(keys)
    if kind == 1:
        del node[key]
    elif kind == 2:
        node[key] = copy.deepcopy(rng.choice(VALUES))
    elif kind == 3 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif isinstance(node[key], float):
        node[key] *= rng.choice([0.5, 3.0, -1.0, 1e-6, 100.0])
    else:
        node[key] = copy.deepcopy(rng.choice(VALUES))


def test_mutation_sweep_ends_in_documented_exits(capsys, tmp_path):
    # 500 seeded documents, each 1-3 mutations of a corpus surface; every
    # subcommand ends in an exit code 0-3 with at most one stderr line
    rng = random.Random("malformed-sweep")
    bases = [json.loads(serialize_surface(s)) for s in
             (torus_surface(), sphere3_surface(), tetra_surface(), genus1_two_cone_surface())]
    path = tmp_path / "doc.json"
    codes = set()
    for k in range(500):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        path.write_text(json.dumps(doc))
        for sub in ("validate", "holonomy", "poisson", "delaunay"):
            code, out, err = run(capsys, sub, "--input", str(path))
            assert code in (0, 1, 2, 3), (k, sub, doc)
            assert err.count("\n") <= 1 and (code != 0 or err == ""), (k, sub, doc, err)
            codes.add(code)
    assert {0, 1} <= codes
