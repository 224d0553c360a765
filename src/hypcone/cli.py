"""Command-line interface.

Subcommands: validate, poisson, holonomy, delaunay, selftest.  Every command
reads a surface description in the JSON wire format (except selftest), emits
deterministic key/value rows, and signals its outcome through the exit code:

* 0 - success,
* 1 - a usage error, unreadable input, an invalid surface, or a stdout
  closed before the report was written,
* 2 - a wall angle or degenerate configuration blocks the computation,
* 3 - a numerical failure (collapse, non-termination, residual above tolerance,
  an uncertified rank).

Floats are printed with repr-faithful precision (%.17g) so output is
byte-for-byte reproducible for a fixed input, seed, and tolerance set.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import select
import sys
from itertools import chain, repeat

import numpy as np

from . import delaunay as delaunay_mod
from . import poisson as poisson_mod
from .errors import HypconeError
from .holonomy import develop, holonomy_report
from .selftest import DEFAULT_SEED, LOG_TOL, TRIG_TOL, run_all
from .surface import (build_surface, classify_angles, cone_angles, decode_document, fmt17,
                      worst_at)

TOL_DEFAULTS = {
    "wall": poisson_mod.WALL_GUARD,  # min |sin(theta/2)| before P is refused
    "radical": 1e-8,      # cone-angle gradients must annihilate the bivector
    "jacobi": 1e-5,       # normalized Jacobi cyclic sum
    "holonomy": 1e-8,     # trace-law and edge-length recovery errors
    "psi": delaunay_mod.PSI_TOL,  # Delaunay edge-invariant threshold
    "lemma": TRIG_TOL,    # randomized pairing-identity suites
    "lemma-log": LOG_TOL,  # randomized logarithm-expansion suite
}


class Emitter:
    """Collects a report's rows as text and prints them at once: to stdout's
    byte buffer, written on until every byte is taken, or with one write to
    a stdout that has no buffer.

    A row is `key<sep>value`, sep being ": " for text and "=" for structured
    output.  Floats print with %.17g (`fmt17`), bools as true/false, and any
    other value through str.  `put` adds one row, `rows` a whole block, and
    `chunks` takes text already laid out in rows.
    """

    def __init__(self, fmt: str):
        self.sep = "=" if fmt == "structured" else ": "
        self.chunks = []

    def put(self, key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = fmt17(value)
        self.chunks.append(f"{key}{self.sep}{value}\n")

    def rows(self, keys, labels, *columns):
        """For each label, one row per key: `key % label`, then the label's
        entry in the column of that key.

        A column of floats prints with %.17g and any other through str (so a
        column holds floats only or none).  The block is formatted by one %
        operation: the rows of one label as a template, repeated per label.
        """
        labels = list(labels)
        columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
        line = "".join(
            "%s%s%s\n" % (key, self.sep,
                          "%.17g" if all(map(isinstance, col, repeat(float))) else "%s")
            for key, col in zip(keys, columns))
        args = zip(*chain.from_iterable((labels, col) for col in columns))
        self.chunks.append(line * len(labels) % tuple(chain.from_iterable(args)))

    def flush(self):
        text = "".join(self.chunks)
        raw = getattr(sys.stdout, "buffer", None)
        if raw is None:  # a text-only stream, such as io.StringIO
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        sys.stdout.flush()
        # The rows end in "\n" as they are: the byte path skips the text
        # layer's newline translation, which is none on POSIX.
        data = memoryview(text.encode(sys.stdout.encoding or "utf-8",
                                      sys.stdout.errors or "strict"))
        # An unbuffered stdout is a raw file: when the reader leaves, one
        # write takes only part of the report and the rest would be dropped
        # without an error.  Writing on until every byte is taken raises it.
        while data:
            taken = raw.write(data)
            if taken is None:  # a full non-blocking descriptor: wait until it drains
                select.select([], [raw], [])
                continue
            data = data[taken:]
        raw.flush()


def _parse_tols(pairs) -> dict:
    tols = dict(TOL_DEFAULTS)
    for item in pairs or ():
        key, eq, raw = item.partition("=")
        if not eq or key not in tols:
            raise ValueError(f"unknown tolerance {item!r}; known keys: "
                             + ", ".join(sorted(tols)))
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        # NaN fails every comparison, so it is refused with the infinities
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {key!r} must be a finite number >= 0, not {raw!r}")
        tols[key] = value
    return tols


def _load_surface(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return build_surface(decode_document(text))


def cmd_validate(args, out: Emitter, tols) -> int:
    s = _load_surface(args.input)
    data = cone_angles(s)
    report = classify_angles(data)
    out.put("valid", True)
    out.put("genus", s.genus)
    out.put("vertices", s.n_vertices)
    out.put("edges", s.n_edges)
    out.put("triangles", s.n_triangles)
    out.put("chi", data.chi)
    out.put("area", s.area())
    out.rows(["theta.%s"], range(s.n_vertices), s.cone_angle)
    out.put("hyperbolic", report.hyperbolic)
    out.put("flat", report.flat)
    out.put("off_walls", report.off_walls)
    out.put("small", report.small)
    return 0


def _row_texts(pairs: poisson_mod.FanPairs):
    """Each row of the bivector of `pairs` as its entries' fmt17 texts joined
    by spaces: the cells above the diagonal are formatted by one % operation,
    each mirror takes its cell's text with the sign flipped (`FanPairs.origin`)
    and every other cell is "0"; the rows are joined one at a time."""
    n, (rows, cols, values) = pairs.n_edges, pairs.cells
    upper = values[rows < cols].tolist()
    texts = ("%.17g " * len(upper) % tuple(upper)).split(" ")[:-1]
    texts += [t[1:] if t[0] == "-" else "-" + t for t in texts]
    texts = [texts[i] for i in pairs.origin.tolist()]
    bounds, cols = np.searchsorted(rows, np.arange(n + 1)).tolist(), cols.tolist()
    for r0, r1 in zip(bounds, bounds[1:]):
        cells = ["0"] * n
        for j, text in zip(cols[r0:r1], texts[r0:r1]):
            cells[j] = text
        yield " ".join(cells)


def cmd_poisson(args, out: Emitter, tols) -> int:
    s = _load_surface(args.input)
    vertices = range(s.n_vertices)
    # one fan-pair table for the matrix and the Jacobi check
    pairs = poisson_mod.FanPairs(s, wall_guard=tols["wall"])
    out.rows(["wall_margin.%s"], vertices, pairs.margins)
    p = poisson_mod.eta_matrix(s, pairs=pairs)
    for eid, row in zip(s.edge_ids, _row_texts(pairs)):
        out.put(f"P.{eid}", row)
    grads = poisson_mod.angle_gradients(s)
    # one Jacobi table for the radical and the Jacobi check
    table = poisson_mod.JacobiTerms(pairs, p)
    del pairs
    residuals = poisson_mod.radical_residuals(table, grads)
    jac, triple = poisson_mod.jacobi_residual(s, table=table)
    del table  # freed before the certificate builds K in the memory of P
    rank, margin = poisson_mod.bivector_rank(p, grads)
    del p
    expected = 6 * s.genus - 6 + 2 * s.n_vertices
    out.put("rank", "uncertified" if rank is None else rank)
    out.put("rank_expected", expected)
    out.put("rank_margin", margin)
    out.rows(["radical.%s"], vertices, residuals)
    radical_max_at = worst_at(residuals)
    radical_max = float(residuals[radical_max_at])
    out.put("radical_max", radical_max)
    out.put("radical_max_at", radical_max_at)
    out.put("jacobi", jac)
    out.put("jacobi_at", " ".join(s.edge_ids[i] for i in triple) if triple else "none")
    for key, value in poisson_mod.comparison_note():
        out.put(key, value)
    ok = (rank == expected and radical_max < tols["radical"]
          and jac < tols["jacobi"])
    return 0 if ok else 3


def cmd_holonomy(args, out: Emitter, tols) -> int:
    s = _load_surface(args.input)
    atlas = develop(s)
    # the dump's rows "vertex <v>: ..." as rows "vertex.<v>": nothing after
    # the first ": " of a row holds another
    out.chunks.append(atlas.dump().replace("vertex ", "vertex.").replace(": ", out.sep))
    traces, trace_errors, lengths, length_errors, _ = holonomy_report(atlas)
    out.rows(["trace.%s", "trace_error.%s"], range(s.n_vertices), traces, trace_errors)
    out.rows(["alength.%s", "alength_error.%s"], s.edge_ids, lengths, length_errors)
    errors = np.concatenate((trace_errors, length_errors))  # in report order
    at = worst_at(errors)
    max_error = float(errors[at])
    out.put("max_error", max_error)
    out.put("max_error_at", f"trace.{at}" if at < s.n_vertices
            else f"alength.{s.edge_ids[at - s.n_vertices]}")
    return 0 if max_error < tols["holonomy"] else 3


def cmd_delaunay(args, out: Emitter, tols) -> int:
    s = _load_surface(args.input)
    result, moves = delaunay_mod.make_delaunay(s, tol=tols["psi"])
    out.put("flips", len(moves))
    out.rows(["move.%s"], range(len(moves)), delaunay_mod.move_log_lines(moves))
    psi = list(delaunay_mod.edge_invariants(result).values())  # in edge order
    out.rows(["psi.%s"], result.edge_ids, psi)
    at = worst_at(np.negative(psi))  # the lowest psi is the worst
    psi_min = psi[at]
    out.put("psi_min", psi_min)
    out.put("psi_min_at", result.edge_ids[at])
    out.rows(["length.%s"], result.edge_ids, result.length)
    return 0 if psi_min >= -tols["psi"] else 3


def cmd_selftest(args, out: Emitter, tols) -> int:
    out.put("seed", args.seed)
    all_ok = True
    for name, count, residual, key in run_all(seed=args.seed):
        tol = tols[key]
        ok = residual < tol
        all_ok = all_ok and ok
        out.put(f"lemma.{name}.count", count)
        out.put(f"lemma.{name}.residual", residual)
        out.put(f"lemma.{name}.tolerance", tol)
        out.put(f"lemma.{name}.pass", ok)
    out.put("pass", all_ok)
    return 0 if all_ok else 3


COMMANDS = {
    "validate": (cmd_validate, True),
    "poisson": (cmd_poisson, True),
    "holonomy": (cmd_holonomy, True),
    "delaunay": (cmd_delaunay, True),
    "selftest": (cmd_selftest, False),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its usage errors as ValueError, for
    `main` to report in one line with exit 1 (argparse itself prints the
    usage and exits 2, the code of a refused evaluation)."""

    def error(self, message):
        raise ValueError(message)


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, not {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="hypcone",
        description="Hyperbolic cone surfaces: validation, holonomy, "
                    "Poisson bivector, Delaunay retriangulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_input) in COMMANDS.items():
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True,
                           help="path to a surface description (JSON)")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        p.add_argument("--tol", action="append", metavar="KEY=VALUE",
                       help="override a named tolerance; repeatable")
        if name == "selftest":
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        tols = _parse_tols(args.tol)
    except ValueError as exc:  # a usage error or a bad --tol
        sys.stderr.write(f"error: {exc}\n")
        return 1
    out = Emitter(args.format)
    fn, _ = COMMANDS[args.command]
    try:
        code = fn(args, out, tols)
    except (HypconeError, OSError, ValueError, OverflowError) as exc:
        # a JSON syntax error is a ValueError: unreadable input, like OSError
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        if isinstance(exc, HypconeError):
            return exc.exit_code
        return 3 if isinstance(exc, OverflowError) else 1
    try:
        out.flush()
    except BrokenPipeError as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        # the reader is gone: what stdout still buffers goes to the null
        # device, so the interpreter's own flush at exit has nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
