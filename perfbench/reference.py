"""Reference figures: one traced report per input, each in a fresh process.

    python3 perfbench/reference.py [--seed N]

Covers the holonomy ladder, the poisson sizes and the scrambled delaunay
sizes of run.py.  Every report runs in its own process, so the peak RSS is
that report's alone.  Prints a Markdown table: exit code, wall seconds, the
largest layer self times, the report's certificate figure (max_error,
jacobi or flips) and peak RSS.
"""

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from oracles import parse
from run import LADDER, POISSON_SIZES, ROOT, SCRAMBLE_SIZES, Op, import_cli, make_surface, report
from spans import Tracer, instrument
from surfaces import FAMILIES

CASES = ([("holonomy", "fixed", f, e) for e in LADDER for f in FAMILIES]
         + [("poisson", "offwall", f, e) for e in POISSON_SIZES for f in FAMILIES]
         + [("delaunay", "scrambled", f, e) for e in SCRAMBLE_SIZES for f in FAMILIES])
FIGURE = {"holonomy": "max_error", "poisson": "jacobi", "delaunay": "flips"}


def one(sub, kind, family, edges, seed):
    """Run one traced report in this process; print its figures as JSON."""
    cli, atlas_cls = import_cli()
    surface = make_surface(kind, family, int(edges), seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        path = Path(workdir) / "in.json"
        path.write_text(surface.to_json())
        tracer = Tracer()
        with instrument(cli, atlas_cls, tracer):
            start = time.perf_counter()
            code, text = report(tracer.wrap("cli.self", cli.main), Op(sub, "", str(path)))
            seconds = time.perf_counter() - start
    print(json.dumps({
        "input": f"{kind}-{surface.name}", "code": code, "seconds": seconds,
        "layers": tracer.self_times(), "figure": parse(text).get(FIGURE[sub], "-"),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", nargs=4, metavar=("SUB", "KIND", "FAMILY", "EDGES"),
                        help="run a single case in this process")
    args = parser.parse_args()
    if args.one:
        return one(*args.one, args.seed)
    print("| report | input | exit | wall s | largest layers (self s) | figure | peak RSS MB |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for sub, kind, family, edges in CASES:
        cmd = [sys.executable, __file__, "--seed", str(args.seed),
               "--one", sub, kind, family, str(edges)]
        row = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                        text=True, timeout=300).stdout)
        top = sorted(row["layers"].items(), key=lambda kv: -kv[1])[:3]
        layers = ", ".join(f"{name} {t:.3f}" for name, t in top)
        print(f"| {sub} | {row['input']} | {row['code']} | {row['seconds']:.3f} | {layers} | "
              f"{FIGURE[sub]} {row['figure']} | {row['rss_mb']:.1f} |", flush=True)


if __name__ == "__main__":
    sys.exit(main())
