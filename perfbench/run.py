"""hypcone benchmark: seeded surfaces through `hypcone.cli.main`, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from `src/`.
One operation is one `hypcone <subcommand> --format structured` report on one
input.  A pass reports every input of the workload once per subcommand; the
run makes whole passes until S seconds have gone, checks every report
against `oracles.py`, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics: per-subcommand time of a pass
(median over passes), set-up time (median of three fresh processes, each
timed from its spawn until it is ready for the first report) and peak RSS.
--trace 1 alternates untraced and traced passes and reports per-layer self
times and counts from the traced ones (see spans.py), printing the tracing
overhead; it writes the spans to .perfbench-out/.  Times are rescaled to a
reference machine speed (see speed.py).  README.md has the details.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from oracles import Expected, check
from spans import BOUNDARY, Tracer, instrument
from speed import Speedometer
from surfaces import FAMILIES, k_for_edges, stellar, stretch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBCOMMANDS = ("validate", "holonomy", "poisson", "delaunay", "selftest")
LADDER = (150, 600, 1200)
POISSON_SIZES = (30, 60, 90, 120, 150)
SCRAMBLE_SIZES = (600, 1200)
SETUP_SAMPLES = 3
# Seeded poisson inputs keep |sin(theta/2)| >= this at every cone point.
OFF_WALL_MARGIN = 1e-3


def inputs(kind, sizes):
    return [(kind, family, edges) for edges in sizes for family in FAMILIES]


def workload(holonomy, poisson, delaunay):
    specs = {"holonomy": holonomy, "poisson": poisson, "delaunay": delaunay}
    every = list(dict.fromkeys(spec for group in specs.values() for spec in group))
    return {"validate": every, **specs}


# Every workload runs every subcommand, so that each reports every metric:
# its own path gets the large inputs, the other two a companion set of about
# a second per pass, and validate runs on every input.  Holonomy inputs do
# not depend on --seed, because whether a surface fails the holonomy
# certificate depends on the surface itself (see README.md).
WORKLOADS = {
    "holonomy-ladder": workload(inputs("fixed", LADDER), inputs("offwall", (60, 90)),
                                inputs("scrambled", (300, 450))),
    "poisson-certify": workload(inputs("fixed", (150,)), inputs("offwall", POISSON_SIZES),
                                inputs("scrambled", (300, 450))),
    "delaunay-scramble": workload(inputs("fixed", (150,)), inputs("offwall", (60, 90)),
                                  inputs("scrambled", SCRAMBLE_SIZES)),
}
# The subcommand whose report is re-run once to check byte-identical output.
FOCUS = {"holonomy-ladder": "holonomy", "poisson-certify": "poisson",
         "delaunay-scramble": "delaunay"}

# validate reports are checked but not a metric: at 50-90 ms per pass they
# are too short to time steadily here (13-26% spread over five seeds).
E2E_UNITS = {"setup_s": "s", "holonomy_s": "s", "poisson_s": "s", "delaunay_s": "s",
             "selftest_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name + "_s": "s" for name in BOUNDARY}
LAYER_UNITS.update({"cli.self_s": "s", "holonomy.dump_s": "s",
                    "cli.reports": "count", "delaunay.flips": "count",
                    "delaunay.flip_s": "s"})


def make_surface(kind, family, edges, seed):
    k = k_for_edges(family, edges)
    if kind == "fixed":
        return stellar(family, k, "fixed")
    if kind == "offwall":
        return stellar(family, k, str(seed), min_margin=OFF_WALL_MARGIN)
    if kind == "scrambled":
        return stretch(stellar(family, k, str(seed)), str(seed))
    raise ValueError(kind)


@dataclass
class Op:
    sub: str
    label: str
    path: str | None = None
    expected: Expected | None = None

    @property
    def argv(self):
        tail = ["--input", self.path] if self.path else []
        return [self.sub, "--format", "structured", *tail]

    @property
    def size(self):
        return self.expected.surface.n_edges if self.expected else 0


def import_cli():
    """hypcone.cli from this tree's src/, never from anywhere else."""
    if not (SRC / "hypcone" / "__init__.py").is_file():
        sys.exit(f"error: no hypcone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypcone.cli
    import hypcone.holonomy
    if Path(hypcone.cli.__file__).resolve().parent != SRC / "hypcone":
        sys.exit(f"error: imported hypcone from {hypcone.cli.__file__}")
    return hypcone.cli, hypcone.holonomy.HolonomyAtlas


def report(main, op):
    """(exit code, stdout) of one report, made in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(op.argv)
        except Exception:  # an uncaught error is a failed report, exit 1
            code = 1
    return code, out.getvalue()


def set_up(cli, workload, seed, workdir):
    """Write the inputs, derive their expected values, warm every subcommand."""
    ops, made = [], {}
    for sub, specs in WORKLOADS[workload].items():
        for spec in specs:
            if spec not in made:
                surface = make_surface(*spec, seed)
                path = Path(workdir) / f"{spec[0]}-{surface.name}.json"
                path.write_text(surface.to_json())
                made[spec] = (f"{spec[0]}-{surface.name}", str(path), Expected(surface))
            ops.append(Op(sub, *made[spec]))
    ops.append(Op("selftest", "selftest"))
    for sub in SUBCOMMANDS:
        report(cli.main, min((op for op in ops if op.sub == sub), key=lambda o: o.size))
    return ops


def measure_setup(workload, seed):
    """Seconds from spawning a fresh benchmark process until it is set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    meter = Speedometer()
    meter.sample()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    word, _, samples = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    child = [tuple(sample) for sample in json.loads(samples)]
    meter.samples += child
    meter.sample()
    return (elapsed - sum(d for _, d in child)) * meter.scale()


def run_pass(main, ops):
    """Report every op once.  Returns per-subcommand seconds at reference
    speed, wall seconds of all reports, and (op, code, stdout, problems)
    for every report.

    A full garbage collection before each report gives every report the
    same start, like the fresh process a user would run it in.
    """
    seconds = {f"{sub}_s": 0.0 for sub in SUBCOMMANDS}
    results, wall = [], 0.0
    meter = Speedometer()
    with meter.running():
        meter.sample()
        for op in ops:
            gc.collect()
            start = time.perf_counter()
            code, text = report(main, op)
            end = time.perf_counter()
            results.append((op, code, text, start, end))
        meter.sample()
    for op, code, text, start, end in results:
        seconds[f"{op.sub}_s"] += meter.at_reference(start, end)
        wall += end - start
    checked = [(op, code, text, check(op.sub, op.expected, code, text))
               for op, code, text, _, _ in results]
    return seconds, wall, checked


def layer_values(tracer, speed):
    """Per-layer metrics of one traced pass; layers not called are absent.

    Self times are multiplied by `speed`, the pass's ratio of reference-speed
    to wall seconds, which also takes out the time spent sampling speed.
    """
    values = {name + "_s": t * speed for name, t in tracer.self_times().items()}
    values.update(tracer.counts)
    if tracer.counts.get("delaunay.flips"):
        values["delaunay.flip_s"] = values["delaunay.make_s"] / tracer.counts["delaunay.flips"]
    return values


def median_metrics(samples, units):
    names = [n for n in units if all(n in s for s in samples)]
    return {n: {"value": statistics.median(s[n] for s in samples), "unit": units[n]}
            for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (set-up timing)")
    args = parser.parse_args()

    cli, atlas_cls = import_cli()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_only:
            meter = Speedometer()
            with meter.running():
                set_up(cli, args.workload, args.seed, workdir)
            print("ready", json.dumps(meter.samples), flush=True)
            return 0
        setup = [] if args.trace else [measure_setup(args.workload, args.seed)
                                       for _ in range(SETUP_SAMPLES)]
        ops = set_up(cli, args.workload, args.seed, workdir)
        return measure(cli, atlas_cls, ops, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, atlas_cls, ops, args, setup):
    tally = {sub: [0, 0] for sub in SUBCOMMANDS}  # attempted, failed
    unexpected, first = [], None
    focus = min((op for op in ops if op.sub == FOCUS[args.workload]), key=lambda o: o.size)
    plain, traced, spans = [], [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        if args.trace and len(traced) < len(plain):
            tracer = Tracer()
            with instrument(cli, atlas_cls, tracer):
                main = tracer.wrap("cli.self", cli.main, ("cli.reports", lambda _: 1))
                seconds, wall, checked = run_pass(main, ops)
            traced.append((seconds, layer_values(tracer, sum(seconds.values()) / wall)))
            spans.append({"spans": tracer.spans, "counts": dict(tracer.counts)})
        else:
            seconds, _, checked = run_pass(cli.main, ops)
            plain.append(seconds)
        for op, code, text, problems in checked:
            tally[op.sub][0] += 1
            if op is focus and first is None:
                first = (code, text)
            if problems:
                tally[op.sub][1] += 1
                # the named fault: a holonomy certificate out of tolerance
                if not (op.sub == "holonomy" and code == 3):
                    unexpected.append(f"{op.sub} {op.label}: {problems[0]}")

    identical = report(cli.main, focus) == first
    if not identical:
        unexpected.append(f"{focus.sub} {focus.label}: second report differs")

    passes = len(plain) + len(traced)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes")
    for sub, (attempted, failed) in tally.items():
        print(f"  {sub:9s} attempted {attempted:4d}  failed {failed:3d}")
    for problem in unexpected[:10]:
        print(f"  unexpected: {problem}")
    print(f"  byte-identical second report ({focus.sub} {focus.label}): {identical}")

    if args.trace:
        total = lambda runs: statistics.median(sum(s.values()) for s in runs)
        untraced, with_spans = total(plain), total(s for s, _ in traced)
        print(f"tracing overhead: {with_spans - untraced:+.4f} s per pass "
              f"({with_spans:.4f} s traced, {untraced:.4f} s untraced)")
        metrics = median_metrics([v for _, v in traced], LAYER_UNITS)
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = median_metrics(
            [{**s, "setup_s": statistics.median(setup), "peak_rss_mb": peak}
             for s in plain], E2E_UNITS)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(a for a, _ in tally.values())
    failed = sum(f for _, f in tally.values())
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
