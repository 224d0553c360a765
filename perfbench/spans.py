"""In-memory spans around the calls the CLI makes into each hypcone module.

`instrument` swaps the names `hypcone.cli` calls through (its imported
functions and its `poisson_mod` / `delaunay_mod` module references) for
recording wrappers, and puts everything back on exit.  Calls a module makes
internally are not wrapped, so each span is one crossing of the boundary
between `cli` and a module.  A layer's self time is the duration of its
spans minus the part of them that child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

# span name -> (attribute path in hypcone.cli, count taken from the result)
BOUNDARY = {
    "surface.build": ("build_surface", None),
    "holonomy.develop": ("develop", None),
    "holonomy.report": ("holonomy_report", None),
    "poisson.eta": ("poisson_mod.eta_matrix", None),
    "poisson.gradients": ("poisson_mod.angle_gradients", None),
    "poisson.radical": ("poisson_mod.radical_residuals", None),
    "poisson.rank": ("poisson_mod.bivector_rank", None),
    "poisson.jacobi": ("poisson_mod.jacobi_residual", None),
    "delaunay.make": ("delaunay_mod.make_delaunay",
                      ("delaunay.flips", lambda result: len(result[1]))),
    "delaunay.invariants": ("delaunay_mod.edge_invariants", None),
    "selftest.run": ("run_all", None),
}


class Tracer:
    """Spans as [name, start, end, parent index] plus named counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result
        return traced

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals


class _Proxy:
    """A module stand-in whose listed attributes are replaced."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def instrument(cli, atlas_cls, tracer: Tracer):
    """Record spans for every boundary call `cli` makes while active.

    `atlas_cls` is `hypcone.holonomy.HolonomyAtlas`, whose `dump` method the
    CLI calls on the atlas that `develop` returns.
    """
    replaced: dict = {}
    proxied: dict = {}
    for name, (path, count) in BOUNDARY.items():
        owner, _, attr = path.rpartition(".")
        if owner:
            fn = getattr(getattr(cli, owner), attr)
            proxied.setdefault(owner, {})[attr] = tracer.wrap(name, fn, count)
        else:
            replaced[attr] = tracer.wrap(name, getattr(cli, attr), count)
    for owner, attrs in proxied.items():
        replaced[owner] = _Proxy(getattr(cli, owner), attrs)
    originals = {attr: getattr(cli, attr) for attr in replaced}
    dump = atlas_cls.dump
    try:
        for attr, value in replaced.items():
            setattr(cli, attr, value)
        atlas_cls.dump = tracer.wrap("holonomy.dump", dump)
        yield tracer
    finally:
        for attr, value in originals.items():
            setattr(cli, attr, value)
        atlas_cls.dump = dump
