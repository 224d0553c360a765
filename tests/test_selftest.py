import random

import numpy as np
import pytest

from conftest import bits

from hypcone.cli import main
from hypcone.selftest import CHUNK, _uniform

# The structured reports of three seeds, as the per-call draws gave them,
# with the log-expansion residuals of the closed-form log perturbation.
SEED_1729 = (
    "seed=1729\n"
    "lemma.rotation-pairs.count=500\n"
    "lemma.rotation-pairs.residual=8.5618118809723452e-14\n"
    "lemma.rotation-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.rotation-pairs.pass=true\n"
    "lemma.axis-pairs.count=500\n"
    "lemma.axis-pairs.residual=6.0634765540470603e-14\n"
    "lemma.axis-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.axis-pairs.pass=true\n"
    "lemma.mixed-pairs.count=500\n"
    "lemma.mixed-pairs.residual=6.1573371932653173e-13\n"
    "lemma.mixed-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.mixed-pairs.pass=true\n"
    "lemma.log-expansion.count=200\n"
    "lemma.log-expansion.residual=3.3135354507090815e-13\n"
    "lemma.log-expansion.tolerance=9.9999999999999995e-07\n"
    "lemma.log-expansion.pass=true\n"
    "pass=true\n"
)
SEED_1 = (
    "seed=1\n"
    "lemma.rotation-pairs.count=500\n"
    "lemma.rotation-pairs.residual=1.1235447847638965e-13\n"
    "lemma.rotation-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.rotation-pairs.pass=true\n"
    "lemma.axis-pairs.count=500\n"
    "lemma.axis-pairs.residual=6.0400857476324576e-13\n"
    "lemma.axis-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.axis-pairs.pass=true\n"
    "lemma.mixed-pairs.count=500\n"
    "lemma.mixed-pairs.residual=7.5178168838342538e-13\n"
    "lemma.mixed-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.mixed-pairs.pass=true\n"
    "lemma.log-expansion.count=200\n"
    "lemma.log-expansion.residual=7.8895362477273885e-13\n"
    "lemma.log-expansion.tolerance=9.9999999999999995e-07\n"
    "lemma.log-expansion.pass=true\n"
    "pass=true\n"
)
SEED_5 = (
    "seed=5\n"
    "lemma.rotation-pairs.count=500\n"
    "lemma.rotation-pairs.residual=9.8890719965323888e-14\n"
    "lemma.rotation-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.rotation-pairs.pass=true\n"
    "lemma.axis-pairs.count=500\n"
    "lemma.axis-pairs.residual=5.1221909909422965e-13\n"
    "lemma.axis-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.axis-pairs.pass=true\n"
    "lemma.mixed-pairs.count=500\n"
    "lemma.mixed-pairs.residual=1.6326751899823289e-12\n"
    "lemma.mixed-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.mixed-pairs.pass=true\n"
    "lemma.log-expansion.count=200\n"
    "lemma.log-expansion.residual=3.7152194269341513e-13\n"
    "lemma.log-expansion.tolerance=9.9999999999999995e-07\n"
    "lemma.log-expansion.pass=true\n"
    "pass=true\n"
)


@pytest.mark.parametrize("seed, want", [(1729, SEED_1729), (1, SEED_1), (5, SEED_5)],
                         ids=["1729", "1", "5"])
def test_selftest_report_is_pinned(capsys, seed, want):
    assert main(["selftest", "--seed", str(seed), "--format", "structured"]) == 0
    assert capsys.readouterr().out == want


# Every (low, high, size) of the bulk-drawn suites.
DRAWS = (
    (-2.0, 2.0, None), (0.25, 2.5, None), (-3.0, 3.0, 4), (-3.0, 3.0, 2),
    (0.1, 2.0 * np.pi - 0.1, None), (0.3, 2.5, None),
)


@pytest.mark.parametrize("seed", [1, 5, 1729, 2 ** 40 + 3])
def test_bulk_uniform_is_generator_uniform(seed):
    # a seeded interleaving of every draw, over more than two chunks
    uniform = _uniform(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    order = random.Random(seed)
    taken = 0
    while taken < 2 * CHUNK + 100:
        draw = order.choice(DRAWS)
        if draw[2] is None:
            got, want = [uniform(*draw[:2])], [rng.uniform(*draw[:2])]
        else:
            got, want = uniform(*draw), rng.uniform(*draw[:2], size=draw[2]).tolist()
        assert all(type(x) is float for x in got)
        assert bits(got) == bits(want), (seed, taken, draw)
        taken += len(got)
