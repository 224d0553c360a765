import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import bits, blas_env

import hypcone.selftest as selftest
from hypcone.cli import main
from hypcone.selftest import CHUNK, _uniform
from hypcone.sl2 import Sl2Vector

# The structured reports of three seeds, as the per-call draws gave them,
# with the log-expansion residuals of the closed-form log perturbation
# against the closed-form exp-side oracle.
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
    "lemma.log-expansion.residual=9.2755694718525492e-14\n"
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
    "lemma.log-expansion.residual=8.8795633752861085e-15\n"
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
    "lemma.log-expansion.residual=8.9051230931866345e-15\n"
    "lemma.log-expansion.tolerance=9.9999999999999995e-07\n"
    "lemma.log-expansion.pass=true\n"
    "pass=true\n"
)


@pytest.mark.parametrize("seed, want", [(1729, SEED_1729), (1, SEED_1), (5, SEED_5)],
                         ids=["1729", "1", "5"])
def test_selftest_report_is_pinned(capsys, seed, want):
    assert main(["selftest", "--seed", str(seed), "--format", "structured"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_selftest_report_does_not_depend_on_the_blas_kernel(coretype):
    # no suite goes through BLAS, so every OpenBLAS kernel gives the bytes of
    # the report pinned above
    proc = subprocess.run(
        [sys.executable, "-m", "hypcone.cli", "selftest", "--seed", "1729",
         "--format", "structured"], capture_output=True, text=True, env=blas_env(coretype))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", SEED_1729)


def lstsq_log_slope(s, u):
    """The exp-side oracle by least squares: dexp_s(L) = u exp(s) solved
    for L over the (H, E, F) basis, each column dexp_s of a basis element."""
    eye = (1.0, 0.0, 0.0, 1.0)
    x = (s.a, s.b, s.c, -s.a)
    c0, c1, dc0, dc1 = selftest._exp_coefficients(s.det())
    columns = []
    for y in ((1.0, 0.0, 0.0, -1.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)):
        xy = selftest._mul(x, y)
        dk = -(xy[0] + xy[3])
        columns.append([(dc0 * i + dc1 * xi) * dk + c1 * yi for i, xi, yi in zip(eye, x, y)])
    rhs = selftest._mul((u.a, u.b, u.c, -u.a), [c0 * i + c1 * xi for i, xi in zip(eye, x)])
    coef, *_ = np.linalg.lstsq(list(zip(*columns)), rhs, rcond=None)
    return Sl2Vector.from_entries(*coef.tolist())


@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_closed_form_oracle_is_the_least_squares_solution(monkeypatch, seed):
    samples = []
    oracle = selftest._exp_side_log_slope

    def recording(s, u):
        samples.append((s, u))
        return oracle(s, u)

    monkeypatch.setattr(selftest, "_exp_side_log_slope", recording)
    selftest.log_expansion_suite(np.random.default_rng(seed), selftest.LOG_COUNT)
    assert len(samples) == selftest.LOG_COUNT
    for s, u in samples:
        want = lstsq_log_slope(s, u)
        err = selftest._size(oracle(s, u) - want)
        assert selftest._scaled(err, selftest._size(want)) < 1e-11, (seed, s, u)


@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_log_suite_detects_a_perturbed_entry(monkeypatch, seed):
    # an error of 1e-10 in the a entry of every log perturbation
    exact = selftest.log_perturbation

    def off(s, u):
        got = exact(s, u)
        return Sl2Vector.from_entries(got.a + 1e-10, got.b, got.c)

    monkeypatch.setattr(selftest, "log_perturbation", off)
    assert selftest.log_expansion_suite(np.random.default_rng(seed), selftest.LOG_COUNT) > 5e-11


def test_clean_log_suite_reads_below_1e_12():
    # the oracle's own error sits far below the 1e-10 fault detected above
    worst = max(selftest.log_expansion_suite(np.random.default_rng(seed), selftest.LOG_COUNT)
                for seed in range(1, 21))
    assert worst < 1e-12


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
