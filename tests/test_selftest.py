import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import bits, blas_env

import hypcone.selftest as selftest
from hypcone.cli import main
from hypcone.selftest import DISTINCT_GAP
from hypcone.sl2 import (
    H_VEC,
    HypPoint,
    Sl2Vector,
    _mul,
    elliptic_about,
    elliptic_pair_pairing,
    geodesic_pair_pairing,
    hyp_distance,
    hyperbolic_along,
    log_perturbation,
    mixed_pairing,
    normalizing_isometry,
    sl2_log,
    trace_form,
)

# The structured reports of five seeds, as the per-call draws gave them,
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
# The least seed, and one past the 64-bit range: `--seed` takes any integer
# >= 0, and CI's digest covers only seeds 1-200 and 1729.
SEED_0 = (
    "seed=0\n"
    "lemma.rotation-pairs.count=500\n"
    "lemma.rotation-pairs.residual=7.8171466763179568e-14\n"
    "lemma.rotation-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.rotation-pairs.pass=true\n"
    "lemma.axis-pairs.count=500\n"
    "lemma.axis-pairs.residual=7.1973752722159488e-13\n"
    "lemma.axis-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.axis-pairs.pass=true\n"
    "lemma.mixed-pairs.count=500\n"
    "lemma.mixed-pairs.residual=6.1245208549881422e-14\n"
    "lemma.mixed-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.mixed-pairs.pass=true\n"
    "lemma.log-expansion.count=200\n"
    "lemma.log-expansion.residual=1.0856606183008982e-14\n"
    "lemma.log-expansion.tolerance=9.9999999999999995e-07\n"
    "lemma.log-expansion.pass=true\n"
    "pass=true\n"
)
SEED_2_64 = (
    "seed=18446744073709551616\n"
    "lemma.rotation-pairs.count=500\n"
    "lemma.rotation-pairs.residual=6.2420458186270021e-14\n"
    "lemma.rotation-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.rotation-pairs.pass=true\n"
    "lemma.axis-pairs.count=500\n"
    "lemma.axis-pairs.residual=4.6230466786333915e-13\n"
    "lemma.axis-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.axis-pairs.pass=true\n"
    "lemma.mixed-pairs.count=500\n"
    "lemma.mixed-pairs.residual=4.0230690431564298e-14\n"
    "lemma.mixed-pairs.tolerance=1.0000000000000001e-09\n"
    "lemma.mixed-pairs.pass=true\n"
    "lemma.log-expansion.count=200\n"
    "lemma.log-expansion.residual=9.2713813253538808e-15\n"
    "lemma.log-expansion.tolerance=9.9999999999999995e-07\n"
    "lemma.log-expansion.pass=true\n"
    "pass=true\n"
)


@pytest.mark.parametrize("seed, want", [(1729, SEED_1729), (1, SEED_1), (5, SEED_5),
                                        (0, SEED_0), (2 ** 64, SEED_2_64)],
                         ids=["1729", "1", "5", "0", "2**64"])
def test_selftest_report_is_pinned(capsys, seed, want):
    assert main(["selftest", "--seed", str(seed), "--format", "structured"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("coretype, features", [("Haswell", None), ("Prescott", None),
                                                ("", "X86_V4 AVX512_ICL AVX512_SPR")],
                         ids=["Haswell", "Prescott", "no-avx512"])
def test_selftest_report_does_not_depend_on_the_blas_kernel(coretype, features):
    # no suite goes through BLAS, and every transcendental comes from libm,
    # so every OpenBLAS kernel, and numpy's SIMD dispatch with AVX-512 off,
    # gives the bytes of the report pinned above
    env = blas_env(coretype or None) or dict(os.environ)
    if features:
        env["NPY_DISABLE_CPU_FEATURES"] = features
    proc = subprocess.run(
        [sys.executable, "-m", "hypcone.cli", "selftest", "--seed", "1729",
         "--format", "structured"], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", SEED_1729)


# The suites as per-sample float calls: the reference the batch suites
# must give bit for bit, residual by residual.  Each returns the residual
# columns of its suite's `*_residuals`, one value per sample.

def ref_scaled(err, expected):
    return err / (1.0 + abs(expected))


def ref_size(x):
    return max(abs(x.a), abs(x.b), abs(x.c))


def ref_point(uniform):
    return HypPoint(float(uniform(-2.0, 2.0)), float(uniform(0.25, 2.5)))


def ref_distinct_reals(uniform, k):
    while True:
        xs = [float(x) for x in uniform(-3.0, 3.0, k)]
        if all(abs(xs[i] - xs[j]) >= DISTINCT_GAP
               for i in range(k) for j in range(i + 1, k)):
            return xs


def ref_rotation_residuals(rng, count):
    uniform = rng.uniform
    rows = []
    for _ in range(count):
        p1 = ref_point(uniform)
        p2 = ref_point(uniform)
        while hyp_distance(p1, p2) < 1e-2:
            p2 = ref_point(uniform)
        s1 = elliptic_about(p1, uniform(0.1, 2.0 * math.pi - 0.1))
        s2 = elliptic_about(p2, uniform(0.1, 2.0 * math.pi - 0.1))
        val, br = elliptic_pair_pairing(s1, s2)
        d = hyp_distance(p1, p2)
        pairing = ref_scaled(abs(val + 2.0 * math.cosh(d)), 2.0 * math.cosh(d))
        w = normalizing_isometry(p1, p2)
        expected = 2.0 * math.sinh(d) * H_VEC.conjugate_by(w.inverse())
        bracket = ref_scaled(ref_size(br - expected), ref_size(expected))
        want = 8.0 * math.sinh(d) ** 2
        rows.append((pairing, bracket, ref_scaled(abs(trace_form(br, br) - want), want)))
    return list(zip(*rows))


def ref_crossing_angle(u1, v1, u2, v2):
    c1, r1 = (u1 + v1) / 2.0, abs(v1 - u1) / 2.0
    c2, r2 = (u2 + v2) / 2.0, abs(v2 - u2) / 2.0
    x = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1))
    y = math.sqrt(max(0.0, r1 * r1 - (x - c1) ** 2))
    z0 = complex(x, y)
    e1 = (z0 - c1) / r1
    e2 = (z0 - c2) / r2
    t1 = -1j * e1 if v1 > u1 else 1j * e1
    t2 = -1j * e2 if v2 > u2 else 1j * e2
    return abs(cmath.phase(t2 / t1))


def ref_axis_residuals(rng, count):
    uniform = rng.uniform
    rows = []
    for _ in range(count):
        u1, v1, u2, v2 = ref_distinct_reals(uniform, 4)
        r1 = hyperbolic_along(u1, v1, uniform(0.3, 2.5))
        r2 = hyperbolic_along(u2, v2, uniform(0.3, 2.5))
        val = geodesic_pair_pairing(r1, r2)
        ut, vt = (u2 - u1) / (v1 - u2), (v2 - u1) / (v1 - v2)
        expected = 2.0 * (ut + vt) / (vt - ut)
        pairing = ref_scaled(abs(val - expected), expected)
        lo, hi = min(u1, v1), max(u1, v1)
        crossing = (lo < u2 < hi) != (lo < v2 < hi)
        if crossing != (abs(val) < 2.0):
            relation = 1.0
        elif crossing:
            delta = ref_crossing_angle(u1, v1, u2, v2)
            relation = ref_scaled(abs(val - 2.0 * math.cos(delta)), 2.0)
        else:
            sd = 2.0 * math.sqrt(ut * vt) / abs(vt - ut)
            want = 2.0 * math.hypot(1.0, sd)
            relation = ref_scaled(abs(abs(val) - want), want)
        rows.append((pairing, relation))
    return list(zip(*rows))


def ref_mixed_residuals(rng, count):
    uniform = rng.uniform
    rows = []
    for _ in range(count):
        u, v = ref_distinct_reals(uniform, 2)
        r = hyperbolic_along(u, v, uniform(0.3, 2.5))
        p = ref_point(uniform)
        s = elliptic_about(p, uniform(0.1, 2.0 * math.pi - 0.1))
        val = mixed_pairing(r, s)
        pt = (p.z - u) / (v - p.z)
        expected = -2.0 * pt.real / pt.imag
        side = 0.0
        if abs(expected) > 1e-3:
            center, radius = (u + v) / 2.0, abs(v - u) / 2.0
            outside = abs(p.z - center) > radius
            left = outside if v > u else not outside
            if (val > 0.0) != left:
                side = 1.0
        rows.append((ref_scaled(abs(val - expected), expected), side))
    return list(zip(*rows))


def ref_log_residuals(rng, count):
    rows = []
    for k in range(count):
        if k % 2 == 0:
            base = elliptic_about(ref_point(rng.uniform),
                                  float(rng.uniform(0.2, 2.0 * math.pi - 0.2)))
        else:
            u1, v1 = ref_distinct_reals(rng.uniform, 2)
            base = hyperbolic_along(u1, v1, float(rng.uniform(0.2, 2.5)))
        s = sl2_log(base)
        u = Sl2Vector.from_entries(*rng.normal(size=3).tolist())
        got = log_perturbation(s, u)
        rr = ref_exp_side_log_slope(s, u)
        rows.append((ref_scaled(ref_size(got - rr), ref_size(rr)),))
    return list(zip(*rows))


def ref_exp_coefficients(k):
    if abs(k) < 1e-3:
        c0 = 1.0 - k / 2.0 + k * k / 24.0 - k ** 3 / 720.0 + k ** 4 / 40320.0
        c1 = 1.0 - k / 6.0 + k * k / 120.0 - k ** 3 / 5040.0 + k ** 4 / 362880.0
        dc1 = -1.0 / 6.0 + k / 60.0 - k * k / 1680.0 + k ** 3 / 90720.0
        return c0, c1, -c1 / 2.0, dc1
    w = math.sqrt(abs(k))
    if k > 0.0:
        c0, c1 = math.cos(w), math.sin(w) / w
    else:
        c0, c1 = math.cosh(w), math.sinh(w) / w
    return c0, c1, -c1 / 2.0, (c0 - c1) / (2.0 * k)


def ref_exp_side_log_slope(s, u):
    c0, c1, dc0, dc1 = ref_exp_coefficients(s.det())
    r = _mul((u.a, u.b, u.c, -u.a), (c0 + c1 * s.a, c1 * s.b, c1 * s.c, c0 - c1 * s.a))
    half = (r[0] + r[3]) / 2.0
    g = dc1 * half / dc0
    return Sl2Vector.from_entries((r[0] - half - g * s.a) / c1,
                                  (r[1] - g * s.b) / c1, (r[2] - g * s.c) / c1)


def element(v, j):
    """Sample j of a batch of vectors, as a float vector."""
    return Sl2Vector.from_entries(v.a.item(j), v.b.item(j), v.c.item(j))


@pytest.mark.parametrize("k", [-0.5, -1e-3, -2e-4, 0.0, 3e-4, 1e-3, 0.7, 20.0])
def test_exp_coefficients_take_batches(k):
    # the series near k = 0 and both closed forms, as floats and in one batch
    ks = np.array([k, 0.3, -0.3, 1e-4])
    want = [ref_exp_coefficients(x) for x in ks.tolist()]
    assert bits(np.array(selftest._exp_coefficients(ks)).T) == bits(want)
    assert bits(selftest._exp_coefficients(k)) == bits(want[0])


REFERENCES = (
    (selftest.rotation_pair_residuals, ref_rotation_residuals, selftest.TRIG_COUNT),
    (selftest.axis_pair_residuals, ref_axis_residuals, selftest.TRIG_COUNT),
    (selftest.mixed_pair_residuals, ref_mixed_residuals, selftest.TRIG_COUNT),
    (selftest.log_expansion_residuals, ref_log_residuals, selftest.LOG_COUNT),
)


@pytest.mark.parametrize("seed", [*range(1, 21), 1729, 613, 1476])
def test_batch_suites_give_the_per_sample_residuals(seed):
    # most of seeds 1-20 draw one sample's axis reals three or four times,
    # and seeds 8 and 12 one sample's mixed reals three times; seeds 11 and
    # 14 redraw a second rotation centre, 613 two (samples 412 and 488), and
    # 1476 the last sample's, so its draws run past the first 6 * count values
    for batch, reference, count in REFERENCES:
        got = batch(np.random.default_rng(seed), count)
        want = reference(np.random.default_rng(seed), count)
        assert [bits(column) for column in got] == [bits(column) for column in want], \
            (seed, batch.__name__)


def test_a_nan_residual_fails_its_suite_and_the_report(monkeypatch, capsys):
    # a NaN or +inf pairing at the first, a middle and the last sample
    exact = selftest.mixed_pairing
    for at in (0, selftest.TRIG_COUNT // 2, selftest.TRIG_COUNT - 1):
        for bad in (math.nan, math.inf):
            def spoiled(r, s):
                val = exact(r, s)
                val[at] = bad
                return val

            monkeypatch.setattr(selftest, "mixed_pairing", spoiled)
            pairing, _ = selftest.mixed_pair_residuals(np.random.default_rng(1729),
                                                       selftest.TRIG_COUNT)
            assert repr(float(pairing[at])) == repr(bad), (at, bad)
            assert main(["selftest", "--seed", "1729", "--format", "structured"]) == 3
            out = capsys.readouterr().out
            assert f"lemma.mixed-pairs.residual={bad}\n" \
                "lemma.mixed-pairs.tolerance=1.0000000000000001e-09\n" \
                "lemma.mixed-pairs.pass=false\n" in out, (at, bad)
            assert out.endswith("pass=false\n")


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
    selftest.log_expansion_residuals(np.random.default_rng(seed), selftest.LOG_COUNT)
    (batch_s, batch_u), = samples  # the suite's one batch call
    assert len(batch_s.a) == len(batch_u.a) == selftest.LOG_COUNT
    for j in range(selftest.LOG_COUNT):
        s, u = element(batch_s, j), element(batch_u, j)
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
    residuals, = selftest.log_expansion_residuals(np.random.default_rng(seed), selftest.LOG_COUNT)
    assert np.max(residuals) > 5e-11


def test_clean_log_suite_reads_below_1e_12():
    # the oracle's own error sits far below the 1e-10 fault detected above
    worst = max(np.max(selftest.log_expansion_residuals(np.random.default_rng(seed),
                                                        selftest.LOG_COUNT)[0])
                for seed in range(1, 21))
    assert worst < 1e-12


# The two sample shapes of `_record_draws`: the axis suite's 4 reals and 2
# lengths, and the mixed suite's 2 reals, a length, a point and an angle.
RECORDS = {
    "4+2": (4, (0.3, 0.3), (2.5, 2.5)),
    "2+4": (2, (0.3, -2.0, 0.25, 0.1), (2.5, 2.0, 2.5, 2.0 * math.pi - 0.1)),
}


@pytest.mark.parametrize("count", [1, 2, 3, 500])
@pytest.mark.parametrize("shape", RECORDS)
def test_record_draws_are_per_call_draws(shape, count):
    # per-call Generator.uniform draws, the reals drawn again until apart
    k, low, high = RECORDS[shape]
    for seed in [*range(201), 1729, 2 ** 40 + 3]:
        rng = np.random.default_rng(seed)
        want = [(*ref_distinct_reals(rng.uniform, k),
                 *[rng.uniform(lo, hi) for lo, hi in zip(low, high)]) for _ in range(count)]
        got = selftest._record_draws(np.random.default_rng(seed), count, k, low, high)
        assert bits(np.array(got).T) == bits(want), (shape, count, seed)
