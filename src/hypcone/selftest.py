"""Randomized verification suites for the pairing and logarithm identities.

Each suite draws random configurations, evaluates the library's formula, and
compares against an oracle computed by a different route — Euclidean circle
geometry of half-plane geodesics, explicit boundary-endpoint formulas, or
the derivative of the closed-form exponential.  Residuals are scaled by
1/(1 + |expected|) so that configurations with large pairings are judged
relatively.  The suites are deterministic for a fixed seed and are exposed
both to the test suite and to the command-line self-test.

The per-sample work is float arithmetic on the library's float elements and
on plain tuples; numpy only draws the samples, so no report depends on the
BLAS kernel numpy loads.  The exp-side oracle, the independent route to the
closed form of `sl2.log_perturbation`, inverts the derivative of the
closed-form exponential by a closed form of its own.  The three suites that
draw only uniform samples take them in bulk (`_uniform`): rng.random()
values, CHUNK at a time, as Python floats, each served as
low + (high - low) u.  That is the very expression Generator.uniform
evaluates on the same stream, so every sample, and every report, is the one
per-call draws give.
The log-expansion suite keeps its generator: its normal draws take raw
words from the stream between its uniforms, so a bulk buffer would shift
them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .sl2 import (
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

DEFAULT_SEED = 1729

TRIG_TOL = 1e-9
LOG_TOL = 1e-6
# Random samples per suite: the log-expansion suite, and each of the others.
LOG_COUNT = 200
TRIG_COUNT = 500
# rng.random() values a bulk uniform draw takes from the stream at once.
CHUNK = 4096
# Least distance between the endpoints `_distinct_reals` draws for an axis.
DISTINCT_GAP = 0.05


def _scaled(err: float, expected: float) -> float:
    return err / (1.0 + abs(expected))


def _size(x: Sl2Vector) -> float:
    """Largest absolute entry of a traceless matrix."""
    return max(abs(x.a), abs(x.b), abs(x.c))


def _uniform(rng):
    """Generator.uniform of rng's stream, drawn in bulk.

    The returned `uniform(low, high)` is one sample and `uniform(low, high,
    k)` a list of k, each low + (high - low) u for the next value u of
    rng.random(): bit for bit what rng.uniform gives on the same stream,
    since that evaluates the same expression in doubles.  The values are
    taken CHUNK at a time, so rng runs ahead of the samples served and is
    read only through `uniform` from then on.
    """
    def stream():
        while True:
            yield from rng.random(CHUNK).tolist()

    nxt = stream().__next__

    def uniform(low: float, high: float, k: int | None = None):
        if k is None:
            return low + (high - low) * nxt()
        return [low + (high - low) * nxt() for _ in range(k)]

    return uniform


def _random_point(uniform) -> HypPoint:
    """A point of the plane from `uniform`, a `_uniform` or Generator.uniform."""
    return HypPoint(float(uniform(-2.0, 2.0)), float(uniform(0.25, 2.5)))


def _distinct_reals(uniform, k: int) -> list:
    while True:
        xs = [float(x) for x in uniform(-3.0, 3.0, k)]
        if all(abs(xs[i] - xs[j]) >= DISTINCT_GAP
               for i in range(k) for j in range(i + 1, k)):
            return xs


def rotation_pair_suite(rng, count: int) -> float:
    """Axis-vector identities for two elliptic elements.

    Pairing -2 cosh d, bracket 2 sinh d times the unit translation generator
    from the first center to the second (built from an independent
    normalizing isometry), and the bracket's self-pairing 8 sinh^2 d.
    """
    uniform = _uniform(rng)
    worst = 0.0
    for _ in range(count):
        p1 = _random_point(uniform)
        p2 = _random_point(uniform)
        while hyp_distance(p1, p2) < 1e-2:
            p2 = _random_point(uniform)
        s1 = elliptic_about(p1, uniform(0.1, 2.0 * math.pi - 0.1))
        s2 = elliptic_about(p2, uniform(0.1, 2.0 * math.pi - 0.1))
        val, br = elliptic_pair_pairing(s1, s2)
        d = hyp_distance(p1, p2)
        worst = max(worst, _scaled(abs(val + 2.0 * math.cosh(d)), 2.0 * math.cosh(d)))
        w = normalizing_isometry(p1, p2)
        expected = 2.0 * math.sinh(d) * H_VEC.conjugate_by(w.inverse())
        worst = max(worst, _scaled(_size(br - expected), _size(expected)))
        self_pair = trace_form(br, br)
        want = 8.0 * math.sinh(d) ** 2
        worst = max(worst, _scaled(abs(self_pair - want), want))
    return worst


def _crossing_angle(u1, v1, u2, v2) -> float:
    """Angle at which the half-circle geodesics (u1 v1), (u2 v2) cross,
    between their oriented unit tangents, via Euclidean circle geometry."""
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


def axis_pair_suite(rng, count: int) -> float:
    """Pairing of two hyperbolic axis vectors vs boundary-endpoint oracles.

    Expected value 2(u + v)/(v - u) after the Mobius change sending the first
    axis to the upward imaginary axis; crossing/disjoint classification vs
    endpoint interleaving; crossing angle vs circle tangents; distance of
    disjoint axes via sinh d = 2 sqrt(uv)/|v - u|.
    """
    uniform = _uniform(rng)
    worst = 0.0
    for _ in range(count):
        u1, v1, u2, v2 = _distinct_reals(uniform, 4)
        r1 = hyperbolic_along(u1, v1, uniform(0.3, 2.5))
        r2 = hyperbolic_along(u2, v2, uniform(0.3, 2.5))
        val = geodesic_pair_pairing(r1, r2)

        def mob(z):
            return (z - u1) / (v1 - z)

        ut, vt = mob(u2), mob(v2)
        expected = 2.0 * (ut + vt) / (vt - ut)
        worst = max(worst, _scaled(abs(val - expected), expected))

        lo, hi = min(u1, v1), max(u1, v1)
        crossing = (lo < u2 < hi) != (lo < v2 < hi)
        if crossing != (abs(val) < 2.0):
            worst = max(worst, 1.0)
        elif crossing:
            delta = _crossing_angle(u1, v1, u2, v2)
            worst = max(worst, _scaled(abs(val - 2.0 * math.cos(delta)), 2.0))
        else:
            sd = 2.0 * math.sqrt(ut * vt) / abs(vt - ut)
            want = 2.0 * math.hypot(1.0, sd)
            worst = max(worst, _scaled(abs(abs(val) - want), want))
    return worst


def mixed_pair_suite(rng, count: int) -> float:
    """Hyperbolic-vs-elliptic pairing against signed point-to-axis distance.

    Expected -2 Re(p~)/Im(p~) with p~ the Mobius image of the fixed point
    when the axis is sent to the upward imaginary axis (positive on its
    left), plus an independent inside/outside-the-half-circle side test.
    """
    uniform = _uniform(rng)
    worst = 0.0
    for _ in range(count):
        u, v = _distinct_reals(uniform, 2)
        r = hyperbolic_along(u, v, uniform(0.3, 2.5))
        p = _random_point(uniform)
        s = elliptic_about(p, uniform(0.1, 2.0 * math.pi - 0.1))
        val = mixed_pairing(r, s)
        pt = (p.z - u) / (v - p.z)
        expected = -2.0 * pt.real / pt.imag
        worst = max(worst, _scaled(abs(val - expected), expected))
        if abs(expected) > 1e-3:
            center, radius = (u + v) / 2.0, abs(v - u) / 2.0
            outside = abs(p.z - center) > radius
            left = outside if v > u else not outside
            if (val > 0.0) != left:
                worst = max(worst, 1.0)
    return worst


def _exp_coefficients(k: float) -> tuple:
    """c0, c1 of exp(X) = c0 I + c1 X for det X = k, and their k-derivatives.

    c0 = cos(sqrt k), c1 = sin(sqrt k)/sqrt k (cosh and sinh for k < 0), so
    c0' = -c1/2 and c1' = (c0 - c1)/(2k); near k = 0 the series are used.
    """
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


def _exp_side_log_slope(s: Sl2Vector, u: Sl2Vector) -> Sl2Vector:
    """The first-order coefficient L of log(exp(tu) exp(s)), from the exp side.

    exp(s + tL) = exp(tu) exp(s) + O(t^2), so dexp_s(L) = R with
    R = u exp(s).  With exp(X) = c0 I + c1 X and dk = -tr(X dX) for k = det X,
    dexp_s(L) = (c0' I + c1' s) tau + c1 L, tau = -tr(s L).  As s and L are
    traceless, the trace of R gives tau = tr R / (2 c0'), and then
    L = (R - (tr R / 2) I - c1' tau s) / c1.  The raw exponential is used,
    not the sign-normalized `sl2_exp`, so both sides stay on one branch.
    """
    c0, c1, dc0, dc1 = _exp_coefficients(s.det())
    r = _mul((u.a, u.b, u.c, -u.a),
             (c0 + c1 * s.a, c1 * s.b, c1 * s.c, c0 - c1 * s.a))
    half = (r[0] + r[3]) / 2.0
    g = dc1 * half / dc0  # c1' tau
    return Sl2Vector.from_entries((r[0] - half - g * s.a) / c1,
                                  (r[1] - g * s.b) / c1, (r[2] - g * s.c) / c1)


def log_expansion_suite(rng, count: int) -> float:
    """First-order coefficient of log(exp(tu) exp(s)) against the exp-side
    oracle, for elliptic and for hyperbolic base directions."""
    worst = 0.0
    for k in range(count):
        if k % 2 == 0:
            base = elliptic_about(_random_point(rng.uniform),
                                  float(rng.uniform(0.2, 2.0 * math.pi - 0.2)))
        else:
            u1, v1 = _distinct_reals(rng.uniform, 2)
            base = hyperbolic_along(u1, v1, float(rng.uniform(0.2, 2.5)))
        s = sl2_log(base)
        u = Sl2Vector.from_entries(*rng.normal(size=3).tolist())
        got = log_perturbation(s, u)
        rr = _exp_side_log_slope(s, u)
        worst = max(worst, _scaled(_size(got - rr), _size(rr)))
    return worst


# (name, suite, samples, the --tol key of its tolerance)
SUITES = (
    ("rotation-pairs", rotation_pair_suite, TRIG_COUNT, "lemma"),
    ("axis-pairs", axis_pair_suite, TRIG_COUNT, "lemma"),
    ("mixed-pairs", mixed_pair_suite, TRIG_COUNT, "lemma"),
    ("log-expansion", log_expansion_suite, LOG_COUNT, "lemma-log"),
)


def run_all(seed: int = DEFAULT_SEED) -> list:
    """Run every suite of SUITES with a fresh seeded generator.

    Returns rows (name, count, max scaled residual, --tol key).
    """
    return [(name, count, fn(np.random.default_rng(seed), count), key)
            for name, fn, count, key in SUITES]
