"""Randomized verification suites for the pairing and logarithm identities.

Each suite draws random configurations, evaluates the library's formula, and
compares against an oracle computed by a different route — Euclidean circle
geometry of half-plane geodesics, explicit boundary-endpoint formulas, or
the derivative of the closed-form exponential.  Residuals are scaled by
1/(1 + |expected|) so that configurations with large pairings are judged
relatively.  The suites are deterministic for a fixed seed and are exposed
both to the test suite and to the command-line self-test.

A suite draws all its samples first, in the order the stream serves them,
and then evaluates the library and its oracle once on the whole batch: the
`sl2` functions take arrays of entries, and the oracles are array passes
built the same way (+ - * /, sqrt and comparisons on arrays; every
transcendental, power and `math.hypot` element by element from `math`,
since libm's pow(x, 2) is not always x * x; complex quotients by
`sl2._quotient`).  So every residual is bit for bit the one per-sample
float calls give (tests/test_selftest.py keeps those calls as the
reference), and no report depends on the BLAS kernel or on numpy's SIMD
dispatch.  `run_all` reads the worst residual of each suite's samples by
`surface.worst_at`: NaN if any residual is NaN.  The exp-side oracle, the
independent route to the closed form of `sl2.log_perturbation`, inverts the
derivative of the closed-form exponential by a closed form of its own.

The samples take rng's stream in the order per-call Generator.uniform
draws take it, each low + (high - low) u for the next value u of
rng.random(), the expression Generator.uniform evaluates.  The axis and
mixed suites find every sample's reals at once on one array of the values
(`_record_draws`); the rotation suite tests its second centres on the whole
batch and draws again from the first one it rejects.  So every sample is the
one per-call draws give, by + - * and comparisons on arrays.  The
log-expansion suite keeps a loop: its normal draws take a varying number of
raw words from the stream between its uniforms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .sl2 import (
    H_VEC,
    HypPoint,
    Sl2Vector,
    _by_case,
    _each,
    _element,
    _hypot,
    _mul,
    _quotient,
    _where,
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
from .surface import worst_at

DEFAULT_SEED = 1729

TRIG_TOL = 1e-9
LOG_TOL = 1e-6
# Random samples per suite: the log-expansion suite, and each of the others.
LOG_COUNT = 200
TRIG_COUNT = 500
# Least distance between the endpoints of an axis, as the suites draw them.
DISTINCT_GAP = 0.05


def _scaled(err, expected):
    return err / (1.0 + abs(expected))


def _size(x: Sl2Vector):
    """Largest absolute entry of each traceless matrix of a batch (NaN
    where an entry is NaN)."""
    return np.maximum(np.maximum(abs(x.a), abs(x.b)), abs(x.c))


def _chain(x: np.ndarray, k: int, width: int, count: int) -> tuple:
    """Where the next `count` samples of `_record_draws` find their reals
    on the values x, and where the first sample x does not hold starts: a
    sample's reals are its first window at stride k whose k values lie
    apart, and the next sample starts width values past that window."""
    n = len(x)
    size = n - k + 1
    apart = np.ones(size, bool)
    for i, j in itertools.combinations(range(k), 2):
        apart &= abs(x[i:i + size] - x[j:j + size]) >= DISTINCT_GAP
    # the window of a sample starting at each value; n + 1 where x has none
    window = np.full(-(-n // k) * k, n + 1)
    window[:size] = np.where(apart, np.arange(size), n + 1)
    window = np.minimum.accumulate(window.reshape(-1, k)[::-1])[::-1].reshape(-1)[:n]
    # the start of the next sample; n + 1 where x does not hold this one
    step = np.append(np.minimum(window + width, n + 1), (n + 1, n + 1))
    # sample m starts at step applied m times to 0: 2^b times per bit b of m
    nth, start = np.arange(count + 1), np.zeros(count + 1, np.intp)
    for b in range(count.bit_length()):
        start = np.where(nth >> b & 1, step[start], start)
        step = step[step]
    held = np.count_nonzero(start <= n) - 1
    return window[start[:held]], int(start[held])


def _record_draws(rng, count: int, k: int, low: tuple, high: tuple) -> list:
    """The sample columns of a suite that draws k reals of [-3, 3] until
    every two lie DISTINCT_GAP apart (rounding is monotone, so just when
    their sorted neighbours do), and then one value of [low[j], high[j]]
    per j: the samples per-call draws give on rng's stream."""
    width = k + len(low)
    u, at, windows = rng.random(count * width), 0, np.empty(0, np.intp)
    while True:
        found, start = _chain(-3.0 + 6.0 * u[at:], k, width, count - len(windows))
        windows, at = np.append(windows, at + found), at + start
        if len(windows) == count:
            break
        # rng.random(a) and then rng.random(b) serve rng.random(a + b)
        u = np.append(u, rng.random((count - len(windows)) * width))
    return _served(u[windows[:, None] + np.arange(width)], (-3.0,) * k + low, (3.0,) * k + high)


def _rotation_draws(rng, count: int) -> np.ndarray:
    """The (count, 6) raw values u of the rotation suite's samples: two
    centres and two angles each, with every second centre within 1e-2 of
    its first drawn again, as per-sample draws take them."""
    raw, start = rng.random(6 * count), 0
    while True:
        u = raw.reshape(count, 6)[start:]
        near = hyp_distance(HypPoint(*_served(u[:, 0:2])), HypPoint(*_served(u[:, 2:4]))) < 1e-2
        if not near.any():
            return raw.reshape(count, 6)
        # the first rejected second centre leaves the stream; the rest of
        # the draws move up, and two more values join at the end
        start += int(near.argmax())
        cut = 6 * start + 2
        raw = np.concatenate((raw[:cut], raw[cut + 2:], rng.random(2)))


def _served(u: np.ndarray, low=(-2.0, 0.25), high=(2.0, 2.5)) -> list:
    """The samples uniform(low, high) serves for the raw values u, one
    column per (low, high): low + (high - low) u, by default the x and y of
    a point of the plane."""
    return [lo + (hi - lo) * u[:, j] for j, (lo, hi) in enumerate(zip(low, high))]


def rotation_pair_residuals(rng, count: int) -> tuple:
    """Axis-vector identities for two elliptic elements, per sample.

    Pairing -2 cosh d, bracket 2 sinh d times the unit translation generator
    from the first center to the second (built from an independent
    normalizing isometry), and the bracket's self-pairing 8 sinh^2 d: one
    residual column each.
    """
    u = _rotation_draws(rng, count)
    p1, p2 = HypPoint(*_served(u[:, 0:2])), HypPoint(*_served(u[:, 2:4]))
    angle = 2.0 * math.pi - 0.1
    a1, a2 = _served(u[:, 4:6], (0.1, 0.1), (angle, angle))
    val, br = elliptic_pair_pairing(elliptic_about(p1, a1), elliptic_about(p2, a2))
    d = hyp_distance(p1, p2)
    cosh, sinh = 2.0 * _each(math.cosh, d), _each(math.sinh, d)
    pairing = _scaled(abs(val + cosh), cosh)
    expected = 2.0 * sinh * H_VEC.conjugate_by(normalizing_isometry(p1, p2).inverse())
    bracket = _scaled(_size(br - expected), _size(expected))
    want = 8.0 * _each(math.pow, sinh, 2.0)
    return pairing, bracket, _scaled(abs(trace_form(br, br) - want), want)


def _crossing_angle(u1, v1, u2, v2):
    """Angle at which the half-circle geodesics (u1 v1), (u2 v2) cross,
    between their oriented unit tangents, via Euclidean circle geometry."""
    c1, r1 = (u1 + v1) / 2.0, abs(v1 - u1) / 2.0
    c2, r2 = (u2 + v2) / 2.0, abs(v2 - u2) / 2.0
    x = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1))
    h = r1 * r1 - _each(math.pow, x - c1, 2.0)
    y = np.sqrt(np.where(h > 0.0, h, 0.0))
    # the unit normals (z0 - c) / r at the crossing z0 = x + iy, and the
    # tangents -i e where v > u, else i e
    e1, e2 = _quotient(x - c1, y, r1, 0.0), _quotient(x - c2, y, r2, 0.0)
    s1, s2 = np.where(v1 > u1, 1.0, -1.0), np.where(v2 > u2, 1.0, -1.0)
    re, im = _quotient(s2 * e2[1], -s2 * e2[0], s1 * e1[1], -s1 * e1[0])
    return abs(_each(math.atan2, im, re))


def axis_pair_residuals(rng, count: int) -> tuple:
    """Pairing of two hyperbolic axis vectors vs boundary-endpoint oracles,
    per sample.

    Expected value 2(u + v)/(v - u) after the Mobius change sending the first
    axis to the upward imaginary axis; crossing/disjoint classification vs
    endpoint interleaving; crossing angle vs circle tangents; distance of
    disjoint axes via sinh d = 2 sqrt(uv)/|v - u|.  The columns are the
    pairing, and the relation of the axes (crossing angle, distance, or 1.0
    where the pairing classifies them wrong).
    """
    u1, v1, u2, v2, len1, len2 = _record_draws(rng, count, 4, (0.3, 0.3), (2.5, 2.5))
    val = geodesic_pair_pairing(hyperbolic_along(u1, v1, len1), hyperbolic_along(u2, v2, len2))
    # the second axis's endpoints after the Mobius change z -> (z - u1)/(v1 - z),
    # which sends the first axis to the upward imaginary axis
    ut, vt = (u2 - u1) / (v1 - u2), (v2 - u1) / (v1 - v2)
    expected = 2.0 * (ut + vt) / (vt - ut)
    pairing = _scaled(abs(val - expected), expected)

    lo, hi = np.minimum(u1, v1), np.maximum(u1, v1)
    crossing = ((lo < u2) & (u2 < hi)) != ((lo < v2) & (v2 < hi))
    relation = np.ones(count)  # the classification disagrees with |val| < 2
    cross = crossing & (abs(val) < 2.0)
    delta = _crossing_angle(u1[cross], v1[cross], u2[cross], v2[cross])
    relation[cross] = _scaled(abs(val[cross] - 2.0 * _each(math.cos, delta)), 2.0)
    apart = ~crossing & ~(abs(val) < 2.0)
    sd = 2.0 * np.sqrt(ut[apart] * vt[apart]) / abs(vt[apart] - ut[apart])
    want = 2.0 * _each(math.hypot, 1.0, sd)
    relation[apart] = _scaled(abs(abs(val[apart]) - want), want)
    return pairing, relation


def mixed_pair_residuals(rng, count: int) -> tuple:
    """Hyperbolic-vs-elliptic pairing against signed point-to-axis distance,
    per sample.

    Expected -2 Re(p~)/Im(p~) with p~ the Mobius image of the fixed point
    when the axis is sent to the upward imaginary axis (positive on its
    left), plus an independent inside/outside-the-half-circle side test.
    The columns are the pairing, and 1.0 where the side test disagrees with
    its sign (0.0 elsewhere).
    """
    u, v, length, x, y, angle = _record_draws(rng, count, 2, (0.3, -2.0, 0.25, 0.1),
                                              (2.5, 2.0, 2.5, 2.0 * math.pi - 0.1))
    val = mixed_pairing(hyperbolic_along(u, v, length), elliptic_about(HypPoint(x, y), angle))
    # the fixed point after the Mobius change z -> (z - u)/(v - z)
    re, im = _quotient(x - u, y, v - x, -y)
    expected = -2.0 * re / im
    pairing = _scaled(abs(val - expected), expected)
    outside = _hypot(x - (u + v) / 2.0, y) > abs(v - u) / 2.0
    left = outside == (v > u)
    return pairing, np.where((abs(expected) > 1e-3) & ((val > 0.0) != left), 1.0, 0.0)


def _exp_series(m) -> tuple:
    """c0, c1, c1' as their series in k = m[0], near k = 0."""
    k = m[0]
    k3, k4 = _each(math.pow, k, 3.0), _each(math.pow, k, 4.0)
    return (1.0 - k / 2.0 + k * k / 24.0 - k3 / 720.0 + k4 / 40320.0,
            1.0 - k / 6.0 + k * k / 120.0 - k3 / 5040.0 + k4 / 362880.0,
            -1.0 / 6.0 + k / 60.0 - k * k / 1680.0 + k3 / 90720.0)


def _exp_closed(m, cos, sin) -> tuple:
    """c0, c1, c1' of (k, w = sqrt|k|) = m by cos and sin, or by cosh and
    sinh."""
    k, w = m
    c0, c1 = _each(cos, w), _each(sin, w) / w
    return c0, c1, (c0 - c1) / (2.0 * k)


_EXP_COEFFICIENTS = {
    "series": _exp_series,
    "cos": lambda m: _exp_closed(m, math.cos, math.sin),
    "cosh": lambda m: _exp_closed(m, math.cosh, math.sinh),
}


def _exp_coefficients(k) -> tuple:
    """c0, c1 of exp(X) = c0 I + c1 X for det X = k, and their k-derivatives.

    c0 = cos(sqrt k), c1 = sin(sqrt k)/sqrt k (cosh and sinh for k < 0), so
    c0' = -c1/2 and c1' = (c0 - c1)/(2k); near k = 0 the series are used.
    """
    key = _where(abs(k) < 1e-3, "series", _where(k > 0.0, "cos", "cosh"))
    c0, c1, dc1 = _by_case(key, _EXP_COEFFICIENTS, (k, _each(math.sqrt, abs(k))))
    return c0, c1, -c1 / 2.0, dc1


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


def log_expansion_residuals(rng, count: int) -> tuple:
    """First-order coefficient of log(exp(tu) exp(s)) against the exp-side
    oracle, for elliptic and for hyperbolic base directions, per sample."""
    def uniform(low, high):
        return low + (high - low) * rng.random()

    rotations, translations, normals = [], [], []
    for k in range(count):
        if k % 2 == 0:
            rotations.append((uniform(-2.0, 2.0), uniform(0.25, 2.5),
                              uniform(0.2, 2.0 * math.pi - 0.2)))
        else:
            reals = uniform(-3.0, 3.0), uniform(-3.0, 3.0)
            while abs(reals[1] - reals[0]) < DISTINCT_GAP:
                reals = uniform(-3.0, 3.0), uniform(-3.0, 3.0)
            translations.append((*reals, uniform(0.2, 2.5)))
        normals.append(rng.normal(size=3).tolist())
    x, y, angle = np.array(rotations).reshape(-1, 3).T
    u1, v1, length = np.array(translations).reshape(-1, 3).T
    # the elements in draw order: rotations at the even samples
    base = np.empty((4, count))
    base[:, 0::2] = tuple(elliptic_about(HypPoint(x, y), angle))
    base[:, 1::2] = tuple(hyperbolic_along(u1, v1, length))
    s = sl2_log(_element(tuple(base)))
    u = Sl2Vector.from_entries(*np.array(normals).reshape(count, 3).T)
    got = log_perturbation(s, u)
    rr = _exp_side_log_slope(s, u)
    return (_scaled(_size(got - rr), _size(rr)),)


# (name, the suite's per-sample residuals, samples, the --tol key of its tolerance)
SUITES = (
    ("rotation-pairs", rotation_pair_residuals, TRIG_COUNT, "lemma"),
    ("axis-pairs", axis_pair_residuals, TRIG_COUNT, "lemma"),
    ("mixed-pairs", mixed_pair_residuals, TRIG_COUNT, "lemma"),
    ("log-expansion", log_expansion_residuals, LOG_COUNT, "lemma-log"),
)


def run_all(seed: int = DEFAULT_SEED) -> list:
    """Run every suite of SUITES with a fresh seeded generator.

    Returns rows (name, count, worst scaled residual, --tol key): the
    `worst_at` residual of the suite's samples, NaN if any is NaN, so that
    a NaN fails its suite.
    """
    rows = []
    for name, residuals, count, key in SUITES:
        column = np.concatenate(residuals(np.random.default_rng(seed), count))
        rows.append((name, count, float(column[worst_at(column)]), key))
    return rows
