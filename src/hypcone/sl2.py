"""Projective SL(2,R) arithmetic and upper half-plane geometry.

Group elements are unit-determinant real 2x2 matrices taken up to sign; the
traceless matrices form their Lie algebra.  An Sl2Matrix keeps the entries
(a, b, c, d) of its canonical representative [[a, b], [c, d]], an Sl2Vector
the entries (a, b, c) of [[a, b], [c, -a]], a HypPoint its x and y.  Each
entry is a Python float, or, for a batch of elements, a 1-D float64 array;
the arrays of one batch have one length, and a float among them stands for
every element.  The public constructors parse one 2x2 array-like;
`from_entries` takes the entries, and both go through the one normalizer
`_canonical`.  `.mat` is a read-only numpy copy, built on each access.

Every formula is written once, for floats and batches alike: + - * /,
sqrt, abs and comparisons are the same IEEE operations on a float and on
each element of an array.  The element-wise choices go through a few leaf
helpers, each of which keeps a float a Python float and so costs a float
call nothing of numpy's:

* `_where` picks one of two values, `_by_case` runs the branch of each
  element's case (the kind of an element in `sl2_log`), and `_refuse`
  raises for the first element that fails a check;
* `_each` takes a `math` function element by element, so transcendentals
  and `**` come from libm and not from numpy's SIMD loops, which move with
  the CPU; `_hypot` is libm's hypot, as abs() of a complex number takes it;
* `_quotient` divides complex numbers in real arithmetic, as CPython does.

So a batch gives, element by element, the digits of the float calls.  Each
check runs on the whole batch, so a refused batch raises the first check
that any of its elements fails, with the values of the first element that
fails it (`_refuse`), and a batch of one what its float call raises.

Products and inverses are taken on entry 4-tuples by `_product` and
`_inverse`, which normalize each result by `_canonical`; `@`, `inverse` and
the isometry constructors (`elliptic_about`, `hyperbolic_along`, `hyp_exp`,
`normalizing_isometry`) all compose through them, and only a constructor's
final tuple becomes an Sl2Matrix.  So a constructor gives bit for bit the
element its chain of Sl2Matrix products gives.

The exponential and logarithm are evaluated in closed form through the
Cayley-Hamilton relation X^2 = -det(X) I, so every branch choice is explicit:

* elliptic logs are "counterclockwise": the returned generator is a positive
  multiple of a conjugate of E - F, whose Mobius flow rotates counterclockwise
  around its fixed point, and the rotation angle lies in (0, 2*pi);
* hyperbolic logs are the unique real logarithm of the trace-positive
  representative.

The trace form B(X, Y) = tr(XY) has signature (2, 1) on the traceless
matrices.  Normalized axis vectors (B = +2 on translation directions, -2 on
rotation generators) turn hyperbolic trigonometry into linear algebra:
pairings of axis vectors encode distances between fixed points, angles
between crossing axes, and signed distances from points to oriented axes.
The sign convention used throughout: the positive side of an oriented axis is
the half-plane on its LEFT, and the mixed rotation/translation pairing is
+2 sinh(signed distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    CoincidentFixedPoints,
    DegenerateDirection,
    NoBranch,
    NotElliptic,
    NotHyperbolic,
    NotSemisimple,
    NumericalCollapse,
    OutOfRange,
)

# Classification tolerance on |trace| vs 2; see _kind().
TRACE_TOL = 1e-9
# Determinant drift allowed before a representative is rescaled.
DET_TOL = 1e-12

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
IDENTITY = "identity"


# ---------------------------------------------------------------------------
# the element-wise leaf helpers
# ---------------------------------------------------------------------------

def _batched(x) -> bool:
    """Whether x is an array of elements rather than one float or flag."""
    return getattr(x, "ndim", 0) != 0


def _where(cond, x, y):
    """x where cond holds, else y: element-wise for an array cond."""
    if _batched(cond):
        return np.where(cond, x, y)
    return x if cond else y


def _not(cond):
    """The negation of a flag, element-wise for an array."""
    return ~cond if _batched(cond) else not cond


def _each(fn, *xs):
    """The `math` function fn of floats, or of the elements of arrays (a
    float among arrays stands for every element), in libm's digits."""
    sizes = [len(x) for x in xs if _batched(x)]
    if not sizes:
        return fn(*xs)
    if fn is math.sqrt:  # correctly rounded in numpy too
        return np.sqrt(xs[0])
    return np.fromiter(map(fn, *(x.tolist() if _batched(x) else repeat(x) for x in xs)),
                       float, sizes[0])


def _hypot(x, y):
    """libm's hypot of x and y, as abs() of a complex number and np.hypot
    take it; `math.hypot` is CPython's own algorithm."""
    if _batched(x) or _batched(y):
        return np.hypot(x, y)
    return abs(complex(x, y))


def _refuse(bad, error, message: str, *values) -> None:
    """Raise error(message.format(*values)) where the flag `bad` holds: for
    a batch, at its first bad element, with that element's values and its
    index as the error's `element` (0 for a float call)."""
    i = 0
    if _batched(bad):
        if not bad.any():
            return
        i = int(bad.argmax())
        values = [v.item(i) if _batched(v) else v for v in values]
    elif not bad:
        return
    exc = error(message.format(*values))
    exc.element = i
    raise exc


def _by_case(key, cases: dict, m: tuple) -> tuple:
    """cases[key](m), a tuple of entries, for the entries m of one element;
    for a batch, every case on the elements whose key names it (none, it
    may be), its results merged in element order.  Every key must name a
    case."""
    if not _batched(key):
        return cases[key](m)
    out = None
    for name, case in cases.items():
        take = key == name
        part = case(tuple(e[take] if _batched(e) else e for e in m))
        if out is None:
            out = [np.empty(len(key)) for _ in part]
        for o, p in zip(out, part):
            o[take] = p
    return tuple(out)


def _quotient(nr, ni, dr, di) -> tuple:
    """(re, im) of (nr + i ni) / (dr + i di) by CPython's complex division
    (Smith's): through by dr where |dr| >= |di|, else through by di."""
    swap = abs(dr) < abs(di)
    p, q = _where(swap, di, dr), _where(swap, dr, di)
    s, t = _where(swap, ni, nr), _where(swap, nr, ni)
    ratio = q / p
    denom = p + q * ratio
    return (s + t * ratio) / denom, _where(swap, s * ratio - t, t - s * ratio) / denom


# ---------------------------------------------------------------------------
# points of the upper half-plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HypPoint:
    """A point x + iy of the upper half-plane (y > 0), or a batch of them."""

    x: float
    y: float

    def __post_init__(self):
        _check_half_plane(self.x, self.y)

    @classmethod
    def from_complex(cls, z) -> "HypPoint":
        return cls(float(z.real), float(z.imag))

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _check_half_plane(x, y) -> None:
    """Refuse (x, y) unless it is a finite point with y > 0."""
    _refuse(_not((abs(x) < math.inf) & (abs(y) < math.inf) & (y > 0.0)), OutOfRange,
            "({}, {}) is not in the upper half-plane", x, y)


def half_plane_distance(x1, y1, x2, y2):
    """Distance between the points x1 + i y1 and x2 + i y2 of the upper
    half-plane.

    sinh(d/2) = |z - w| / (2 sqrt(Im z Im w)).  Unlike the equivalent
    cosh d = 1 + |z-w|^2 / (2 Im z Im w), this keeps full relative precision
    at short distances.
    """
    return 2.0 * _each(math.asinh, _hypot(x1 - x2, y1 - y2)
                       / (2.0 * _each(math.sqrt, y1) * _each(math.sqrt, y2)))


def hyp_distance(p: HypPoint, q: HypPoint):
    """Distance in the upper half-plane; see half_plane_distance."""
    return half_plane_distance(p.x, p.y, q.x, q.y)


def hyp_direction(p: HypPoint, q: HypPoint):
    """Angle of the initial tangent at p of the geodesic from p to q.

    Measured in the conformal chart (0 = toward +x, pi/2 = straight up).
    """
    _refuse((p.x == q.x) & (p.y == q.y), OutOfRange, "direction undefined for coincident points")
    # Send p to the disk origin, zeta = (q - p) / (q - conj p); diameters
    # through 0 are the geodesics, and the chart rotation between the two
    # models at p is exactly -pi/2.
    dx = q.x - p.x
    re, im = _quotient(dx, q.y - p.y, dx, q.y + p.y)
    return _each(math.atan2, im, re) + math.pi / 2.0


# ---------------------------------------------------------------------------
# parsing and the one normalizer
# ---------------------------------------------------------------------------

def _parse_2x2(mat) -> np.ndarray:
    """A 2x2 array-like as a float array, for the public constructors."""
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    return arr


def _frozen(rows) -> np.ndarray:
    """A read-only float array of `rows`."""
    arr = np.array(rows, dtype=float)
    arr.flags.writeable = False
    return arr


def _canonical(a, b, c, d) -> tuple:
    """The canonical representative of the projective class of [[a, b], [c, d]].

    Refuses a determinant that is not positive and finite, rescales by
    1/sqrt(det) once det drifts from 1 by more than DET_TOL, and picks the
    sign with trace > 0, or for trace 0 with (2,1) entry > 0.  With trace 0
    the (2,1) entry is never 0: then d = -a, and the determinant -a^2 would
    not be positive.  Dividing by 1 and multiplying by +-1 are exact, so
    every element takes the one expression.
    """
    det = a * d - b * c
    _refuse(_not((0.0 < det) & (det < math.inf)), ValueError,  # also refuses NaN
            "matrix determinant {} is not positive", det)
    r = _where(abs(det - 1.0) > DET_TOL, _each(math.sqrt, det), 1.0)
    a, b, c, d = a / r, b / r, c / r, d / r
    t = a + d
    sign = _where((t < 0.0) | ((t == 0.0) & (c < 0.0)), -1.0, 1.0)
    return a * sign, b * sign, c * sign, d * sign


def _mul(m: tuple, n: tuple) -> tuple:
    """The entries of the 2x2 product of two entry 4-tuples, not
    normalized: each entry's two terms in the order a matrix product takes
    them."""
    a, b, c, d = m
    p, q, r, s = n
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


def _product(m: tuple, n: tuple) -> tuple:
    """The canonical product of two elements given as entry 4-tuples."""
    return _canonical(*_mul(m, n))


def _inverse(m: tuple) -> tuple:
    """The canonical inverse, through the adjugate, of an entry 4-tuple."""
    a, b, c, d = m
    return _canonical(d, -b, -c, a)


# ---------------------------------------------------------------------------
# the Lie algebra: traceless real 2x2 matrices
# ---------------------------------------------------------------------------

class Sl2Vector:
    """A traceless real 2x2 matrix [[a, b], [c, -a]], kept as its entries
    a, b, c (floats, or arrays for a batch)."""

    __slots__ = ("a", "b", "c")
    # an array times a vector is the vector's __rmul__, not a numpy loop
    __array_ufunc__ = None

    def __init__(self, mat):
        arr = _parse_2x2(mat)
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        (m00, b), (c, m11) = arr.tolist()
        tr = m00 + m11
        scale = max(1.0, float(np.max(np.abs(arr))))
        if abs(tr) > 1e-12 * scale:
            raise ValueError(f"matrix is not traceless (trace {tr})")
        self.a, self.b, self.c = m00 - tr / 2.0, b, c

    @classmethod
    def from_entries(cls, a, b, c) -> "Sl2Vector":
        """The traceless matrix [[a, b], [c, -a]] from its entries."""
        v = object.__new__(cls)
        v.a, v.b, v.c = a, b, c
        return v

    @property
    def mat(self) -> np.ndarray:
        """A read-only numpy copy of the matrix, built on each access."""
        return _frozen([[self.a, self.b], [self.c, -self.a]])

    def __repr__(self):
        return f"Sl2Vector([[{self.a!r}, {self.b!r}], [{self.c!r}, {-self.a!r}]])"

    def __add__(self, other: "Sl2Vector") -> "Sl2Vector":
        return Sl2Vector.from_entries(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Sl2Vector") -> "Sl2Vector":
        return Sl2Vector.from_entries(self.a - other.a, self.b - other.b, self.c - other.c)

    def __mul__(self, t) -> "Sl2Vector":
        if not _batched(t):
            t = float(t)
        return Sl2Vector.from_entries(self.a * t, self.b * t, self.c * t)

    __rmul__ = __mul__

    def __neg__(self) -> "Sl2Vector":
        return Sl2Vector.from_entries(-self.a, -self.b, -self.c)

    def bracket(self, other: "Sl2Vector") -> "Sl2Vector":
        """Commutator [self, other]."""
        a, b, c = self.a, self.b, self.c
        p, q, r = other.a, other.b, other.c
        return Sl2Vector.from_entries(b * r - c * q, 2.0 * (a * q - b * p),
                                      2.0 * (c * p - a * r))

    def det(self):
        return -(self.a * self.a) - self.b * self.c

    def conjugate_by(self, g: "Sl2Matrix") -> "Sl2Vector":
        """Adjoint action g X g^-1, with the adjugate as the inverse of g."""
        p, q, r, s = g.a, g.b, g.c, g.d
        a, b, c = self.a, self.b, self.c
        ta, tb = p * a + q * c, p * b - q * a  # first row of g X
        tc, td = r * a + s * c, r * b - s * a  # second row
        return Sl2Vector.from_entries(ta * s - tb * r, tb * p - ta * q, tc * s - td * r)


# the standard triple (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
H_VEC = Sl2Vector.from_entries(1.0, 0.0, 0.0)
E_VEC = Sl2Vector.from_entries(0.0, 1.0, 0.0)
F_VEC = Sl2Vector.from_entries(0.0, 0.0, 1.0)


def trace_form(x: Sl2Vector, y: Sl2Vector):
    """B(X, Y) = tr(XY); signature (2,1) on the traceless matrices."""
    return 2.0 * x.a * y.a + x.b * y.c + x.c * y.b


# ---------------------------------------------------------------------------
# the group: unit-determinant matrices up to sign
# ---------------------------------------------------------------------------

class Sl2Matrix:
    """A projective unit-determinant 2x2 real matrix, or a batch of them.

    Kept as the entries (a, b, c, d) of its canonical representative
    [[a, b], [c, d]] (see `_canonical`): trace >= 0, and for trace 0 the
    (2,1) entry is positive.  This makes logs, classification and printed
    output deterministic.  An element unpacks as its entry 4-tuple.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, mat):
        (a, b), (c, d) = _parse_2x2(mat).tolist()
        self.a, self.b, self.c, self.d = _canonical(a, b, c, d)

    @classmethod
    def from_entries(cls, a, b, c, d) -> "Sl2Matrix":
        """The element +-[[a, b], [c, d]] from its entries, normalized as by
        the constructor."""
        m = object.__new__(cls)
        m.a, m.b, m.c, m.d = _canonical(a, b, c, d)
        return m

    @property
    def mat(self) -> np.ndarray:
        """A read-only numpy copy of the representative, built on each access."""
        return _frozen([[self.a, self.b], [self.c, self.d]])

    def __repr__(self):
        return f"Sl2Matrix([[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]])"

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.d))

    def __matmul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return _element(_product(tuple(self), tuple(other)))

    def inverse(self) -> "Sl2Matrix":
        return _element(_inverse(tuple(self)))

    def trace(self):
        return self.a + self.d

    def apply(self, z):
        """Mobius action on a complex number or a HypPoint."""
        if isinstance(z, HypPoint):
            return HypPoint(*_mobius(self, z.x, z.y))
        return complex(*_mobius(self, z.real, z.imag))


def _element(entries: tuple) -> Sl2Matrix:
    """The Sl2Matrix of a canonical entry 4-tuple (`from_entries` without
    the normalization)."""
    m = object.__new__(Sl2Matrix)
    m.a, m.b, m.c, m.d = entries
    return m


def _mobius(g: tuple, x, y) -> tuple:
    """(re, im) of the Mobius image (a z + b) / (c z + d) of z = x + iy
    under the element g = (a, b, c, d), by `_quotient`."""
    a, b, c, d = g
    # + 0.0: the imaginary part of the real b and d, which complex addition
    # adds, turning a product -0.0 into +0.0
    return _quotient(a * x + b, a * y + 0.0, c * x + d, c * y + 0.0)


def elliptic_trace(t):
    """Whether an element of trace t is elliptic: |t| <= 2 - TRACE_TOL.

    The one elliptic test, used by `_kind` and `elliptic_fixed_point`.
    `surface.WALL_BAND` is derived from it: a cone angle is in the wall band
    where its loop trace 2|cos(theta/2)| would fail this test.
    """
    return abs(t) <= 2.0 - TRACE_TOL


def _kind(m):
    """Whether the element m (an Sl2Matrix or its canonical entries) is
    elliptic, parabolic, hyperbolic or the identity.

    Elliptic by `elliptic_trace`, hyperbolic from trace 2 + TRACE_TOL up,
    and in the band between identity when every entry is within TRACE_TOL
    of the identity's, else parabolic.
    """
    a, b, c, d = m
    t = a + d  # canonical representative, so t >= 0
    near_identity = ((abs(a - 1.0) <= TRACE_TOL) & (abs(b) <= TRACE_TOL)
                     & (abs(c) <= TRACE_TOL) & (abs(d - 1.0) <= TRACE_TOL))
    return _where(elliptic_trace(t), ELLIPTIC,
                  _where(t >= 2.0 + TRACE_TOL, HYPERBOLIC,
                         _where(near_identity, IDENTITY, PARABOLIC)))


# ---------------------------------------------------------------------------
# exp and log in closed form
# ---------------------------------------------------------------------------

# c0, c1 of (k, w = sqrt|k|) for each case of sl2_exp: their series in k
# near k = 0, else cos and sin, or cosh and sinh, of w
_EXPS = {
    "series": lambda m: (1.0 - m[0] / 2.0 + m[0] * m[0] / 24.0 - _each(math.pow, m[0], 3.0) / 720.0,
                         1.0 - m[0] / 6.0 + m[0] * m[0] / 120.0 - _each(math.pow, m[0], 3.0) / 5040.0),
    "cos": lambda m: (_each(math.cos, m[1]), _each(math.sin, m[1]) / m[1]),
    "cosh": lambda m: (_each(math.cosh, m[1]), _each(math.sinh, m[1]) / m[1]),
}


def sl2_exp(x: Sl2Vector) -> Sl2Matrix:
    """exp(X) via X^2 = -det(X) I.

    With k = det X: exp(X) = c0(k) I + c1(k) X where c0 = cos(sqrt k),
    c1 = sin(sqrt k)/sqrt k for k > 0 and the cosh/sinh analogues for k < 0;
    both are the same analytic series in k, used directly near k = 0.
    """
    k = x.det()
    key = _where(abs(k) < 1e-8, "series", _where(k > 0.0, "cos", "cosh"))
    c0, c1 = _by_case(key, _EXPS, (k, _each(math.sqrt, abs(k))))
    return Sl2Matrix.from_entries(c0 + c1 * x.a, c1 * x.b, c1 * x.c, c0 - c1 * x.a)


def _traceless_part(m, scale) -> tuple:
    """(a, b, c) of (M - tr(M)/2 I) / scale."""
    a, b, c, d = m
    return (a - d) / (2.0 * scale), b / scale, c / scale


def _rotation(m) -> tuple:
    """(half, angle) of the canonical m: half = 2 acos(tr/2) in [0, pi] is
    the rotation angle up to direction, and angle the counterclockwise one,
    half where the (2,1) entry is negative and 2 pi - half elsewhere.  For
    an elliptic m, angle lies in (0, 2 pi)."""
    a, _, c, d = m
    cosine = (a + d) / 2.0  # tr >= 0
    half = 2.0 * _each(math.acos, _where(cosine < 1.0, cosine, 1.0))
    return half, _where(c < 0.0, half, 2.0 * math.pi - half)


def _elliptic_axis(m) -> tuple:
    """(a, b, c, angle): the counterclockwise unit rotation generator
    [[a, b], [c, -a]] (squaring to -I) of elliptic m, and its angle in (0, 2pi)."""
    half, angle = _rotation(m)
    a, b, c = _traceless_part(m, _each(math.sin, half / 2.0))
    # the generator is conjugate to +-(E - F), and the counterclockwise sign
    # has negative (2,1) entry: that of m itself where angle is half
    sign = _where(c < 0.0, 1.0, -1.0)
    return a * sign, b * sign, c * sign, angle


def _hyperbolic_axis(m) -> tuple:
    """(a, b, c, length): the unit translation direction [[a, b], [c, -a]]
    (squaring to I) along the oriented axis of hyperbolic m, and its
    translation length."""
    a, _, _, d = m
    ell = 2.0 * _each(math.acosh, (a + d) / 2.0)
    return (*_traceless_part(m, _each(math.sinh, ell / 2.0)), ell)


# (a, b, c, size) of each kind's log (size/2) (a, b, c); the parabolic one
# is the nilpotent M - I, of size 2
_LOGS = {
    PARABOLIC: lambda m: (*_traceless_part(m, 1.0), 2.0),
    HYPERBOLIC: _hyperbolic_axis,
    ELLIPTIC: _elliptic_axis,
}


def sl2_log(m: Sl2Matrix) -> Sl2Vector:
    """Principal logarithm of the canonical representative.

    Elliptic: the minimal-norm counterclockwise branch (nu/2) u with
    nu in (0, 2*pi) and u a unit counterclockwise rotation generator.
    Hyperbolic: the unique real log of the trace-positive representative.
    Parabolic: the nilpotent M - I.  Identity has no distinguished branch.
    """
    m = tuple(m)
    kind = _kind(m)
    _refuse(kind == IDENTITY, NoBranch, "identity has no preferred logarithm branch")
    a, b, c, size = _by_case(kind, _LOGS, m)
    t = size / 2.0
    return Sl2Vector.from_entries(a * t, b * t, c * t)


def axis_vector(m: Sl2Matrix) -> Sl2Vector:
    """Normalized axis vector L(M) = 2 log(M) / (angle or length).

    B(L, L) = -2 for elliptic (counterclockwise unit rotation generator) and
    +2 for hyperbolic (unit translation direction along the oriented axis).
    """
    m = tuple(m)
    kind = _kind(m)
    _refuse((kind != ELLIPTIC) & (kind != HYPERBOLIC), NotSemisimple,
            "no axis vector for a {} element", kind)
    a, b, c, _ = _by_case(kind, {ELLIPTIC: _elliptic_axis, HYPERBOLIC: _hyperbolic_axis}, m)
    return Sl2Vector.from_entries(a, b, c)


def elliptic_fixed_point(a, b, c, d) -> tuple:
    """(x, y): the fixed point x + iy in the upper half-plane of the element
    [[a, b], [c, d]].

    Either sign of the representative.  Anything that is not elliptic by
    `elliptic_trace` is refused.
    """
    t = a + d
    _refuse(_not(elliptic_trace(t)), NotElliptic,
            "only elliptic elements fix a point of the half-plane")
    return (a - d) / (2.0 * c), _each(math.sqrt, 4.0 - t * t) / (2.0 * abs(c))


# ---------------------------------------------------------------------------
# constructing isometries from geometric data
# ---------------------------------------------------------------------------

def _translate_to(p: HypPoint) -> tuple:
    """The entries of the affine map z -> y z + x taking i to p."""
    r = _each(math.sqrt, p.y)
    return _canonical(r, p.x / r, 0.0, 1.0 / r)


def _rotation_at_i(angle) -> tuple:
    """The entries of exp((angle/2)(E - F)): counterclockwise rotation by
    `angle` about i."""
    c, s = _each(math.cos, angle / 2.0), _each(math.sin, angle / 2.0)
    return _canonical(c, s, -s, c)


def elliptic_about(p: HypPoint, angle) -> Sl2Matrix:
    """Counterclockwise rotation by `angle` about p."""
    g = _translate_to(p)
    return _element(_product(_product(g, _rotation_at_i(angle)), _inverse(g)))


def hyperbolic_along(u, v, length) -> Sl2Matrix:
    """Translation by `length` along the geodesic from boundary point u to v.

    An axis far from 0 relative to its width loses the determinant of the
    conjugation; that is refused with NumericalCollapse.
    """
    _refuse(length <= 0.0, OutOfRange, "translation length must be positive")
    _refuse(u == v, OutOfRange, "axis endpoints must be distinct")
    try:
        # the conjugator sends 0 and oo to u and v: its columns are (v, 1)
        # and (u, 1) for v > u, else (v, 1) and (-u, -1), over sqrt|v - u|
        sign = _where(v > u, 1.0, -1.0)
        r = _each(math.sqrt, abs(v - u))
        g = _canonical(v / r, sign * u / r, 1.0 / r, sign / r)
        h = length / 2.0
        shift = _canonical(_each(math.exp, h), 0.0, 0.0, _each(math.exp, -h))
        return _element(_product(_product(g, shift), _inverse(g)))
    except ValueError as exc:  # only `_canonical` raises one here
        length, u, v = (x.item(exc.element) if _batched(x) else x for x in (length, u, v))
        raise NumericalCollapse(f"translation by {length} along the axis from {u} "
                                f"to {v}: {exc}") from None


def hyp_exp(p: HypPoint, direction, dist) -> HypPoint:
    """The point at distance `dist` from p along the geodesic with the given
    initial chart angle (pi/2 = straight up)."""
    g = _product(_translate_to(p), _rotation_at_i(direction - math.pi / 2.0))
    up = HypPoint(0.0, _each(math.exp, dist))
    return HypPoint(*_mobius(g, up.x, up.y))


def normalizing_isometry(p: HypPoint, q: HypPoint) -> Sl2Matrix:
    """The isometry sending p to i and q onto the imaginary axis above i."""
    g = _inverse(_translate_to(p))
    phi = hyp_direction(HypPoint(0.0, 1.0), HypPoint(*_mobius(g, q.x, q.y)))
    return _element(_product(_rotation_at_i(math.pi / 2.0 - phi), g))


# ---------------------------------------------------------------------------
# pairings of axis vectors (hyperbolic trigonometry as linear algebra)
# ---------------------------------------------------------------------------

def _half_plane_fixed_point(m) -> tuple:
    """(x, y) of the fixed point of elliptic m in the upper half-plane;
    refused by `elliptic_fixed_point` or `_check_half_plane`."""
    x, y = elliptic_fixed_point(*m)
    _check_half_plane(x, y)
    return x, y


def elliptic_pair_pairing(s1: Sl2Matrix, s2: Sl2Matrix) -> tuple:
    """Pairing and bracket of the axis vectors of two elliptic elements.

    Returns (B(L1, L2), [L1, L2]).  The pairing equals -2 cosh(d) for fixed
    points at distance d, and the bracket is 2 sinh(d) times the unit axis
    vector of the translation taking the first fixed point to the second.
    """
    for s in (s1, s2):
        _refuse(_kind(s) != ELLIPTIC, NotElliptic, "both inputs must be elliptic")
    z1 = _half_plane_fixed_point(s1)
    _refuse(half_plane_distance(*z1, *_half_plane_fixed_point(s2)) < 1e-9,
            CoincidentFixedPoints, "fixed points coincide; no joining axis")
    l1, l2 = (Sl2Vector.from_entries(*_elliptic_axis(tuple(s))[:3]) for s in (s1, s2))
    return trace_form(l1, l2), l1.bracket(l2)


def geodesic_pair_pairing(r1: Sl2Matrix, r2: Sl2Matrix):
    """B(L1, L2) for two hyperbolic elements.

    |value| <= 2 means the axes cross (value = 2 cos of the crossing angle
    between the oriented directions); |value| > 2 means they are disjoint
    with |value| = 2 cosh of the distance between them.
    """
    for r in (r1, r2):
        _refuse(_kind(r) != HYPERBOLIC, NotHyperbolic, "both inputs must be hyperbolic")
    l1, l2 = (Sl2Vector.from_entries(*_hyperbolic_axis(tuple(r))[:3]) for r in (r1, r2))
    return trace_form(l1, l2)


def mixed_pairing(r: Sl2Matrix, s: Sl2Matrix):
    """B(L(R), L(S)) for hyperbolic R and elliptic S.

    Equals 2 sinh(d) where d is the signed distance from the fixed point of S
    to the oriented axis of R, positive on the left of the axis.
    """
    _refuse(_kind(r) != HYPERBOLIC, NotHyperbolic, "first argument must be hyperbolic")
    _refuse(_kind(s) != ELLIPTIC, NotElliptic, "second argument must be elliptic")
    return trace_form(Sl2Vector.from_entries(*_hyperbolic_axis(tuple(r))[:3]),
                      Sl2Vector.from_entries(*_elliptic_axis(tuple(s))[:3]))


# ---------------------------------------------------------------------------
# first-order perturbation of the logarithm
# ---------------------------------------------------------------------------

# (kappa,) from w = 2 sqrt|det s|, for elliptic s (True) and hyperbolic s
_KAPPAS = {
    True: lambda w: (1.0 / (2.0 * w[0] * _each(math.tan, w[0] / 2.0)),),
    False: lambda w: (-1.0 / (2.0 * w[0] * _each(math.tanh, w[0] / 2.0)),),
}


def log_perturbation(s: Sl2Vector, u: Sl2Vector) -> Sl2Vector:
    """First-order term of log(exp(tu) exp(s)) at t = 0.

    The coefficient is (1 - Ad_S)^{-1} y + (B(u,s)/B(s,s)) s with y = [u, s],
    the inverse taken on the B-orthogonal complement of s, where y lies and
    which Ad_S = exp(ad_s) preserves.  There ad_s^2 = -4 det(s), so ad_s acts
    as i nu (nu = 2 sqrt(det s)) for elliptic s and as +-mu
    (mu = 2 sqrt(-det s)) for hyperbolic s, and 1/(1 - e^z) = 1/2 - coth(z/2)/2
    gives the inverse in closed form: y/2 + kappa [s, y] with
    kappa = cot(nu/2) / (2 nu), or -coth(mu/2) / (2 mu).
    """
    k = s.det()  # B(s, s) = -2 det(s)
    _refuse(abs(k) < 1e-12, DegenerateDirection, "base direction is parabolic-type (B(s,s) = 0)")
    y = u.bracket(s)
    kappa, = _by_case(k > 0.0, _KAPPAS, (2.0 * _each(math.sqrt, abs(k)),))
    return 0.5 * y + kappa * s.bracket(y) + (trace_form(u, s) / trace_form(s, s)) * s
