"""Projective SL(2,R) arithmetic and upper half-plane geometry.

Group elements are unit-determinant real 2x2 matrices taken up to sign; the
traceless matrices form their Lie algebra.  Both live as plain Python floats:
an Sl2Matrix as the entries (a, b, c, d) of its canonical representative
[[a, b], [c, d]], an Sl2Vector as (a, b, c) of [[a, b], [c, -a]].  Every
operation is a float expression, so none pays numpy's per-call cost on a 2x2
array.  The public constructors parse a 2x2 array-like once; `from_entries`
takes the floats, and both go through the one normalizer `_canonical`.
`.mat` is a read-only numpy copy, built on each access.

Products and inverses are taken on plain 4-tuples by `_product` and
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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentFixedPoints,
    DegenerateDirection,
    NoBranch,
    NoSolution,
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
# points of the upper half-plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypPoint:
    """A point x + iy of the upper half-plane (y > 0)."""

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


def _check_half_plane(x: float, y: float) -> None:
    """Refuse (x, y) unless it is a finite point with y > 0."""
    if not (math.isfinite(x) and math.isfinite(y) and y > 0.0):
        raise OutOfRange(f"({x}, {y}) is not in the upper half-plane")


def half_plane_distance(z: complex, w: complex) -> float:
    """Distance between two points of the upper half-plane given as complex numbers.

    sinh(d/2) = |z - w| / (2 sqrt(Im z Im w)).  Unlike the equivalent
    cosh d = 1 + |z-w|^2 / (2 Im z Im w), this keeps full relative precision
    at short distances.
    """
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag) * math.sqrt(w.imag)))


def hyp_distance(p: HypPoint, q: HypPoint) -> float:
    """Distance in the upper half-plane; see half_plane_distance."""
    return half_plane_distance(p.z, q.z)


def hyp_direction(p: HypPoint, q: HypPoint) -> float:
    """Angle of the initial tangent at p of the geodesic from p to q.

    Measured in the conformal chart (0 = toward +x, pi/2 = straight up).
    """
    if p == q:
        raise OutOfRange("direction undefined for coincident points")
    # Send p to the disk origin; diameters through 0 are the geodesics, and
    # the chart rotation between the two models at p is exactly -pi/2.
    zeta = (q.z - p.z) / (q.z - p.z.conjugate())
    return cmath.phase(zeta) + math.pi / 2.0


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


def _canonical(a: float, b: float, c: float, d: float) -> tuple:
    """The canonical representative of the projective class of [[a, b], [c, d]].

    Refuses a determinant that is not positive and finite, rescales by
    1/sqrt(det) once det drifts from 1 by more than DET_TOL, and picks the
    sign with trace > 0, or for trace 0 with (2,1) entry > 0.  With trace 0
    the (2,1) entry is never 0: then d = -a, and the determinant -a^2 would
    not be positive.
    """
    det = a * d - b * c
    if not 0.0 < det < math.inf:  # also refuses NaN
        raise ValueError(f"matrix determinant {det} is not positive")
    if abs(det - 1.0) > DET_TOL:
        r = math.sqrt(det)
        a, b, c, d = a / r, b / r, c / r, d / r
    t = a + d
    if t < 0.0 or (t == 0.0 and c < 0.0):
        return -a, -b, -c, -d
    return a, b, c, d


def _canonical_rows(m: np.ndarray) -> np.ndarray:
    """`_canonical` of every row (a, b, c, d) of the (n, 4) array m, whose
    determinants are positive and finite: the same rescale and sign, bit for
    bit, by + - * /, sqrt and comparisons on arrays."""
    a, b, c, d = m.T
    det = a * d - b * c
    drift = np.abs(det - 1.0) > DET_TOL
    m = m.copy()
    m[drift] /= np.sqrt(det[drift])[:, None]
    t = m[:, 0] + m[:, 3]
    m[(t < 0.0) | ((t == 0.0) & (m[:, 2] < 0.0))] *= -1.0
    return m


def _mul(m: tuple, n: tuple) -> tuple:
    """The entries of the 2x2 product of two entry 4-tuples, floats or arrays
    alike, not normalized: each entry's two terms in the order `_product`
    and a matrix product take them."""
    a, b, c, d = m
    p, q, r, s = n
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


def _product(m: tuple, n: tuple) -> tuple:
    """The canonical product of two elements given as entry 4-tuples."""
    a, b, c, d = m
    p, q, r, s = n
    # `_mul` written out: a call per product would cost selftest about 4%
    return _canonical(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def _inverse(m: tuple) -> tuple:
    """The canonical inverse, through the adjugate, of an entry 4-tuple."""
    a, b, c, d = m
    return _canonical(d, -b, -c, a)


# ---------------------------------------------------------------------------
# the Lie algebra: traceless real 2x2 matrices
# ---------------------------------------------------------------------------

class Sl2Vector:
    """A traceless real 2x2 matrix [[a, b], [c, -a]], kept as the floats a, b, c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, mat):
        arr = _parse_2x2(mat)
        (m00, b), (c, m11) = arr.tolist()
        tr = m00 + m11
        scale = max(1.0, float(np.max(np.abs(arr))))
        if abs(tr) > 1e-12 * scale:
            raise ValueError(f"matrix is not traceless (trace {tr})")
        self.a, self.b, self.c = m00 - tr / 2.0, b, c

    @classmethod
    def from_entries(cls, a: float, b: float, c: float) -> "Sl2Vector":
        """The traceless matrix [[a, b], [c, -a]] from three floats."""
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

    def __mul__(self, t: float) -> "Sl2Vector":
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

    def det(self) -> float:
        return -(self.a * self.a) - self.b * self.c

    def conjugate_by(self, g: "Sl2Matrix") -> "Sl2Vector":
        """Adjoint action g X g^-1, with the adjugate as the inverse of g."""
        p, q, r, s = g.a, g.b, g.c, g.d
        a, b, c = self.a, self.b, self.c
        ta, tb = p * a + q * c, p * b - q * a  # first row of g X
        tc, td = r * a + s * c, r * b - s * a  # second row
        return Sl2Vector.from_entries(ta * s - tb * r, tb * p - ta * q, tc * s - td * r)


def sl2_basis() -> tuple[Sl2Vector, Sl2Vector, Sl2Vector]:
    """The standard triple (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    return (
        Sl2Vector([[1.0, 0.0], [0.0, -1.0]]),
        Sl2Vector([[0.0, 1.0], [0.0, 0.0]]),
        Sl2Vector([[0.0, 0.0], [1.0, 0.0]]),
    )


H_VEC, E_VEC, F_VEC = sl2_basis()


def trace_form(x: Sl2Vector, y: Sl2Vector) -> float:
    """B(X, Y) = tr(XY); signature (2,1) on the traceless matrices."""
    return 2.0 * x.a * y.a + x.b * y.c + x.c * y.b


# ---------------------------------------------------------------------------
# the group: unit-determinant matrices up to sign
# ---------------------------------------------------------------------------

class Sl2Matrix:
    """A projective unit-determinant 2x2 real matrix.

    Kept as the floats (a, b, c, d) of its canonical representative
    [[a, b], [c, d]] (see `_canonical`): trace >= 0, and for trace 0 the
    (2,1) entry is positive.  This makes logs, classification and printed
    output deterministic.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, mat):
        (a, b), (c, d) = _parse_2x2(mat).tolist()
        self.a, self.b, self.c, self.d = _canonical(a, b, c, d)

    @classmethod
    def from_entries(cls, a: float, b: float, c: float, d: float) -> "Sl2Matrix":
        """The element +-[[a, b], [c, d]] from four floats, normalized as by
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

    def __matmul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return _element(_product((self.a, self.b, self.c, self.d),
                                 (other.a, other.b, other.c, other.d)))

    def inverse(self) -> "Sl2Matrix":
        return _element(_inverse((self.a, self.b, self.c, self.d)))

    def trace(self) -> float:
        return self.a + self.d

    def apply(self, z):
        """Mobius action on a complex number or HypPoint."""
        return _mobius((self.a, self.b, self.c, self.d), z)


def _element(entries: tuple) -> Sl2Matrix:
    """The Sl2Matrix of a canonical entry 4-tuple (`from_entries` without
    the normalization)."""
    m = object.__new__(Sl2Matrix)
    m.a, m.b, m.c, m.d = entries
    return m


def _mobius(g: tuple, z):
    """The Mobius image of z, a complex number or HypPoint, under the
    element with the entry 4-tuple g."""
    if isinstance(z, HypPoint):
        return HypPoint.from_complex(_mobius(g, z.z))
    a, b, c, d = g
    return (a * z + b) / (c * z + d)


def elliptic_trace(t: float) -> bool:
    """Whether an element of trace t is elliptic: |t| <= 2 - TRACE_TOL.

    The one elliptic test, used by `_kind` and `elliptic_fixed_point`.
    `surface.WALL_BAND` is derived from it: a cone angle is in the wall band
    where its loop trace 2|cos(theta/2)| would fail this test.
    """
    return abs(t) <= 2.0 - TRACE_TOL


def _kind(m: Sl2Matrix) -> str:
    """Whether m is elliptic, parabolic, hyperbolic or the identity.

    Elliptic by `elliptic_trace`, hyperbolic from trace 2 + TRACE_TOL up,
    and in the band between identity when every entry is within TRACE_TOL
    of the identity's, else parabolic.
    """
    t = m.a + m.d  # canonical representative, so t >= 0
    if elliptic_trace(t):
        return ELLIPTIC
    if t >= 2.0 + TRACE_TOL:
        return HYPERBOLIC
    if max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0)) <= TRACE_TOL:
        return IDENTITY
    return PARABOLIC


# ---------------------------------------------------------------------------
# exp and log in closed form
# ---------------------------------------------------------------------------

def sl2_exp(x: Sl2Vector) -> Sl2Matrix:
    """exp(X) via X^2 = -det(X) I.

    With k = det X: exp(X) = c0(k) I + c1(k) X where c0 = cos(sqrt k),
    c1 = sin(sqrt k)/sqrt k for k > 0 and the cosh/sinh analogues for k < 0;
    both are the same analytic series in k, used directly near k = 0.
    """
    k = x.det()
    if abs(k) < 1e-8:
        c0 = 1.0 - k / 2.0 + k * k / 24.0 - k ** 3 / 720.0
        c1 = 1.0 - k / 6.0 + k * k / 120.0 - k ** 3 / 5040.0
    elif k > 0.0:
        w = math.sqrt(k)
        c0 = math.cos(w)
        c1 = math.sin(w) / w
    else:
        w = math.sqrt(-k)
        c0 = math.cosh(w)
        c1 = math.sinh(w) / w
    return Sl2Matrix.from_entries(c0 + c1 * x.a, c1 * x.b, c1 * x.c, c0 - c1 * x.a)


def _traceless_part(m: Sl2Matrix, scale: float) -> tuple:
    """(a, b, c) of (M - tr(M)/2 I) / scale."""
    return (m.a - m.d) / (2.0 * scale), m.b / scale, m.c / scale


def _rotation(m: Sl2Matrix) -> tuple:
    """(half, angle) of the canonical m: half = 2 acos(tr/2) in [0, pi] is
    the rotation angle up to direction, and angle the counterclockwise one,
    half where the (2,1) entry is negative and 2 pi - half elsewhere.  For
    an elliptic m, angle lies in (0, 2 pi)."""
    half = 2.0 * math.acos(min(1.0, (m.a + m.d) / 2.0))  # tr >= 0
    return half, half if m.c < 0.0 else 2.0 * math.pi - half


def _rotation_angles(m: np.ndarray) -> np.ndarray:
    """The counterclockwise angle `_rotation(...)[1]` of every canonical row
    (a, b, c, d) of the (n, 4) array m, bit for bit: acos from `math`."""
    cosines = np.fmin(1.0, (m[:, 0] + m[:, 3]) / 2.0).tolist()  # tr >= 0
    half = 2.0 * np.array(list(map(math.acos, cosines)))
    return np.where(m[:, 2] < 0.0, half, 2.0 * math.pi - half)


def _elliptic_axis(m: Sl2Matrix) -> tuple:
    """(a, b, c, angle): the counterclockwise unit rotation generator
    [[a, b], [c, -a]] (squaring to -I) of elliptic m, and its angle in (0, 2pi)."""
    half, angle = _rotation(m)
    a, b, c = _traceless_part(m, math.sin(half / 2.0))
    # the generator is conjugate to +-(E - F), and the counterclockwise sign
    # has negative (2,1) entry: that of m itself where angle is half
    if m.c < 0.0:
        return a, b, c, angle
    return -a, -b, -c, angle


def _hyperbolic_axis(m: Sl2Matrix) -> tuple:
    """(a, b, c, length): the unit translation direction [[a, b], [c, -a]]
    (squaring to I) along the oriented axis of hyperbolic m, and its
    translation length."""
    ell = 2.0 * math.acosh(m.trace() / 2.0)
    return (*_traceless_part(m, math.sinh(ell / 2.0)), ell)


def _axis_form(x: tuple, y: tuple) -> float:
    """trace_form of the traceless matrices with entries (a, b, c) x and y."""
    return 2.0 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]


def sl2_log(m: Sl2Matrix) -> Sl2Vector:
    """Principal logarithm of the canonical representative.

    Elliptic: the minimal-norm counterclockwise branch (nu/2) u with
    nu in (0, 2*pi) and u a unit counterclockwise rotation generator.
    Hyperbolic: the unique real log of the trace-positive representative.
    Parabolic: the nilpotent M - I.  Identity has no distinguished branch.
    """
    kind = _kind(m)
    if kind == IDENTITY:
        raise NoBranch("identity has no preferred logarithm branch")
    if kind == PARABOLIC:
        return Sl2Vector.from_entries(*_traceless_part(m, 1.0))
    a, b, c, size = _hyperbolic_axis(m) if kind == HYPERBOLIC else _elliptic_axis(m)
    t = size / 2.0
    return Sl2Vector.from_entries(a * t, b * t, c * t)


def axis_vector(m: Sl2Matrix) -> Sl2Vector:
    """Normalized axis vector L(M) = 2 log(M) / (angle or length).

    B(L, L) = -2 for elliptic (counterclockwise unit rotation generator) and
    +2 for hyperbolic (unit translation direction along the oriented axis).
    """
    kind = _kind(m)
    if kind == ELLIPTIC:
        return Sl2Vector.from_entries(*_elliptic_axis(m)[:3])
    if kind == HYPERBOLIC:
        return Sl2Vector.from_entries(*_hyperbolic_axis(m)[:3])
    raise NotSemisimple(f"no axis vector for a {kind} element")


def elliptic_fixed_point(a: float, b: float, c: float, d: float) -> complex:
    """Fixed point in the upper half-plane of the element [[a, b], [c, d]].

    Plain floats, either sign of the representative.  Anything that is not
    elliptic by `elliptic_trace` is refused.
    """
    t = a + d
    if not elliptic_trace(t):
        raise NotElliptic("only elliptic elements fix a point of the half-plane")
    return complex((a - d) / (2.0 * c), math.sqrt(4.0 - t * t) / (2.0 * abs(c)))


# ---------------------------------------------------------------------------
# constructing isometries from geometric data
# ---------------------------------------------------------------------------

def _translate_to(p: HypPoint) -> tuple:
    """The entries of the affine map z -> y z + x taking i to p."""
    r = math.sqrt(p.y)
    return _canonical(r, p.x / r, 0.0, 1.0 / r)


def _rotation_at_i(angle: float) -> tuple:
    """The entries of exp((angle/2)(E - F)): counterclockwise rotation by
    `angle` about i."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return _canonical(c, s, -s, c)


def elliptic_about(p: HypPoint, angle: float) -> Sl2Matrix:
    """Counterclockwise rotation by `angle` about p."""
    g = _translate_to(p)
    return _element(_product(_product(g, _rotation_at_i(angle)), _inverse(g)))


def hyperbolic_along(u: float, v: float, length: float) -> Sl2Matrix:
    """Translation by `length` along the geodesic from boundary point u to v.

    An axis far from 0 relative to its width loses the determinant of the
    conjugation; that is refused with NumericalCollapse.
    """
    if length <= 0.0:
        raise OutOfRange("translation length must be positive")
    if u == v:
        raise OutOfRange("axis endpoints must be distinct")
    try:
        if v > u:
            r = math.sqrt(v - u)
            g = _canonical(v / r, u / r, 1.0 / r, 1.0 / r)
        else:
            r = math.sqrt(u - v)
            g = _canonical(v / r, -u / r, 1.0 / r, -1.0 / r)
        h = length / 2.0
        shift = _canonical(math.exp(h), 0.0, 0.0, math.exp(-h))
        return _element(_product(_product(g, shift), _inverse(g)))
    except ValueError as exc:  # only `_canonical` raises one here
        raise NumericalCollapse(f"translation by {length} along the axis from {u} "
                                f"to {v}: {exc}") from None


def hyp_exp(p: HypPoint, direction: float, dist: float) -> HypPoint:
    """The point at distance `dist` from p along the geodesic with the given
    initial chart angle (pi/2 = straight up)."""
    g = _product(_translate_to(p), _rotation_at_i(direction - math.pi / 2.0))
    return _mobius(g, HypPoint(0.0, math.exp(dist)))


def normalizing_isometry(p: HypPoint, q: HypPoint) -> Sl2Matrix:
    """The isometry sending p to i and q onto the imaginary axis above i."""
    g = _inverse(_translate_to(p))
    phi = hyp_direction(HypPoint(0.0, 1.0), _mobius(g, q))
    return _element(_product(_rotation_at_i(math.pi / 2.0 - phi), g))


# ---------------------------------------------------------------------------
# pairings of axis vectors (hyperbolic trigonometry as linear algebra)
# ---------------------------------------------------------------------------

def _half_plane_fixed_point(m: Sl2Matrix) -> complex:
    """The fixed point of elliptic m in the upper half-plane, as a complex
    number; refused by `elliptic_fixed_point` or `_check_half_plane`."""
    z = elliptic_fixed_point(m.a, m.b, m.c, m.d)
    _check_half_plane(z.real, z.imag)
    return z


def elliptic_pair_pairing(s1: Sl2Matrix, s2: Sl2Matrix) -> tuple[float, Sl2Vector]:
    """Pairing and bracket of the axis vectors of two elliptic elements.

    Returns (B(L1, L2), [L1, L2]).  The pairing equals -2 cosh(d) for fixed
    points at distance d, and the bracket is 2 sinh(d) times the unit axis
    vector of the translation taking the first fixed point to the second.
    """
    for s in (s1, s2):
        if _kind(s) != ELLIPTIC:
            raise NotElliptic("both inputs must be elliptic")
    z1 = _half_plane_fixed_point(s1)
    if half_plane_distance(z1, _half_plane_fixed_point(s2)) < 1e-9:
        raise CoincidentFixedPoints("fixed points coincide; no joining axis")
    l1, l2 = _elliptic_axis(s1), _elliptic_axis(s2)
    a, b, c, _ = l1
    p, q, r, _ = l2
    # the bracket as Sl2Vector.bracket forms it
    return _axis_form(l1, l2), Sl2Vector.from_entries(b * r - c * q, 2.0 * (a * q - b * p),
                                                      2.0 * (c * p - a * r))


def geodesic_pair_pairing(r1: Sl2Matrix, r2: Sl2Matrix) -> float:
    """B(L1, L2) for two hyperbolic elements.

    |value| <= 2 means the axes cross (value = 2 cos of the crossing angle
    between the oriented directions); |value| > 2 means they are disjoint
    with |value| = 2 cosh of the distance between them.
    """
    for r in (r1, r2):
        if _kind(r) != HYPERBOLIC:
            raise NotHyperbolic("both inputs must be hyperbolic")
    return _axis_form(_hyperbolic_axis(r1), _hyperbolic_axis(r2))


def mixed_pairing(r: Sl2Matrix, s: Sl2Matrix) -> float:
    """B(L(R), L(S)) for hyperbolic R and elliptic S.

    Equals 2 sinh(d) where d is the signed distance from the fixed point of S
    to the oriented axis of R, positive on the left of the axis.
    """
    if _kind(r) != HYPERBOLIC:
        raise NotHyperbolic("first argument must be hyperbolic")
    if _kind(s) != ELLIPTIC:
        raise NotElliptic("second argument must be elliptic")
    return _axis_form(_hyperbolic_axis(r), _elliptic_axis(s))


# ---------------------------------------------------------------------------
# first-order perturbation of the logarithm
# ---------------------------------------------------------------------------

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
    if abs(k) < 1e-12:
        raise DegenerateDirection("base direction is parabolic-type (B(s,s) = 0)")
    y = u.bracket(s)
    if k > 0.0:
        nu = 2.0 * math.sqrt(k)
        kappa = 1.0 / (2.0 * nu * math.tan(nu / 2.0))
    else:
        mu = 2.0 * math.sqrt(-k)
        kappa = -1.0 / (2.0 * mu * math.tanh(mu / 2.0))
    return 0.5 * y + kappa * s.bracket(y) + (trace_form(u, s) / trace_form(s, s)) * s


# ---------------------------------------------------------------------------
# two nearby cone points: trace of the combined holonomy
# ---------------------------------------------------------------------------

def injectivity_holonomy_pair(theta_h: float, theta_j: float, d: float):
    """The pair of elliptic matrices modelling two cone points at distance d.

    The first rotates about i; the second is its conjugate pushed distance d
    down the imaginary axis.  Angles are reduced angles in (0, 2*pi).
    """
    for th in (theta_h, theta_j):
        if not 0.0 < th < 2.0 * math.pi:
            raise OutOfRange("reduced angles must lie in (0, 2*pi)")
    if d < 0.0:
        raise OutOfRange("distance must be nonnegative")
    ch, sh = math.cos(theta_h / 2.0), math.sin(theta_h / 2.0)
    cj, sj = math.cos(theta_j / 2.0), math.sin(theta_j / 2.0)
    return (Sl2Matrix.from_entries(ch, sh, -sh, ch),
            Sl2Matrix.from_entries(cj, math.exp(d) * sj, -math.exp(-d) * sj, cj))


def elliptic_product_trace(theta_h: float, theta_j: float, d: float) -> float:
    """|tr| of the product of the two model elliptics.

    Closed form: 2 |cos(th/2) cos(tj/2) - cosh(d) sin(th/2) sin(tj/2)|.
    """
    a, b = injectivity_holonomy_pair(theta_h, theta_j, d)
    return abs(a.a * b.a + a.b * b.c + a.c * b.b + a.d * b.d)


def solve_order_q_distance(theta_h: float, theta_j: float, p: int, q: int) -> float:
    """Distance d >= 0 at which the combined holonomy has order q.

    Targets |tr| = 2 |cos(pi p / q)|.  The trace profile in d is
    2 |g(d)| with g(d) = cos(th/2)cos(tj/2) - cosh(d) sin(th/2)sin(tj/2),
    strictly decreasing; the smallest crossing of the target is returned.
    Raises NoSolution if the reduced angles do not sum past 2*pi or the
    target is below the attainable range.
    """
    if not (isinstance(p, int) and isinstance(q, int) and 0 < p < q
            and math.gcd(p, q) == 1):
        raise ValueError("need integers 0 < p < q with gcd(p, q) = 1")
    for th in (theta_h, theta_j):
        if not 0.0 < th < 2.0 * math.pi:
            raise OutOfRange("reduced angles must lie in (0, 2*pi)")
    if theta_h + theta_j <= 2.0 * math.pi:
        raise NoSolution("reduced angles must sum past 2*pi")
    ch, sh = math.cos(theta_h / 2.0), math.sin(theta_h / 2.0)
    cj, sj = math.cos(theta_j / 2.0), math.sin(theta_j / 2.0)
    g0 = ch * cj - sh * sj
    t2 = abs(math.cos(math.pi * p / q))
    denom = sh * sj
    if g0 > 0.0 and t2 <= g0:
        coshd = (ch * cj - t2) / denom  # first crossing, g(d) = +t2
    else:
        coshd = (ch * cj + t2) / denom  # crossing on the negative branch
        if coshd < 1.0 - 1e-12:
            raise NoSolution("target trace below the attainable range")
    d = math.acosh(max(1.0, coshd))
    residual = abs(elliptic_product_trace(theta_h, theta_j, d) - 2.0 * t2)
    if residual > 1e-10:
        raise NoSolution(f"root residual {residual} too large")
    return d
