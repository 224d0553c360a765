"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
that tests and the CLI can distinguish bad input (surface does not define a
hyperbolic cone metric), geometric degeneracies (coincident fixed points,
unflippable quadrilaterals) and numerical walls (cone angle too close to a
multiple of 2*pi for the bivector formula to be evaluated).

Each class carries the exit code of a CLI run it ends: 1 for invalid input,
2 for a computation blocked by a wall angle or a degenerate configuration,
3 (the default) for a numerical failure.
"""


class HypconeError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


# --- surface combinatorics / metric validation ------------------------------

class NonManifold(HypconeError):
    """An edge id does not appear exactly twice with opposite directions."""
    exit_code = 1


class Disconnected(HypconeError):
    """The triangles do not form a connected surface."""
    exit_code = 1


class TriangleInequality(HypconeError):
    """A triangle's side lengths violate a strict triangle inequality."""
    exit_code = 1


class NonPositiveLength(HypconeError):
    """An edge length is zero, negative, or not finite."""
    exit_code = 1


class NotAdmissible(HypconeError):
    """The cone angles are not realizable by a hyperbolic metric (chi >= 0)."""
    exit_code = 1


class OutOfRange(HypconeError):
    """A numeric argument lies outside the domain of the requested formula."""
    exit_code = 1


class DimensionMismatch(HypconeError):
    """A vector argument has the wrong number of entries."""
    exit_code = 1


# --- 2x2 matrix arithmetic ---------------------------------------------------

class NoBranch(HypconeError):
    """The requested matrix logarithm branch does not exist."""


class NotSemisimple(HypconeError):
    """Axis data requested for a parabolic or identity element."""
    exit_code = 2


class NotElliptic(HypconeError):
    """An operation requiring an elliptic element received something else."""
    exit_code = 2


class NotHyperbolic(HypconeError):
    """An operation requiring a hyperbolic element received something else."""
    exit_code = 2


class CoincidentFixedPoints(HypconeError):
    """Two elliptic elements share a fixed point, so no axis joins them."""
    exit_code = 2


class DegenerateDirection(HypconeError):
    """A perturbation formula was asked to divide by a null direction."""
    exit_code = 2


# --- holonomy / bivector evaluation ------------------------------------------

class NumericalCollapse(HypconeError):
    """A computation lost its precision: a loop holonomy or a translation
    along a far, narrow axis without a positive finite determinant, a corner
    angle below the normal float range, or a sinh of a side or a flip's
    diagonal past the float range."""


class WallAngle(HypconeError):
    """A cone angle sits too close to 2*pi*k for the requested operation."""
    exit_code = 2


# --- Delaunay flips -----------------------------------------------------------

class UnflippableConfiguration(HypconeError):
    """The quadrilateral around an edge cannot be flipped isometrically."""
    exit_code = 2


class NonTermination(HypconeError):
    """The flip loop exceeded its iteration budget."""
