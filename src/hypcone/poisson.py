"""The explicit Poisson bivector in edge-length coordinates.

For edges i, j the coefficient eta(da_i, da_j) is a sum over vertices and
over ordered pairs of distinct outgoing germs (one germ of each edge at that
vertex) of sin(theta/2 - d)/sin(theta/2), where theta is the cone angle and d
is the clockwise angle from the first germ to the second.  Swapping the germs
replaces d by theta - d and negates the coefficient, so the matrix built from
the raw ordered sum is antisymmetric bit for bit.  Every germ pair sits in
one flat table (`FanPairs`), oriented and summed into P's nonzero cells,
which the dense matrix, the report's P rows and the Jacobi terms read.

Certified structure: the cone-angle gradients span the radical (P grad theta
= 0), the rank is the dimension 6g - 6 + 2n of the leaves, and the Jacobi
identity holds.  The rank needs no cut on singular values: a Cholesky
factorization of K = P^T P + G^T G (G the cone-angle gradients), scaled to
unit diagonal and shifted by a bound on every rounding error, that succeeds
proves rank P >= E - n for the float matrix, and the radical residuals bound
the rest (`bivector_rank`).  On large surfaces K is formed from the nonzeros
of P in P's own memory and factored blockwise in place, in its lower triangle
and then, for the margin, in its untouched upper one, so the certificate
holds one E x E array.  The Jacobi check differentiates P analytically: theta
and the angle between two germs are sums of corner angles, so the chain rule
through the closed-form corner-angle gradient gives the derivative of each
germ pair in factored form (`EtaDerivative`).  Contracting a row r of P with
the derivative of the pair (a, b) of a fan takes three numbers, the row
contracted with the gradients of prefix[a], prefix[b] and theta, and gives
the one term the pair and the row add to the Jacobi sum at the triple of
edges (r, edge a, edge b).  The third number is (P G^T)[r, v], v the fan's
vertex, so the radical residuals are read off the same table
(`JacobiTerms`): no product P G^T is formed, and the rank certificate makes
the only BLAS calls.  J is totally antisymmetric, so the terms are summed
per sorted triple.  They come in runs (a row with a suffix of its fan's
pairs, or a pair with a suffix of the rows reaching its fan), listed in the
order of the triple's smallest edge (its slice).

Only the near terms are listed: those whose row touches the fan, whose pair
shares its two edges with another pair, or whose pair has an edge ending at
an end of the row.  Any other term is alone on its triple, so it is that
triple's whole sum: 0 for the genuine eta in exact arithmetic.  The near
terms are summed per triple, in blocks of whole runs whose size changes no
digit; a lone term is evaluated only where a rounding-monotone bound, one
per row and fan, does not fall strictly below the largest near sum, so the
result is the one of every term (`JacobiTerms.max_abs`).  max |D| is found
the same way (`EtaDerivative.max_abs`).  No surface is rebuilt and no E^3
array is formed.

The coefficients blow up like 1/sin(theta/2) as a cone angle approaches a
multiple of 2*pi.  Evaluation is refused where the `surface.wall_margin`
|sin(theta/2)| of some vertex falls below WALL_GUARD (`--tol wall`).  That
guard lies inside the wall band `surface.WALL_BAND` of the other reports:
between the two, eta is still certified at rounding level (down to a margin
of 2.8e-5 in the tests).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, WallAngle
from .surface import ConeSurface, _running_sums, wall_margin, worst_at

# Refuse the bivector when some wall_margin falls below this (inside WALL_BAND).
WALL_GUARD = 1e-6
# Most terms (or derivative entries) one block of the Jacobi check evaluates
# at once: each block is whole runs whose near terms add up to at most this
# many, and a longer run is a block of its own.  It bounds the transient
# memory of the check and changes no digit: each triple's terms are summed
# once, as one sequence, whatever block they came in.
BLOCK_ENTRIES = 1 << 13
# Most rows per block of the rank certificate's Cholesky factorization: up
# to this order it is one LAPACK call, above it blocks of equal size.
RANK_BLOCK = 1024
# Up to this many rows `_substitute` solves one row at a time.
SUBSTITUTION_LEAF = 32
# K = P^T P + G^T G is the dense product of [P; G] while that and K take
# at most this many bytes (up to about 950 edges), and is accumulated from
# the nonzeros in the memory of P above.  The product is the faster up to
# about 3,600 edges, but its two arrays, (2E + n) E doubles, would raise the
# peak by 31 MB at 1,200 edges and 425 MB at 4,800; the nonzeros add 5-12 MB.
DENSE_GRAM_BYTES = 16 << 20
# The margin's second shift adds this times 1 / sum l_i^-2 (l_i the pivots of
# the first factorization), which lies within 0.14 to 2.8 times the least
# eigenvalue on the 16 seeded stellar surfaces (30 to 600 edges) of the tests.
MARGIN_STEP = 0.25
# A Gram matrix with a diagonal entry below this is not certified: its
# products could underflow.
MIN_GRAM_DIAG = 2.0 ** -500
UNIT_ROUNDOFF = 2.0 ** -53


def _expand(start: np.ndarray, count: np.ndarray) -> tuple:
    """(owner, index): the ranges start[t] .. start[t] + count[t] - 1, concatenated."""
    owner = np.repeat(np.arange(len(count)), count)
    shift = start - (np.cumsum(count) - count)
    return owner, np.arange(len(owner)) + shift[owner]


def _blocks(count: np.ndarray, cap: int) -> list:
    """Consecutive ranges [i0, i1) of items whose counts add up to at most cap.

    An item whose count alone exceeds cap gets a range of its own.
    """
    ends = np.cumsum(count)
    out, i0 = [], 0
    while i0 < len(count):
        base = ends[i0 - 1] if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(ends, base + cap, side="right")))
        out.append((i0, i1))
        i0 = i1
    return out


def _runs(key: np.ndarray) -> tuple:
    """(sorted keys, order, start): the keys (>= 0) in increasing order, the
    stable permutation that sorts them, and where each run of equal sorted
    keys starts.  The array `key` is overwritten.

    One sort and a change mask: what np.unique does, without the numpy.ma
    import it brings.
    """
    bits = (key.size - 1).bit_length()
    if key.size and int(key.max()) < 1 << (62 - bits):
        # sort the keys with their positions packed into the low bits, which
        # is several times faster than an argsort
        key <<= bits
        key |= np.arange(key.size)
        key.sort()
        order = key & ((1 << bits) - 1)
        key >>= bits
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
    return key, order, np.flatnonzero(np.diff(key, prepend=-1))


def _unique(key: np.ndarray, inverse: bool = False):
    """np.unique(key), and with `inverse` np.unique(key, return_inverse=True),
    for keys >= 0; the array `key` is overwritten."""
    key, order, start = _runs(key)
    if not inverse:
        return key[start]
    where = np.empty_like(order)
    where[order] = np.repeat(np.arange(len(start)), np.diff(start, append=len(key)))
    return key[start], where


def _sum_by_key(key: np.ndarray, value: np.ndarray) -> tuple:
    """(distinct keys in increasing order, the sum of the values of each).

    A key's values keep the order given (the sort is stable) and are added
    as `np.add.reduceat` adds a segment: the first value plus numpy's
    pairwise sum of the others, so three values come out as v0 + (v1 + v2),
    which is not always (v0 + v1) + v2.  A sum depends only on the sequence
    of its key's values, not on where they sit in the array.  Keys are >= 0;
    the array `key` is overwritten.
    """
    key, order, start = _runs(key)
    return key[start], np.add.reduceat(value[order], start)


def _triple_keys(n: int, r: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(key, odd) of the edge triples (r, lo, hi) with lo < hi and r
    distinct from both: the key (i n + j) n + k of the sorted triple
    i < j < k, and whether sorting it is an odd permutation."""
    low, high = np.minimum(r, lo), np.maximum(r, hi)
    mid = r + lo
    mid += hi
    mid -= low
    mid -= high
    odd = mid == r
    low *= n
    low += mid
    low *= n
    low += high
    return low, odd


def _max_abs_by_key(key: np.ndarray, value: np.ndarray) -> tuple:
    """(max |sum of the values of a key|, the smallest key at it) over the
    distinct keys (>= 0), each key's values summed by `_sum_by_key` (a sum
    of the sequence of its values, not a left-to-right one), or (-1.0, 0)
    when there are none.  The maximum is taken by `worst_at`, so it is NaN
    at the smallest key whose sum is NaN if there is one.  The array `key`
    is overwritten."""
    key, sums = _sum_by_key(key, value)
    if not key.size:
        return -1.0, 0
    np.abs(sums, out=sums)
    i = worst_at(sums)  # the keys increase
    return float(sums[i]), int(key[i])


def _worse(a: tuple, b: tuple) -> tuple:
    """The worse of two (value, key) results by `worst_at` on their values:
    the NaN or the larger value, the one of the smaller key on ties and
    between two NaNs."""
    pair = (a, b) if a[1] <= b[1] else (b, a)
    return pair[worst_at([pair[0][0], pair[1][0]])]


class FanPairs:
    """The germ pairs of every fan, oriented once and summed into P's cells.

    Corners are stored fan by fan: corner a of vertex v is row first[v] + a
    of `sides` (the edges of its triangle, side 0 that of germ a) and
    `partials` (the partials of its angle in their lengths).  Pair t joins
    corners `pair_a[t]` < `pair_b[t]` of the fan of vertex `pair_v[t]`, with
    germs on edges `lo[t]` < `hi[t]` (a loop's pairs cancel and are left
    out), listed by (v, lo) and in fan order within.  With d = prefix[b] -
    prefix[a] it adds eta_t = sin(d - theta/2) / sin(theta/2) to
    eta(da_lo, da_hi), and its derivative is

        C (dprefix[b] - dprefix[a]) - S dtheta,
        C = cos(d - theta/2) / sin(theta/2),  S = sin(d) / (2 sin^2(theta/2)),

    dprefix and dtheta being sums of corner-angle gradients; C is in `c` and
    S in `sn`, and eta_t, C and S are negated where germ a lies on hi.
    `cell[t]` numbers the distinct (lo, hi).  Those whose pairs' eta_t,
    added in order, do not sum to exactly 0.0 are the m nonzero cells of P
    above the diagonal, the negated sums their mirrors.  `cells` = (rows,
    cols, values) lists all of them in row-major order; entry i is sum
    origin[i], or the mirror of sum origin[i] - m (a p checked in place of
    eta lists its own cells there).  Edge e joins the vertices
    `edge_ends[e]`.  `margins` holds the `surface.wall_margin`
    |sin(theta/2)| of each vertex: the table is refused as WallAngle when
    one is below `wall_guard`, the one place the guard is set (`eta_matrix`
    and `jacobi_residual` take WALL_GUARD unless given pairs).
    """

    def __init__(self, s: ConeSurface, wall_guard: float = WALL_GUARD):
        self.margins = margins = wall_margin(s.cone_angle)
        bad = np.flatnonzero(margins < wall_guard)
        if bad.size:
            v = int(bad[0])
            raise WallAngle(
                f"vertex {v} has cone angle {s.cone_angle[v]} with "
                f"|sin(theta/2)| = {float(margins[v])} below the {wall_guard} guard")
        self.n_edges = n = s.n_edges
        self.edge_ends = s.vertex_of[s.halves]
        self.size = s.fan_size
        self.first = np.cumsum(self.size) - self.size
        self.vertex = np.repeat(np.arange(s.n_vertices), self.size)
        edges, grads = s.corner_gradients()
        self.sides, self.partials = edges[s.fan_order], grads[s.fan_order]
        corner = np.arange(s.n_half)
        last = self.first[self.vertex] + self.size[self.vertex] - 1
        a, b = _expand(corner + 1, last - corner)
        edge_a, edge_b = self.sides[a, 0], self.sides[b, 0]
        lo = np.minimum(edge_a, edge_b)
        keep = np.flatnonzero(edge_a != edge_b)
        keep = keep[np.argsort(self.vertex[a[keep]] * n + lo[keep], kind="stable")]
        a, b, edge_a, edge_b = a[keep], b[keep], edge_a[keep], edge_b[keep]
        v = self.vertex[a]
        self.pair_a, self.pair_b, self.pair_v = a, b, v
        self.lo, self.hi = lo[keep], np.maximum(edge_a, edge_b)
        sign = np.where(edge_a < edge_b, 1.0, -1.0)
        prefix = s.fan_sums[corner + self.vertex]
        d = prefix[b] - prefix[a]
        half = s.cone_angle / 2.0
        half, denom = half[v], np.sin(half)[v]
        eta = sign * (np.sin(half - (s.cone_angle[v] - d)) / denom)
        self.c = sign * (np.cos(d - half) / denom)
        self.sn = sign * (np.sin(d) / (2.0 * denom * denom))
        # each cell above the diagonal sums its pairs in their order
        key, self.cell = _unique(self.lo * n + self.hi, inverse=True)
        value = np.bincount(self.cell, weights=eta, minlength=len(key))
        nonzero = value != 0.0
        upper, value = key[nonzero], value[nonzero]
        # those cells, then their mirrors, in row-major order
        key, self.origin, _ = _runs(np.concatenate([upper, upper % n * n + upper // n]))
        self.cells = (*np.divmod(key, n), np.concatenate([value, -value])[self.origin])

    def matrix(self) -> np.ndarray:
        """The dense bivector matrix, exactly antisymmetric."""
        rows, cols, values = self.cells
        p = np.zeros((self.n_edges, self.n_edges))
        p[rows, cols] = values
        return p


def eta_matrix(s: ConeSurface, pairs: FanPairs | None = None) -> np.ndarray:
    """The N x N bivector matrix P[i][j] = eta(da_i, da_j).

    `pairs` is the FanPairs of s when the caller has it already; its wall
    guard is the one applied, and WALL_GUARD without it.
    """
    return (FanPairs(s) if pairs is None else pairs).matrix()


def angle_gradients(s: ConeSurface) -> np.ndarray:
    """Analytic gradients d(theta_h)/d(a_k), one row per vertex."""
    edges, grads = s.corner_gradients()
    g = np.zeros((s.n_vertices, s.n_edges))
    np.add.at(g, (np.repeat(s.vertex_of, 3), edges.ravel()), grads.ravel())
    return g


def radical_residuals(terms: JacobiTerms, grads: np.ndarray) -> np.ndarray:
    """Scaled residuals ||P g||_inf / (max|P| ||g||_inf + 1) per vertex, read
    off the Jacobi table of P: (P g_v)_r is x at theta of incidence (v, r),
    and 0 for a row r that misses fan v, where alone g_v is nonzero."""
    der, n_v = terms.der, len(terms.der.size)
    if grads.shape != (n_v, der.n_edges):
        raise DimensionMismatch("gradient rows must match the matrix dimension")
    v = np.repeat(np.arange(n_v), np.diff(terms.fan_first))
    top = np.zeros(n_v)
    np.maximum.at(top, v, np.abs(terms.x[terms.xoff + der.size[v]]))
    return top / (terms.p_max * np.maximum(grads.max(axis=1), -grads.min(axis=1)) + 1.0)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of doubles."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def rounding_cover(size: int, forming: float, trace: float, top: float, shift: float) -> float:
    """A bound on the rounding a shifted factorization must absorb; see
    `bivector_rank`.  `size` is the order of the Gram matrix, `forming` the
    `forming_cover` of the matrix it is the Gram matrix of, `trace` and
    `top` the sum and maximum of its scaled diagonal, and `shift` the shift
    it is factored at."""
    g = _gamma(size + 2)
    cover = g / (1.0 - g) * trace + forming + UNIT_ROUNDOFF * (top + shift)
    return cover * (1.0 + 2.0 ** -10)


def forming_cover(parts: list, n: int) -> float:
    """gamma_{c+2} max_i s_i (|X|^T |X| s)_i with s_i = 1/sqrt((X^T X)_ii):
    a bound on the 2-norm of the error of forming the Gram matrix of X and
    scaling it to unit diagonal; see `bivector_rank`.  X has n columns, and
    its blocks of rows are `parts`, each the (rows, cols, values) of its
    nonzeros; c is the most nonzeros in a column.  Sums and products over
    the nonzeros alone, O(nnz), none of them by BLAS, so no digit depends on
    the BLAS kernel.  Infinite where a column is zero or past the float
    range, which no certificate takes."""
    diag, total = np.zeros(n), np.zeros(n)
    count = np.zeros(n, dtype=np.intp)
    for _, cols, vals in parts:
        diag += np.bincount(cols, weights=vals * vals, minlength=n)
        count += np.bincount(cols, minlength=n)
    if not (np.all(np.isfinite(diag)) and diag.min() > 0.0):
        return math.inf
    scale = 1.0 / np.sqrt(diag)
    for rows, cols, vals in parts:
        magnitude = np.abs(vals)
        reach = np.bincount(rows, weights=magnitude * scale[cols])  # (|X| s)_r
        total += np.bincount(cols, weights=magnitude * reach[rows], minlength=n)
    return _gamma(int(count.max()) + 2) * float((scale * total).max())


def _add_gram(out: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """out += X^T X for the matrix X whose nonzeros are vals at (rows, cols),
    listed by row: the products of the nonzeros of each row, accumulated in
    order, BLOCK_ENTRIES * 8 products at a time."""
    count = np.bincount(rows)
    ends = np.cumsum(count)
    flat, n = out.reshape(-1), out.shape[0]
    for r0, r1 in _blocks(count * count, BLOCK_ENTRIES * 8):
        t0 = ends[r0 - 1] if r0 else 0
        t = np.arange(t0, ends[r1 - 1])
        owner, other = _expand(ends[rows[t]] - count[rows[t]], count[rows[t]])
        owner += t0
        np.add.at(flat, cols[owner] * n + cols[other], vals[owner] * vals[other])


def _nonzeros(x: np.ndarray) -> tuple:
    """(rows, cols, values) of the nonzero entries of x, listed by row."""
    at = np.flatnonzero(x)  # faster than np.nonzero on two axes
    rows, cols = np.divmod(at, x.shape[1])
    return rows, cols, x.ravel()[at]


def _substitute(low: np.ndarray, b: np.ndarray):
    """Overwrite b with X solving low X = b, low read only on and below its
    diagonal: row j of X is (b_j - sum_{k<j} low[j, k] x_k) / low[j, j], its
    sum taken in halves by matmul and, below SUBSTITUTION_LEAF rows, by one
    vector-matrix product."""
    w = low.shape[0]
    if w > SUBSTITUTION_LEAF:
        h = w // 2
        _substitute(low[:h, :h], b[:h])
        b[h:] -= low[h:, :h] @ b[:h]
        _substitute(low[h:, h:], b[h:])
        return
    for j in range(w):
        if j:
            b[j] -= low[j, :j] @ b[:j]
        b[j] /= low[j, j]


def _block_size(n: int) -> int:
    """The rows of each block when n rows are cut into the fewest blocks of
    at most RANK_BLOCK rows, all of one size but the last."""
    blocks = -(-n // RANK_BLOCK)
    return -(-n // blocks)


def _factor(a: np.ndarray, diag: np.ndarray, shift: float) -> np.ndarray | None:
    """Factor B = a - shift I with diagonal fl(diag - shift) by a blocked
    right-looking Cholesky that reads a only on and below its diagonal; the
    strict upper triangle is neither read nor written, so a.T factors the
    matrix that triangle holds.

    Blocks of equal size, at most RANK_BLOCK rows (`_block_size`): the
    diagonal block by np.linalg.cholesky, whose two copies of the block are
    the largest transients, the panel below it by `_substitute` with that
    factor, the trailing blocks by matmul in place.  Returns the pivots (the
    diagonal of the factor), or None when one is not positive (or not a
    number).  The diagonal blocks keep their trailing updates, not their
    factors, so a single block leaves a below its diagonal as it was.
    """
    n = len(a)
    size = _block_size(n)
    pivots = np.empty(n)
    a.flat[::n + 1] = diag - shift
    for j0 in range(0, n, size):
        j1 = min(j0 + size, n)
        try:
            low = np.linalg.cholesky(a[j0:j1, j0:j1])
        except np.linalg.LinAlgError:
            return None
        pivots[j0:j1] = low.diagonal()
        if not np.all(pivots[j0:j1] > 0.0):
            return None
        if j1 == n:
            break
        panel = a[j1:, j0:j1]
        for r0 in range(0, n - j1, size):  # panel L^T = A21, by rows
            rows = panel[r0:r0 + size]
            solved = rows.T.copy()
            _substitute(low, solved)
            rows[...] = solved.T
        del low, solved  # freed before the trailing update forms its products
        for c0 in range(j1, n, size):
            c1 = min(c0 + size, n)
            rows = panel[c0 - j1:c1 - j1]
            np.subtract(a[c0:c1, c0:c1], rows @ rows.T, out=a[c0:c1, c0:c1],
                        where=np.tri(c1 - c0, dtype=bool))
            a[c1:, c0:c1] -= panel[c1 - j1:] @ rows.T
    return pivots


def _first_factor(a: np.ndarray, forming: float):
    """Scale the Gram matrix in `a` in place to unit diagonal and factor it
    once, at the shift `rounding_cover` asks for; a success proves it
    positive definite.

    `a` holds the computed Gram matrix K~ of an exact K = X^T X in both
    triangles, and `forming` the `forming_cover` of X; D =
    diag(1/sqrt(K~_ii)) scales it, and the factorization reads and
    overwrites its lower triangle only (`_factor`).
    Returns None when a diagonal entry is not finite or below MIN_GRAM_DIAG
    or the factorization fails, else (pivots, diag, shift, margin):
    the pivots of the factor, the scaled diagonal, the shift, and
    margin(sigma), the certified lower bound on the least eigenvalue of
    D K D that a success at the shift sigma gives.  See `bivector_rank`.
    """
    n = len(a)
    d = a.diagonal().copy()
    if not (np.all(np.isfinite(d)) and d.min() >= MIN_GRAM_DIAG):
        return None
    s = 1.0 / np.sqrt(d)
    a *= s[:, None]
    a *= s
    diag = a.diagonal().copy()
    trace, top = float(diag.sum()), float(diag.max())

    def margin(shift):  # rounded down, so it stays a lower bound
        return math.nextafter(shift - rounding_cover(n, forming, trace, top, shift), 0.0)

    shift = rounding_cover(n, forming, trace, top, 0.0) * (1.0 + 2.0 ** -10)
    pivots = _factor(a, diag, shift)
    return None if pivots is None else (pivots, diag, shift, margin)


def certify_gram(a: np.ndarray, forming: float) -> float | None:
    """A certified lower bound > 0 on the least eigenvalue of D K D, or None.

    `a` holds the computed Gram matrix of an X, and `forming` the
    `forming_cover` of X.  The first factorization (`_first_factor`) proves
    D K D, and so K, positive definite; it reads the lower triangle of the
    scaled K~.  Its pivots l_i give a second shift, the first plus
    MARGIN_STEP / sum l_i^-2, and a second factorization that succeeds
    there raises the bound.  That one factors a.T, so it reads the upper
    triangle, which the first left untouched.  K~ is exactly symmetric
    (both ways of forming it give mirror cells the same sum), so each
    triangle is the scaled K~ up to the rounding of the scaling, which the
    bound covers for either.  `a` is destroyed.  See `bivector_rank`.
    """
    first = _first_factor(a, forming)
    if first is None:
        return None
    pivots, diag, shift, margin = first
    best = margin(shift)
    smallest = float(pivots.min())
    ratio = smallest / pivots  # 1 / sum l_i^-2 = smallest^2 / sum ratio_i^2, with no overflow
    # summed exactly, not by a BLAS dot, whose last digit depends on the kernel
    shift += MARGIN_STEP * smallest * smallest / math.fsum((ratio * ratio).tolist())
    if margin(shift) > best and _factor(a.T, diag, shift) is not None:
        best = margin(shift)
    return best


def bivector_rank(p: np.ndarray, grads: np.ndarray) -> tuple:
    """(rank, margin): the rank E - n of the E x E bivector p, certified
    with the n x E cone-angle gradients `grads`, and a certified lower bound
    on the least eigenvalue of K = P^T P + G^T G scaled to unit diagonal;
    (None, 0.0) when the certificate fails.

    If K is positive definite then ker P and ker G meet only in 0, so
    dim ker P <= rank G <= n and rank P >= E - n holds exactly for the float
    matrix p; if G G^T is positive definite too, G has rank n.  The radical
    residuals P G^T (gated in the report) then bound how far p is from rank
    E - n, which is 6g - 6 + 2n on every closed surface.  Both Gram matrices
    are certified by Cholesky factorizations that succeed in floating point
    (Rump, Verification of positive definiteness, BIT 46, 2006):

    * Forming K~ = fl(X^T X), X = [P; G], sums at entry (i, j) the products
      of the rows where columns i and j are both nonzero, at most c of them
      (c the most nonzeros in a column of X): an exact zero adds no
      rounding, in any order of summation.  So |K~ - K|_ij <= gamma_c A_ij,
      A = |X|^T |X|.  Scaling by s_i = fl(1/sqrt(K~_ii)), two roundings per
      entry, gives M~ with |M~ - S K S|_ij <= gamma_{c+2} s_i s_j A_ij, as
      |K_ij| <= A_ij.  That bound is a symmetric matrix with nonnegative
      entries, so its largest row sum bounds ||M~ - S K S||_2.
      `forming_cover` takes it as gamma_{c+2} max_i s'_i (|X|^T (|X| s'))_i,
      two products of |X| with a vector over the nonzeros of X, with
      s'_i = 1/sqrt(sum_r X_ri^2) summed over the nonzeros: s_i / s'_i lies
      within gamma_{2c+4} of 1, and no digit of the bound depends on the
      BLAS kernel that formed K~.  Row i of A has a nonzero only where row
      i of K has one, and s_i s_j A_ij <= 1 + gamma_{c+4} by Cauchy-Schwarz,
      so the term is at most (the most nonzeros in a row of K) gamma_{c+2}
      (1 + gamma_{c+4}), where a dense count would take E for both.
    * B = fl(M~ - sigma I) differs from M~ - sigma I by at most
      u (max_i M~_ii + sigma) on the diagonal.
    * A Cholesky of B that runs to completion gives R^T R = B + dB with
      |dB| <= gamma_{E+2} |R^T| |R| (Higham, Thm 10.3, with one more
      rounding for kernels that multiply by a rounded reciprocal pivot), so
      lambda_min(B) > -gamma_{E+2} / (1 - gamma_{E+2}) tr(M~).  This holds
      for any order of the inner products, so for the blocked factorization
      of `_factor` with substitution and matmul; it would not for LU-based
      solves.
    * Hence lambda_min(S K S) > sigma - cover, cover the sum of the three
      (`rounding_cover`, with 2^-10 of it for the rounding of the bound, of
      the trace and of s' against s, and for underflow, which the guard
      MIN_GRAM_DIAG on K~_ii keeps below 1e-300).  With sigma = cover
      (1 + 2^-10) a success proves S K S, so K, positive definite.

    The trace term, about E^2 u (tr M~ = E), is most of the shift: 2.6e-9
    at E = 4,800 and 1.0e-8 at 9,600, where the forming term is about 1e-11
    (c is a few hundred at the hub vertices).  K~ is factored once at that
    shift, in its lower triangle, and once more at a larger one for the
    margin, in its upper triangle (`certify_gram`).  G G^T, of order n, is
    factored once (`_first_factor`): its margin is not reported.
    While the two arrays [P; G] and K~ take at most DENSE_GRAM_BYTES, K~ is
    their product.  Above, it is accumulated from the nonzeros of P and G
    (a few dozen a row) in the memory of p, which is then destroyed.
    """
    n_e, n_v = p.shape[0], grads.shape[0]
    if grads.ndim != 2 or grads.shape[1] != n_e:
        raise DimensionMismatch("gradient rows must match the matrix dimension")
    parts = [_nonzeros(p), _nonzeros(grads)]
    rows, cols, vals = parts[1]
    # a Gram entry past the float range is no warning: its diagonal is not
    # finite either, which `_first_factor` refuses, and its forming_cover is
    # infinite.  Nor is a NaN entry, which some BLAS kernels form from such
    # products (inf - inf): by Cauchy-Schwarz it too lies beside a diagonal
    # entry past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        gram = grads @ grads.T
        forming = forming_cover([(cols, rows, vals)], n_v)  # G G^T = X^T X, X = G^T
    if _first_factor(gram, forming) is None:
        return None, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        forming = forming_cover(parts, n_e)
        if 8 * (2 * n_e + n_v) * n_e <= DENSE_GRAM_BYTES:
            x = np.vstack((p, grads))
            k = x.T @ x
            del x
        else:
            k = p
            k.fill(0.0)
            for part in parts:
                _add_gram(k, *part)
    del parts
    margin = certify_gram(k, forming)
    return (None, 0.0) if margin is None else (n_e - n_v, margin)


class EtaDerivative:
    """d(eta) by the chain rule, pair by pair, from a fan-pair table.

    The pairs are those of `FanPairs`, as oriented and listed there.  Pair
    t, at the fan of vertex `v[t]` with germs at positions `pos_a[t]` <
    `pos_b[t]` of a fan of `fan_size[t]` germs, adds

        dc[t] (dprefix[pos_b] - dprefix[pos_a]) - ds[t] dtheta

    to d eta(da_lo, da_hi) for its edges `lo[t]` < `hi[t]`: dc and ds are
    its signed C and S.  Edge e joins the vertices `edge_ends[e]` (in either
    order); `far_lo[t]`, `far_hi[t]` are the ends of lo and hi other than v.
    `edge_pair[t]` numbers the distinct (lo, hi) (`FanPairs.cell`), and
    `shared[t]` says whether another pair has the same edges.
    The sides of the triangles around fan v are rows side_start[v] ..
    side_start[v] + n_sides[v] - 1 of (`side_v`, `side_l`), sorted by (v, l);
    for side f of fan v, q[qoff[f] + k] is the partial of prefix[k] in the
    length of side_l[f], and k = size[v] gives the partial of theta.
    """

    def __init__(self, pairs: FanPairs):
        n = self.n_edges = pairs.n_edges
        self.size, self.first = pairs.size, pairs.first
        self.sides, self.partials = pairs.sides, pairs.partials
        self.v, self.lo, self.hi = pairs.pair_v, pairs.lo, pairs.hi
        self.dc, self.ds, self.edge_pair = pairs.c, pairs.sn, pairs.cell
        self.pos_a, self.pos_b = np.stack([pairs.pair_a, pairs.pair_b]) - self.first[self.v]
        self.fan_size = self.size[self.v]
        # the other ends of the pair's edges, and the pairs of the same two edges
        self.edge_ends = pairs.edge_ends
        self.far_lo = self.edge_ends[self.lo].sum(axis=1) - self.v
        self.far_hi = self.edge_ends[self.hi].sum(axis=1) - self.v
        self.shared = np.bincount(self.edge_pair)[self.edge_pair] > 1
        # the sides around every fan, and the prefix gradients in their lengths
        key, where = _unique((pairs.vertex[:, None] * n + self.sides).ravel(), inverse=True)
        self.side_v, self.side_l = key // n, key % n
        self.n_sides = np.bincount(self.side_v, minlength=len(self.size))
        self.side_start = np.cumsum(self.n_sides) - self.n_sides
        m = self.size[self.side_v]
        goff = np.cumsum(m) - m
        pos = np.arange(len(pairs.vertex)) - self.first[pairs.vertex]
        cell = goff[where.reshape(-1, 3)] + pos[:, None]
        grad = np.bincount(cell.ravel(), weights=self.partials.ravel(),
                           minlength=int(np.sum(m)))
        self.q = _running_sums(grad, m)
        self.qoff = goff + np.arange(len(m))
        # the unshared pairs of fan v are unshared[fan_unshared[v]:fan_unshared[v + 1]],
        # and the largest |dc| and |ds| among them are c_top[v] and s_top[v]
        self.unshared = np.flatnonzero(~self.shared)
        fan = self.v[self.unshared]
        self.fan_unshared = np.searchsorted(fan, np.arange(len(self.size) + 1))
        self.c_top, self.s_top = np.zeros(len(self.size)), np.zeros(len(self.size))
        if fan.size:
            start = np.flatnonzero(np.diff(fan, prepend=-1))
            for top, coef in ((self.c_top, self.dc), (self.s_top, self.ds)):
                top[fan[start]] = np.maximum.reduceat(np.abs(coef[self.unshared]), start)

    def pair_sides(self, pairs: np.ndarray) -> tuple:
        """(pair, side): each of `pairs` with each side of its fan."""
        v = self.v[pairs]
        owner, side = _expand(self.side_start[v], self.n_sides[v])
        return pairs[owner], side

    def derivative(self, pair: np.ndarray, side: np.ndarray) -> np.ndarray:
        """d eta_pair(da_lo, da_hi) / da_l with l = side_l[side]."""
        o = self.qoff[side]
        return (self.dc[pair] * (self.q[o + self.pos_b[pair]] - self.q[o + self.pos_a[pair]])
                - self.ds[pair] * self.q[o + self.fan_size[pair]])

    def side_bounds(self) -> np.ndarray:
        """For each side f, a bound on |d eta_u / da_l| over the unshared
        pairs u of its fan v, l = side_l[f]: fl(fl(c_top[v] spread_f) +
        fl(s_top[v] |q_f[m]|)), spread_f = fl(max - min) of q_f over its germ
        positions, as `max_abs` explains."""
        m = self.size[self.side_v]
        ends = np.stack([self.qoff, self.qoff + m], axis=1).ravel()  # the germ positions
        spread = np.maximum.reduceat(self.q, ends)[::2] - np.minimum.reduceat(self.q, ends)[::2]
        return (self.c_top[self.side_v] * spread
                + self.s_top[self.side_v] * np.abs(self.q[self.qoff + m]))

    def max_abs(self) -> float:
        """max |d eta(da_j, da_k) / da_l|, the pairs of the same edges summed.

        The pairs that share their two edges are summed per (edges, side) and
        evaluated in full.  The unshared entries of side f of fan v are
        bounded all at once: every one is fl(fl(dc fl(q_b - q_a)) - fl(ds
        q_m)) with q_a, q_b among the germ positions of q_f, so rounding,
        being monotone, keeps it within fl(fl(c_top[v] spread_f) + fl(s_top[v]
        |q_f[m]|)), spread_f = fl(max - min) of q_f over those positions.
        The sides are taken in decreasing bound, and their entries evaluated
        while the bound is not below the maximum so far (a NaN bound counts
        as infinite), so the maximum is the one of every entry.  Maxima are
        merged by `_worse`, so a NaN entry makes the result NaN.
        """
        if not self.v.size:
            return 0.0
        best = (0.0, 0)
        shared = np.flatnonzero(self.shared)
        _, order, start = _runs(self.edge_pair[shared])
        order = shared[order]
        bounds = np.append(start, len(order))
        for g0, g1 in _blocks(np.add.reduceat(self.n_sides[self.v[order]], start),
                              BLOCK_ENTRIES):
            pair, side = self.pair_sides(order[bounds[g0]:bounds[g1]])
            best = _worse(best, _max_abs_by_key(self.edge_pair[pair] * self.n_edges
                                                + self.side_l[side],
                                                self.derivative(pair, side)))
        bound = self.side_bounds()
        bound[np.isnan(bound)] = np.inf
        sides = np.flatnonzero(np.diff(self.fan_unshared)[self.side_v])
        sides = sides[np.argsort(-bound[sides], kind="stable")]
        count = np.diff(self.fan_unshared)[self.side_v[sides]]
        ends = np.cumsum(count)
        i0 = 0
        while i0 < len(sides) and not bound[sides[i0]] < best[0]:
            # the sides from i0 on whose bound is not below best (every one
            # once best is NaN), in a block
            live = i0 + int(np.count_nonzero(~(bound[sides[i0:]] < best[0])))
            i1 = min(live, max(i0 + 1, int(np.searchsorted(
                ends, (ends[i0 - 1] if i0 else 0) + BLOCK_ENTRIES, side="right"))))
            owner, k = _expand(self.fan_unshared[self.side_v[sides[i0:i1]]], count[i0:i1])
            value = np.abs(self.derivative(self.unshared[k], sides[i0:i1][owner]))
            best = _worse(best, (float(value[worst_at(value)]), 0))
            i0 = i1
        return best[0]


class JacobiTerms:
    """The terms of the Jacobi sum: rows of P contracted with pair derivatives.

    Row r reaches fan v when P[r, l] != 0 (a cell of `FanPairs.cells`) for
    a side l of v; the incidences t = (v[t], r[t]) are sorted by (v, r), and
    x holds size[v] + 1 entries per incidence in that order: x[xoff[t] + k]
    is row r contracted with the gradient of prefix[k] of fan v (k = size[v]:
    theta, so that is (P G^T)[r, v], which `radical_residuals` reads), and
    row r contracted with the derivative of pair u is (`_values`)

        dc[u] (x[pos_b[u]] - x[pos_a[u]]) - ds[u] x[fan_size[u]].

    That value is the one term the row and the pair add to the Jacobi sum
    J[r, lo, hi], signed into the sorted triple.  The terms come in runs,
    listed by their slice, the smallest edge of the triple: a row with the
    suffix of its fan's pairs whose lo exceeds it, then a pair with the
    suffix of its fan's rows above its lo.  Run g is that of the row or
    pair run_own[g], and run_slice[g] is its slice.

    A term is near when its row touches v (`at_fan`), its pair shares its
    two edges with another pair, or its pair has a spike germ of the row:
    a germ whose edge ends at an end of r.  Only near terms can share their
    triple; a lone one is the whole sum of its triple.  The near terms are
    listed from pieces of `table` (`_near_pieces`), the lone ones never:
    bound[t] bounds those of incidence t (`lone_bounds`), from the spread of
    x over the germs of fan v that are no spike of row r.  Away from the
    spike germs x does not move, as a corner of fan v that touches no end of
    r adds exact zeros, so for the genuine eta the spread is rounding.
    It keeps `der`, the EtaDerivative of its FanPairs, and p_max = max|P|;
    x reads `p`, the dense P of the cells.
    """

    def __init__(self, pairs: FanPairs, p: np.ndarray):
        self.der = der = EtaDerivative(pairs)
        # row l of P lists the rows r with P[r, l] != 0, as P is antisymmetric
        nz_row, nz_col, values = pairs.cells
        self.p_max = float(np.max(np.abs(values), initial=0.0))
        n, nv = der.n_edges, len(der.size)
        start = np.searchsorted(nz_row, np.arange(n + 1))
        owner, k = _expand(start[der.side_l], np.diff(start)[der.side_l])
        key = _unique(der.side_v[owner] * n + nz_col[k])
        del owner, k
        v, self.r = key // n, key % n
        self.fan_first = np.searchsorted(v, np.arange(nv + 1))  # the incidences of each fan
        end_a, end_b = der.edge_ends[self.r].T
        self.at_fan = (end_a == v) | (end_b == v)
        pair_key = der.v * n + der.lo
        a_start = np.searchsorted(pair_key, key, side="right")
        a_count = np.searchsorted(pair_key, (v + 1) * n) - a_start
        b_start = np.searchsorted(key, pair_key, side="right")
        b_count = np.searchsorted(key, (der.v + 1) * n) - b_start
        count = np.concatenate([a_count, b_count])
        del pair_key, a_count, b_count
        self.terms_total = int(count.sum())
        runs = np.flatnonzero(count)
        slices = np.concatenate([self.r, der.lo])[runs]
        order = np.argsort(slices, kind="stable")
        runs, self.run_slice = runs[order], slices[order].astype(np.int32)
        # the run's own row, or its own pair
        self.run_own = np.where(runs < len(key), runs, runs - len(key)).astype(np.int32)
        del slices, order
        # the far end of the edge of each germ, fan by fan
        far = der.edge_ends[der.sides[:, 0]].sum(axis=1) - np.repeat(np.arange(nv), der.size)
        self._near_pieces(der, key, v, far, end_a, end_b, a_start, b_start, count, runs)
        del key, a_start, b_start, count, runs
        m = der.size[v]
        self.xoff = (np.cumsum(m + 1) - (m + 1)).astype(np.int32)
        self.x = np.empty(int(np.sum(m + 1)))
        self.bound = np.empty(len(v))
        flat = p.ravel()
        sides, partials = der.sides.T.copy(), der.partials.T.copy()
        for t0, t1 in _blocks(m, BLOCK_ENTRIES):
            owner, corner = _expand(der.first[v[t0:t1]], m[t0:t1])
            row = self.r[t0:t1][owner] * n
            z = np.zeros(len(corner))
            for side in range(3):  # row r of P contracted with the corner's gradient
                z += flat[row + sides[side, corner]] * partials[side, corner]
            at = self.xoff[t0]
            x = self.x[at:at + len(z) + t1 - t0]
            x[:] = _running_sums(z, m[t0:t1])
            # the bound on the lone terms: x at the germs of the fan that are
            # no spike of the row, and at theta
            germ = x[np.arange(len(z)) + owner]
            far_end = far[corner]
            spike = (far_end == end_a[t0:t1][owner]) | (far_end == end_b[t0:t1][owner])
            first = np.cumsum(m[t0:t1]) - m[t0:t1]
            spread = (np.maximum.reduceat(np.where(spike, -np.inf, germ), first)
                      - np.minimum.reduceat(np.where(spike, np.inf, germ), first))
            # -inf where every germ is a spike: no term of the row is lone
            np.maximum(spread, 0.0, out=spread)
            first += m[t0:t1] + np.arange(t1 - t0)
            self.bound[t0:t1] = self.lone_bounds(der, v[t0:t1], spread, x[first])
        self.near_terms = self.lone_evaluated = self.lone_skipped = 0

    def _near_pieces(self, der: EtaDerivative, key: np.ndarray, v: np.ndarray,
                     far: np.ndarray, end_a: np.ndarray, end_b: np.ndarray,
                     a_start: np.ndarray, b_start: np.ndarray, count: np.ndarray,
                     runs: np.ndarray):
        """Where the near terms of each run lie in `table`: in pieces
        piece_start[g] .. piece_start[g + 1] - 1 for run g, piece k holding
        the piece_count[k] entries from piece_lo[k] on; and run_first[g], the
        near terms of the runs before run g.

        Runs of rows list pairs and runs of pairs list rows: pair u is entry
        u of the table and row t entry n_pairs + t, so that its first part
        is every pair and row in order.  Then come the shared pairs and the
        rows that touch their fan, in order, then the unshared pairs and the
        rows that miss their fan by spike group: the group (v, w) of fan v
        holds the pairs with a germ whose edge ends at w and the rows with
        an end at w.  Items are the rows, then the pairs, as numbered in the
        runs.  An item's run takes, from its first pair or row to the end of
        its fan, (0) all of them when its row touches the fan or its pair is
        shared, else the shared pairs or the touching rows, and (1, 2) the
        spike groups of its row's two ends or of its pair's two germs.  Left
        out are a pair's own hi (it repeats an edge) and what group 2 shares
        with group 1, which cut their ranges into pieces.  Within a run only
        the shared pairs of a row's run can share a triple, and they come in
        order, so every triple's terms come in the order of the runs.
        """
        n, nv = der.n_edges, len(der.size)
        n_pairs, n_inc = len(der.lo), len(key)
        size = n_pairs + n_inc
        whole = np.concatenate([self.at_fan, der.shared])
        ga = der.v * nv + far[der.first[der.v] + der.pos_a]
        gb = der.v * nv + far[der.first[der.v] + der.pos_b]
        groups = np.stack([np.concatenate([v * nv + end_a, ga]), np.concatenate([
            np.where(end_b == end_a, -1, v * nv + end_b),
            np.where(gb == ga, -1, gb)])])
        del ga, gb
        groups[:, whole] = -1
        spikes = groups * size
        spikes[:, :n_inc] += n_pairs + np.arange(n_inc)
        spikes[:, n_inc:] += np.arange(n_pairs)
        spikes = spikes[groups >= 0]
        spikes.sort()
        ordered = np.concatenate([der.shared, self.at_fan])
        before = np.concatenate([[0], np.cumsum(ordered)])  # ordered entries below each
        ordered = np.flatnonzero(ordered)
        spike = size + len(ordered)
        self.table = np.concatenate([np.arange(size), ordered, spikes % size]).astype(np.int32)
        del ordered
        lo, hi = np.empty((3, size), dtype=np.int32), np.empty((3, size), dtype=np.int32)
        first = np.concatenate([a_start, n_pairs + b_start])
        lo[0] = np.where(whole, first, size + before[first])
        hi[0] = np.where(whole, first + count, size + before[first + count])
        # a pair's own hi, where its run lists it
        h = np.searchsorted(key, der.v * n + der.hi)
        found = np.flatnonzero(np.append(key, -1)[h] == der.v * n + der.hi)
        h = h[found] + n_pairs
        cuts = [(0, found + n_inc, np.where(der.shared[found], h, size + before[h]))]
        self.terms_total -= len(found)  # terms with three distinct edges
        del whole, before, h, found
        # Each item lies in the groups it looks up, so the lookups go entry
        # by entry: the rows of a group, by their index, start their pairs
        # at nondecreasing indices, as do its pairs their rows, and searches
        # for sorted keys run through the table once.
        lo[1:], hi[1:] = spike, spike
        for e0 in range(0, len(spikes), BLOCK_ENTRIES * 8):
            g = spikes[e0:e0 + BLOCK_ENTRIES * 8]
            entry = self.table[spike + e0:spike + e0 + len(g)]
            item = entry + np.where(entry < n_pairs, n_inc, -n_pairs)  # the entry as an item
            g = g - entry  # the group times size
            k = np.where(groups[0, item] * size == g, size, 2 * size)
            k += item
            g += first[item]
            lo.reshape(-1)[k] = spike + np.searchsorted(spikes, g)
            g += count[item]
            hi.reshape(-1)[k] = spike + np.searchsorted(spikes, g)
        del spikes
        # what group 2 shares with group 1: the pairs with a germ in the
        # group of the row's other end, the rows with an end in the group
        # of the pair's other germ
        listed = hi[2] - lo[2]
        for i0, i1 in _blocks(listed, BLOCK_ENTRIES):
            i, at = _expand(lo[2, i0:i1], listed[i0:i1])
            i += i0
            other = self.table[at]
            other += np.where(other < n_pairs, n_inc, -n_pairs)  # as an item
            dup = (groups[0, other] == groups[0, i]) | (groups[1, other] == groups[0, i])
            cuts.append((2, i[dup], at[dup]))
        del listed, groups
        # the three ranges of each run, in the order of the runs; a range
        # with cuts c_1 < ... < c_k becomes the pieces [lo, c_1), [c_1 + 1,
        # c_2), ..., [c_k + 1, hi), in order
        lo, hi = lo[:, runs].T.ravel(), hi[:, runs].T.ravel()
        rank = np.empty(size, dtype=np.intp)
        rank[runs] = np.arange(len(runs))
        slot = np.concatenate([rank[i] * 3 + k for k, i, _ in cuts])
        at = np.concatenate([at for _, _, at in cuts])
        del rank, cuts
        order = np.argsort(slot * (len(self.table) + 1) + at)
        slot, at = slot[order], at[order]
        ends = np.where(np.diff(slot, append=-1) != 0, hi[slot], np.append(at[1:], 0))
        first = np.diff(slot, prepend=-1) != 0
        hi[slot[first]] = at[first]  # each range ends at its first cut
        piece_run = np.insert(np.repeat(np.arange(len(runs)), 3), slot + 1, slot // 3)
        lo, hi = np.insert(lo, slot + 1, at + 1), np.insert(hi, slot + 1, ends)
        del slot, at, order, first, ends
        keep = np.flatnonzero(hi > lo)
        self.piece_count, piece_run = (hi - lo)[keep].astype(np.int32), piece_run[keep]
        self.piece_lo = lo[keep]
        del lo, hi, keep
        self.run_first = np.concatenate([[0], np.cumsum(np.bincount(
            piece_run, weights=self.piece_count, minlength=len(runs)).astype(np.intp))])
        self.piece_start = np.concatenate(
            [[0], np.cumsum(np.bincount(piece_run, minlength=len(runs)))]).astype(np.int32)

    @staticmethod
    def lone_bounds(der: EtaDerivative, v: np.ndarray, spread: np.ndarray,
                    theta: np.ndarray) -> np.ndarray:
        """For incidences of fans v whose rows miss their fan, with spread
        the max - min of x over their non-spike germs and theta their x_m,
        a bound on their lone terms: fl(fl(c_top[v] spread) + fl(s_top[v]
        |x_m|)), as `max_abs` explains."""
        bound = der.c_top[v] * spread
        bound += der.s_top[v] * np.abs(theta)
        return bound

    def _values(self, der: EtaDerivative, inc: np.ndarray, pair: np.ndarray) -> np.ndarray:
        """The terms of the rows of incidences `inc` with the pairs `pair`,
        each fl(fl(dc fl(x_b - x_a)) - fl(ds x_m))."""
        o = self.xoff[inc]
        w = self.x[o + der.pos_b[pair]]
        w -= self.x[o + der.pos_a[pair]]
        w *= der.dc[pair]
        w -= der.ds[pair] * self.x[o + der.fan_size[pair]]
        return w

    def terms(self, der: EtaDerivative, g0: int, g1: int) -> tuple:
        """The near terms of runs g0 .. g1 - 1, run by run: (key, value), the
        key encoding the sorted triple (see `_triple_keys`)."""
        n_pairs = len(der.lo)
        p0, p1 = self.piece_start[g0], self.piece_start[g1]
        count = self.piece_count[p0:p1]
        first = np.cumsum(count, dtype=np.intp)
        first -= count  # the block's terms before each piece
        at = np.repeat(self.piece_lo[p0:p1] - first, count)
        at += np.arange(len(at))
        item = self.table[at].astype(np.intp)
        # the run's own row or pair
        const = np.repeat(self.run_own[g0:g1], np.diff(self.run_first[g0:g1 + 1]))
        of_pair = item >= n_pairs
        inc = np.where(of_pair, item - n_pairs, const)
        pair = np.where(of_pair, const, item)
        del at, item, const, of_pair
        self.near_terms += len(inc)
        w = self._values(der, inc, pair)
        key, odd = _triple_keys(der.n_edges, self.r[inc], der.lo[pair], der.hi[pair])
        np.negative(w, out=w, where=odd)
        return key, w

    def max_abs(self) -> tuple:
        """(max |J|, its sorted triple) over the sorted triples, the smallest
        triple on ties and None when there are no terms.

        The near terms are evaluated in blocks of whole runs (`_blocks` of
        BLOCK_ENTRIES near terms).  They wait, unsummed, until the sweep has
        passed their slice; then the terms of each triple are summed once,
        in one `_sum_by_key` call, whose sum depends only on the sequence of
        the triple's terms, so no digit depends on BLOCK_ENTRIES.

        Then the lone terms.  Each is fl(fl(dc fl(x_b - x_a)) - fl(ds x_m))
        with x_a, x_b at two germs that are no spike of the row and an
        unshared pair.  Rounding is monotone and |fl(y - z)| <= fl(|y| +
        |z|), so every lone term of incidence t is at most bound_t =
        fl(fl(c_top[v] spread[t]) + fl(s_top[v] |x_m|)) (`EtaDerivative`):
        no fudge factor is needed.  The lone terms of t are evaluated only
        when bound_t is not strictly below the largest near sum; a term
        strictly below it can neither exceed nor tie it, so skipping it
        changes neither the maximum nor its triple.  A NaN bound is below
        nothing.  The maxima of the blocks are merged by `_worse`, so a NaN
        sum or lone term wins, and the triple named is the smallest one whose
        value is NaN.  The counts of near terms and of lone terms evaluated and
        skipped (near_terms, lone_evaluated, lone_skipped, all of them with
        three distinct edges) are kept on the object.
        """
        der = self.der
        n, runs = der.n_edges, len(self.run_slice)
        best, pending = (-1.0, 0), []  # (value, key)
        for g0, g1 in _blocks(np.diff(self.run_first), BLOCK_ENTRIES):
            key, value = self.terms(der, g0, g1)
            # the terms below `later` lie in slices before that of run g1
            later = n ** 3 if g1 == runs else int(self.run_slice[g1]) * n * n
            # slices never decrease along the runs, so the passed ones are a
            # prefix of this block, and the pending terms all lie in one slice
            c = int(np.count_nonzero(key < later))
            if c or pending and pending[0][0][0] < later:
                pending.append((key[:c], value[:c]))
                best = _worse(best, _max_abs_by_key(*map(np.concatenate, zip(*pending))))
                pending = []
            if c < len(key):
                pending.append((key[c:], value[c:]))
        lone = np.flatnonzero(~self.at_fan & ~(self.bound < best[0]))
        fan = np.searchsorted(self.fan_first, lone, side="right") - 1
        fan_pairs = np.searchsorted(der.v, np.arange(len(der.size) + 1))
        count = np.diff(fan_pairs)[fan]
        for i0, i1 in _blocks(count, BLOCK_ENTRIES):
            owner, pair = _expand(fan_pairs[fan[i0:i1]], count[i0:i1])
            inc = lone[i0:i1][owner]
            near = der.shared[pair]
            ends = der.edge_ends[self.r[inc]]
            for far in (der.far_lo[pair], der.far_hi[pair]):
                near |= far == ends[:, 0]
                near |= far == ends[:, 1]
            alone = np.flatnonzero(~near)
            inc, pair = inc[alone], pair[alone]
            del owner, near, alone, ends
            self.lone_evaluated += len(inc)
            w = self._values(der, inc, pair)
            np.abs(w, out=w)
            if w.size:
                top = float(w[worst_at(w)])
                # the terms at the maximum, or at NaN: w != w only where w is NaN
                at = np.flatnonzero((w == top) | (w != w))
                key = _triple_keys(n, self.r[inc[at]], der.lo[pair[at]], der.hi[pair[at]])[0]
                best = _worse(best, (top, int(key.min())))
        self.lone_skipped = self.terms_total - self.near_terms - self.lone_evaluated
        if best[0] < 0.0:
            return 0.0, None
        key = best[1]
        return best[0], (key // (n * n), key // n % n, key % n)


def jacobi_residual(s: ConeSurface, p: np.ndarray | None = None,
                    table: JacobiTerms | None = None) -> tuple:
    """(residual, triple): the scaled maximal Jacobi-identity defect over
    all coordinate triples, and the triple where it is reached.

    J[i,j,k] = sum_l (P[i,l] D[l,j,k] + P[j,l] D[l,k,i] + P[k,l] D[l,i,j])
    with D[l] = dP/da_l from `EtaDerivative`; the result is normalized by
    max|P| * max|D|.  J is totally antisymmetric, so each nonzero triple is
    evaluated once, sorted, from the terms of `JacobiTerms`.  The triples
    with more than one term are summed; a lone term, which is a whole
    triple, is evaluated only where a bound that rounding cannot break
    leaves it a chance to reach the maximum, and so are the entries of
    max|D| (see the module docstring): the result is the one of every term.
    The triple is the sorted edge indices (i, j, k) of the largest |J|, the
    smallest triple on ties, or None when no triple has a term (P = 0); a
    NaN |J| is the largest, so a sum that is NaN makes the residual NaN.

    `table` is the JacobiTerms of s and its bivector when the caller has it
    already.  Without it the table is built under WALL_GUARD from `p`, by
    default the bivector of s: any other matrix is checked in its place, so
    a fake bivector can be shown to fail while the genuine one passes at
    rounding level.  Such a p enters through its nonzero cells, in place of
    `FanPairs.cells`.  It must be exactly antisymmetric, as every P this
    package builds is, or it is refused with ValueError naming the first
    nonzero cell whose mirror is not its negative.
    """
    if table is None:
        pairs = FanPairs(s)
        if p is None:
            p = pairs.matrix()
        elif p.shape != (s.n_edges, s.n_edges):
            raise DimensionMismatch("bivector shape mismatch")
        else:
            rows, cols, values = pairs.cells = _nonzeros(p)
            bad = np.flatnonzero(p[cols, rows] != -values)
            if bad.size:
                r, c = int(rows[bad[0]]), int(cols[bad[0]])
                raise ValueError(f"p is not antisymmetric: p[{c}, {r}] = {float(p[c, r])!r} "
                                 f"is not -p[{r}, {c}] = {float(-p[r, c])!r}")
        table = JacobiTerms(pairs, p)
        del pairs, p  # the table holds what it needs of both
    # a term or an entry of D past the float range is no warning: the
    # residual it makes is not finite, and the report refuses that
    with np.errstate(over="ignore", invalid="ignore"):
        best, triple = table.max_abs()
        return best / (table.p_max * table.der.max_abs() + 1e-300), triple


def comparison_note():
    """Documented relation to the standard symplectic structure on the
    moduli space; nothing here is computed."""
    return (
        ("comparison.target", "Weil-Petersson Poisson structure"),
        ("comparison.constant", "1/8 up to global sign"),
        ("comparison.status",
         "documented only; the sign convention varies in the literature; "
         "every property certified here is invariant under constant rescaling"),
    )
