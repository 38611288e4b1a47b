"""Exact graded Ext dimensions between line bundles on (P^n)^k.

On a single P^n the cohomology of O(d) is concentrated in degree 0 (for
d >= 0) or degree n (for d <= -n-1) and vanishes identically in between.
On a product, Ext*(O(a), O(b)) is the graded tensor product of the factor
cohomologies of O(b_i - a_i), so its dimension vector is a convolution.

Dimensions are binomial coefficients computed exactly; no floating point
is involved anywhere.  The vanishing predicate comes twice: a scalar
is_orthogonal_pair, kept as the reference, and the numpy kernel
orthogonal_mask that every pairwise check of a collection goes through.
"""

from __future__ import annotations

from math import comb

import numpy as np

GradedDims = tuple[int, ...]

# Rows of A per kernel block: the (rows, len(B)) int64 temporaries stay
# near 3 MB for the largest collections checked (N ~ 3,000 bundles).
_CHUNK_ROWS = 128

# Coordinates are held as int64; inside this bound differences cannot wrap.
_COORD_LIMIT = 2 ** 62

# Longest graded dimension vector built, in degrees: n+1 for one factor,
# k*n+1 for a product; longer ones are refused before they are allocated.
MAX_EXT_DEGREES = 2 ** 20


def _check_n(n: int):
    if n < 1:
        raise ValueError(f"projective factor dimension n must be >= 1, got {n}")


def _check_degrees(count: int):
    if count > MAX_EXT_DEGREES:
        raise ValueError(
            f"graded dimensions in {count} degrees are more than the limit of {MAX_EXT_DEGREES}"
        )


def line_cohomology(n: int, d: int) -> GradedDims:
    """Dimensions of H^i(P^n, O(d)) for i = 0..n."""
    _check_n(n)
    _check_degrees(n + 1)
    dims = [0] * (n + 1)
    if d >= 0:
        dims[0] = comb(d + n, n)
    elif d <= -n - 1:
        dims[n] = comb(-d - 1, n)
    return tuple(dims)


def _convolve(xs, ys):
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                out[i + j] += x * y
    return out


def ext_graded(n: int, a, b) -> GradedDims:
    """Dimensions of Ext^i(O(a), O(b)) on (P^n)^k for i = 0..k*n."""
    _check_n(n)
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    k = len(a)
    _check_degrees(k * n + 1)
    acc = [1]
    for ai, bi in zip(a, b):
        factor = line_cohomology(n, bi - ai)
        if not any(factor):
            return (0,) * (k * n + 1)
        acc = _convolve(acc, factor)
    return tuple(acc)


def is_orthogonal_pair(n: int, a, b) -> bool:
    """True iff Ext*(O(a), O(b)) vanishes in every degree.

    Vanishing happens exactly when some factor has none: a coordinate with
    0 < a_i - b_i <= n puts the twist b_i - a_i in the cohomology-free band
    [-n, -1].  This test is implemented straight from that inequality; its
    agreement with ext_graded is asserted by the test suite, not assumed.
    """
    _check_n(n)
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    return any(0 < x - y <= n for x, y in zip(a, b))


def _points(xs) -> np.ndarray:
    """Multidegrees as an int64 array, one row each."""
    try:
        arr = np.asarray(xs, dtype=np.int64)
    except OverflowError:
        arr = None
    if arr is None or (arr.size and (arr.min() <= -_COORD_LIMIT or arr.max() >= _COORD_LIMIT)):
        raise ValueError("coordinates must lie strictly between -2^62 and 2^62")
    return arr


def _mask_block(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """orthogonal_mask for one block of rows, one coordinate at a time."""
    out = np.zeros((len(a), len(b)), dtype=bool)
    for c in range(a.shape[1]):
        d = a[:, c, None] - b[None, :, c]
        out |= (d > 0) & (d <= n)
    return out


def orthogonal_mask(n: int, A, B) -> np.ndarray:
    """Boolean matrix: mask[i, j] iff Ext*(O(A[i]), O(B[j])) vanishes.

    The same inequality as is_orthogonal_pair (some coordinate of
    A[i] - B[j] lies in (0, n]), evaluated for all pairs at once in blocks
    of rows so that memory stays bounded.
    """
    _check_n(n)
    a, b = _points(A), _points(B)
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)), dtype=bool)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("expected two sequences of multidegrees")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"arity mismatch: {a.shape[1]} vs {b.shape[1]}")
    out = np.empty((len(a), len(b)), dtype=bool)
    for start in range(0, len(a), _CHUNK_ROWS):
        out[start : start + _CHUNK_ROWS] = _mask_block(n, a[start : start + _CHUNK_ROWS], b)
    return out


def nonorthogonal_below(n: int, points):
    """Pairs p < q with Ext*(O(points[q]), O(points[p])) != 0, a block of rows at a time.

    Yields (q, p) index arrays, row-major within the block and blocks in
    ascending q, so concatenating them lists the pairs in (q, p) lex order.
    Only the strict lower triangle is evaluated.  Equal points count as
    non-orthogonal (their Ext^0 is one-dimensional).
    """
    _check_n(n)
    pts = _points(points)
    for start in range(1, len(pts), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, len(pts))
        bad = ~_mask_block(n, pts[start:stop], pts[:stop])
        q, p = np.nonzero(np.tril(bad, k=start - 1))
        yield q + start, p
