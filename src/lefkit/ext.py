"""Exact graded Ext dimensions between line bundles on (P^n)^k.

On a single P^n the cohomology of O(d) is concentrated in degree 0 (for
d >= 0) or degree n (for d <= -n-1) and vanishes identically in between.
On a product, Ext*(O(a), O(b)) is the graded tensor product of the factor
cohomologies of O(b_i - a_i), so its dimension vector is a convolution.

Dimensions are binomial coefficients computed exactly; no floating point
is involved anywhere.  The vanishing predicate comes in three forms:
- is_orthogonal_pair, the scalar test, kept as the reference: some
  coordinate has 0 < a_i - b_i <= n;
- nonorthogonal_below, the chunked numpy scan behind every check that
  lists witness pairs;
- first_failing_twists, behind every yes/no over uniform twists, the
  same inequality solved for t over S_k-orbits: each rep a and group of
  orbits give the least twist t at which O(a + t*1) fails against some
  bundle of the group, twist 0 counting against the bundles listed before
  a.  Its element form lists every bundle and solves per element in
  numpy (O(a + t*1) is orthogonal to O(b) exactly when t lies in
  (b_i - a_i, b_i - a_i + n] for some i).  Its closed form takes each
  (rep, orbit) pair in pure Python, with no bundle listed: some
  permutation of b fails against a + t exactly when the rows i can be
  matched to positions j with b_j outside [a_i + t - n, a_i + t - 1], and
  by Hall's theorem (P. Hall, J. London Math. Soc. 1935) that matching
  exists unless the a_i in some value interval [lo, hi], hi - lo < n,
  number more than k minus the b_j in [hi - n + t, lo - 1 + t].
  lattice.on_reps picks the form: the closed form from k = ORBIT_MIN_K on,
  and below that while the rows times the listed bundles stay within
  REPS_MAX_CELLS, where it costs less than loading numpy.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from math import comb, inf

from . import _numpy
from .lattice import _multiset_permutations, _refuse_above_limit, on_reps

GradedDims = tuple[int, ...]

# Rows of A per kernel block: the (rows, len(B)) int64 temporaries stay
# near 3 MB for the largest collections checked (N ~ 3,000 bundles).
_CHUNK_ROWS = 128

# Coordinates are held as int64; inside this bound differences cannot wrap.
_COORD_LIMIT = 2 ** 62

# The twist kernel adds n to differences of coordinates; with both below this
# bound no sum wraps either.
_TWIST_LIMIT = 2 ** 60

# Offsets per twist-table block: the (rows, bundles, k) int64 array of b - a
# stays near 3 MB.
_TWIST_CHUNK_CELLS = 3 * 2 ** 17

# Most cells of a twist table, one int64 per (rep, target group): 32 MB.  A
# search over k = 2 reaches it at 2,048 pool orbits, pool_hi = 2,047.
MAX_TWIST_TABLE = 2 ** 22

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


def _points(xs):
    """Multidegrees as an int64 array, one row each."""
    np = _numpy()
    try:
        arr = np.asarray(xs, dtype=np.int64)
    except OverflowError:
        arr = None
    if arr is None or (arr.size and (arr.min() <= -_COORD_LIMIT or arr.max() >= _COORD_LIMIT)):
        raise ValueError("coordinates must lie strictly between -2^62 and 2^62")
    return arr


def _mask_block(n: int, a, b):
    """mask[i, j] iff some coordinate of a[i] - b[j] lies in (0, n], as in is_orthogonal_pair."""
    np = _numpy()
    out = np.zeros((len(a), len(b)), dtype=bool)
    for c in range(a.shape[1]):
        d = a[:, c, None] - b[None, :, c]
        out |= (d > 0) & (d <= n)
    return out


def nonorthogonal_below(n: int, points, targets=None):
    """Pairs (q, p) with Ext*(O(points[q]), O(targets[p])) != 0, a block of rows at a time.

    The full rectangle of points against targets, or without targets the
    strict lower triangle p < q, each block of rows evaluated only when drawn
    and only up to its last row.  Yields (q, p) index arrays for each block
    that has a pair, row-major within the block and blocks in ascending q,
    so the pairs come in (q, p) lex order.  Equal points count as
    non-orthogonal (their Ext^0 is one-dimensional).
    """
    np = _numpy()
    _check_n(n)
    pts = _points(points)
    tgt = pts if targets is None else _points(targets)
    if not (len(pts) and len(tgt)):
        return
    if pts.ndim != 2 or tgt.ndim != 2:
        raise ValueError("expected two sequences of multidegrees")
    if pts.shape[1] != tgt.shape[1]:
        raise ValueError(f"arity mismatch: {pts.shape[1]} vs {tgt.shape[1]}")
    for start in range(0, len(pts), _CHUNK_ROWS):
        rows = pts[start : start + _CHUNK_ROWS]
        cols = tgt if targets is not None else tgt[: start + len(rows) - 1]
        bad = ~_mask_block(n, rows, cols)
        if targets is None:
            # row q of the block is point start + q: only p < start + q counts
            bad &= np.tri(len(rows), len(cols), start - 1, bool)
        if bad.any():
            q, p = np.nonzero(bad)
            yield q + start, p


def _refuse_twist_table(rows: int, groups: int):
    """Refuse a first_failing_twists table of more than MAX_TWIST_TABLE cells."""
    if rows * groups > MAX_TWIST_TABLE:
        raise ValueError(
            f"twist table of {rows} x {groups} cells is more than the limit of {MAX_TWIST_TABLE}"
        )


def _refuse_far(n: int, lo: int, hi: int):
    """Refuse n or a coordinate in [lo, hi] at or beyond 2^60, where twists could wrap int64."""
    if n >= _TWIST_LIMIT or max(-lo, hi) >= _TWIST_LIMIT:
        raise ValueError("coordinates and n must lie strictly between -2^60 and 2^60")


def first_failing_twists(n: int, orbits, groups):
    """Least t with Ext*(O(rep_P + t*1), O(b)) != 0 for some bundle b of group g, as table[P][g].

    The bundles are listed orbit by orbit, ascending lex inside each; groups
    lists the index of each group's first orbit, then len(orbits), and a
    group without an orbit is refused.  Twist 0 counts against the bundles
    listed before the rep: the orbits before P and the rest of P, since the
    rep is its orbit's lex-largest element and so listed last.  Against the
    rest of P twist 0 fails exactly when the rep spans more than n (max -
    min): then the element that swaps its largest and smallest coordinates
    has no difference in (0, n]; else the first coordinate where the rep
    exceeds an element differs by at most n.  Twists t >= 1 count against
    every bundle.

    The table is a list of array("q") rows, one per orbit, one cell per
    group.  It comes from _orbit_table, which lists no bundle, when
    lattice.on_reps(k, rows * bundles) holds: from k = ORBIT_MIN_K on, and
    below that for tables of at most REPS_MAX_CELLS rows times listed
    bundles.  Larger k < ORBIT_MIN_K tables come from _element_table.  n
    below 1 and an empty group are refused, then (on the element path) more
    than MAX_ORBIT_BUNDLES bundles, then a table above MAX_TWIST_TABLE
    cells, all before any point is read, and then a coordinate or n at or
    beyond 2^60.
    """
    _check_n(n)
    for g, (lo, hi) in enumerate(zip(groups, groups[1:])):
        if hi <= lo:
            raise ValueError(f"group {g} of the twist table, orbits {lo} to {hi}, is empty")
    if orbits and not on_reps(len(orbits[0].rep), len(orbits) * sum(o.size for o in orbits)):
        return _element_table(n, orbits, groups)
    _refuse_twist_table(len(orbits), len(groups) - 1)
    if orbits:
        _refuse_far(n, min(o.rep[-1] for o in orbits), max(o.rep[0] for o in orbits))
    return _orbit_table(n, orbits, groups)


def _element_table(n: int, orbits, groups):
    """first_failing_twists over every bundle of `orbits`, in numpy blocks of rows.

    O(a + t*1) is orthogonal to O(b) exactly when t lies in one of the k
    intervals (d_i, d_i + n], d = b - a.  Scanning the d_i in ascending
    order from the least twist that counts, an interval holding t moves t
    past its end d_i + n; the first that does not leaves t uncovered, and
    so do all later ones.  The answer is 0, 1 or some d_i + n + 1, at most
    k*n + 1.  Rows are taken a block at a time and reduced onto the groups
    at once.
    """
    np = _numpy()
    starts = list(itertools.accumulate((o.size for o in orbits), initial=0))
    _refuse_above_limit(starts[-1])
    _refuse_twist_table(len(orbits), len(groups) - 1)
    pts = _points([o.rep for o in orbits])
    if not (len(orbits) and len(groups) > 1):
        return [array("q") for _ in orbits]
    # the bundles are permutations of the reps, so the reps bound them too
    _refuse_far(n, int(pts.min()), int(pts.max()))
    tgt = _points([el for o in orbits for el in _multiset_permutations(o.rep)])
    # each rep is the last bundle of its orbit
    bound = np.asarray(starts[1:], dtype=np.int64) - 1
    offsets = [starts[g] for g in groups[:-1]]
    step = max(1, _TWIST_CHUNK_CELLS // tgt.size)
    table = []
    for start in range(0, len(pts), step):
        # e = d + 1, each pair's offsets ascending
        e = tgt[None, :, :] - (pts[start : start + step, None, :] - 1)
        e.sort(axis=2)
        t = (np.arange(len(tgt)) >= bound[start : start + step, None]).astype(np.int64)
        for i in range(e.shape[2]):
            # d_i < t <= d_i + n exactly when t - e_i, read unsigned, is below n
            np.add(e[:, :, i], n, out=t, where=(t - e[:, :, i]).view(np.uint64) < n)
        block = np.minimum.reduceat(t, offsets, axis=1)
        table += [array("q", row.tobytes()) for row in block]
    return table


def _hall_triples(n: int, a):
    """(hi - n, lo - 1, count) for each pair of values lo <= hi of a with hi - lo < n.

    a is ascending; count is how many a_i lie in [lo, hi].  These are the
    Hall sets of _least_failing_twist: rows whose windows all hold
    [hi - n + t, lo - 1 + t].
    """
    values = sorted(set(a))
    triples = []
    for x, lo in enumerate(values):
        for hi in values[x:]:
            if hi - lo >= n:
                break
            triples.append((hi - n, lo - 1, bisect_right(a, hi) - bisect_left(a, lo)))
    return triples


def _least_failing_twist(k, triples, shifts, b, t0, best):
    """The least t in [t0, best) at which some permutation of b fails against a + t*1, or best.

    b is ascending.  Rows i and positions j pair up when b_j lies outside
    a_i's window [a_i + t - n, a_i + t - 1]; some permutation fails exactly
    when they pair up perfectly, which by Hall's theorem fails exactly when
    some triple (u, w, count) has count + #{b_j in [u + t, w + t]} > k.  A
    pair (i, j) joins only as t reaches b_j - a_i + n + 1, so the least such
    t is t0 or one of those: a value of b plus a shift n + 1 - a_i.
    """
    if t0 >= best:
        return best
    later = sorted(t for t in {v + s for v in b for s in shifts} if t0 < t < best)
    for t in (t0, *later):
        for u, w, c in triples:
            if c + bisect_right(b, w + t) - bisect_left(b, u + t) > k:
                break
        else:
            return t
    return best


def _orbit_table(n: int, orbits, groups):
    """first_failing_twists on reps alone, one closed-form _least_failing_twist per orbit pair.

    The rep against an orbit listed before it starts at twist 0, and
    against one listed after it at 1.  Against its own orbit it fails at 0
    exactly when it spans more than n, and starts at 1 against the whole
    orbit otherwise.  Each cell is the least over its group's orbits, and
    an orbit only tries the twists below the best so far.
    """
    reps = [o.rep[::-1] for o in orbits]
    triples = [_hall_triples(n, a) for a in reps]
    shifts = [{n + 1 - v for v in set(a)} for a in reps]
    table = []
    for p, a in enumerate(reps):
        row = array("q")
        for lo, hi in zip(groups, groups[1:]):
            best = inf
            for q in range(lo, hi):
                if q == p and a[-1] - a[0] > n:
                    best = 0
                else:
                    t0 = 0 if q < p else 1
                    best = _least_failing_twist(len(a), triples[p], shifts[p], reps[q], t0, best)
            row.append(best)
        table.append(row)
    return table
