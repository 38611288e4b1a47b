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
  a.  It lists no bundle.  Against an orbit with rep b, some permutation
  of b fails against a + t exactly when, both sorted, for some split s
  the s smallest b_j lie below the windows [a_i + t - n, a_i + t - 1] of
  the s largest a_i and the other b_j above the windows of the other a_i,
  each part matched in sorted order: swapping two pairs that cross keeps
  a failing matching failing.  So the least failing t is a bound of the
  first split that fits.  The rule comes in two forms, chosen by
  lattice.on_reps: in pure Python one orbit pair at a time from k =
  ORBIT_MIN_K on, and below that while the rows times the orbits' bundles
  stay within REPS_MAX_CELLS, where it costs less than loading numpy; in
  numpy over a block of rows at once otherwise.
"""

from __future__ import annotations

from array import array
from math import comb, inf

from . import _numpy
from .lattice import on_reps

GradedDims = tuple[int, ...]

# Rows of A per kernel block: the (rows, len(B)) int64 temporaries stay
# near 3 MB for the largest collections checked (N ~ 3,000 bundles).
_CHUNK_ROWS = 128

# Coordinates are held as int64; inside this bound differences cannot wrap.
_COORD_LIMIT = 2 ** 62

# The twist kernel adds n to differences of coordinates; with both below this
# bound no sum wraps either.
_TWIST_LIMIT = 2 ** 60

# Coordinates per twist-table block: each (k, rows, orbits) int64 array of
# b - a stays near 3 MB.
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

    Against one orbit the least twist comes from the split rule of
    _least_failing_twist, on the two reps alone.  The table is a list of
    array("q") rows, one per orbit, one cell per group.  It comes from
    _orbit_table, in pure Python, when lattice.on_reps(k, rows * bundles)
    holds: from k = ORBIT_MIN_K on, and below that for tables of at most
    REPS_MAX_CELLS rows times the orbits' bundles.  Larger k < ORBIT_MIN_K
    tables come from _array_table, the same rule in numpy.  Neither lists a
    bundle.  n below 1, an empty group, a table above MAX_TWIST_TABLE cells
    and a coordinate or n at or beyond 2^60 are refused in that order,
    before either form runs and the first three before any rep is read.
    """
    _check_n(n)
    for g, (lo, hi) in enumerate(zip(groups, groups[1:])):
        if hi <= lo:
            raise ValueError(f"group {g} of the twist table, orbits {lo} to {hi}, is empty")
    _refuse_twist_table(len(orbits), len(groups) - 1)
    if not orbits:
        return []
    _refuse_far(n, min(o.rep[-1] for o in orbits), max(o.rep[0] for o in orbits))
    if on_reps(len(orbits[0].rep), len(orbits) * sum(o.size for o in orbits)):
        return _orbit_table(n, orbits, groups)
    return _array_table(n, orbits, groups)


def _least_failing_twist(n: int, runs, b, t0: int, best):
    """The least t in [t0, best) at which some permutation of b fails against a + t*1, or best.

    a and b are ascending, and runs holds (value, first, last) for each run
    of equal a_i.  A permutation fails when each b_j lies outside the
    window [a_i + t - n, a_i + t - 1] of the a_i it meets: below it, for
    t >= b_j - a_i + n + 1, or above it, for t <= b_j - a_i.  Crossing
    pairs exchange: two pairs below, or two above, still fail matched in
    sorted order, and a pair below with a larger b_j or a smaller a_i than
    a pair above still fails with those swapped.  So some permutation fails
    at t exactly when, for some split s, the s smallest b_j lie below the
    windows of the s largest a_i, in order, which needs
    t >= L_s = max_{j<s} (b_j - a_{k-s+j}) + n + 1, and the other b_j lie
    above the windows of the other a_i, in order, which needs
    t <= U_s = min_{j<k-s} (b_{s+j} - a_j).  L_s and U_s rise with s and
    U_k is unbounded, so the least t is max(t0, L_s) at the first s where
    that is at most U_s.  Each run takes one step per s: the pairs below
    are bounded by its last b_j, those above by its first.
    """
    if t0 >= best:
        return best
    k = len(b)
    for s in range(k + 1):
        low, high = t0, inf
        for v, first, last in runs:
            if last >= k - s and b[last - k + s] - v + n >= low:
                low = b[last - k + s] - v + n + 1
                if low >= best:
                    return best
            if first < k - s and b[s + first] - v < high:
                high = b[s + first] - v
            if low > high:
                break
        else:
            return low


def _orbit_table(n: int, orbits, groups):
    """first_failing_twists by _least_failing_twist, one orbit pair at a time, in pure Python.

    The rep against an orbit listed before it starts at twist 0, and
    against one listed after it at 1.  Against its own orbit it fails at 0
    exactly when it spans more than n, and starts at 1 against the whole
    orbit otherwise.  Each cell is the least over its group's orbits, and
    an orbit only tries the twists below the best so far.
    """
    reps = [o.rep[::-1] for o in orbits]
    table = []
    for p, a in enumerate(reps):
        runs = [(v, i, i + a.count(v) - 1) for i, v in enumerate(a) if a.index(v) == i]
        row = array("q")
        for lo, hi in zip(groups, groups[1:]):
            best = inf
            for q in range(lo, hi):
                if q == p and a[-1] - a[0] > n:
                    best = 0
                else:
                    best = _least_failing_twist(n, runs, reps[q], 0 if q < p else 1, best)
            row.append(best)
        table.append(row)
    return table


def _array_table(n: int, orbits, groups):
    """first_failing_twists by the rule of _least_failing_twist, a block of rows at once, in numpy.

    For each split s one reduction gives L_s and one U_s over every (rep,
    orbit) pair of the block; from s = k down, a pair takes max(t0, L_s)
    wherever that is at most U_s, so the first s that fits is the one
    kept.  t0 is 0 against the orbits listed before the rep and 1 from its
    own on, and the own orbit's cell is 0 where the rep spans more than n.
    The cells are then reduced onto the groups in numpy.
    """
    np = _numpy()
    if not (orbits and len(groups) > 1):
        return [array("q") for _ in orbits]
    # coordinate-major, so that each reduction runs over the first axis
    b = _points([o.rep[::-1] for o in orbits]).T.copy()
    k, m = b.shape
    wide = b[-1] - b[0] > n
    offsets = list(groups[:-1])
    step = max(1, _TWIST_CHUNK_CELLS // b.size)
    table = []
    for start in range(0, m, step):
        a = b[:, start : start + step, None]
        rows = np.arange(start, start + a.shape[1])
        t0 = (np.arange(m) >= rows[:, None]).astype(np.int64)
        t = np.maximum(t0, (b[:, None] - a).max(axis=0) + (n + 1))
        for s in range(k - 1, -1, -1):
            low = np.maximum(t0, (b[:s, None] - a[k - s :]).max(axis=0) + (n + 1)) if s else t0
            np.copyto(t, low, where=low <= (b[s:, None] - a[: k - s]).min(axis=0))
        own = rows[wide[rows]]
        t[own - start, own] = 0
        block = np.minimum.reduceat(t, offsets, axis=1)
        table += [array("q", row.tobytes()) for row in block]
    return table
