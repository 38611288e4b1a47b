"""Integer multidegrees and the coordinate-permutation symmetry.

A multidegree is a plain tuple of k ints, standing for the line bundle
O(a_1,...,a_k) on a k-fold product of projective n-spaces.  The symmetric
group S_k acts by permuting coordinates; sets of bundles closed under that
action are stored one orbit at a time, keyed by a canonical representative.

All arithmetic is exact (Python ints are unbounded), so overflow cannot
occur silently.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod

Multidegree = tuple[int, ...]

# Most bundles enumerated at once: Orbit.elements, OrbitSet.bundles and a flattened
# collection are sized by rep and refused above it before any bundle exists.  xk1(14),
# the largest collection the tests and benchmarks flatten, has 16,384.
MAX_ORBIT_BUNDLES = 2 ** 22

# Smallest k at which S_k-orbits are handled by their reps alone in pure Python,
# whatever the input's size: the closure of an S_k-stable seed (for fullness and
# for `lefkit closure`) and the twist table.  Below it an orbit holds at most
# 3! = 6 bundles, and once numpy is loaded the array forms are six to forty times
# faster near REPS_MAX_CELLS cells (BENCH_34.json).  Only on_reps reads it: every
# engine choice, and the CLI's fail-fast size of a flattened collection, asks on_reps.
ORBIT_MIN_K = 4

# Most cells of a k < ORBIT_MIN_K input still decided on reps: a twist table's rows
# times its orbits' bundles, or the box of a fullness closure or of a `lefkit
# closure` seed.  Near this size the reps forms take 8-12 ms in-process: the
# split-rule table 10 ms at 16,110 cells, close_orbits plus replay_orbit_trace
# 8 ms on a FULL k = 3 box of 24^3 cells and close_orbits 12 ms on an
# INCONCLUSIVE one, against 57-64 ms for importing numpy, which a small run
# pays in full (BENCH_34.json).
REPS_MAX_CELLS = 2 ** 14


def on_reps(k: int, cells: int) -> bool:
    """Whether an input of k-tuples and `cells` cells is decided on S_k-orbit reps alone."""
    return k >= ORBIT_MIN_K or cells <= REPS_MAX_CELLS


def canonical_rep(a) -> Multidegree:
    """Coordinates sorted weakly decreasing, the lex-largest point of the orbit.

    Idempotent, and commutes with uniform twists.
    """
    return tuple(sorted(a, reverse=True))


def twist(a, i: int) -> Multidegree:
    """Add i to every coordinate (tensoring with O(i,...,i))."""
    return tuple(c + i for c in a)


def stabilizer_shape(a) -> tuple[int, ...]:
    """Multiplicities of the distinct coordinate values, sorted decreasing.

    This partition of k names the Young subgroup fixing the point.
    """
    return tuple(sorted(Counter(a).values(), reverse=True))


def _multinomial(counts) -> int:
    """k! over the factorials of counts, k = sum(counts).

    The one orbit-size formula: an S_k-orbit whose coordinate values occur
    counts times has this many points, and C[S_k / S_counts] this dimension.
    """
    return factorial(sum(counts)) // prod(map(factorial, counts))


def parse_multidegree(text: str, k: int | None = None) -> Multidegree:
    """Parse the textual form "(2,1,0)" used by the CLI and JSON reports.

    Each coordinate is an optional sign and ASCII digits, with ASCII whitespace around.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"multidegree must look like (a,b,...), got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError(f"empty multidegree: {text!r}")
    try:
        # on ASCII text without underscores, int() reads exactly a sign and digits
        if not body.isascii() or "_" in body:
            raise ValueError
        coords = tuple(map(int, body.split(",")))
    except ValueError:
        raise ValueError(f"non-integer coordinate in {text!r}") from None
    if k is not None and len(coords) != k:
        raise ValueError(f"expected {k} coordinates, got {len(coords)} in {text!r}")
    return coords


def _integer_point(p, what: str) -> Multidegree:
    """p as a tuple of ints; a coordinate that is no integer (0.5) raises ValueError."""
    try:
        return tuple(map(operator.index, p))
    except TypeError:
        raise ValueError(f"{what} {p!r} is not a sequence of integers") from None


def format_multidegree(a) -> str:
    """Inverse of parse_multidegree, with no spaces: (2,1,0)."""
    return "(" + ",".join(str(c) for c in a) + ")"


@dataclass(frozen=True)
class Orbit:
    """A single S_k-orbit of multidegrees, held by its weakly decreasing (lex-largest) rep.

    Any other rep is refused.  elements are all distinct coordinate
    permutations in ascending lex order, enumerated on first use and refused
    above MAX_ORBIT_BUNDLES.
    """

    rep: Multidegree

    def __post_init__(self):
        if any(map(operator.lt, self.rep, self.rep[1:])):
            raise ValueError(f"orbit rep {self.rep} is not weakly decreasing")

    @property
    def stabilizer_shape(self) -> tuple[int, ...]:
        return stabilizer_shape(self.rep)

    @cached_property
    def size(self) -> int:
        """Orbit-stabilizer: k! over the order of the Young subgroup fixing rep (_multinomial)."""
        return _multinomial(self.stabilizer_shape)

    @cached_property
    def elements(self) -> tuple[Multidegree, ...]:
        _refuse_above_limit(self.size)
        return tuple(_multiset_permutations(self.rep))


def _multiset_permutations(values):
    """Yield the distinct permutations of `values` in ascending lex order.

    Knuth, TAOCP 7.2.1.2, Algorithm L: from the ascending arrangement,
    repeatedly step to the lexicographic successor, so each distinct
    permutation is produced once and none is generated twice.
    """
    a = sorted(values)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(a) - 1
        while a[j] >= a[m]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1 :] = a[: j : -1]


def _refuse_above_limit(bundles: int):
    if bundles > MAX_ORBIT_BUNDLES:
        raise ValueError(
            f"S_k-stable set of {bundles} bundles is more than the limit of "
            f"{MAX_ORBIT_BUNDLES}"
        )


def orbit_of(a) -> Orbit:
    """The S_k-orbit of a multidegree."""
    return Orbit(canonical_rep(a))


@dataclass(frozen=True)
class OrbitSet:
    """An S_k-stable finite set of multidegrees.

    Orbits are pairwise disjoint and kept in ascending lex order of their
    canonical representatives, which makes equality, hashing and the
    serialised form deterministic; orbits in any other order are refused.
    """

    k: int
    orbits: tuple[Orbit, ...]

    def __post_init__(self):
        reps = self.reps()
        if not all(map(operator.lt, reps, reps[1:])):
            raise ValueError("orbits must be distinct and in ascending order of their reps")

    def reps(self) -> tuple[Multidegree, ...]:
        return self._reps

    @cached_property
    def _reps(self) -> tuple[Multidegree, ...]:
        return tuple(o.rep for o in self.orbits)

    def bundles(self) -> tuple[Multidegree, ...]:
        """All elements, orbit-major, ascending lex inside each orbit; sized first."""
        _refuse_above_limit(self.bundle_count)
        return tuple(el for o in self.orbits for el in o.elements)

    @property
    def bundle_count(self) -> int:
        return sum(o.size for o in self.orbits)

    def __contains__(self, a) -> bool:
        return canonical_rep(a) in self.reps()


def normalised_reps(k: int, hi: int):
    """Reps c_1 >= ... >= c_k = 0 with c_1 <= hi, in descending lex order."""
    for head in itertools.combinations_with_replacement(range(hi, -1, -1), k - 1):
        yield head + (0,)


def orbit_set(k: int, reps) -> OrbitSet:
    """Build an OrbitSet from any iterable of points (one per intended orbit)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    seen = set()
    for a in reps:
        a = _integer_point(a, "orbit rep")
        if len(a) != k:
            raise ValueError(f"arity mismatch: expected k={k}, got {a}")
        seen.add(canonical_rep(a))
    return OrbitSet(k=k, orbits=tuple(orbit_of(rep) for rep in sorted(seen)))


@dataclass(frozen=True)
class Box:
    """The cube [lo, hi]^k in Z^k."""

    lo: int
    hi: int
    k: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty box: lo={self.lo} > hi={self.hi}")
        if self.k < 1:
            raise ValueError("k must be at least 1")

    def __contains__(self, a) -> bool:
        return len(a) == self.k and self.lo <= min(a) and max(a) <= self.hi

    def points(self):
        """Iterate all lattice points, ascending lex."""
        return itertools.product(range(self.lo, self.hi + 1), repeat=self.k)

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def size(self) -> int:
        return self.width ** self.k
