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
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

Multidegree = tuple[int, ...]


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


def parse_multidegree(text: str, k: int | None = None) -> Multidegree:
    """Parse the textual form "(2,1,0)" used by the CLI and JSON reports."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"multidegree must look like (a,b,...), got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError(f"empty multidegree: {text!r}")
    try:
        coords = tuple(int(part.strip()) for part in body.split(","))
    except ValueError:
        raise ValueError(f"non-integer coordinate in {text!r}") from None
    if k is not None and len(coords) != k:
        raise ValueError(f"expected {k} coordinates, got {len(coords)} in {text!r}")
    return coords


def format_multidegree(a) -> str:
    """Inverse of parse_multidegree, with no spaces: (2,1,0)."""
    return "(" + ",".join(str(c) for c in a) + ")"


@dataclass(frozen=True)
class Orbit:
    """A single S_k-orbit of multidegrees.

    rep is the weakly decreasing (lex-largest) element; elements are all
    distinct coordinate permutations in ascending lex order.
    """

    rep: Multidegree
    elements: tuple[Multidegree, ...]
    stabilizer_shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def _multiset_permutations(values) -> tuple[Multidegree, ...]:
    """Distinct permutations of `values` in ascending lex order.

    Knuth, TAOCP 7.2.1.2, Algorithm L: from the ascending arrangement,
    repeatedly step to the lexicographic successor, so each distinct
    permutation is produced once and none is generated twice.
    """
    a = sorted(values)
    out = [tuple(a)]
    while True:
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return tuple(out)
        m = len(a) - 1
        while a[j] >= a[m]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1 :] = a[: j : -1]
        out.append(tuple(a))


def orbit_of(a) -> Orbit:
    """The full S_k-orbit of a multidegree."""
    rep = canonical_rep(a)
    elements = _multiset_permutations(rep)
    shape = stabilizer_shape(rep)
    # orbit-stabilizer: |orbit| * |S_shape| = k!
    assert len(elements) * prod(factorial(m) for m in shape) == factorial(len(rep))
    return Orbit(rep=rep, elements=elements, stabilizer_shape=shape)


@dataclass(frozen=True)
class OrbitSet:
    """An S_k-stable finite set of multidegrees.

    Orbits are pairwise disjoint and kept in ascending lex order of their
    canonical representatives, which makes equality, hashing and the
    serialised form deterministic.
    """

    k: int
    orbits: tuple[Orbit, ...]

    def reps(self) -> tuple[Multidegree, ...]:
        return tuple(o.rep for o in self.orbits)

    def bundles(self) -> tuple[Multidegree, ...]:
        """All elements, orbit-major, ascending lex inside each orbit."""
        return tuple(el for o in self.orbits for el in o.elements)

    @property
    def bundle_count(self) -> int:
        return sum(o.size for o in self.orbits)

    def has_orbit(self, rep) -> bool:
        return canonical_rep(rep) in set(self.reps())

    def __contains__(self, a) -> bool:
        return self.has_orbit(a)


def orbit_set(k: int, reps) -> OrbitSet:
    """Build an OrbitSet from any iterable of points (one per intended orbit)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    seen = {}
    for a in reps:
        a = tuple(int(c) for c in a)
        if len(a) != k:
            raise ValueError(f"arity mismatch: expected k={k}, got {a}")
        seen[canonical_rep(a)] = True
    orbits = tuple(orbit_of(rep) for rep in sorted(seen))
    return OrbitSet(k=k, orbits=orbits)


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
        return len(a) == self.k and all(self.lo <= c <= self.hi for c in a)

    def points(self):
        """Iterate all lattice points, ascending lex."""
        return itertools.product(range(self.lo, self.hi + 1), repeat=self.k)

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def size(self) -> int:
        return self.width ** self.k
