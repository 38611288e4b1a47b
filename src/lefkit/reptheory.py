"""Exact dimension bookkeeping for GL_h Schur functors and S_k representations.

Partitions are tuples of weakly decreasing positive ints.  Everything here
is integer arithmetic: hook length and hook content products, semistandard
tableau counts, and the counting bounds they imply for symmetric Lefschetz
collections on products of h-1 dimensional projective spaces.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from math import factorial, prod

from .lattice import OrbitSet

Partition = tuple[int, ...]


def is_partition(lam) -> bool:
    lam = tuple(lam)
    return all(isinstance(p, int) and p > 0 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def _check_partition(lam) -> Partition:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


# Most partitions partitions_rho lists at once; the list is counted first and
# refused above this.  The largest list the tests build, partitions_rho(3, 60), has 331.
MAX_PARTITIONS = 2 ** 16


def decreasing_tuples(total: int, parts: int, cap: int):
    """Weakly decreasing tuples of `parts` nonnegative ints summing to total, head <= cap.

    Descending lex order.  Built in place without recursion, so any number
    of parts works: each tuple fills its tail greedily below a bound, and
    the next one lowers the rightmost part whose tail still fits under it.
    """
    if not 0 <= total <= parts * cap:
        return
    out = [0] * parts
    start, bound, remaining = 0, cap, total
    while True:
        for i in range(start, parts):
            out[i] = bound = min(bound, remaining)
            remaining -= bound
        yield tuple(out)
        tail = 0
        for start in range(parts - 1, -1, -1):
            # lowering out[start] by one leaves tail + 1 for the parts after it
            if tail < (parts - 1 - start) * (out[start] - 1):
                break
            tail += out[start]
        else:
            return
        out[start] -= 1
        start, bound, remaining = start + 1, out[start], tail + 1


@cache
def partitions_rho(h: int, k: int) -> tuple[Partition, ...]:
    """Partitions of k with at most h rows, descending lex order.

    Counted first, and refused above MAX_PARTITIONS before any is built.
    """
    if h < 1 or k < 1:
        raise ValueError("h and k must be at least 1")
    rows = min(h, k)
    count = count_partitions(k, rows)
    if count > MAX_PARTITIONS:
        raise ValueError(
            f"{count} partitions of {k} with at most {h} rows are more than the limit "
            f"of {MAX_PARTITIONS}"
        )
    return tuple(tuple(p for p in lam if p) for lam in decreasing_tuples(k, rows, k))


def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, descending lex (so dominance-compatible: (k) first)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return partitions_rho(k, k) if k else ((),)


def transpose(lam) -> Partition:
    """Conjugate partition (reflect the Young diagram)."""
    lam = _check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def hook_lengths(lam) -> tuple[tuple[int, ...], ...]:
    """Hook length of every cell, row by row."""
    lam = _check_partition(lam)
    tlam = transpose(lam)
    return tuple(
        tuple(lam[i] - j + tlam[j] - i - 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def dim_schur(lam, h: int) -> int:
    """Dimension of the Schur functor S^lam applied to an h-dimensional space.

    Hook content formula: product of (h + col - row) over cells, divided by
    the hook product.  Zero when the diagram has more than h rows.
    """
    lam = _check_partition(lam)
    if h < 1:
        raise ValueError("h must be at least 1")
    if len(lam) > h:
        return 0
    numer = prod(h + j - i for i in range(len(lam)) for j in range(lam[i]))
    denom = prod(x for row in hook_lengths(lam) for x in row)
    q, r = divmod(numer, denom)
    assert r == 0, (lam, h)
    return q


def dim_irrep(mu) -> int:
    """Dimension of the irreducible S_k representation of shape mu (hook lengths)."""
    mu = _check_partition(mu)
    k = sum(mu)
    denom = prod(x for row in hook_lengths(mu) for x in row)
    return factorial(k) // denom


def _horizontal_extensions(shape, m, mu):
    """Shapes reachable from `shape` by adding m cells, no two in a column."""
    rows = len(mu)

    def rec(i, remaining, prev_new):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        old = shape[i]
        top = min(mu[i], prev_new, old + remaining)
        for new in range(old, top + 1):
            for rest in rec(i + 1, remaining - (new - old), old):
                yield (new,) + rest

    # prev_new bound for row 0 is mu[0] itself
    yield from rec(0, m, mu[0])


def kostka(mu, lam) -> int:
    """Number of semistandard tableaux of shape mu and content lam.

    Letters 1..len(lam) are inserted in order, each as a horizontal strip,
    which is exactly the column-strict filling condition.
    """
    mu = _check_partition(mu)
    lam = _check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError(f"size mismatch: |{mu}| = {sum(mu)} but |{lam}| = {sum(lam)}")
    counts = {(0,) * len(mu): 1}
    for m in lam:
        nxt = defaultdict(int)
        for shape, c in counts.items():
            for ext in _horizontal_extensions(shape, m, mu):
                nxt[ext] += c
        counts = dict(nxt)
        if not counts:
            return 0
    return counts.get(mu, 0)


def perm_module_dim(lam) -> int:
    """Dimension of the permutation module C[S_k / S_lam] (a multinomial)."""
    lam = _check_partition(lam)
    return factorial(sum(lam)) // prod(factorial(p) for p in lam)


def content_orbit_count(h: int, lam) -> int:
    """Multisets of size |lam| drawn from h values whose multiplicities sort to lam."""
    lam = _check_partition(lam)
    r = len(lam)
    if r > h:
        return 0
    falling = prod(range(h - r + 1, h + 1))
    rep_counts = Counter(lam)
    return falling // prod(factorial(c) for c in rep_counts.values())


def divisibility_criterion(h: int, k: int):
    """None if h divides dim_schur(lam, h) for every lam in partitions_rho(h, k).

    Otherwise the lex-least failing partition is returned as the witness.
    """
    return min((lam for lam, s, _ in schur_weyl_table(h, k).rows if s % h), default=None)


def lef_bounds(h: int, k: int) -> tuple[int, int]:
    """K-theoretic bounds (r0_min, rd_max) for length-h Lefschetz collections.

    Distributing each Schur multiplicity dim_schur(lam, h) over h weakly
    decreasing block multiplicities forces the first block to carry at least
    ceil/h and the last at most floor/h of each irreducible isotype.
    """
    rows = schur_weyl_table(h, k).rows
    return sum(-(-s // h) * r for _, s, r in rows), sum((s // h) * r for _, s, r in rows)


def invariant_bound(h: int, k: int) -> int:
    """Least first-block size of an S_k-stable length-h Lefschetz chain.

    Blocks are unions of coordinate-permutation orbits, so each block spans
    a sum of permutation modules C[S_k/S_lam], one per orbit of stabilizer
    shape lam.  A full chain must tile the ambient class space (C^h)^(x k),
    which contains content_orbit_count(h, lam) copies of each permutation
    module; permutation characters are independent, so the tiling is forced
    shape by shape.  A weakly decreasing chain of h nonnegative integers
    with sum t has head at least ceil(t/h), and that head is attained, so
    the shapes minimise independently.  Shapes with more than h rows have
    no copies, so only partitions_rho(h, k) is summed.
    """
    if h < 2:
        raise ValueError("h must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(
        -(-content_orbit_count(h, lam) // h) * perm_module_dim(lam) for lam in partitions_rho(h, k)
    )


@cache
def count_partitions(m: int, largest: int | None = None) -> int:
    """Number of partitions of m, with no part above `largest` (or rows, by conjugation)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    table = [1] + [0] * m
    for part in range(1, (m if largest is None else largest) + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def equivariant_lengths(s: OrbitSet) -> tuple[tuple[int, ...], int]:
    """Per-orbit counts of equivariant summands, and their total.

    The bundles in one orbit of stabilizer shape lam carry prod_j p(lam_j)
    inequivalent equivariant structures (irreducibles of the Young subgroup
    S_lam), where p is the partition counting function.
    """
    per_orbit = tuple(
        prod(count_partitions(part) for part in o.stabilizer_shape) for o in s.orbits
    )
    return per_orbit, sum(per_orbit)


@dataclass(frozen=True)
class SchurWeylTable:
    """Rows (lam, dim_schur(lam, h), dim_irrep(transpose(lam))) for lam in rho(h, k)."""

    h: int
    k: int
    rows: tuple[tuple[Partition, int, int], ...]

    @property
    def mass(self) -> int:
        """Sum of dim_schur * dim_irrep over rows; equals h**k."""
        return sum(s * r for _, s, r in self.rows)


@cache
def schur_weyl_table(h: int, k: int) -> SchurWeylTable:
    rows = tuple(
        (lam, dim_schur(lam, h), dim_irrep(transpose(lam)))
        for lam in partitions_rho(h, k)
    )
    return SchurWeylTable(h=h, k=k, rows=rows)
