"""Enumerative search for S_k-stable Lefschetz collections, certified by closure.

Candidates are assembled from whole orbits (reps normalised to last
coordinate zero), filtered by exact K-theoretic necessities, then checked
one at a time as they are generated: exceptionality first, then fullness by
window closure.  No candidate list is kept, so memory does not grow with the
candidate count.  Hits are certified collections; candidates whose closure
is inconclusive at the working margin are reported separately rather than
dropped (the CLI then exits 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

from .lattice import Box, OrbitSet, normalised_reps, orbit_set
from .lefschetz import LefschetzCollection, is_exceptional
from .reptheory import (
    content_orbit_count,
    count_partitions,
    decreasing_tuples,
    partitions_of,
    perm_module_dim,
)
from .saturation import FULL, INCONCLUSIVE, _margin, verify_fullness

TARGET_RECTANGULAR = "rectangular"
TARGET_MINIMAL = "minimal"

# Most chain combinations a search sorts at once; they are counted first and
# refused above this.  The largest the tests sort, minimal (k, n) = (2, 6),
# has 155; minimal (3, 6) has 9,667,903.
MAX_CHAIN_COMBINATIONS = 2 ** 16

# Smallest m with more than MAX_CHAIN_COMBINATIONS partitions (44).
_TOO_MANY_PARTITIONS = next(
    m for m in itertools.count() if count_partitions(m) > MAX_CHAIN_COMBINATIONS
)


@dataclass(frozen=True)
class SearchSpec:
    """Search parameters.

    pool_box bounds the orbit reps considered (default [0, n+1]^k); budget
    caps the number of candidates evaluated; margin is passed through to
    verify_fullness; prune toggles the exact rank and divisibility
    necessities for the rectangular target (kept switchable so tests can
    compare pruned and unpruned runs).
    """

    k: int
    n: int
    target: str
    pool_box: Box | None = None
    budget: int = 10 ** 6
    margin: int | None = None
    prune: bool = True

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be at least 1")
        if self.target not in (TARGET_RECTANGULAR, TARGET_MINIMAL):
            raise ValueError(f"unknown target {self.target!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        _margin(self.n, self.margin)


@dataclass
class SearchResult:
    """found: certified collections, in enumeration order.

    exhausted is True iff the candidate space (after sound pruning) was
    fully enumerated within budget; nodes_visited counts evaluated
    candidates; inconclusive lists candidates that passed exceptionality
    but whose closure did not settle at this margin.
    """

    found: list[LefschetzCollection]
    exhausted: bool
    nodes_visited: int
    inconclusive: list[LefschetzCollection] = field(default_factory=list)


def _pool_by_shape(spec: SearchSpec):
    """Candidate orbits (rep sorted decreasing, last coordinate 0), by stabilizer shape."""
    box = spec.pool_box or Box(lo=0, hi=spec.n + 1, k=spec.k)
    by_shape = {}
    if not box.lo <= 0 <= box.hi:
        return by_shape
    # one orbit_set, so the whole pool is sized before any orbit is built
    for o in orbit_set(spec.k, normalised_reps(spec.k, box.hi)).orbits:
        by_shape.setdefault(o.stabilizer_shape, []).append(o)
    return by_shape


def _block(k: int, orbits) -> OrbitSet:
    """The OrbitSet of distinct pool orbits, reusing them rather than rebuilding each."""
    return OrbitSet(k=k, orbits=tuple(sorted(orbits, key=lambda o: o.rep)))


def _run(spec: SearchSpec, block_tuples) -> SearchResult:
    """Check up to spec.budget candidates from a generator as they are produced.

    Exceptionality first, closure only on survivors.  The search is
    exhausted unless one more candidate exists past the budget.
    """
    found, inconclusive, nodes = [], [], 0
    for blocks in itertools.islice(block_tuples, spec.budget):
        nodes += 1
        coll = LefschetzCollection(k=spec.k, n=spec.n, blocks=blocks)
        if not is_exceptional(coll):
            continue
        status = verify_fullness(coll, margin=spec.margin).status
        if status == FULL:
            found.append(coll)
        elif status == INCONCLUSIVE:
            inconclusive.append(coll)
    exhausted = next(block_tuples, None) is None
    return SearchResult(
        found=found, exhausted=exhausted, nodes_visited=nodes, inconclusive=inconclusive
    )


def _chain_count(t: int, h: int, cap: int) -> int:
    """Chains of h counts summing to t with head <= cap, counted to one past the limit.

    They are the partitions of t that fit in an h x cap box.  By Sylvester's
    unimodality of the Gaussian binomial coefficients there are at least
    p(min(t, h*cap - t, h, cap)) of them, which refuses a huge space without
    enumerating it.
    """
    if not 0 <= t <= h * cap:
        return 0
    if min(t, h * cap - t, h, cap) >= _TOO_MANY_PARTITIONS:
        return MAX_CHAIN_COMBINATIONS + 1
    chains = itertools.islice(decreasing_tuples(t, h, cap), MAX_CHAIN_COMBINATIONS + 1)
    return sum(1 for _ in chains)


def _chain_blocks(spec: SearchSpec, head_cap):
    """Block tuples whose per-shape orbit counts follow decreasing chains.

    Each stabilizer shape's chains are the tuples of h orbit counts, one
    per block, weakly decreasing so that the blocks nest and summing to t,
    the shape's orbit count in the class space (C^h)^(x k).  head_cap(t,
    avail) caps the first count; avail is the shape's orbit count in the
    pool.  A shape with no chain admits no candidate.  Chain combinations
    are enumerated by ascending block-size signature (r_0, r_1, ...), and
    concrete orbit choices are nested top-down in lex order.  The
    combinations are counted before they are built and sorted, and more
    than MAX_CHAIN_COMBINATIONS are refused.
    """
    h = spec.n + 1
    by_shape = _pool_by_shape(spec)
    shapes = partitions_of(spec.k)
    totals = [content_orbit_count(h, lam) for lam in shapes]
    caps = [head_cap(t, len(by_shape.get(lam, []))) for lam, t in zip(shapes, totals)]
    size = prod(_chain_count(t, h, cap) for t, cap in zip(totals, caps))
    if size > MAX_CHAIN_COMBINATIONS:
        raise ValueError(
            f"at least {size} chain combinations for k={spec.k}, n={spec.n}, more than "
            f"the limit of {MAX_CHAIN_COMBINATIONS}; use a smaller n or k"
        )
    per_shape_chains = [decreasing_tuples(t, h, cap) for t, cap in zip(totals, caps)]

    def signature(chain_combo):
        return tuple(
            sum(chain[i] * perm_module_dim(lam) for lam, chain in zip(shapes, chain_combo))
            for i in range(h)
        )

    def nested_choices(lam, chain):
        """Nested tuples of orbit sets for one shape, sizes given by chain.

        Depth first in lex order, with one combinations iterator per level
        on a stack instead of recursion, so any h works.
        """
        levels = [itertools.combinations(by_shape.get(lam, []), chain[0])]
        picked = []
        while levels:
            choice = next(levels[-1], None)
            if choice is None:
                levels.pop()
                if picked:
                    picked.pop()
            elif len(levels) == h:
                yield (*picked, choice)
            else:
                picked.append(choice)
                levels.append(itertools.combinations(choice, chain[len(levels)]))

    for combo in sorted(itertools.product(*per_shape_chains), key=signature):
        for assembled in itertools.product(
            *(nested_choices(lam, chain) for lam, chain in zip(shapes, combo))
        ):
            yield tuple(
                _block(spec.k, [o for per_shape in assembled for o in per_shape[level]])
                for level in range(h)
            )


def search_rectangular(spec: SearchSpec) -> SearchResult:
    """All certified rectangular collections (n+1 equal blocks) in the pool.

    With pruning on, the block's orbit-type vector is forced exactly: the
    h-fold repeat of the block must tile the class space (C^h)^(x k), so
    each shape's chain is constant: a decreasing chain whose head is at
    most its mean t // h.  When h does not divide t there is none, and no
    rectangular collection exists over any pool (sound pruning, not
    heuristic).  With pruning off, every S_k-stable subset with
    (n+1)^(k-1) bundles is tried.
    """
    if spec.target != TARGET_RECTANGULAR:
        raise ValueError("spec.target must be 'rectangular'")
    h = spec.n + 1
    if spec.prune:
        return _run(spec, _chain_blocks(spec, lambda t, avail: t // h))

    orbits = sorted(
        (o for group in _pool_by_shape(spec).values() for o in group), key=lambda o: o.rep
    )

    def subsets(i, remaining):
        if remaining == 0:
            yield ()
            return
        if i == len(orbits):
            return
        if orbits[i].size <= remaining:
            for rest in subsets(i + 1, remaining - orbits[i].size):
                yield (orbits[i],) + rest
        yield from subsets(i + 1, remaining)

    return _run(
        spec, ((_block(spec.k, picked),) * h for picked in subsets(0, h ** (spec.k - 1)))
    )


def search_minimal(spec: SearchSpec) -> SearchResult:
    """Certified length-(n+1) chains, smallest first blocks first.

    The orbit-type vector of each block is constrained exactly as in
    invariant_bound: blocks tile the class space shape by shape, and
    nesting makes per-shape counts weakly decreasing.  Chains come in
    ascending block-size signature, so the first hits have minimal first
    block.  Rectangular chains, when arithmetically feasible, are included.
    """
    if spec.target != TARGET_MINIMAL:
        raise ValueError("spec.target must be 'minimal'")
    return _run(spec, _chain_blocks(spec, lambda t, avail: avail))
