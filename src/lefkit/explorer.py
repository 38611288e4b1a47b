"""Enumerative search for S_k-stable Lefschetz collections, certified by closure.

Candidates are assembled from whole orbits (reps normalised to last
coordinate zero), filtered by exact K-theoretic necessities, and drawn
lazily from one depth-first walk that picks orbits slot by slot.  Each is
checked as it is generated (exceptionality, then fullness by window
closure) and no candidate list is kept.  Hits are certified collections;
candidates whose closure is inconclusive at the working margin are
reported separately rather than dropped (the CLI then exits 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

from .lattice import OrbitSet, _refuse_above_limit, normalised_reps, orbit_set
from .lefschetz import LefschetzCollection, is_exceptional
from .reptheory import (
    content_orbit_count,
    count_partitions,
    decreasing_tuples,
    partitions_of,
    perm_module_dim,
)
from .saturation import FULL, INCONCLUSIVE, _margin, verify_fullness

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
    """Search parameters, the same for both searches.

    pool_hi bounds the orbit reps considered (default n+1): reps are weakly
    decreasing with last coordinate 0, so the pool is every such rep in
    [0, pool_hi]^k.  budget caps the number of candidates evaluated; margin
    is passed through to verify_fullness.
    """

    k: int
    n: int
    pool_hi: int | None = None
    budget: int = 10 ** 6
    margin: int | None = None

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.pool_hi is not None and self.pool_hi < 0:
            raise ValueError("pool_hi must be nonnegative")
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
    hi = spec.n + 1 if spec.pool_hi is None else spec.pool_hi
    # the pool's orbits partition the points of [0, hi]^k with a zero coordinate;
    # they are counted and refused before any rep is drawn
    _refuse_above_limit((hi + 1) ** spec.k - hi ** spec.k)
    by_shape = {}
    for o in orbit_set(spec.k, normalised_reps(spec.k, hi)).orbits:
        by_shape.setdefault(o.stabilizer_shape, []).append(o)
    return by_shape


def _block(k: int, orbits) -> OrbitSet:
    """The OrbitSet of distinct pool orbits, reusing them and so their cached elements."""
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
    return SearchResult(found, exhausted, nodes, inconclusive)


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


def _depth_first(extend):
    """Complete paths of a search tree as tuples, depth first in step order.

    extend(path) returns the steps that may follow a partial path, or None once it
    is complete (the empty path never is).  Steps are drawn lazily from one
    iterator per depth, kept on a stack rather than recursing.
    """
    path, stack = [], [iter(extend([]))]
    while stack:
        for step in stack[-1]:
            path.append(step)
            steps = extend(path)
            if steps is not None:
                stack.append(iter(steps))
                break
            yield tuple(path)
            path.pop()
        else:
            stack.pop()
            del path[-1:]  # the step into the finished depth; the root has none


def _chain_blocks(spec: SearchSpec, head_cap):
    """Block tuples whose per-shape orbit counts follow decreasing chains.

    Each stabilizer shape's chains are the tuples of h orbit counts, one per block,
    weakly decreasing so that the blocks nest and summing to t, the shape's orbit
    count in the class space (C^h)^(x k).  head_cap(t, avail) caps the first count;
    avail is the shape's orbit count in the pool.  A shape with no chain admits no
    candidate.  Chain combinations are counted (more than MAX_CHAIN_COMBINATIONS are
    refused), then taken by ascending block-size signature (r_0, r_1, ...).  Each is
    walked over (shape, level) slots, shape-major: a slot picks its count of orbits,
    in lex order, from the shape's pool at level 0, else from the slot before.
    Block i is the union of the picks in path[i::h].
    """
    h = spec.n + 1
    by_shape = _pool_by_shape(spec)
    shapes = partitions_of(spec.k)
    pools = [by_shape.get(lam, []) for lam in shapes]
    totals = [content_orbit_count(h, lam) for lam in shapes]
    caps = [head_cap(t, len(pool)) for pool, t in zip(pools, totals)]
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

    for combo in sorted(itertools.product(*per_shape_chains), key=signature):
        counts = [count for chain in combo for count in chain]

        def extend(path):
            i = len(path)
            if i < len(counts):
                return itertools.combinations(path[-1] if i % h else pools[i // h], counts[i])

        for path in _depth_first(extend):
            yield tuple(
                _block(spec.k, [o for picked in path[level::h] for o in picked])
                for level in range(h)
            )


def search_rectangular(spec: SearchSpec, prune: bool = True) -> SearchResult:
    """All certified rectangular collections (n+1 equal blocks) in the pool.

    With prune (the default), the block's orbit-type vector is forced
    exactly: the h-fold repeat of the block must tile the class space
    (C^h)^(x k), so each shape's chain is constant: a decreasing chain whose
    head is at most its mean t // h.  When h does not divide t there is
    none, and no rectangular collection exists over any pool (sound pruning,
    not heuristic).  With prune=False, every S_k-stable subset with
    (n+1)^(k-1) bundles is tried, taking rising pool orbit indices that fit;
    the switch lets tests compare pruned and unpruned runs.
    """
    h = spec.n + 1
    if prune:
        return _run(spec, _chain_blocks(spec, lambda t, avail: t // h))

    orbits = sorted(itertools.chain(*_pool_by_shape(spec).values()), key=lambda o: o.rep)

    def extend(path):
        left = h ** (spec.k - 1) - sum(orbits[j].size for j in path)
        if left:
            start = path[-1] + 1 if path else 0
            return (j for j in range(start, len(orbits)) if orbits[j].size <= left)

    blocks = ((_block(spec.k, [orbits[j] for j in path]),) * h for path in _depth_first(extend))
    return _run(spec, blocks)


def search_minimal(spec: SearchSpec) -> SearchResult:
    """Certified length-(n+1) chains, smallest first blocks first.

    The orbit-type vector of each block is constrained exactly as in
    invariant_bound: blocks tile the class space shape by shape, and
    nesting makes per-shape counts weakly decreasing.  Chains come in
    ascending block-size signature, so the first hits have minimal first
    block.  Rectangular chains, when arithmetically feasible, are included.
    """
    return _run(spec, _chain_blocks(spec, lambda t, avail: avail))
