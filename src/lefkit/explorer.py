"""Enumerative search for S_k-stable Lefschetz collections, certified by closure.

Candidates are assembled from whole orbits of one pool (reps normalised to
last coordinate zero), filtered by exact K-theoretic necessities, and drawn
lazily from one depth-first walk that picks pool orbit indices slot by slot.
A nested candidate is its first block B_0 with the last block of each of its
orbits.  It is decided as it is generated, on those indices alone, against
one orbit-pair Ext table built per search (_ExtTable); only the exceptional
survivors become OrbitSet blocks and a LefschetzCollection, whose fullness is
then decided by window closure.  No candidate list is kept.  Hits are
certified collections; candidates whose closure is inconclusive at the
working margin are reported separately rather than dropped (the CLI then
exits 3).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import comb

from .ext import _refuse_twist_table, first_failing_twists
from .lattice import Orbit, OrbitSet, normalised_reps, orbit_set
from .lefschetz import LefschetzCollection
from .reptheory import content_orbit_count, decreasing_tuples, partitions_of, perm_module_dim
from .saturation import FULL, INCONCLUSIVE, _margin, verify_fullness


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


def _pool(spec: SearchSpec) -> tuple[Orbit, ...]:
    """Candidate orbits (rep sorted decreasing, last coordinate 0), in ascending rep order.

    Their positions are the pool indices that candidates are made of.  The
    pool is counted before any rep is drawn: its orbits partition the points
    of [0, hi]^k with a zero coordinate, one per weakly decreasing (k-1)-tuple
    of [0, hi].  Too large a twist table is refused; no form of the table
    lists the pool's bundles, so their number is not bounded.
    """
    hi = spec.n + 1 if spec.pool_hi is None else spec.pool_hi
    m = comb(hi + spec.k - 1, spec.k - 1)
    _refuse_twist_table(m, m)
    return orbit_set(spec.k, normalised_reps(spec.k, hi)).orbits


class _ExtTable:
    """Exceptionality of nested candidates over one pool, decided on pool indices.

    A candidate is a dict last: P -> t over the orbits P of its first block
    B_0, t being the last block that holds P (nesting makes the blocks
    holding P exactly 0..t).  Built once per search, over the m pool orbits:
    first_bad[P][Q] is the least twist t at which rep P + t*1 is not
    orthogonal to some bundle of Q, t = 0 counting only against the
    bundles listed before rep P: all of each Q < P, and the rest of P,
    where it fails exactly when P spans more than n.  It is
    ext.first_failing_twists, the table behind is_exceptional, with one
    group per pool orbit instead of one for all of B_0: a candidate is
    exceptional iff every P and Q of B_0 have first_bad[P][Q] > last[P].
    The checks fold into one clash bitmask over pool indices per (P, t),
    memoised, which a candidate ANDs with the bitmask of B_0.
    """

    def __init__(self, spec: SearchSpec):
        self.k, self.n, self.orbits = spec.k, spec.n, _pool(spec)
        self.first_bad = first_failing_twists(spec.n, self.orbits, range(len(self.orbits) + 1))
        self._clash = {}

    def _clash_mask(self, p: int, t: int) -> int:
        """Pool orbits that B_0 must avoid when it holds p up to block t, as bits of an int."""
        return int("".join("1" if v <= t else "0" for v in reversed(self.first_bad[p])), 2)

    def exceptional(self, last: dict[int, int]) -> bool:
        """is_exceptional of the candidate, from the table alone."""
        first = 0
        for p in last:
            first |= 1 << p
        clash = self._clash
        for key in last.items():
            mask = clash.get(key)
            if mask is None:
                mask = clash[key] = self._clash_mask(*key)
            if mask & first:
                return False
        return True

    def collection(self, last: dict[int, int]) -> LefschetzCollection:
        """The candidate's collection: block t holds the orbits whose last block is t or later."""
        first = [p for p in range(len(self.orbits)) if p in last]
        # distinct pool orbits in pool (so ascending rep) order, reused
        blocks = tuple(
            OrbitSet(k=self.k, orbits=tuple(self.orbits[p] for p in first if last[p] >= t))
            for t in range(self.n + 1)
        )
        return LefschetzCollection(k=self.k, n=self.n, blocks=blocks)


def _run(spec: SearchSpec, table: _ExtTable, candidates) -> SearchResult:
    """Check up to spec.budget candidates from a generator as they are produced.

    Exceptionality first, on the table; blocks, a collection and a closure
    only for survivors.  The search is exhausted unless one more candidate
    exists past the budget.
    """
    found, inconclusive, nodes = [], [], 0
    for last in itertools.islice(candidates, spec.budget):
        nodes += 1
        if not table.exceptional(last):
            continue
        coll = table.collection(last)
        status = verify_fullness(coll, margin=spec.margin).status
        if status == FULL:
            found.append(coll)
        elif status == INCONCLUSIVE:
            inconclusive.append(coll)
    exhausted = next(candidates, None) is None
    return SearchResult(found, exhausted, nodes, inconclusive)


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


def _by_signature(per_shape, signature):
    """The product of the per_shape iterators, by ascending signature, drawn lazily.

    signature must rise strictly along each iterator, whatever the other
    factors hold: lex order is kept by translation and positive scaling, so
    a weighted sum of ascending chains does.  A best-first heap over index
    tuples then gives the order of a stable sort of the product (the sorted
    X+Y merge of Frederickson and Johnson): keyed by (signature, negated
    index tuple), ties go in the product order of the reversed iterators.
    A popped tuple pushes its successors only in the factors at or after
    the last one raised, so each tuple is pushed once, and an item is drawn
    from its iterator only when a pushed tuple first reaches it.
    """
    drawn = [[] for _ in per_shape]
    heap = []

    def push(index, last):
        for j, i in enumerate(index):
            if i == len(drawn[j]):
                item = next(per_shape[j], None)
                if item is None:
                    return
                drawn[j].append(item)
        combo = tuple(items[i] for items, i in zip(drawn, index))
        heapq.heappush(heap, (signature(combo), tuple(-i for i in index), last, combo))

    push((0,) * len(per_shape), 0)
    while heap:
        _, negated, last, combo = heapq.heappop(heap)
        yield combo
        index = [-i for i in negated]
        for j in range(last, len(index)):
            index[j] += 1
            push(tuple(index), j)
            index[j] -= 1


def _chain_candidates(spec: SearchSpec, orbits, head_cap):
    """Candidates whose per-shape orbit counts follow decreasing chains.

    Each stabilizer shape's chains are the tuples of h orbit counts, one per block,
    weakly decreasing so that the blocks nest and summing to t, the shape's orbit
    count in the class space (C^h)^(x k).  head_cap(t, avail) caps the first count;
    avail is the shape's orbit count in the pool.  A shape with no chain admits no
    candidate.  Chain combinations are drawn lazily by ascending block-size signature
    (r_0, r_1, ...), so --budget alone bounds the search.  Each is walked over
    (shape, level) slots, shape-major: a slot picks its count of pool indices, in lex
    order, from the shape's pool at level 0, else from the slot before.  Block i is
    the union of the picks in path[i::h], so an orbit's last block is the level of
    the last slot that picks it.
    """
    h = spec.n + 1
    by_shape = {}
    for i, o in enumerate(orbits):
        by_shape.setdefault(o.stabilizer_shape, []).append(i)
    shapes = partitions_of(spec.k)
    pools = [by_shape.get(lam, []) for lam in shapes]
    totals = [content_orbit_count(h, lam) for lam in shapes]
    caps = [head_cap(t, len(pool)) for pool, t in zip(pools, totals)]
    per_shape = [decreasing_tuples(t, h, cap) for t, cap in zip(totals, caps)]
    weights = [perm_module_dim(lam) for lam in shapes]

    def signature(combo):
        return tuple(sum(chain[i] * w for w, chain in zip(weights, combo)) for i in range(h))

    for combo in _by_signature(per_shape, signature):
        counts = [count for chain in combo for count in chain]

        def extend(path):
            i = len(path)
            if i < len(counts):
                return itertools.combinations(path[-1] if i % h else pools[i // h], counts[i])

        for path in _depth_first(extend):
            yield {p: i % h for i, picked in enumerate(path) for p in picked}


def search_rectangular(spec: SearchSpec, prune: bool = True) -> SearchResult:
    """All certified rectangular collections (n+1 equal blocks) in the pool.

    With prune (the default), the block's orbit-type vector is forced
    exactly: the h-fold repeat of the block must tile the class space
    (C^h)^(x k), so each shape's chain is constant: a decreasing chain whose
    head is at most its mean t // h.  When h does not divide t there is
    none, and no rectangular collection exists over any pool (sound pruning,
    not heuristic).  With prune=False, every S_k-stable subset with
    (n+1)^(k-1) bundles is tried, taking rising pool indices that fit; the
    switch lets tests compare pruned and unpruned runs.
    """
    h = spec.n + 1
    table = _ExtTable(spec)
    orbits = table.orbits
    if prune:
        return _run(spec, table, _chain_candidates(spec, orbits, lambda t, avail: t // h))

    def extend(path):
        left = h ** (spec.k - 1) - sum(orbits[j].size for j in path)
        if left:
            start = path[-1] + 1 if path else 0
            return (j for j in range(start, len(orbits)) if orbits[j].size <= left)

    return _run(spec, table, (dict.fromkeys(path, spec.n) for path in _depth_first(extend)))


def search_minimal(spec: SearchSpec) -> SearchResult:
    """Certified length-(n+1) chains, smallest first blocks first.

    The orbit-type vector of each block is constrained exactly as in
    invariant_bound: blocks tile the class space shape by shape, and
    nesting makes per-shape counts weakly decreasing.  Chains come in
    ascending block-size signature, so the first hits have minimal first
    block.  Rectangular chains, when arithmetically feasible, are included.
    """
    table = _ExtTable(spec)
    return _run(spec, table, _chain_candidates(spec, table.orbits, lambda t, avail: avail))
