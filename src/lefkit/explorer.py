"""Enumerative search for S_k-stable Lefschetz collections, certified by closure.

Candidates are assembled from whole orbits (reps normalised to last
coordinate zero), filtered by exact K-theoretic necessities, then checked:
exceptionality first, then fullness by window closure.  Hits are certified
collections; candidates whose closure is inconclusive at the working margin
are reported separately rather than dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .lattice import Box, orbit_of, orbit_set
from .lefschetz import LefschetzCollection, is_exceptional, ranks
from .reptheory import content_orbit_count, partitions_of, perm_module_dim
from .saturation import FULL, INCONCLUSIVE, verify_fullness

TARGET_RECTANGULAR = "rectangular"
TARGET_MINIMAL = "minimal"


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
    lo = max(box.lo, 0)
    by_shape = {}
    for rep in itertools.product(range(box.hi, lo - 1, -1), repeat=spec.k):
        if rep[-1] != 0:
            continue
        if any(rep[i] < rep[i + 1] for i in range(spec.k - 1)):
            continue
        o = orbit_of(rep)
        by_shape.setdefault(o.stabilizer_shape, []).append(o)
    for orbits in by_shape.values():
        orbits.sort(key=lambda o: o.rep)
    return by_shape


def _evaluate(candidates, spec: SearchSpec):
    """Check candidates in order: exceptionality first, closure only on survivors."""
    found, inconclusive = [], []
    for coll in candidates:
        if not is_exceptional(coll):
            continue
        status = verify_fullness(coll, margin=spec.margin).status
        if status == FULL:
            found.append(coll)
        elif status == INCONCLUSIVE:
            inconclusive.append(coll)
    return found, inconclusive


def search_rectangular(spec: SearchSpec) -> SearchResult:
    """All certified rectangular collections (n+1 equal blocks) in the pool.

    With pruning on, the block's orbit-type vector is forced exactly: the
    h-fold repeat of the block must tile the class space (C^h)^(x k), so
    each shape's orbit count must be content_orbit_count/h.  Non-integral
    quota means no rectangular collection exists over any pool (sound
    pruning, not heuristic).  With pruning off, every S_k-stable subset
    with (n+1)^(k-1) bundles is tried.
    """
    if spec.target != TARGET_RECTANGULAR:
        raise ValueError("spec.target must be 'rectangular'")
    h = spec.n + 1
    by_shape = _pool_by_shape(spec)
    block_size = h ** (spec.k - 1)

    if spec.prune:
        quotas = []
        for lam in partitions_of(spec.k):
            t = content_orbit_count(h, lam)
            q, r = divmod(t, h)
            if r != 0:
                return SearchResult(found=[], exhausted=True, nodes_visited=0)
            if q:
                quotas.append((lam, q))
        choices = [
            list(itertools.combinations(by_shape.get(lam, []), q))
            for lam, q in quotas
        ]
        rep_sets = (
            tuple(o.rep for group in picks for o in group)
            for picks in itertools.product(*choices)
        )
    else:
        orbits = sorted(
            (o for group in by_shape.values() for o in group), key=lambda o: o.rep
        )

        def subsets(i, remaining):
            if remaining == 0:
                yield ()
                return
            if i == len(orbits):
                return
            if orbits[i].size <= remaining:
                for rest in subsets(i + 1, remaining - orbits[i].size):
                    yield (orbits[i].rep,) + rest
            yield from subsets(i + 1, remaining)

        rep_sets = subsets(0, block_size)

    candidates = []
    truncated = False
    for reps in rep_sets:
        if len(candidates) >= spec.budget:
            truncated = True
            break
        block = orbit_set(spec.k, reps)
        if block.bundle_count != block_size:
            continue
        candidates.append(
            LefschetzCollection(k=spec.k, n=spec.n, blocks=(block,) * h)
        )
    found, inconclusive = _evaluate(candidates, spec)
    return SearchResult(
        found=found,
        exhausted=not truncated,
        nodes_visited=len(candidates),
        inconclusive=inconclusive,
    )


def _decreasing_compositions(total, parts, cap):
    """Weakly decreasing tuples of `parts` nonnegative ints summing to total, head <= cap."""

    def rec(remaining, slots, bound):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        lo = -(-remaining // slots)  # head of a decreasing tuple is at least the mean
        for head in range(min(bound, remaining), lo - 1, -1):
            for rest in rec(remaining - head, slots - 1, head):
                yield (head,) + rest

    yield from rec(total, parts, cap)


def search_minimal(spec: SearchSpec) -> SearchResult:
    """Certified length-(n+1) chains, smallest first blocks first.

    The orbit-type vector of each block is constrained exactly as in
    invariant_bound: blocks tile the class space shape by shape, and
    nesting makes per-shape counts weakly decreasing.  Type chains are
    enumerated by ascending block-size signature (r_0, r_1, ...), so the
    first hits have minimal first block; concrete orbit choices are nested
    top-down in lex order.  Rectangular chains, when arithmetically
    feasible, are included.
    """
    if spec.target != TARGET_MINIMAL:
        raise ValueError("spec.target must be 'minimal'")
    h = spec.n + 1
    by_shape = _pool_by_shape(spec)
    shapes = [lam for lam in partitions_of(spec.k)]

    per_shape_chains = []
    for lam in shapes:
        t = content_orbit_count(h, lam)
        avail = len(by_shape.get(lam, []))
        chains = list(_decreasing_compositions(t, h, cap=avail))
        if not chains:
            # the pool cannot host this shape's share; nothing to enumerate
            return SearchResult(found=[], exhausted=True, nodes_visited=0)
        per_shape_chains.append(chains)

    def signature(chain_combo):
        return tuple(
            sum(chain[i] * perm_module_dim(lam) for lam, chain in zip(shapes, chain_combo))
            for i in range(h)
        )

    combos = sorted(itertools.product(*per_shape_chains), key=signature)

    def nested_choices(lam, chain):
        """Nested tuples of orbit sets for one shape, sizes given by chain."""
        pool = by_shape.get(lam, [])

        def rec(level, parent):
            if level == h:
                yield ()
                return
            want = chain[level]
            source = pool if level == 0 else parent
            for picked in itertools.combinations(source, want):
                for rest in rec(level + 1, list(picked)):
                    yield (picked,) + rest

        yield from rec(0, pool)

    candidates = []
    truncated = False
    for combo in combos:
        if truncated:
            break
        for assembled in itertools.product(
            *(nested_choices(lam, chain) for lam, chain in zip(shapes, combo))
        ):
            if len(candidates) >= spec.budget:
                truncated = True
                break
            blocks = tuple(
                orbit_set(
                    spec.k,
                    [o.rep for per_shape in assembled for o in per_shape[level]],
                )
                for level in range(h)
            )
            candidates.append(LefschetzCollection(k=spec.k, n=spec.n, blocks=blocks))
    found, inconclusive = _evaluate(candidates, spec)
    found.sort(key=lambda c: (ranks(c)[0], sum(ranks(c))))
    return SearchResult(
        found=found,
        exhausted=not truncated,
        nodes_visited=len(candidates),
        inconclusive=inconclusive,
    )
