import graphlib
import itertools
import re

import pytest

from lefkit import explorer
from lefkit.ext import is_orthogonal_pair
from lefkit.explorer import SearchResult, SearchSpec, search_minimal, search_rectangular
from lefkit.lattice import Box, orbit_of, orbit_set
from lefkit.lefschetz import (
    LefschetzCollection,
    build_E,
    check_exceptional,
    flatten_bundles,
    is_exceptional,
    ranks,
    x32_minimal,
)
from lefkit.reptheory import content_orbit_count, count_partitions, decreasing_tuples, partitions_of
from lefkit.saturation import FULL, INCONCLUSIVE, verify_fullness


def sig(coll):
    return tuple(b.reps() for b in coll.blocks)


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(k=0, n=1, target="rectangular")
    with pytest.raises(ValueError):
        SearchSpec(k=2, n=1, target="nonsense")
    with pytest.raises(ValueError):
        SearchSpec(k=2, n=1, target="minimal", budget=0)
    with pytest.raises(ValueError):
        search_rectangular(SearchSpec(k=2, n=1, target="minimal"))
    with pytest.raises(ValueError):
        search_minimal(SearchSpec(k=2, n=1, target="rectangular"))


def test_rectangular_single_factor():
    result = search_rectangular(SearchSpec(k=1, n=1, target="rectangular"))
    assert result.exhausted
    assert len(result.found) == 1
    coll = result.found[0]
    assert [b.reps() for b in coll.blocks] == [((0,),), ((0,),)]
    assert verify_fullness(coll).status == "FULL"


def test_rectangular_32_prunes_everything():
    result = search_rectangular(SearchSpec(k=3, n=2, target="rectangular"))
    assert result.exhausted
    assert result.found == []
    assert result.nodes_visited == 0


def test_rectangular_32_unpruned_finds_nothing_either():
    # pruning safety: the unpruned search over the same pool also has no hits
    spec = SearchSpec(
        k=3, n=2, target="rectangular", pool_box=Box(0, 2, 3), prune=False
    )
    result = search_rectangular(spec)
    assert result.exhausted
    assert result.found == []
    assert result.nodes_visited > 0  # it did consider candidates


def test_rectangular_pruning_safety_tiny():
    for k, n in [(2, 1), (2, 2), (1, 1), (1, 2)]:
        pruned = search_rectangular(SearchSpec(k=k, n=n, target="rectangular"))
        unpruned = search_rectangular(
            SearchSpec(k=k, n=n, target="rectangular", prune=False)
        )
        assert pruned.exhausted and unpruned.exhausted
        assert {sig(c) for c in pruned.found} == {sig(c) for c in unpruned.found}, (k, n)


def test_rectangular_33_rediscovers_slope_block():
    result = search_rectangular(
        SearchSpec(k=3, n=3, target="rectangular", pool_box=Box(0, 3, 3))
    )
    assert result.exhausted
    e33 = build_E(3, 3).reps()
    assert any(c.blocks[0].reps() == e33 for c in result.found)
    for coll in result.found:
        assert ranks(coll) == (16, 16, 16, 16)


def test_minimal_two_lines():
    result = search_minimal(SearchSpec(k=2, n=1, target="minimal"))
    assert result.exhausted
    assert len(result.found) == 1
    coll = result.found[0]
    assert ranks(coll) == (3, 1)
    assert coll.blocks[0].reps() == ((0, 0), (1, 0))
    assert coll.blocks[1].reps() == ((0, 0),)


def test_minimal_32_certifies_13_7_7():
    result = search_minimal(SearchSpec(k=3, n=2, target="minimal"))
    assert result.exhausted
    assert result.found
    first = result.found[0]
    assert ranks(first) == (13, 7, 7)
    # the known minimal collection is among the certified hits
    known = tuple(b.reps() for b in x32_minimal().blocks)
    assert any(tuple(b.reps() for b in c.blocks) == known for c in result.found)
    # hits come back ordered by first-block size
    r0s = [ranks(c)[0] for c in result.found]
    assert r0s == sorted(r0s)


def test_budget_truncates_and_reports():
    result = search_minimal(SearchSpec(k=3, n=2, target="minimal", budget=10))
    assert not result.exhausted
    assert result.nodes_visited == 10
    result = search_rectangular(SearchSpec(k=3, n=3, target="rectangular", budget=3))
    assert not result.exhausted
    assert result.nodes_visited == 3
    # a budget that exactly covers the space still exhausts it
    full = search_rectangular(SearchSpec(k=5, n=1, target="rectangular")).nodes_visited
    at_budget = search_rectangular(SearchSpec(k=5, n=1, target="rectangular", budget=full))
    assert at_budget.exhausted and at_budget.nodes_visited == full
    short = search_rectangular(SearchSpec(k=5, n=1, target="rectangular", budget=full - 1))
    assert not short.exhausted and short.nodes_visited == full - 1


def test_is_exceptional_agrees_with_check_exceptional_on_search_candidates(monkeypatch):
    outcomes = []

    def checked(coll):
        fast = is_exceptional(coll)
        assert fast == (check_exceptional(coll) == []), [b.reps() for b in coll.blocks]
        outcomes.append(fast)
        return fast

    monkeypatch.setattr(explorer, "is_exceptional", checked)
    visited = 0
    for k, n, hi in [(3, 1, 3), (2, 4, 5), (3, 2, 4)]:
        spec = SearchSpec(k=k, n=n, target="rectangular", pool_box=Box(0, hi, k), prune=False)
        visited += search_rectangular(spec).nodes_visited
    visited += search_minimal(SearchSpec(k=3, n=2, target="minimal")).nodes_visited
    assert len(outcomes) == visited
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(k=3, n=2, target="minimal"),
        SearchSpec(k=2, n=3, target="minimal"),
        SearchSpec(k=3, n=2, target="rectangular", prune=False),
    ],
    ids=["minimal-3-2", "minimal-2-3", "rectangular-3-2-unpruned"],
)
def test_blocks_from_pool_orbits_match_rebuilt_blocks(monkeypatch, spec):
    # blocks built from the pool's Orbit objects equal blocks rebuilt from
    # their reps with orbit_set, so hits, node counts and hit order agree
    search = search_minimal if spec.target == "minimal" else search_rectangular
    reused = search(spec)
    from_pool = explorer._block
    built = []

    def rebuilt(k, orbits):
        block = orbit_set(k, [o.rep for o in orbits])
        assert block == from_pool(k, orbits)
        built.append(block)
        return block

    monkeypatch.setattr(explorer, "_block", rebuilt)
    reference = search(spec)
    assert built
    assert reference.nodes_visited == reused.nodes_visited > 0
    assert reference.exhausted == reused.exhausted
    assert [sig(c) for c in reference.found] == [sig(c) for c in reused.found]
    assert [sig(c) for c in reference.inconclusive] == [sig(c) for c in reused.inconclusive]
    assert reference.found == reused.found


def filtered_product_pool(spec):
    """The search pool as a filtered box product: the reference for _pool_by_shape."""
    box = spec.pool_box or Box(lo=0, hi=spec.n + 1, k=spec.k)
    by_shape = {}
    for rep in itertools.product(range(box.hi, max(box.lo, 0) - 1, -1), repeat=spec.k):
        if rep[-1] != 0 or any(rep[i] < rep[i + 1] for i in range(spec.k - 1)):
            continue
        o = orbit_of(rep)
        by_shape.setdefault(o.stabilizer_shape, []).append(o)
    for orbits in by_shape.values():
        orbits.sort(key=lambda o: o.rep)
    return by_shape


def quota_rectangular(spec):
    """Pruned rectangular search by per-shape orbit quotas, checking a full candidate list.

    The generate-then-test reference for the streaming chain enumerator.
    """
    h = spec.n + 1
    by_shape = filtered_product_pool(spec)
    quotas = []
    for lam in partitions_of(spec.k):
        q, r = divmod(content_orbit_count(h, lam), h)
        if r != 0:
            return SearchResult(found=[], exhausted=True, nodes_visited=0)
        if q:
            quotas.append((lam, q))
    choices = [list(itertools.combinations(by_shape.get(lam, []), q)) for lam, q in quotas]
    candidates, truncated = [], False
    for picks in itertools.product(*choices):
        if len(candidates) >= spec.budget:
            truncated = True
            break
        block = orbit_set(spec.k, [o.rep for group in picks for o in group])
        candidates.append(LefschetzCollection(k=spec.k, n=spec.n, blocks=(block,) * h))
    found, inconclusive = [], []
    for coll in candidates:
        if check_exceptional(coll):
            continue
        status = verify_fullness(coll, margin=spec.margin).status
        if status == FULL:
            found.append(coll)
        elif status == INCONCLUSIVE:
            inconclusive.append(coll)
    return SearchResult(found, not truncated, len(candidates), inconclusive)


@pytest.mark.parametrize(
    "k,n,pool_box,budget",
    [
        (1, 1, None, 10 ** 6),
        (1, 2, None, 10 ** 6),
        (2, 1, None, 10 ** 6),
        (2, 2, None, 10 ** 6),
        (2, 3, None, 10 ** 6),
        (3, 1, None, 10 ** 6),
        (3, 2, None, 10 ** 6),
        (3, 3, None, 10 ** 6),
        (4, 1, None, 10 ** 6),
        (5, 1, None, 10 ** 6),
        (7, 1, None, 10 ** 6),
        (3, 3, Box(-1, 5, 3), 10 ** 6),
        (3, 3, None, 100),
    ],
)
def test_rectangular_chain_matches_quota_reference(k, n, pool_box, budget):
    spec = SearchSpec(k=k, n=n, target="rectangular", pool_box=pool_box, budget=budget)
    streamed, reference = search_rectangular(spec), quota_rectangular(spec)
    assert streamed.nodes_visited == reference.nodes_visited
    assert streamed.exhausted == reference.exhausted
    assert [sig(c) for c in streamed.found] == [sig(c) for c in reference.found]
    assert [sig(c) for c in streamed.inconclusive] == [sig(c) for c in reference.inconclusive]


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("lo,hi", [(-2, -1), (-2, 0), (-2, 3), (0, 0), (0, 2), (0, 5), (1, 5)])
def test_pool_matches_filtered_product(k, lo, hi):
    spec = SearchSpec(k=k, n=1, target="minimal", pool_box=Box(lo, hi, k))
    assert explorer._pool_by_shape(spec) == filtered_product_pool(spec)


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(k=3, n=2, target="minimal", budget=50),
        SearchSpec(k=3, n=3, target="rectangular"),
        SearchSpec(k=3, n=2, target="rectangular", prune=False),
    ],
    ids=["minimal-3-2", "rectangular-3-3", "rectangular-3-2-unpruned"],
)
def test_each_candidate_is_checked_before_the_next_is_built(monkeypatch, spec):
    events = []
    build, check = explorer._block, explorer.is_exceptional

    def logged_block(k, orbits):
        events.append("b")
        return build(k, orbits)

    def logged_check(coll):
        events.append("c")
        return check(coll)

    monkeypatch.setattr(explorer, "_block", logged_block)
    monkeypatch.setattr(explorer, "is_exceptional", logged_check)
    search = search_minimal if spec.target == "minimal" else search_rectangular
    result = search(spec)
    log = "".join(events)
    assert log.count("c") == result.nodes_visited > 0
    # blocks of one candidate, its check, then the next candidate's blocks;
    # only a truncated search builds one candidate past the last check
    assert re.fullmatch(r"(b+c)+" + ("" if result.exhausted else "b+"), log), log[:80]


def order_free_exceptional(coll):
    """Distinct bundles, and x -> y whenever Ext*(x, y) != 0 (x != y) has no cycle."""
    bundles = flatten_bundles(coll)
    if len(set(bundles)) != len(bundles):
        return False
    graph = graphlib.TopologicalSorter()
    for x in bundles:
        graph.add(x)
        for y in bundles:
            if x != y and not is_orthogonal_pair(coll.n, x, y):
                graph.add(y, x)
    try:
        graph.prepare()
    except graphlib.CycleError:
        return False
    return True


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_exceptionality_verdict_does_not_depend_on_flatten_order(monkeypatch, k, n):
    # so an exhausted search over these pools rests on no ordering lemma
    checked = []

    def compared(coll):
        verdict = is_exceptional(coll)
        assert verdict == order_free_exceptional(coll), sig(coll)
        checked.append(verdict)
        return verdict

    monkeypatch.setattr(explorer, "is_exceptional", compared)
    visited = search_minimal(SearchSpec(k=k, n=n, target="minimal")).nodes_visited
    for prune in (True, False):
        spec = SearchSpec(k=k, n=n, target="rectangular", prune=prune)
        visited += search_rectangular(spec).nodes_visited
    assert len(checked) == visited > 0


def test_chain_count_is_exact_below_the_limit_and_above_the_partition_bound():
    for t, h, cap in itertools.product(range(14), range(1, 6), range(6)):
        exact = sum(1 for _ in decreasing_tuples(t, h, cap))
        assert explorer._chain_count(t, h, cap) == exact, (t, h, cap)
        if exact:
            # Sylvester: partitions of t in an h x cap box are at least p(min(...))
            assert exact >= count_partitions(min(t, h * cap - t, h, cap)), (t, h, cap)
    assert explorer._chain_count(10 ** 6, 2001, 2001) == explorer.MAX_CHAIN_COMBINATIONS + 1
