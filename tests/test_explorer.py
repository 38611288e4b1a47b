import functools
import graphlib
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from lefkit import explorer, lefschetz
from lefkit.cli import main
from lefkit.ext import is_orthogonal_pair
from lefkit.explorer import SearchResult, SearchSpec, search_minimal, search_rectangular
from lefkit.lattice import OrbitSet, orbit_of, orbit_set
from lefkit.lefschetz import (
    LefschetzCollection,
    build_E,
    check_exceptional,
    flatten_bundles,
    is_exceptional,
    ranks,
    x32_minimal,
)
from lefkit.reptheory import (
    content_orbit_count,
    decreasing_tuples,
    partitions_of,
    perm_module_dim,
)
from lefkit.saturation import FULL, INCONCLUSIVE, verify_fullness


def sig(coll):
    return tuple(b.reps() for b in coll.blocks)


def spy_on_verdicts(monkeypatch, reference):
    """Check the table's verdict on every search candidate against reference(coll).

    Each candidate's collection is built from its pool indices; the verdicts
    are returned in candidate order.
    """
    verdict, outcomes = explorer._ExtTable.exceptional, []

    def compared(table, last):
        fast = verdict(table, last)
        coll = table.collection(last)
        assert fast == reference(coll), sig(coll)
        outcomes.append(fast)
        return fast

    monkeypatch.setattr(explorer._ExtTable, "exceptional", compared)
    return outcomes


def pool_by_shape(spec):
    """The search pool's orbits grouped by stabilizer shape, each group in pool order."""
    by_shape = {}
    for o in explorer._pool(spec):
        by_shape.setdefault(o.stabilizer_shape, []).append(o)
    return by_shape


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(k=0, n=1)
    with pytest.raises(ValueError):
        SearchSpec(k=2, n=1, budget=0)
    with pytest.raises(ValueError, match="pool_hi must be nonnegative"):
        SearchSpec(k=2, n=1, pool_hi=-1)


def test_rectangular_single_factor():
    result = search_rectangular(SearchSpec(k=1, n=1))
    assert result.exhausted
    assert len(result.found) == 1
    coll = result.found[0]
    assert [b.reps() for b in coll.blocks] == [((0,),), ((0,),)]
    assert verify_fullness(coll).status == "FULL"


def test_rectangular_32_prunes_everything():
    result = search_rectangular(SearchSpec(k=3, n=2))
    assert result.exhausted
    assert result.found == []
    assert result.nodes_visited == 0


def test_rectangular_32_unpruned_finds_nothing_either():
    # pruning safety: the unpruned search over the same pool also has no hits
    result = search_rectangular(SearchSpec(k=3, n=2, pool_hi=2), prune=False)
    assert result.exhausted
    assert result.found == []
    assert result.nodes_visited > 0  # it did consider candidates


def test_rectangular_pruning_safety_tiny():
    for k, n in [(2, 1), (2, 2), (1, 1), (1, 2)]:
        pruned = search_rectangular(SearchSpec(k=k, n=n))
        unpruned = search_rectangular(SearchSpec(k=k, n=n), prune=False)
        assert pruned.exhausted and unpruned.exhausted
        assert {sig(c) for c in pruned.found} == {sig(c) for c in unpruned.found}, (k, n)


def test_rectangular_33_rediscovers_slope_block():
    result = search_rectangular(SearchSpec(k=3, n=3, pool_hi=3))
    assert result.exhausted
    e33 = build_E(3, 3).reps()
    assert any(c.blocks[0].reps() == e33 for c in result.found)
    for coll in result.found:
        assert ranks(coll) == (16, 16, 16, 16)


def test_minimal_two_lines():
    result = search_minimal(SearchSpec(k=2, n=1))
    assert result.exhausted
    assert len(result.found) == 1
    coll = result.found[0]
    assert ranks(coll) == (3, 1)
    assert coll.blocks[0].reps() == ((0, 0), (1, 0))
    assert coll.blocks[1].reps() == ((0, 0),)


def test_minimal_32_certifies_13_7_7():
    result = search_minimal(SearchSpec(k=3, n=2))
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
    result = search_minimal(SearchSpec(k=3, n=2, budget=10))
    assert not result.exhausted
    assert result.nodes_visited == 10
    result = search_rectangular(SearchSpec(k=3, n=3, budget=3))
    assert not result.exhausted
    assert result.nodes_visited == 3
    # a budget that exactly covers the space still exhausts it
    full = search_rectangular(SearchSpec(k=5, n=1)).nodes_visited
    at_budget = search_rectangular(SearchSpec(k=5, n=1, budget=full))
    assert at_budget.exhausted and at_budget.nodes_visited == full
    short = search_rectangular(SearchSpec(k=5, n=1, budget=full - 1))
    assert not short.exhausted and short.nodes_visited == full - 1


def test_is_exceptional_agrees_with_check_exceptional_on_search_candidates(monkeypatch):
    def reference(coll):
        oracle = is_exceptional(coll)
        assert oracle == (check_exceptional(coll) == []), sig(coll)
        return oracle

    outcomes = spy_on_verdicts(monkeypatch, reference)
    visited = 0
    for k, n, hi in [(3, 1, 3), (2, 4, 5), (3, 2, 4)]:
        visited += search_rectangular(SearchSpec(k=k, n=n, pool_hi=hi), prune=False).nodes_visited
    visited += search_minimal(SearchSpec(k=3, n=2)).nodes_visited
    assert len(outcomes) == visited
    assert any(outcomes) and not all(outcomes)


search_unpruned = functools.partial(search_rectangular, prune=False)


@pytest.mark.parametrize(
    "search,spec",
    [
        (search_minimal, SearchSpec(k=3, n=2)),
        (search_minimal, SearchSpec(k=2, n=3)),
        (search_unpruned, SearchSpec(k=3, n=1)),
    ],
    ids=["minimal-3-2", "minimal-2-3", "rectangular-3-1-unpruned"],
)
def test_blocks_from_pool_orbits_match_rebuilt_blocks(monkeypatch, search, spec):
    # blocks built from the pool's Orbit objects equal blocks rebuilt from
    # their reps with orbit_set, so hits, node counts and hit order agree;
    # blocks are built for the exceptional candidates only
    reused = search(spec)
    from_pool = explorer.OrbitSet
    built = []

    def rebuilt(*, k, orbits):
        block = orbit_set(k, [o.rep for o in orbits])
        assert block == from_pool(k=k, orbits=orbits)
        built.append(block)
        return block

    monkeypatch.setattr(explorer, "OrbitSet", rebuilt)
    reference = search(spec)
    assert built
    assert reference.nodes_visited == reused.nodes_visited > 0
    assert reference.exhausted == reused.exhausted
    assert [sig(c) for c in reference.found] == [sig(c) for c in reused.found]
    assert [sig(c) for c in reference.inconclusive] == [sig(c) for c in reused.inconclusive]
    assert reference.found == reused.found


def filtered_product_pool(spec, lo=0):
    """The search pool as a filtered product of [lo, hi]^k: the reference for explorer._pool.

    Any lo <= 0 gives the same pool: reps outside [0, hi]^k are filtered out.
    """
    hi = spec.n + 1 if spec.pool_hi is None else spec.pool_hi
    by_shape = {}
    for rep in itertools.product(range(hi, lo - 1, -1), repeat=spec.k):
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
    "k,n,pool_hi,budget",
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
        (3, 3, 5, 10 ** 6),
        (3, 3, None, 100),
    ],
)
def test_rectangular_chain_matches_quota_reference(k, n, pool_hi, budget):
    spec = SearchSpec(k=k, n=n, pool_hi=pool_hi, budget=budget)
    streamed, reference = search_rectangular(spec), quota_rectangular(spec)
    assert streamed.nodes_visited == reference.nodes_visited
    assert streamed.exhausted == reference.exhausted
    assert [sig(c) for c in streamed.found] == [sig(c) for c in reference.found]
    assert [sig(c) for c in streamed.inconclusive] == [sig(c) for c in reference.inconclusive]


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("lo,hi", [(-2, 0), (-2, 3), (0, 0), (0, 2), (0, 5)])
def test_pool_matches_filtered_product(k, lo, hi):
    spec = SearchSpec(k=k, n=1, pool_hi=hi)
    assert pool_by_shape(spec) == filtered_product_pool(spec, lo)
    # pool indices follow ascending reps
    pool = explorer._pool(spec)
    assert list(pool) == sorted(pool, key=lambda o: o.rep)


@pytest.mark.parametrize(
    "search,spec",
    [
        (search_minimal, SearchSpec(k=3, n=2, budget=50)),
        (search_rectangular, SearchSpec(k=3, n=3)),
        (search_unpruned, SearchSpec(k=3, n=2)),
    ],
    ids=["minimal-3-2", "rectangular-3-3", "rectangular-3-2-unpruned"],
)
def test_each_candidate_is_checked_before_the_next_is_built(monkeypatch, search, spec):
    # g: a candidate drawn from the walk, c / C: the table rejects / passes it,
    # b: a block built (for passed candidates only)
    events = []
    walk, verdict, build = explorer._depth_first, explorer._ExtTable.exceptional, explorer.OrbitSet

    def logged_walk(extend):
        for path in walk(extend):
            events.append("g")
            yield path

    def logged_verdict(table, last):
        passed = verdict(table, last)
        events.append("C" if passed else "c")
        return passed

    def logged_block(**fields):
        events.append("b")
        return build(**fields)

    monkeypatch.setattr(explorer, "_depth_first", logged_walk)
    monkeypatch.setattr(explorer._ExtTable, "exceptional", logged_verdict)
    monkeypatch.setattr(explorer, "OrbitSet", logged_block)
    result = search(spec)
    log = "".join(events)
    assert log.count("c") + log.count("C") == result.nodes_visited > 0
    # each candidate is decided before the next is drawn, and only a passed one
    # has blocks; a truncated search draws one candidate past the last verdict
    assert re.fullmatch(r"(gc|gCb+)+" + ("" if result.exhausted else "g"), log), log[:80]


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
    checked = spy_on_verdicts(monkeypatch, order_free_exceptional)
    visited = search_minimal(SearchSpec(k=k, n=n)).nodes_visited
    for prune in (True, False):
        visited += search_rectangular(SearchSpec(k=k, n=n), prune=prune).nodes_visited
    assert len(checked) == visited > 0


@given(
    lists=st.lists(
        st.lists(st.tuples(*[st.integers(0, 2)] * 2), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=3,
    ),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_by_signature_matches_stable_sort_of_the_descending_product(lists, data):
    # small weights make many signatures tie; the heap must break them as the sort does
    weights = [data.draw(st.integers(1, 3)) for _ in lists]

    def signature(combo):
        return tuple(sum(w * c[i] for w, c in zip(weights, combo)) for i in range(2))

    ascending = [sorted(items) for items in lists]
    expected = sorted(itertools.product(*(a[::-1] for a in ascending)), key=signature)
    assert list(explorer._by_signature([iter(a) for a in ascending], signature)) == expected


def nested_product_blocks(spec, head_cap):
    """Chain blocks from per-shape nested choices joined by itertools.product.

    The reference for the depth-first slot walk of _chain_blocks: each shape's
    nested orbit choices are built in full, then combined shape by shape.
    """
    h = spec.n + 1
    by_shape = pool_by_shape(spec)
    shapes = partitions_of(spec.k)
    totals = [content_orbit_count(h, lam) for lam in shapes]
    caps = [head_cap(t, len(by_shape.get(lam, []))) for lam, t in zip(shapes, totals)]
    per_shape_chains = [
        sorted(decreasing_tuples(t, h, cap), reverse=True) for t, cap in zip(totals, caps)
    ]

    def signature(chain_combo):
        return tuple(
            sum(chain[i] * perm_module_dim(lam) for lam, chain in zip(shapes, chain_combo))
            for i in range(h)
        )

    def nested_choices(lam, chain):
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
                OrbitSet(k=spec.k, orbits=tuple(sorted(
                    (o for per_shape in assembled for o in per_shape[level]), key=lambda o: o.rep
                )))
                for level in range(h)
            )


def recursive_subset_blocks(spec):
    """Unpruned rectangular blocks from include-first recursion over the sorted pool."""
    orbits = sorted(
        (o for group in pool_by_shape(spec).values() for o in group), key=lambda o: o.rep
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

    h = spec.n + 1
    for picked in subsets(0, h ** (spec.k - 1)):
        yield (OrbitSet(k=spec.k, orbits=picked),) * h


def search_case(target, spec, prune=True):
    """A (target, spec, prune) parameter, named target-k-n[-unpruned][-hiH]."""
    name = f"{target}-{spec.k}-{spec.n}" + ("" if prune else "-unpruned")
    name += "" if spec.pool_hi is None else f"-hi{spec.pool_hi}"
    return pytest.param(target, spec, prune, id=name)


@pytest.mark.parametrize(
    "target,spec,prune",
    [search_case("minimal", SearchSpec(k=k, n=n))
     for k, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]]
    + [search_case("minimal", SearchSpec(k=3, n=2, pool_hi=4))]
    + [search_case("rectangular", SearchSpec(k=k, n=n))
       for k, n in [(2, 2), (3, 3), (5, 1), (7, 1)]]
    + [search_case("rectangular", SearchSpec(k=k, n=n), prune=False)
       for k, n in [(2, 1), (2, 2), (3, 1), (3, 2)]]
    + [search_case("rectangular", SearchSpec(k=2, n=3, pool_hi=9), prune=False)],
)
def test_depth_first_candidates_match_reference_generators(monkeypatch, target, spec, prune):
    # every candidate in the same order, not only the hits
    walked = []
    spy_on_verdicts(monkeypatch, lambda coll: walked.append(coll.blocks) or is_exceptional(coll))
    if target == "minimal":
        result = search_minimal(spec)
        reference = nested_product_blocks(spec, lambda t, avail: avail)
    elif prune:
        result = search_rectangular(spec)
        reference = nested_product_blocks(spec, lambda t, avail: t // (spec.n + 1))
    else:
        result = search_rectangular(spec, prune=False)
        reference = recursive_subset_blocks(spec)
    assert len(walked) == result.nodes_visited > 0
    assert walked == list(reference)


class CountingItertools:
    """itertools, counting the orbit choices drawn from combinations."""

    def __init__(self):
        self.drawn = 0

    def __getattr__(self, name):
        return getattr(itertools, name)

    def combinations(self, pool, r):
        for choice in itertools.combinations(pool, r):
            self.drawn += 1
            yield choice


def test_search_candidates_are_decided_without_flattening(monkeypatch, capsys):
    # nested candidates are decided on B_0's reps; flattening the 201 blocks of each
    # unpruned (P^200)^2 candidate into 40,401 bundles is what once outlasted --budget
    def refuse(coll):
        raise AssertionError("a search candidate was flattened")

    monkeypatch.setattr(lefschetz, "flatten_bundles", refuse)
    argv = ["search", "--k", "2", "--n", "200", "--target", "rectangular", "--no-prune"]
    assert main([*argv, "--budget", "3"]) == 3
    assert "nodes: 3, exhausted: no" in capsys.readouterr().out
    outcomes = spy_on_verdicts(monkeypatch, is_exceptional)
    result = search_minimal(SearchSpec(k=3, n=2))
    assert result.exhausted and len(outcomes) == result.nodes_visited
    assert any(outcomes) and not all(outcomes)


def test_budget_bounds_the_orbit_choices_drawn(monkeypatch):
    # the first candidate takes one choice per (shape, level) slot, 2 x 17 of them,
    # and the exhaustion probe 17 more; building every nested choice first took 413,287
    counting = CountingItertools()
    monkeypatch.setattr(explorer, "itertools", counting)
    result = search_rectangular(SearchSpec(k=2, n=16, budget=1))
    assert (result.nodes_visited, result.exhausted, len(result.found)) == (1, False, 1)
    assert counting.drawn <= 51


@given(k=st.integers(1, 3), n=st.integers(1, 3), hi=st.integers(0, 4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_verdict_matches_is_exceptional_on_random_nested_candidates(k, n, hi, data):
    # first blocks of any orbits of the pool, not only those the searches draw
    table = explorer._ExtTable(SearchSpec(k=k, n=n, pool_hi=hi))
    index = st.integers(0, len(table.orbits) - 1)
    first = data.draw(st.lists(index, min_size=1, max_size=8, unique=True))
    last = {p: data.draw(st.integers(0, n)) for p in first}
    coll = table.collection(last)
    assert table.exceptional(last) == is_exceptional(coll) == (check_exceptional(coll) == [])


def test_oversized_twist_tables_refused_before_drawing_reps(monkeypatch, capsys):
    # 2,049 orbits of k = 2 would need a table of 2049^2 cells
    def boom(k, hi):
        raise AssertionError("pool reps drawn before the size check")

    monkeypatch.setattr(explorer, "normalised_reps", boom)
    argv = ["search", "--k", "2", "--n", "2047", "--target", "rectangular", "--no-prune"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: twist table of 2049 x 2049 cells is more than the limit of 4194304\n"
    )
