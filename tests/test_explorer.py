import pytest

from lefkit import explorer
from lefkit.explorer import SearchSpec, search_minimal, search_rectangular
from lefkit.lattice import Box, orbit_set
from lefkit.lefschetz import build_E, check_exceptional, is_exceptional, ranks, x32_minimal
from lefkit.saturation import verify_fullness


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
        sig = lambda c: tuple(b.reps() for b in c.blocks)
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
    sig = lambda c: tuple(b.reps() for b in c.blocks)
    assert [sig(c) for c in reference.found] == [sig(c) for c in reused.found]
    assert [sig(c) for c in reference.inconclusive] == [sig(c) for c in reused.inconclusive]
    assert reference.found == reused.found
