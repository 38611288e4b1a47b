import json
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lefkit import ext, lefschetz
from lefkit.ext import ext_graded, is_orthogonal_pair
from lefkit.lattice import Orbit, OrbitSet, canonical_rep, orbit_set, twist
from lefkit.lefschetz import (
    LefschetzCollection,
    Violation,
    adjust,
    build_E,
    build_Ehat,
    check_exceptional,
    check_lefschetz,
    check_theorem_semiorthogonality,
    collection_from_json,
    collection_to_json,
    exceptional_violations,
    ext_violations,
    flatten_bundles,
    is_exceptional,
    is_rectangular,
    ranks,
    x32_minimal,
    x32_rectangular_part,
    x32_residual,
    staircase_rectangular,
    x3n_rectangular,
    xk1,
)
from lefkit.saturation import residual_check


def test_build_E_known_values():
    assert build_E(3, 2).reps() == ((0, 0, 0), (1, 0, 0))
    assert build_E(3, 2).bundle_count == 4
    assert build_E(3, 3).reps() == (
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (2, 0, 0),
        (2, 1, 0),
    )
    assert build_E(3, 3).bundle_count == 16
    assert build_E(1, 5).reps() == ((0,),)
    assert build_E(2, 1).reps() == ((0, 0),)


def test_build_Ehat_known_values():
    assert build_Ehat(3, 2).reps() == (
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (2, 0, 0),
        (2, 1, 0),
    )
    assert build_Ehat(3, 2).bundle_count == 16
    assert build_Ehat(2, 1).reps() == ((0, 0), (1, 0))


def test_build_E_rejects_bad_input():
    with pytest.raises(ValueError):
        build_E(0, 2)
    with pytest.raises(ValueError):
        build_E(3, 0)


def test_E_subset_of_Ehat_with_equality_iff_coprime():
    for k in range(1, 5):
        for n in range(1, 7):
            e = set(build_E(k, n).reps())
            ehat = set(build_Ehat(k, n).reps())
            assert e <= ehat
            assert (e == ehat) == (gcd(n + 1, k) == 1), (k, n)


def test_E_square_count_for_three_factors():
    # |E(3,n)| = (n+1)^2 exactly when 3 does not divide n+1... n+1 coprime to 3
    for n in range(1, 11):
        count = build_E(3, n).bundle_count
        if (n + 1) % 3 != 0:
            assert count == (n + 1) ** 2, n
        else:
            assert count != (n + 1) ** 2, n


def test_Ehat_on_lines_is_majority_zero():
    # for k = 2m, build_Ehat(k,1) is the bundles with at least m zero coordinates
    for k in (2, 4, 6):
        bundles = set(build_Ehat(k, 1).bundles())
        expected = {
            b
            for b in __import__("itertools").product((0, 1), repeat=k)
            if sum(1 for c in b if c == 0) >= k // 2
        }
        assert bundles == expected


def test_adjust():
    base = build_E(3, 2)
    bigger = adjust(base, add=[(1, 1, 0)])
    assert bigger.reps() == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    smaller = adjust(bigger, remove=[(0, 1, 1)])  # any orbit element may name it
    assert smaller.reps() == base.reps()
    with pytest.raises(ValueError, match=r"\(2,0,0\)"):
        adjust(base, remove=[(2, 0, 0)])
    with pytest.raises(ValueError, match=r"\(1,0,0\)"):
        adjust(base, add=[(0, 0, 1)])


def test_x32_minimal_blocks():
    coll = x32_minimal()
    assert coll.k == 3 and coll.n == 2 and coll.d == 2
    assert ranks(coll) == (13, 7, 7)
    assert sum(ranks(coll)) == 27
    assert coll.blocks[0].reps() == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0))
    assert coll.blocks[1].reps() == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert coll.blocks[1] == coll.blocks[2]
    assert not is_rectangular(coll)
    assert check_lefschetz(coll) is None


def test_x32_residual_orbit():
    r = x32_residual()
    assert r.reps() == ((1, 0, -1),)
    assert r.bundle_count == 6


def test_xk1_ranks():
    assert ranks(xk1(2)) == (3, 1)
    assert ranks(xk1(3)) == (4, 4)
    assert ranks(xk1(4)) == (11, 5)
    assert ranks(xk1(5)) == (16, 16)
    assert ranks(xk1(6)) == (42, 22)
    for k in range(2, 8):
        assert sum(ranks(xk1(k))) == 2 ** k


def test_flatten_order():
    coll = LefschetzCollection(
        k=2, n=1, blocks=(orbit_set(2, [(0, 0), (1, 0)]), orbit_set(2, [(0, 0)]))
    )
    assert flatten_bundles(coll) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_collection_validation():
    with pytest.raises(ValueError):
        LefschetzCollection(k=2, n=0, blocks=(orbit_set(2, [(0, 0)]),))
    with pytest.raises(ValueError):
        LefschetzCollection(k=2, n=1, blocks=())
    with pytest.raises(ValueError):
        LefschetzCollection(k=2, n=1, blocks=(orbit_set(3, [(0, 0, 0)]),))


def test_check_lefschetz_nesting_violation():
    coll = LefschetzCollection(
        k=2, n=1, blocks=(orbit_set(2, [(0, 0)]), orbit_set(2, [(1, 0)]))
    )
    v = check_lefschetz(coll)
    assert v is not None
    assert v.kind == "nesting"
    assert v.witness == ((1, 0),)


def test_check_exceptional_passes_on_box_block():
    # a single block inside [0, n]^k is exceptional in flatten order
    coll = LefschetzCollection(
        k=2, n=2, blocks=(orbit_set(2, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]),)
    )
    assert check_exceptional(coll) == []


def test_check_exceptional_reports_ext_violation():
    # O(n+1, 0, ...) maps to O(0,...) through top cohomology
    coll = LefschetzCollection(
        k=2, n=1, blocks=(orbit_set(2, [(0, 0), (2, 0)]),)
    )
    violations = check_exceptional(coll)
    assert violations
    v = violations[0]
    assert v.kind == "ext"
    assert any(v.detail)


def test_check_exceptional_reports_duplicates():
    coll = LefschetzCollection(
        k=2, n=1, blocks=(orbit_set(2, [(1, 1)]), orbit_set(2, [(0, 0)]))
    )
    violations = check_exceptional(coll)
    assert violations
    assert violations[0].kind == "order"
    assert violations[0].witness == ((1, 1), (1, 1))


def test_orbit_sets_out_of_rep_order_are_refused():
    # is_exceptional reads the pairs inside a later block off B_0, which needs
    # every block to list its orbits in B_0's order; this third block, listed
    # ((2,2), (2,1)), puts (4,4) before (3,4) and so breaks exceptionality
    low, high = Orbit((2, 1)), Orbit((2, 2))
    with pytest.raises(ValueError, match="ascending order"):
        OrbitSet(k=2, orbits=(high, low))
    with pytest.raises(ValueError, match="ascending order"):
        OrbitSet(k=2, orbits=(low, low))
    with pytest.raises(ValueError, match="not weakly decreasing"):
        Orbit((1, 2))
    block = OrbitSet(k=2, orbits=(low, high))
    assert block == orbit_set(2, [(2, 2), (1, 2)])
    coll = LefschetzCollection(k=2, n=2, blocks=(block,) * 3)
    assert is_rectangular(coll)
    assert check_exceptional(coll) == [] and is_exceptional(coll)


def _check_exceptional_reference(coll):
    """The scalar pair loop that check_exceptional replaces."""
    flat = flatten_bundles(coll)
    out = []
    for q in range(1, len(flat)):
        for p in range(q):
            later, earlier = flat[q], flat[p]
            if later == earlier:
                out.append(Violation(kind="order", witness=(later, earlier)))
            elif not is_orthogonal_pair(coll.n, later, earlier):
                out.append(
                    Violation(
                        kind="ext",
                        witness=(later, earlier),
                        detail=ext_graded(coll.n, later, earlier),
                    )
                )
    return out


@st.composite
def _nested_blocks(draw, rep):
    """B_0, then each B_t a sub-list of B_{t-1}, possibly empty.

    B_0 also holds some of its reps twisted by 1, so a later block twisted by
    t can meet a bundle of B_0 exactly.
    """
    base = draw(st.lists(rep, min_size=1, max_size=2))
    shifted = draw(st.lists(st.sampled_from(base), max_size=2))
    blocks = [base + [twist(r, 1) for r in shifted]]
    kept = st.integers(0, 3).map(bool)  # three in four, so long chains stay nonempty
    for _ in range(draw(st.integers(1, 4))):
        blocks.append([r for r in blocks[-1] if draw(kept)])
    return blocks


@given(
    k=st.integers(1, 3),
    n=st.integers(1, 3),
    chunk=st.sampled_from([1, 2, 5, ext._CHUNK_ROWS]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_check_exceptional_matches_scalar_reference(k, n, chunk, data):
    # overlapping blocks give duplicates after twisting; reps past n give ext violations;
    # nested draws take is_exceptional's reduction to B_0, independent ones mostly do not
    rep = st.tuples(*[st.integers(-1, n + 2)] * k)
    independent = st.lists(st.lists(rep, min_size=1, max_size=4), min_size=1, max_size=3)
    blocks = data.draw(st.one_of(independent, _nested_blocks(rep)))
    coll = LefschetzCollection(k=k, n=n, blocks=tuple(orbit_set(k, b) for b in blocks))
    want = _check_exceptional_reference(coll)
    shown = data.draw(st.integers(0, 6))
    with mock.patch.object(ext, "_CHUNK_ROWS", chunk):
        assert check_exceptional(coll) == want
        assert is_exceptional(coll) == (want == [])
        assert exceptional_violations(coll, shown) == (len(want), want[:shown])


@given(
    k=st.integers(1, 3),
    n=st.integers(1, 3),
    chunk=st.sampled_from([1, 2, ext._CHUNK_ROWS]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_ext_violations_match_scalar_reference(k, n, chunk, data):
    point = st.tuples(*[st.integers(-2, n + 2)] * k)
    sources = data.draw(st.lists(point, max_size=6))
    targets = data.draw(st.lists(point, max_size=6))
    want = [
        Violation(kind="ext", witness=(a, b), detail=ext_graded(n, a, b))
        for a in sources
        for b in targets
        if not is_orthogonal_pair(n, a, b)
    ]
    with mock.patch.object(ext, "_CHUNK_ROWS", chunk):
        assert list(ext_violations(n, sources, targets)) == want


def test_every_collection_check_goes_through_the_one_scan(monkeypatch):
    # witness pairs come from the pair scan, nested yes/no from the twist kernel
    def refusing(kernel):
        def refuse(*args, **kwargs):
            raise RuntimeError(kernel)
        return refuse

    monkeypatch.setattr(lefschetz, "nonorthogonal_below", refusing("pair scan"))
    monkeypatch.setattr(lefschetz, "first_failing_twists", refusing("twist kernel"))
    not_nested = LefschetzCollection(k=3, n=2, blocks=(build_E(3, 2), build_Ehat(3, 2)))
    assert check_lefschetz(not_nested) is not None

    def grid_without_e():
        # an Ehat that misses E makes the grid's collection not nested: it is flattened
        with mock.patch.object(lefschetz, "build_Ehat", lambda k, n: orbit_set(k, [(3, 0)])):
            return check_theorem_semiorthogonality(2, 1)

    checks = [
        (lambda: check_theorem_semiorthogonality(2, 1), "twist kernel"),
        (grid_without_e, "pair scan"),
        (lambda: residual_check(x32_rectangular_part(), x32_residual()), "pair scan"),
        (lambda: check_exceptional(xk1(3)), "pair scan"),
        (lambda: is_exceptional(not_nested), "pair scan"),
        (lambda: is_exceptional(xk1(3)), "twist kernel"),
    ]
    for check, kernel in checks:
        with pytest.raises(RuntimeError, match=kernel):
            check()


def test_nested_is_exceptional_is_one_twist_kernel_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("flattened or twisted scan")

    calls = []
    kernel = lefschetz.first_failing_twists

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(lefschetz, "first_failing_twists", counted)
    monkeypatch.setattr(lefschetz, "nonorthogonal_below", refuse)
    monkeypatch.setattr(lefschetz, "_twisted_orbits", refuse)
    # (2,2) in block 2 meets (0,0) of B_0: the least failing twist of (0,0) is 2
    too_long = LefschetzCollection(k=2, n=1, blocks=(orbit_set(2, [(0, 0)]),) * 3)
    # (2,0) spans more than n: it meets (0,2), listed before it in its own orbit
    too_wide = LefschetzCollection(k=2, n=1, blocks=(orbit_set(2, [(2, 0)]),))
    # an empty B_0 gives an empty table, and all() over it is True
    empty = LefschetzCollection(k=2, n=1, blocks=(orbit_set(2, []),) * 2)
    for coll, want in (
        (x3n_rectangular(4), True), (xk1(6), True), (x32_minimal(), True),
        (too_long, False), (too_wide, False), (empty, True),
    ):
        calls.clear()
        assert is_exceptional(coll) is want
        assert len(calls) == 1


@st.composite
def _signed_nested_blocks(draw, k, n):
    """Nested blocks over reps of any sign; B_0 may be empty.

    B_0 also holds some of its reps twisted by -2..2, so a rep twisted into a
    later block can coincide with a bundle of B_0.
    """
    rep = st.tuples(*[st.integers(-n - 2, n + 2)] * k)
    base = draw(st.lists(rep, max_size=4))
    if base:
        moved = draw(st.lists(st.tuples(st.sampled_from(base), st.integers(-2, 2)), max_size=3))
        base += [twist(r, t) for r, t in moved]
    blocks = [base]
    for _ in range(draw(st.integers(0, n + 1))):
        blocks.append([r for r in blocks[-1] if draw(st.booleans())])
    return blocks


@given(
    k=st.integers(1, 3),
    n=st.integers(1, 3),
    chunk=st.integers(1, 40),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_nested_is_exceptional_matches_check_exceptional_on_signed_reps(k, n, chunk, data):
    blocks = data.draw(_signed_nested_blocks(k, n))
    coll = LefschetzCollection(k=k, n=n, blocks=tuple(orbit_set(k, b) for b in blocks))
    assert check_lefschetz(coll) is None
    with mock.patch.object(ext, "_TWIST_CHUNK_CELLS", chunk):
        assert is_exceptional(coll) == (check_exceptional(coll) == [])


def assert_first_failing_twists_match_scalar_predicate(n, orbits, groups, chunk):
    """The builder's table against is_orthogonal_pair, cell by cell, over orbits in list order."""
    with mock.patch.object(ext, "_TWIST_CHUNK_CELLS", chunk):
        table = ext.first_failing_twists(n, orbits, groups)
    bundles = [el for o in orbits for el in o.elements]
    spans = [[el for o in orbits[lo:hi] for el in o.elements] for lo, hi in zip(groups, groups[1:])]
    assert [len(row) for row in table] == [len(spans)] * len(orbits)

    def fails(a, t, targets):
        return any(not is_orthogonal_pair(n, twist(a, t), b) for b in targets)

    for p, o in enumerate(orbits):
        # twist 0 counts against the bundles listed before the rep
        listed_before = set(bundles[: bundles.index(o.rep)])
        for g, group in enumerate(spans):
            below = [b for b in group if b in listed_before]
            least = 0 if fails(o.rep, 0, below) else next(
                t for t in range(1, len(o.rep) * n + 2) if fails(o.rep, t, group)
            )
            assert table[p][g] == least, (o.rep, g)
    return table


@given(n=st.integers(1, 3), k=st.integers(1, 3), chunk=st.integers(1, 40), data=st.data())
@settings(max_examples=200, deadline=None)
def test_first_failing_twists_match_scalar_predicate(n, k, chunk, data):
    # reps of any span and sign, some of them twists of others, or none at all
    rep = st.tuples(*[st.integers(-2, n + 3)] * k).map(canonical_rep)
    reps = data.draw(st.lists(rep, max_size=5))
    moved = data.draw(
        st.lists(st.tuples(st.sampled_from(reps), st.integers(1, k * n)), max_size=2)
    ) if reps else []
    orbits = orbit_set(k, reps + [twist(r, t) for r, t in moved]).orbits
    m = len(orbits)
    cuts = data.draw(st.sets(st.integers(1, m - 1))) if m > 1 else set()
    # with no orbit at all, [0, 0] would be one empty group, which is refused
    for groups in ([0, m], [0, *sorted(cuts), m]) if m else ():
        assert_first_failing_twists_match_scalar_predicate(n, orbits, groups, chunk)
    table = assert_first_failing_twists_match_scalar_predicate(n, orbits, range(m + 1), chunk)
    # one group per orbit: twist 0 fails against the rest of the rep's own
    # orbit exactly when the rep spans more than n
    for p, o in enumerate(orbits):
        assert (table[p][p] == 0) == (o.rep[0] - o.rep[-1] > n), o.rep


def test_first_failing_twists_cover_wide_reps_and_twisted_meetings():
    # (3,0) spans more than n = 2; (1,1) is (0,0) twisted by 1, met at twist 1
    orbits = orbit_set(2, [(0, 0), (1, 1), (3, 0)]).orbits
    for groups in ([0, 3], range(4)):
        table = assert_first_failing_twists_match_scalar_predicate(2, orbits, groups, 1)
    assert [table[p][p] for p in range(3)] == [3, 3, 0]
    assert table[0][1] == 1


def test_x32_minimal_is_exceptional():
    assert check_exceptional(x32_minimal()) == []
    assert check_exceptional(x32_rectangular_part()) == []


def test_theorem_semiorthogonality_small_grid():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            assert check_theorem_semiorthogonality(k, n) is None, (k, n)


def reference_grid(k, n):
    """The theorem grid as one scan: E's reps twisted by 1..n against every bundle of Ehat."""
    twisted = [twist(rep, i) for i in range(1, n + 1) for rep in lefschetz.build_E(k, n).reps()]
    return next(ext_violations(n, twisted, lefschetz.build_Ehat(k, n).bundles()), None)


def test_theorem_grid_matches_the_reference_scan(monkeypatch):
    for k in range(1, 6):
        for n in range(1, 6):
            assert check_theorem_semiorthogonality(k, n) == reference_grid(k, n) is None, (k, n)
    # Ehat enlarged by an orbit inside the cube, or past it, or by E twisted by 1:
    # nested all the same, failing or not, and the first witness is the scan's
    real = lefschetz.build_Ehat
    for k in range(1, 5):
        for n in range(1, 5):
            for extra in ((n,) * k, (n + 1,) + (0,) * (k - 1), (1,) * k):
                monkeypatch.setattr(
                    lefschetz, "build_Ehat", lambda k, n, extra=extra: adjust(
                        real(k, n), add=[extra] if extra not in real(k, n) else []
                    )
                )
                assert check_theorem_semiorthogonality(k, n) == reference_grid(k, n), (k, n, extra)
            monkeypatch.setattr(lefschetz, "build_Ehat", real)


def test_theorem_check_catches_broken_variant():
    # sanity that the checker can fail: compare E against a set that is too big
    from lefkit.ext import is_orthogonal_pair

    k, n = 2, 2
    e = build_E(k, n).bundles()
    too_big = adjust(build_Ehat(k, n), add=[(3, 0)]).bundles()
    hits = [
        (twist(a, i), b)
        for i in range(1, n + 1)
        for a in e
        for b in too_big
        if not is_orthogonal_pair(n, twist(a, i), b)
    ]
    assert hits  # the enlarged window is no longer semiorthogonal


def test_theorem_check_catches_enlarged_ehat(monkeypatch):
    # the representative-only scan must still fail against the enlarged window
    k, n = 2, 2
    real = lefschetz.build_Ehat
    monkeypatch.setattr(
        lefschetz, "build_Ehat", lambda k, n: adjust(real(k, n), add=[(3, 0)])
    )
    v = check_theorem_semiorthogonality(k, n)
    assert v is not None and v.kind == "ext"
    a, b = v.witness
    assert not is_orthogonal_pair(n, a, b)
    assert v.detail == ext_graded(n, a, b) and any(v.detail)
    assert canonical_rep(b) == (3, 0)
    assert any(twist(a, -i) in build_E(k, n).reps() for i in range(1, n + 1))
    # the first witness of the scan over E's reps against the enlarged Ehat
    assert v.witness == ((3, 2), (0, 3)) and v == reference_grid(k, n)


def test_json_roundtrip_bit_exact():
    coll = x32_minimal()
    text = collection_to_json(coll)
    again = collection_from_json(text)
    assert again == coll
    assert collection_to_json(again) == text
    doc = json.loads(text)
    assert doc["schema"] == "lefkit/1"
    assert doc["blocks"][0] == ["(0,0,0)", "(1,0,0)", "(1,1,0)", "(2,1,0)"]
    assert list(doc) == ["schema", "k", "n", "blocks"]


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        collection_from_json("{}")
    with pytest.raises(ValueError):
        collection_from_json('{"schema": "lefkit/1", "k": 2}')
    for blocks in ([1], "(0,0)", [["(0,0)", 1]], [[["(0,0)"]]], {"a": 1}):
        doc = {"schema": "lefkit/1", "k": 2, "n": 1, "blocks": blocks}
        with pytest.raises(ValueError, match="list of lists"):
            collection_from_json(json.dumps(doc))
    # k and n must be JSON integers, never truncated or coerced
    for key, value in (("n", 2.7), ("n", "2"), ("k", True), ("k", 2.0), ("k", None)):
        doc = {"schema": "lefkit/1", "k": 2, "n": 1, "blocks": [["(0,0)"]], key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            collection_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            collection_from_json(doc)


@given(n=st.integers(1, 4))
@settings(max_examples=4, deadline=None)
def test_x3n_rectangular_shape(n):
    coll = x3n_rectangular(n)
    assert len(coll.blocks) == n + 1
    assert is_rectangular(coll)
    assert check_lefschetz(coll) is None


def slope_reps_reference(k, n, strict):
    """The staircase reps by the recursion on the slope bounds that build_E first used."""
    h = n + 1

    def bound(i):
        slack = h * (k - i)
        return (slack - 1) // k if strict else slack // k

    def rec(i, prev):
        if i == k:
            yield (0,)
            return
        for c in range(min(prev, bound(i)), -1, -1):
            for rest in rec(i + 1, c):
                yield (c,) + rest

    if k == 1:
        yield (0,)
        return
    yield from rec(1, bound(1))


@pytest.mark.parametrize("strict", [True, False], ids=["E", "Ehat"])
def test_staircase_matches_slope_recursion(strict):
    build = build_E if strict else build_Ehat
    for k in range(1, 9):
        for n in range(1, 9):
            reps = sorted(slope_reps_reference(k, n, strict))
            assert sorted(lefschetz._staircase(k, n, strict)) == reps, (k, n)
            assert build(k, n).reps() == tuple(reps), (k, n)


def test_paper_rectangular_collections_are_the_staircase():
    for n in range(1, 7):
        assert staircase_rectangular(3, n) == x3n_rectangular(n)
    for k in range(1, 12, 2):
        assert staircase_rectangular(k, 1) == xk1(k)
    coll = staircase_rectangular(4, 2)
    assert coll.blocks == (build_E(4, 2),) * 3
