import itertools
from array import array
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lefkit import ext, lattice
from lefkit.ext import (
    ext_graded,
    first_failing_twists,
    is_orthogonal_pair,
    line_cohomology,
    nonorthogonal_below,
)
from lefkit.lattice import ORBIT_MIN_K, canonical_rep, normalised_reps, orbit_set, twist


def test_line_cohomology_known_values():
    # global sections
    assert line_cohomology(2, 0) == (1, 0, 0)
    assert line_cohomology(2, 1) == (3, 0, 0)
    assert line_cohomology(2, 3) == (10, 0, 0)
    assert line_cohomology(1, 5) == (6, 0)
    # the cohomology-free band -n..-1
    assert line_cohomology(2, -1) == (0, 0, 0)
    assert line_cohomology(2, -2) == (0, 0, 0)
    assert line_cohomology(1, -1) == (0, 0)
    # top cohomology
    assert line_cohomology(2, -3) == (0, 0, 1)
    assert line_cohomology(2, -4) == (0, 0, 3)
    assert line_cohomology(1, -2) == (0, 1)
    assert line_cohomology(3, -5) == (0, 0, 0, 4)


@given(n=st.integers(1, 6), d=st.integers(-30, 30))
def test_line_cohomology_at_most_one_degree(n, d):
    dims = line_cohomology(n, d)
    assert len(dims) == n + 1
    assert sum(1 for x in dims if x) <= 1
    if d >= 0:
        assert dims[0] == comb(d + n, n)
    if d <= -n - 1:
        assert dims[n] == comb(-d - 1, n)


def test_line_cohomology_rejects_bad_n():
    with pytest.raises(ValueError):
        line_cohomology(0, 1)


def test_ext_graded_known_values():
    # self Ext of a line bundle: one-dimensional in degree 0
    assert ext_graded(2, (0, 0, 0), (0, 0, 0)) == (1, 0, 0, 0, 0, 0, 0)
    # a positive twist on one factor
    assert ext_graded(2, (0, 0, 0), (1, 0, 0)) == (3, 0, 0, 0, 0, 0, 0)
    # one factor in the vanishing band kills everything
    assert ext_graded(2, (1, 0, 0), (0, 0, 0)) == (0,) * 7
    # top cohomology on all three factors
    assert ext_graded(2, (0, 0, 0), (-3, -3, -3)) == (0, 0, 0, 0, 0, 0, 1)
    # mixed: H^0(O(1)) x H^2(O(-3)) lands in degree 2 with dim 3
    assert ext_graded(2, (0, 0), (1, -3)) == (0, 0, 3, 0, 0)
    assert ext_graded(1, (0,), (2,)) == (3, 0)


def test_ext_graded_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        ext_graded(2, (0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        is_orthogonal_pair(2, (0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="arity mismatch: 2 vs 3"):
        list(nonorthogonal_below(2, [(0, 0)], [(0, 0, 0)]))
    # int64 coordinates whose differences could wrap are refused, not mis-tested
    with pytest.raises(ValueError):
        list(nonorthogonal_below(2, [(2 ** 63,)], [(0,)]))
    with pytest.raises(ValueError):
        list(nonorthogonal_below(2, [(2 ** 62,)], [(-1,)]))


def test_nonorthogonal_below_refuses_points_that_are_not_multidegrees():
    for args in ([1, 2], [1, 2]), ([1, 2], None), ([(1,)], [1]), ([[(1,)]], [[(1,)]]):
        with pytest.raises(ValueError, match="expected two sequences of multidegrees"):
            list(nonorthogonal_below(1, *args))
    # an empty side has no pair to test, whatever the other holds
    assert list(nonorthogonal_below(1, [1, 2], [])) == []
    assert list(nonorthogonal_below(1, [], [1, 2])) == []


def test_first_failing_twists_refuses_bad_input():
    one = orbit_set(1, [(0,)]).orbits
    with pytest.raises(ValueError, match="2\\^60"):
        first_failing_twists(1, orbit_set(1, [(2 ** 60,)]).orbits, [0, 1])
    with pytest.raises(ValueError, match="2\\^60"):
        first_failing_twists(2 ** 60, one, [0, 1])
    # the table is sized before any point is read
    many = orbit_set(1, [(i,) for i in range(2049)]).orbits
    with mock.patch.object(ext, "_points", side_effect=AssertionError("points read")):
        with pytest.raises(ValueError, match="twist table of 2049 x 2048 cells"):
            first_failing_twists(1, many, [*range(2048), 2049])
    assert first_failing_twists(1, (), [0]) == []
    assert first_failing_twists(1, one, [0]) == [array("q")]


def test_an_empty_group_is_refused_in_both_forms():
    # equal consecutive entries of groups are an empty group, refused before any
    # form is chosen or any point read
    forms = [
        mock.patch.object(ext, name, side_effect=AssertionError(name))
        for name in ("_array_table", "_orbit_table", "_points")
    ]
    element = orbit_set(2, [(0, 0), (1, 0)]).orbits
    orbit = orbit_set(4, [(0,) * 4, (1, 0, 0, 0)]).orbits
    for n, orbits, groups in (
        (1, element, [0, 0, 2]),  # a numpy form read the next group's value
        (1, element, [0, 2, 2]),
        (5, (), [0, 0]),
        (1, orbit, [0, 1, 1, 2]),  # the orbit form appended inf to an array("q")
    ):
        with forms[0], forms[1], forms[2]:
            with pytest.raises(ValueError, match="is empty"):
                first_failing_twists(n, orbits, groups)


def test_the_orbit_table_refuses_bad_input_before_reading_a_rep():
    one = orbit_set(4, [(0,) * 4]).orbits
    with pytest.raises(ValueError, match="2\\^60"):
        first_failing_twists(1, orbit_set(4, [(0, 0, 0, -2 ** 60)]).orbits, [0, 1])
    with pytest.raises(ValueError, match="2\\^60"):
        first_failing_twists(2 ** 60, one, [0, 1])
    with pytest.raises(ValueError, match="n must be >= 1"):
        first_failing_twists(0, one, [0, 1])
    # no bundle limit: orbits of C(40, 20) bundles each, and only the table is sized
    many = orbit_set(40, [(i,) * 20 + (0,) * 20 for i in range(1, 2050)]).orbits
    with mock.patch.object(ext, "_orbit_table", side_effect=AssertionError("reps read")):
        with pytest.raises(ValueError, match="twist table of 2049 x 2048 cells"):
            first_failing_twists(1, many, [*range(2048), 2049])
    assert first_failing_twists(1, one, [0]) == [array("q")]


def test_the_table_form_follows_the_arity_and_the_size():
    # on reps in pure Python, calling no numpy: from ORBIT_MIN_K on whatever the
    # size, and below it up to REPS_MAX_CELLS rows times the orbits' bundles
    arrays = mock.patch.object(ext, "_numpy", side_effect=AssertionError)
    orbits = orbit_set(6, [(1, 1, 1, 0, 0, 0), (0,) * 6]).orbits
    want = ext._array_table(1, orbits, [0, 1, 2])
    assert want == [array("q", [2, 3]), array("q", [2, 1])]
    with arrays:
        assert first_failing_twists(1, orbits, [0, 1, 2]) == want
    # the largest benchmarked search pool, k = 3 and pool_hi = 4: 15 rows x 61 bundles
    pools = {k: orbit_set(k, normalised_reps(k, 4)).orbits for k in range(1, ORBIT_MIN_K)}
    assert len(pools[3]) * sum(o.size for o in pools[3]) == 915
    with arrays:
        for pool in pools.values():
            first_failing_twists(2, pool, range(len(pool) + 1))
    # above it a k < ORBIT_MIN_K table is the array table
    large = [  # 257 x 257, 201 x 401 and 136 x 721 cells
        orbit_set(1, [(i,) for i in range(257)]).orbits,
        orbit_set(2, normalised_reps(2, 200)).orbits,
        orbit_set(3, normalised_reps(3, 15)).orbits,
    ]
    with mock.patch.object(ext, "_orbit_table", side_effect=AssertionError("orbit table")):
        for orbits in large:
            assert len(orbits) * sum(o.size for o in orbits) > lattice.REPS_MAX_CELLS
            first_failing_twists(1, orbits, [0, len(orbits)])
    # the bound is inclusive
    for limit, form in ((915, "_orbit_table"), (914, "_array_table")):
        with mock.patch.object(lattice, "REPS_MAX_CELLS", limit):
            with mock.patch.object(ext, form, side_effect=AssertionError(form)):
                with pytest.raises(AssertionError, match=form):
                    first_failing_twists(1, pools[3], [0, len(pools[3])])


def test_the_array_table_enumerates_no_orbit_element():
    # a k = 3 table of 136 rows x 721 bundles, above REPS_MAX_CELLS: neither the
    # lattice's enumerator nor one of ext's own may list a bundle
    orbits = orbit_set(3, normalised_reps(3, 15)).orbits
    assert len(orbits) * sum(o.size for o in orbits) == 136 * 721
    groups = [0, 40, len(orbits)]
    want = ext._orbit_table(2, orbits, groups)
    with mock.patch.object(lattice, "_multiset_permutations", side_effect=AssertionError):
        with mock.patch.object(ext, "_multiset_permutations", create=True,
                               side_effect=AssertionError("bundle listed")):
            with mock.patch.object(ext, "_orbit_table", side_effect=AssertionError):
                assert first_failing_twists(2, orbits, groups) == want


def brute_force_table(n, orbits, groups):
    """first_failing_twists by scanning t upward over every element of every orbit.

    Twist 0 counts only against the bundles listed before the rep: the
    orbits before it and the rest of its own (the rep is listed last).
    """
    elements = [set(itertools.permutations(o.rep)) for o in orbits]
    table = []
    for p, o in enumerate(orbits):
        row = array("q")
        for lo, hi in zip(groups, groups[1:]):
            group = [(q, b) for q in range(lo, hi) for b in elements[q]]
            before = [b for q, b in group if q < p or (q == p and b != o.rep)]
            t = 0
            while all(is_orthogonal_pair(n, twist(o.rep, t), b)
                      for b in (before if t == 0 else [b for _, b in group])):
                t += 1
            row.append(t)
        table.append(row)
    return table


@given(k=st.integers(1, 6), n=st.integers(1, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_both_table_forms_match_a_brute_force_oracle(k, n, data):
    # reps of any span and sign, with ties; some are twists of others, so twisted
    # points coincide; any grouping of them, or no orbit at all
    rep = st.tuples(*[st.integers(-3, n + 3)] * k).map(canonical_rep)
    reps = data.draw(st.lists(rep, max_size=4))
    moved = data.draw(
        st.lists(st.tuples(st.sampled_from(reps), st.integers(-2, k * n + 1)), max_size=2)
    ) if reps else []
    orbits = orbit_set(k, reps + [twist(r, t) for r, t in moved]).orbits
    m = len(orbits)
    cuts = data.draw(st.sets(st.integers(1, m - 1))) if m > 1 else set()
    for groups in ([0, m], [0, *sorted(cuts), m], range(m + 1)):
        want = brute_force_table(n, orbits, groups)
        for form in (ext._orbit_table, ext._array_table):
            got = form(n, orbits, groups)
            assert all(type(row) is array and row.typecode == "q" for row in got)
            assert got == want, (form.__name__, [o.rep for o in orbits], list(groups))


def test_is_orthogonal_pair_known_values():
    assert is_orthogonal_pair(2, (1, 0, 0), (0, 0, 0))
    assert is_orthogonal_pair(2, (2, 0, 0), (0, 0, 0))
    assert not is_orthogonal_pair(2, (3, 0, 0), (0, 0, 0))  # drops to top cohomology
    assert not is_orthogonal_pair(2, (0, 0, 0), (1, 0, 0))
    assert not is_orthogonal_pair(2, (0, 0, 0), (0, 0, 0))
    assert is_orthogonal_pair(1, (0, 1), (0, 0))


@given(
    n=st.integers(1, 3),
    k=st.integers(1, 2),
    data=st.data(),
)
@settings(max_examples=300)
def test_predicate_matches_ext_vanishing(n, k, data):
    lo, hi = -2 * n - 1, 2 * n + 1
    a = tuple(data.draw(st.integers(lo, hi)) for _ in range(k))
    b = tuple(data.draw(st.integers(lo, hi)) for _ in range(k))
    assert is_orthogonal_pair(n, a, b) == (not any(ext_graded(n, a, b)))


@given(
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    chunk=st.sampled_from([1, 2, 3, ext._CHUNK_ROWS]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_nonorthogonal_below_matches_scalar_predicate(n, k, chunk, data):
    point = st.tuples(*[st.integers(-2 * n - 1, 2 * n + 1)] * k)
    points = data.draw(st.lists(point, max_size=8))
    targets = data.draw(st.lists(point, max_size=8))

    def pairs(*args):
        with mock.patch.object(ext, "_CHUNK_ROWS", chunk):
            blocks = list(nonorthogonal_below(n, *args))
        return [(q, p) for qs, ps in blocks for q, p in zip(qs.tolist(), ps.tolist())]

    # the full rectangle, source-major, as ext_violations draws it
    assert pairs(points, targets) == [
        (q, p)
        for q, a in enumerate(points)
        for p, b in enumerate(targets)
        if not is_orthogonal_pair(n, a, b)
    ]
    # without targets, the strict lower triangle of points against themselves
    assert pairs(points) == [
        (q, p)
        for q in range(len(points))
        for p in range(q)
        if not is_orthogonal_pair(n, points[q], points[p])
    ]


def test_predicate_matches_ext_vanishing_exhaustive_small():
    n = 2
    rng = range(-2 * n, 2 * n + 1)
    for a in itertools.product(rng, repeat=2):
        for b in itertools.product(rng, repeat=2):
            assert is_orthogonal_pair(n, a, b) == (not any(ext_graded(n, a, b)))


@given(n=st.integers(1, 3), k=st.integers(1, 3), i=st.integers(-3, 3), data=st.data())
def test_twist_invariance(n, k, i, data):
    a = tuple(data.draw(st.integers(-6, 6)) for _ in range(k))
    b = tuple(data.draw(st.integers(-6, 6)) for _ in range(k))
    assert ext_graded(n, twist(a, i), twist(b, i)) == ext_graded(n, a, b)


@given(n=st.integers(1, 3), k=st.integers(1, 3), data=st.data())
def test_permutation_invariance(n, k, data):
    a = tuple(data.draw(st.integers(-6, 6)) for _ in range(k))
    b = tuple(data.draw(st.integers(-6, 6)) for _ in range(k))
    perm = data.draw(st.permutations(range(k)))
    pa = tuple(a[i] for i in perm)
    pb = tuple(b[i] for i in perm)
    assert ext_graded(n, pa, pb) == ext_graded(n, a, b)


@given(n=st.integers(1, 3), k=st.integers(1, 3), data=st.data())
def test_serre_duality(n, k, data):
    a = tuple(data.draw(st.integers(-6, 6)) for _ in range(k))
    b = tuple(data.draw(st.integers(-6, 6)) for _ in range(k))
    forward = ext_graded(n, a, b)
    dual = ext_graded(n, b, twist(a, -(n + 1)))
    assert forward == dual[::-1]


def test_dense_vectors_sized_before_allocation():
    limit = ext.MAX_EXT_DEGREES
    assert len(line_cohomology(limit - 1, 0)) == limit
    with pytest.raises(ValueError, match="limit"):
        line_cohomology(limit, 0)
    # two factors of limit // 2 + 1 degrees each, limit + 1 for the product
    with pytest.raises(ValueError, match="limit"):
        ext_graded(limit // 2, (0, 0), (0, 0))
    # the vanishing predicates build no vector
    assert is_orthogonal_pair(10 ** 12, (1,), (0,))
    assert list(nonorthogonal_below(10 ** 12, [(1,)], [(0,)])) == []
