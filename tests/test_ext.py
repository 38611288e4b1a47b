import itertools
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lefkit import ext
from lefkit.ext import ext_graded, is_orthogonal_pair, line_cohomology, orthogonal_mask
from lefkit.lattice import twist


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
    with pytest.raises(ValueError):
        orthogonal_mask(2, [(0, 0)], [(0, 0, 0)])
    # int64 coordinates whose differences could wrap are refused, not mis-tested
    with pytest.raises(ValueError):
        orthogonal_mask(2, [(2 ** 63,)], [(0,)])
    with pytest.raises(ValueError):
        orthogonal_mask(2, [(2 ** 62,)], [(-1,)])


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
def test_orthogonal_mask_matches_scalar_predicate(n, k, chunk, data):
    point = st.tuples(*[st.integers(-2 * n - 1, 2 * n + 1)] * k)
    a = data.draw(st.lists(point, max_size=8))
    b = data.draw(st.lists(point, max_size=8))
    with mock.patch.object(ext, "_CHUNK_ROWS", chunk):
        mask = orthogonal_mask(n, a, b)
    assert mask.dtype == bool and mask.shape == (len(a), len(b))
    assert mask.tolist() == [[is_orthogonal_pair(n, x, y) for y in b] for x in a]


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
    assert orthogonal_mask(10 ** 12, [(1,)], [(0,)]).tolist() == [[True]]
