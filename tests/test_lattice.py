import dataclasses
import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lefkit import lattice
from lefkit.lattice import (
    MAX_ORBIT_BUNDLES,
    Box,
    Orbit,
    canonical_rep,
    format_multidegree,
    orbit_of,
    orbit_set,
    parse_multidegree,
    stabilizer_shape,
    twist,
)


@st.composite
def multidegree_strategy(draw, max_k=6, lo=-5, hi=5):
    k = draw(st.integers(min_value=1, max_value=max_k))
    return tuple(draw(st.integers(min_value=lo, max_value=hi)) for _ in range(k))


def test_canonical_rep_known_values():
    assert canonical_rep((0, 1, 2)) == (2, 1, 0)
    assert canonical_rep((1, -1, 0)) == (1, 0, -1)
    assert canonical_rep((2, 2, 2)) == (2, 2, 2)
    assert canonical_rep((0,)) == (0,)
    assert canonical_rep((1, 0, 1, 0)) == (1, 1, 0, 0)


def test_twist_known_values():
    assert twist((0, 0, 0), 2) == (2, 2, 2)
    assert twist((1, -1, 0), -1) == (0, -2, -1)
    assert twist((5,), 0) == (5,)


@given(a=multidegree_strategy(), i=st.integers(-4, 4), j=st.integers(-4, 4))
def test_twist_composes_and_commutes_with_canonical(a, i, j):
    assert twist(twist(a, i), j) == twist(a, i + j)
    assert canonical_rep(twist(a, i)) == twist(canonical_rep(a), i)


@given(a=multidegree_strategy())
def test_canonical_rep_idempotent(a):
    assert canonical_rep(canonical_rep(a)) == canonical_rep(a)


def test_stabilizer_shape():
    assert stabilizer_shape((0, 0, 0)) == (3,)
    assert stabilizer_shape((1, 0, 0)) == (2, 1)
    assert stabilizer_shape((2, 1, 0)) == (1, 1, 1)
    assert stabilizer_shape((3, 3, 1, 1)) == (2, 2)


def test_orbit_of_known_values():
    o = orbit_of((0, 1, 0))
    assert o.rep == (1, 0, 0)
    assert o.elements == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert o.stabilizer_shape == (2, 1)
    assert o.size == 3
    assert o.elements is o.elements  # enumerated once, then cached

    o = orbit_of((1, -1, 0))
    assert o.rep == (1, 0, -1)
    assert o.size == 6

    o = orbit_of((2, 2, 2))
    assert o.size == 1
    assert o.stabilizer_shape == (3,)


@given(a=multidegree_strategy(max_k=5))
def test_orbit_elements_share_canonical_rep(a):
    o = orbit_of(a)
    assert all(canonical_rep(el) == o.rep for el in o.elements)
    assert list(o.elements) == sorted(o.elements)
    # orbit-stabilizer theorem
    from math import prod

    assert o.size * prod(factorial(m) for m in o.stabilizer_shape) == factorial(len(a))


def test_orbit_set_sorting_and_dedup():
    s = orbit_set(3, [(0, 1, 0), (1, 0, 0), (0, 0, 0), (1, 1, 0)])
    assert s.reps() == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert s.bundle_count == 1 + 3 + 3
    assert (0, 1, 1) in s
    assert (2, 0, 0) not in s
    flat = s.bundles()
    assert flat[0] == (0, 0, 0)
    assert len(flat) == len(set(flat)) == 7


def test_oversized_orbits_refused_before_generation(monkeypatch):
    def boom(values):
        raise AssertionError("orbit elements generated before the size check")

    monkeypatch.setattr(lattice, "_multiset_permutations", boom)
    big = tuple(range(30))  # an orbit of 30! elements
    with pytest.raises(ValueError, match="limit"):
        orbit_of(big).elements
    with pytest.raises(ValueError, match="limit"):
        orbit_set(30, [big]).bundles()
    # every orbit of {0,1}^24 is below the limit, all 2^24 points together
    # are above it: refused before any orbit's elements are enumerated
    cube = [(1,) * m + (0,) * (24 - m) for m in range(25)]
    sizes = [factorial(24) // (factorial(m) * factorial(24 - m)) for m in range(25)]
    assert max(sizes) < MAX_ORBIT_BUNDLES < sum(sizes)
    with pytest.raises(ValueError, match="16777216 bundles"):
        orbit_set(24, cube).bundles()


def test_orbits_are_held_by_rep(monkeypatch):
    assert [f.name for f in dataclasses.fields(Orbit)] == ["rep"]
    monkeypatch.setattr(lattice, "_multiset_permutations", lambda values: pytest.fail("built"))
    s = orbit_set(30, [(1,) * 15 + (0,) * 15, (2,) + (0,) * 29])
    assert [o.size for o in s.orbits] == [comb(30, 15), 30]
    assert s.orbits[0].stabilizer_shape == (15, 15)
    assert s.bundle_count == comb(30, 15) + 30
    assert (0,) * 29 + (2,) in s


def test_orbit_set_rejects_bad_arity():
    with pytest.raises(ValueError):
        orbit_set(3, [(1, 0)])
    with pytest.raises(ValueError):
        orbit_set(0, [])


def test_orbit_set_refuses_reps_that_are_no_integers():
    # int() would read (0.7, 0.2) as the orbit of (0, 0)
    for rep in [(0.7, 0.2)], [(1, "0")], [3]:
        with pytest.raises(ValueError, match=r"orbit rep .* is not a sequence of integers"):
            orbit_set(2, rep)
    assert orbit_set(2, [(np.int64(1), True)]).reps() == ((1, 1),)


def test_parse_format_roundtrip_examples():
    assert parse_multidegree("(2,1,0)") == (2, 1, 0)
    assert parse_multidegree(" ( 2 , -1 , 0 ) ") == (2, -1, 0)
    assert format_multidegree((2, 1, 0)) == "(2,1,0)"
    assert format_multidegree((-1,)) == "(-1)"
    with pytest.raises(ValueError):
        parse_multidegree("2,1,0")
    with pytest.raises(ValueError):
        parse_multidegree("(2,x)")
    with pytest.raises(ValueError):
        parse_multidegree("()")
    with pytest.raises(ValueError):
        parse_multidegree("(1,2)", k=3)
    for text in ("(1_0)", "(1,2_0)", "(\u0663,2)"):  # int() would read 10, 20 and 3
        with pytest.raises(ValueError, match="non-integer coordinate"):
            parse_multidegree(text)


@given(a=multidegree_strategy())
def test_parse_format_roundtrip(a):
    assert parse_multidegree(format_multidegree(a)) == a


def test_box():
    b = Box(lo=-1, hi=2, k=2)
    assert b.width == 4
    assert b.size == 16
    assert (0, 0) in b
    assert (-1, 2) in b
    assert (3, 0) not in b
    assert (0,) not in b
    assert len(list(b.points())) == 16
    with pytest.raises(ValueError):
        Box(lo=1, hi=0, k=2)
    with pytest.raises(ValueError):
        Box(lo=0, hi=1, k=0)


def test_box_points_ascending_lex():
    b = Box(lo=0, hi=1, k=2)
    assert list(b.points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
