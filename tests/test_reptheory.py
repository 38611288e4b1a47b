import itertools
import sys
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, strategies as st

from lefkit import reptheory
from lefkit.lattice import orbit_set
from lefkit.reptheory import (
    content_orbit_count,
    count_partitions,
    decreasing_tuples,
    dim_irrep,
    dim_schur,
    divisibility_criterion,
    equivariant_lengths,
    hook_lengths,
    invariant_bound,
    kostka,
    lef_bounds,
    partitions_of,
    partitions_rho,
    perm_module_dim,
    schur_weyl_table,
    transpose,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    remaining, bound = n, n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


def brute_kostka(mu, lam):
    """Count semistandard fillings cell by cell (independent of the library's
    horizontal-strip recursion)."""
    cells = [(i, j) for i, row in enumerate(mu) for j in range(row)]
    remaining = list(lam)

    def rec(idx, filling):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(len(lam)):
            if remaining[v] == 0:
                continue
            if j > 0 and filling[(i, j - 1)] > v:
                continue
            if i > 0 and filling[(i - 1, j)] >= v:
                continue
            remaining[v] -= 1
            filling[(i, j)] = v
            total += rec(idx + 1, filling)
            del filling[(i, j)]
            remaining[v] += 1
        return total

    return rec(0, {})


def dominates(mu, lam):
    k = sum(mu)
    mu = mu + (0,) * k
    lam = lam + (0,) * k
    return all(sum(mu[: i + 1]) >= sum(lam[: i + 1]) for i in range(k))


def test_partitions_of_known_values():
    assert partitions_of(1) == ((1,),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(6)) == 11
    assert len(partitions_of(8)) == 22


def test_partitions_rho():
    assert partitions_rho(3, 3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_rho(2, 3) == ((3,), (2, 1))
    assert partitions_rho(1, 4) == ((4,),)
    with pytest.raises(ValueError):
        partitions_rho(0, 3)


def partitions_of_reference(k):
    """All partitions of k by the recursion partitions_of first used, descending lex."""

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(k, k))


def partitions_rho_reference(h, k):
    """Partitions of k with at most h rows, filtered from all partitions of k."""
    return tuple(lam for lam in partitions_of_reference(k) if len(lam) <= h)


def invariant_bound_reference(h, k):
    """invariant_bound summed over every partition of k, as it first was."""
    return sum(
        -(-content_orbit_count(h, lam) // h) * perm_module_dim(lam)
        for lam in partitions_of_reference(k)
    )


def test_partitions_match_filtered_reference():
    for k in range(15):
        assert partitions_of(k) == partitions_of_reference(k), k
    for h in range(1, 16):
        for k in range(1, 15):
            assert partitions_rho(h, k) == partitions_rho_reference(h, k), (h, k)
            assert len(partitions_rho(h, k)) == count_partitions(k, h), (h, k)
            if h >= 2:
                assert invariant_bound(h, k) == invariant_bound_reference(h, k), (h, k)


def test_rows_bounded_partitions_never_list_all_partitions(monkeypatch):
    def boom(k):
        raise AssertionError("all partitions of k listed")

    monkeypatch.setattr(reptheory, "partitions_of", boom)
    assert len(partitions_rho(3, 60)) == count_partitions(60, 3) == 331
    # the first block holds at least its share of the 3^60 bundles
    assert invariant_bound(3, 60) >= 3 ** 59


def test_partition_lists_refused_above_limit():
    assert count_partitions(50, 50) > reptheory.MAX_PARTITIONS >= count_partitions(40, 40)
    with pytest.raises(ValueError, match="204226 partitions of 50 with at most 50 rows"):
        partitions_rho(50, 50)
    with pytest.raises(ValueError, match="limit of 65536"):
        partitions_of(100)


@given(lam=partition_strategy())
def test_partitions_descending_lex(lam):
    k = sum(lam)
    parts = partitions_of(k)
    assert lam in parts
    assert list(parts) == sorted(parts, reverse=True)


def test_transpose_known_values():
    assert transpose((3,)) == (1, 1, 1)
    assert transpose((2, 1)) == (2, 1)
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose(()) == ()


@given(lam=partition_strategy())
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam


def test_hook_lengths_known_values():
    assert hook_lengths((3,)) == ((3, 2, 1),)
    assert hook_lengths((2, 1)) == ((3, 1), (1,))
    assert hook_lengths((2, 2)) == ((3, 2), (2, 1))


def test_dim_schur_known_values():
    assert dim_schur((3,), 3) == 10  # Sym^3 C^3
    assert dim_schur((2, 1), 3) == 8  # adjoint of sl_3
    assert dim_schur((1, 1, 1), 3) == 1  # determinant
    assert dim_schur((1, 1, 1, 1), 3) == 0  # too many rows
    assert dim_schur((2,), 4) == 10
    assert dim_schur((1, 1), 4) == 6
    # a full column of height h is the determinant character
    for h in range(1, 6):
        assert dim_schur((1,) * h, h) == 1


def test_dim_schur_two_rows_on_plane():
    # S^(2m-l, l) of C^2 has dimension 2m - 2l + 1
    for m in range(1, 5):
        for l in range(0, m + 1):
            lam = (2 * m - l, l) if l else (2 * m,)
            assert dim_schur(lam, 2) == 2 * m - 2 * l + 1


def test_dim_irrep_known_values():
    assert dim_irrep((3,)) == 1
    assert dim_irrep((1, 1, 1)) == 1
    assert dim_irrep((2, 1)) == 2
    assert dim_irrep((2, 2)) == 2
    assert dim_irrep((3, 1)) == 3
    assert dim_irrep((2, 1, 1)) == 3


@given(mu=partition_strategy())
def test_dim_irrep_transpose_invariant(mu):
    assert dim_irrep(mu) == dim_irrep(transpose(mu))


@given(k=st.integers(1, 7))
def test_dim_irrep_squares_sum_to_factorial(k):
    assert sum(dim_irrep(mu) ** 2 for mu in partitions_of(k)) == factorial(k)


def test_two_row_transpose_dimension_formula():
    # dim of the irreducible indexed by (2m-l, l)^T is (2m-2l+1)/(2m+1) C(2m+1, l)
    for m in range(1, 5):
        for l in range(0, m + 1):
            lam = (2 * m - l, l) if l else (2 * m,)
            expected = (2 * m - 2 * l + 1) * comb(2 * m + 1, l)
            assert expected % (2 * m + 1) == 0
            assert dim_irrep(transpose(lam)) == expected // (2 * m + 1)


def test_kostka_known_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3,), (2, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    assert kostka((1, 1), (2,)) == 0
    assert kostka((2,), (2,)) == 1
    assert kostka((3, 2, 1), (1,) * 6) == 16


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (2, 2))


def test_young_rule_three_points_pair_orbit():
    # the permutation module on pairs-plus-singleton splits as trivial + standard
    assert kostka((3,), (2, 1)) == 1
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((1, 1, 1), (2, 1)) == 0


def test_kostka_triangularity():
    for k in range(1, 7):
        for mu in partitions_of(k):
            for lam in partitions_of(k):
                val = kostka(mu, lam)
                if mu == lam:
                    assert val == 1
                elif not dominates(mu, lam):
                    assert val == 0


def test_kostka_against_cellwise_oracle():
    for k in range(1, 7):
        for mu in partitions_of(k):
            for lam in partitions_of(k):
                assert kostka(mu, lam) == brute_kostka(mu, lam), (mu, lam)


def test_kostka_regular_content_gives_irrep_dims():
    for k in range(1, 7):
        ones = (1,) * k
        for mu in partitions_of(k):
            assert kostka(mu, ones) == dim_irrep(mu)


def test_perm_module_decomposition():
    # dim of C[S_k/S_lam] equals the Kostka-weighted sum of irreducible dims
    for k in range(1, 7):
        for lam in partitions_of(k):
            total = sum(kostka(mu, lam) * dim_irrep(mu) for mu in partitions_of(k))
            assert total == perm_module_dim(lam)


def test_perm_module_dim():
    assert perm_module_dim((3,)) == 1
    assert perm_module_dim((2, 1)) == 3
    assert perm_module_dim((1, 1, 1)) == 6


def test_content_orbit_count():
    assert content_orbit_count(3, (3,)) == 3
    assert content_orbit_count(3, (2, 1)) == 6
    assert content_orbit_count(3, (1, 1, 1)) == 1
    assert content_orbit_count(2, (1, 1, 1)) == 0
    assert content_orbit_count(4, (2, 1)) == 12


@given(h=st.integers(1, 6), k=st.integers(1, 7))
def test_content_counts_partition_all_functions(h, k):
    total = sum(
        content_orbit_count(h, lam) * perm_module_dim(lam) for lam in partitions_of(k)
    )
    assert total == h ** k


def test_schur_weyl_table_values():
    t = schur_weyl_table(3, 3)
    assert t.rows == (((3,), 10, 1), ((2, 1), 8, 2), ((1, 1, 1), 1, 1))
    assert t.mass == 27


def test_schur_weyl_mass_identity():
    for h in range(2, 7):
        for k in range(1, 7):
            assert schur_weyl_table(h, k).mass == h ** k


def test_divisibility_criterion_known_values():
    assert divisibility_criterion(3, 3) == (1, 1, 1)  # lex-least failing partition
    assert divisibility_criterion(4, 3) is None
    assert divisibility_criterion(2, 3) is None
    assert divisibility_criterion(5, 3) is None


def test_divisibility_k3_iff_h_not_multiple_of_3():
    # exact rule: every Schur dimension is divisible by h iff gcd(h, k) = 1
    for h in range(2, 25):
        for k in range(1, 13):
            ok = divisibility_criterion(h, k) is None
            assert ok == (gcd(h, k) == 1), (h, k)


def test_lef_bounds_known_values():
    assert lef_bounds(3, 3) == (11, 7)
    # h=4, k=3: all Schur dims divisible by 4, so both bounds hit 4^2
    assert lef_bounds(4, 3) == (16, 16)
    # h=2, k=2m gap is C(2m, m) driven
    assert lef_bounds(2, 2) == (3, 1)
    assert lef_bounds(2, 4) == (11, 5)


def brute_invariant_bound(h, k):
    """Minimise the head over all weakly decreasing h-chains of orbit-type
    vectors that sum to the full content; no per-shape independence used."""

    def chains(total):
        def rec(remaining, slots, bound):
            if slots == 0:
                if remaining == 0:
                    yield ()
                return
            for head in range(min(bound, remaining), -1, -1):
                for rest in rec(remaining - head, slots - 1, head):
                    yield (head,) + rest

        return list(rec(total, h, total))

    shapes = partitions_of(k)
    best = None
    for combo in itertools.product(*(chains(content_orbit_count(h, lam)) for lam in shapes)):
        r0 = sum(chain[0] * perm_module_dim(lam) for lam, chain in zip(shapes, combo))
        if best is None or r0 < best:
            best = r0
    return best


def test_invariant_bound_known_values():
    assert invariant_bound(3, 3) == 13
    assert invariant_bound(4, 3) == 16
    assert invariant_bound(2, 2) == 3


def test_invariant_bound_against_chain_oracle():
    for h, k in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4)]:
        assert invariant_bound(h, k) == brute_invariant_bound(h, k), (h, k)


def test_invariant_bound_at_least_isotype_bound():
    for h in range(2, 6):
        for k in range(1, 6):
            assert invariant_bound(h, k) >= lef_bounds(h, k)[0], (h, k)


def test_count_partitions():
    assert [count_partitions(m) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_equivariant_lengths_known_values():
    diag = orbit_set(3, [(0, 0, 0)])
    assert equivariant_lengths(diag) == ((3,), 3)
    regular = orbit_set(3, [(2, 1, 0)])
    assert equivariant_lengths(regular) == ((1,), 1)
    bhat = orbit_set(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)])
    assert equivariant_lengths(bhat) == ((3, 2, 2, 1), 8)


def test_decreasing_tuples_match_filtered_product():
    for total, parts, cap in itertools.product(range(9), range(5), range(-1, 6)):
        expected = sorted(
            (t for t in itertools.product(range(cap + 1), repeat=parts)
             if sum(t) == total and all(a >= b for a, b in zip(t, t[1:]))),
            reverse=True,
        )
        assert list(decreasing_tuples(total, parts, cap)) == expected, (total, parts, cap)


def test_decreasing_tuples_take_any_number_of_parts():
    parts = 5 * sys.getrecursionlimit()
    assert list(decreasing_tuples(parts, parts, 1)) == [(1,) * parts]
    # j twos and parts + 1 - 2j ones for j = 1 .. (parts + 1) // 2, j descending
    count = 0
    for count, last in enumerate(decreasing_tuples(parts + 1, parts, 2), 1):
        assert last.count(2) == (parts + 1) // 2 - count + 1
    assert count == (parts + 1) // 2
    assert last == (2,) + (1,) * (parts - 1)
