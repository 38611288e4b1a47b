"""End-to-end acceptance battery.

Each test covers one acceptance criterion, prints a one-line verdict with
its wall-clock time, and enforces a stated time budget.  All integer
results are checked for exact equality.  Run with `pytest -v -s` to see
the per-criterion lines.
"""

import math
import random
import time
from itertools import product

import numpy as np

from lefkit.explorer import SearchSpec, search_minimal, search_rectangular
from lefkit.ext import ext_graded, is_orthogonal_pair
from lefkit.lattice import Box, twist
from lefkit.lefschetz import (
    build_E,
    check_exceptional,
    check_lefschetz,
    check_theorem_semiorthogonality,
    is_exceptional,
    is_rectangular,
    ranks,
    x32_minimal,
    x32_rectangular_part,
    x32_residual,
    x3n_rectangular,
    xk1,
)
from lefkit.reptheory import (
    divisibility_criterion,
    invariant_bound,
    kostka,
    lef_bounds,
    partitions_of,
    schur_weyl_table,
)
from lefkit.saturation import FULL, close, expand_orbit_trace, residual_check, verify_fullness


def _done(name: str, start: float, budget: float):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{name}: exceeded budget ({elapsed:.2f}s >= {budget:.0f}s)"
    print(f"{name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s)")


def _pairwise_vanishing_check(k: int, n: int):
    """All ordered pairs in [-2n, 2n]^k: predicate iff all Ext dims vanish.

    Both functions depend only on the componentwise difference a - b, so a
    real call per point of the difference grid covers every pair; a numpy
    gather over all pairs then cross-checks the table against an
    independent vectorized evaluation of the vanishing window.
    """
    lo, hi = -2 * n, 2 * n
    dlo, dhi = 2 * lo, 2 * hi
    dw = dhi - dlo + 1
    zero = (0,) * k

    vanish = np.zeros((dw,) * k, dtype=bool)
    for d in product(range(dlo, dhi + 1), repeat=k):
        v = is_orthogonal_pair(n, d, zero)
        e = ext_graded(n, d, zero)
        assert v == (not any(e)), (k, n, d, v, e)
        vanish[tuple(x - dlo for x in d)] = v

    for a in product(range(lo, hi + 1), repeat=k):
        e = ext_graded(n, a, a)
        assert e[0] == 1 and not any(e[1:]), (k, n, a, e)

    pts = np.array(list(product(range(lo, hi + 1), repeat=k)), dtype=np.int16)
    diff = pts[:, None, :] - pts[None, :, :]  # a - b for every ordered pair
    independent = ((diff > 0) & (diff <= n)).any(axis=2)
    flat = diff[..., 0].astype(np.int64) - dlo
    for j in range(1, k):
        flat = flat * dw + (diff[..., j].astype(np.int64) - dlo)
    gathered = vanish.reshape(-1)[flat]
    assert bool((gathered == independent).all()), (k, n)


def test_criterion_01_ext_vanishing_matches_graded_dims():
    start = time.perf_counter()
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            _pairwise_vanishing_check(k, n)
    _done("criterion 01 ext oracle soundness", start, 10.0)


def test_criterion_02_staircase_semiorthogonality_grid():
    start = time.perf_counter()
    for k in range(1, 5):
        for n in range(1, 7):
            violation = check_theorem_semiorthogonality(k, n)
            assert violation is None, (k, n, violation)
    _done("criterion 02 semiorthogonality grid k<=4 n<=6", start, 10.0)


def test_criterion_03_three_plane_minimal_collection():
    start = time.perf_counter()
    coll = x32_minimal()
    assert ranks(coll) == (13, 7, 7)
    assert sum(ranks(coll)) == 27
    assert check_exceptional(coll) == []
    assert check_lefschetz(coll) is None
    verdict = verify_fullness(coll, margin=2)
    assert verdict.status == FULL
    # decided on orbit reps: its rules, expanded, are the grid rules they stand for
    derived = set()
    for app in expand_orbit_trace(verdict.state.trace):
        derived.update(app.added)
    for point in [(2, 2, 0), (1, 2, 3), (3, 2, 0), (2, 0, 0)]:
        assert point in derived, point
    _done("criterion 03 minimal collection on three planes", start, 1.0)


def test_criterion_04_residual_orthogonality():
    start = time.perf_counter()
    violations, verdict = residual_check(x32_rectangular_part(), x32_residual())
    assert (violations, verdict.status) == ([], FULL)
    _done("criterion 04 residual orthogonality batteries", start, 1.0)


def test_criterion_05_plane_power_rectangular_fullness():
    start = time.perf_counter()
    for n in (3, 4, 6, 7):
        coll = x3n_rectangular(n)
        assert is_rectangular(coll)
        assert coll.blocks[0].bundle_count == (n + 1) ** 2, n
        verdict = verify_fullness(coll, margin=n + 1)
        assert verdict.status == FULL, (n, verdict.status)
    _done("criterion 05 rectangular fullness, three planes", start, 60.0)


def test_criterion_06_line_power_family():
    start = time.perf_counter()
    for k in (3, 5, 7):
        coll = xk1(k)
        assert is_rectangular(coll)
        assert sum(ranks(coll)) == 2 ** k
        assert verify_fullness(coll).status == FULL, k
    for k in (2, 4, 6):
        coll = xk1(k)
        assert len(coll.blocks) == 2
        m = k // 2
        central = math.comb(2 * m, m)
        r0, r1 = ranks(coll)
        assert r0 == (2 ** (2 * m) + central) // 2, k
        assert r1 == (2 ** (2 * m) - central) // 2, k
        assert r0 - r1 == central, k
        assert verify_fullness(coll).status == FULL, k
    _done("criterion 06 products of lines, k<=7", start, 30.0)


def test_criterion_07_schur_weyl_dimension_table():
    start = time.perf_counter()
    table = schur_weyl_table(3, 3)
    assert tuple(s for _, s, _ in table.rows) == (10, 8, 1)
    assert tuple(r for _, _, r in table.rows) == (1, 2, 1)
    for h in range(2, 7):
        for k in range(1, 7):
            assert schur_weyl_table(h, k).mass == h ** k, (h, k)
    for h in range(1, 22):
        witness = divisibility_criterion(h, 3)
        assert (witness is None) == (h % 3 != 0), (h, witness)
    _done("criterion 07 dimension table and divisibility", start, 5.0)


def test_criterion_08_block_size_bounds():
    start = time.perf_counter()
    assert lef_bounds(3, 3) == (11, 7)
    assert invariant_bound(3, 3) == 13
    for h in range(2, 6):
        for k in range(1, 6):
            r0_min, _ = lef_bounds(h, k)
            assert invariant_bound(h, k) >= r0_min, (h, k)
    _done("criterion 08 block size bounds", start, 60.0)


def test_criterion_09_search_certificates():
    start = time.perf_counter()
    rect32 = search_rectangular(SearchSpec(k=3, n=2))
    assert rect32.exhausted
    assert rect32.found == []

    min32 = search_minimal(SearchSpec(k=3, n=2))
    assert min32.exhausted
    assert any(ranks(c) == (13, 7, 7) for c in min32.found)

    rect33 = search_rectangular(SearchSpec(k=3, n=3))
    assert rect33.exhausted
    e33 = build_E(3, 3).reps()
    assert any(c.blocks[0].reps() == e33 for c in rect33.found)
    _done("criterion 09 search certificates", start, 600.0)


def _scrambled_close_members(seed, h, box, rng):
    """Closure by randomized rule scheduling (independent of the library)."""
    members = set(seed)
    coords = list(range(box.lo, box.hi + 1))
    starts = coords[: max(0, len(coords) - h + 1)]
    while True:
        grew = False
        axes = list(range(box.k))
        rng.shuffle(axes)
        for axis in axes:
            lines = {}
            for p in members:
                lines.setdefault(p[:axis] + p[axis + 1:], set()).add(p[axis])
            items = list(lines.items())
            rng.shuffle(items)
            for line, present in items:
                if len(present) == len(coords):
                    continue
                if any(all(c + j in present for j in range(h)) for c in starts):
                    for c in coords:
                        q = line[:axis] + (c,) + line[axis:]
                        if q not in members:
                            members.add(q)
                            grew = True
        if not grew:
            return members


def _ssyt_count(mu, content):
    """Count semistandard fillings of shape mu with the given content."""
    if sum(mu) != sum(content):
        return 0
    cells = [(r, c) for r in range(len(mu)) for c in range(mu[r])]
    remaining = list(content)
    fill = {}

    def go(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        left = fill[(r, c - 1)] if c else 1
        above = fill[(r - 1, c)] if r else 0
        total = 0
        for v in range(max(left, above + 1), len(remaining) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                fill[(r, c)] = v
                total += go(i + 1)
                remaining[v - 1] += 1
        return total

    return go(0)


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = random.Random(20260825)

    for _ in range(200):
        k = rng.randint(1, 3)
        lo = rng.randint(-3, 0)
        hi = lo + rng.randint(2, 8)
        box = Box(lo=lo, hi=hi, k=k)
        n = rng.randint(1, 3)
        pool = list(box.points())
        seed = rng.sample(pool, rng.randint(1, min(len(pool), 12)))
        state = close(seed, n, box)

        # monotone in the seed
        assert set(seed) <= state.members
        extra = rng.sample(pool, rng.randint(0, min(len(pool), 4)))
        bigger = close(seed + extra, n, box)
        assert state.members <= bigger.members

        # idempotent
        again = close(sorted(state.members), n, box)
        assert again.members == state.members

        # rule application order does not matter
        scrambled = _scrambled_close_members(seed, n + 1, box, rng)
        assert scrambled == state.members

    for k in range(1, 7):
        shapes = partitions_of(k)
        for mu in shapes:
            for lam in shapes:
                assert kostka(mu, lam) == _ssyt_count(mu, lam), (mu, lam)

    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        h = n + 1
        a = tuple(rng.randint(-2 * h, 2 * h) for _ in range(k))
        b = tuple(rng.randint(-2 * h, 2 * h) for _ in range(k))
        assert ext_graded(n, a, b) == ext_graded(n, b, twist(a, -h))[::-1], (n, a, b)

    _done("criterion 10 property suites", start, 60.0)


def test_criterion_11_minimal_hits_where_gcd_exceeds_one():
    # cases the paper leaves open: the first hit's first block meets invariant_bound
    start = time.perf_counter()
    for k, n, budget in ((3, 5, 10), (6, 3, 2)):
        result = search_minimal(SearchSpec(k=k, n=n, budget=budget))
        coll = result.found[0]
        assert ranks(coll)[0] == invariant_bound(n + 1, k) == {3: 40, 6: 1124}[k]
        assert is_exceptional(coll)
        if k == 3:
            assert check_exceptional(coll) == []
        assert verify_fullness(coll).status == FULL
    _done("criterion 11 minimal hits where gcd(n+1, k) > 1", start, 60.0)
