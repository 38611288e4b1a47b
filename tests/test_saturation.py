import collections
import itertools
import random
from dataclasses import replace
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from lefkit import lattice, saturation
from lefkit.lattice import Box, canonical_rep, orbit_of, orbit_set, twist
from lefkit.lefschetz import (
    LefschetzCollection,
    flatten_bundles,
    staircase_rectangular,
    x32_minimal,
    x32_rectangular_part,
    x32_residual,
    x3n_rectangular,
    xk1,
)
from lefkit.saturation import (
    FULL,
    INCONCLUSIVE,
    MAX_BOX_CELLS,
    MAX_ORBIT_LINES,
    MISSING_SAMPLE,
    NOT_FULL_BY_RANK,
    ClosureState,
    OrbitClosureState,
    OrbitRule,
    RuleApplication,
    close,
    close_cube,
    close_orbits,
    expand_orbit_trace,
    replay_orbit_trace,
    replay_trace,
    residual_check,
    verify_fullness,
)


def brute_close(seed, n, box, multi_axis=False):
    """Reference fixpoint on plain sets.  With multi_axis=True the rule also
    fires for sub-cubes spanning several axes at once."""
    h = n + 1
    members = set(tuple(p) for p in seed)
    k = box.k
    axis_sets = [
        axes
        for r in range(1, k + 1)
        for axes in itertools.combinations(range(k), r)
        if multi_axis or r == 1
    ]
    changed = True
    while changed:
        changed = False
        for axes in axis_sets:
            fixed_axes = [i for i in range(k) if i not in axes]
            for base in box.points():
                window = [
                    tuple(
                        base[i] + (off[axes.index(i)] if i in axes else 0)
                        for i in range(k)
                    )
                    for off in itertools.product(range(h), repeat=len(axes))
                ]
                if any(p not in box for p in window):
                    continue
                if not all(p in members for p in window):
                    continue
                span = [
                    tuple(
                        (z[axes.index(i)] if i in axes else base[i])
                        for i in range(k)
                    )
                    for z in itertools.product(range(box.lo, box.hi + 1), repeat=len(axes))
                ]
                new = set(span) - members
                if new:
                    members |= new
                    changed = True
    return frozenset(members)


def random_sweep_close(seed, n, box, rng):
    """Same fixpoint, applying line floods in a randomised schedule."""
    h = n + 1
    members = set(tuple(p) for p in seed)
    axes_lines = []
    for axis in range(box.k):
        others = [i for i in range(box.k) if i != axis]
        for fixed in itertools.product(range(box.lo, box.hi + 1), repeat=box.k - 1):
            axes_lines.append((axis, fixed))

    def line_points(axis, fixed):
        for z in range(box.lo, box.hi + 1):
            yield fixed[:axis] + (z,) + fixed[axis:]

    changed = True
    while changed:
        changed = False
        rng.shuffle(axes_lines)
        for axis, fixed in axes_lines:
            zs = [z for z in range(box.lo, box.hi + 1)
                  if fixed[:axis] + (z,) + fixed[axis:] in members]
            run = 0
            window = False
            prev = None
            for z in zs:
                run = run + 1 if prev is not None and z == prev + 1 else 1
                prev = z
                if run >= h:
                    window = True
                    break
            if window:
                new = set(line_points(axis, fixed)) - members
                if new:
                    members |= new
                    changed = True
    return frozenset(members)


def test_close_trivial_cases():
    box = Box(lo=0, hi=2, k=2)
    # a full cube floods everything
    seed = list(Box(lo=0, hi=2, k=2).points())
    state = close(seed, 2, box)
    assert state.members == frozenset(box.points())
    # a single point grows nowhere
    state = close([(1, 1)], 2, box)
    assert state.members == frozenset({(1, 1)})
    assert state.trace == ()


def test_close_single_line_flood():
    box = Box(lo=-2, hi=4, k=1)
    state = close([(0,), (1,)], 1, box)
    assert state.members == frozenset((z,) for z in range(-2, 5))
    assert len(state.trace) == 1
    app = state.trace[0]
    assert app.axis == 0 and app.line == () and app.window_start == 0
    assert (4,) in app.added and (0,) not in app.added


def test_close_rejects_bad_seed():
    box = Box(lo=0, hi=1, k=2)
    with pytest.raises(ValueError):
        close([(0, 5)], 1, box)
    with pytest.raises(ValueError):
        close([(0, 0)], 0, box)


def test_close_matches_brute_force_small():
    rng = random.Random(7)
    box = Box(lo=0, hi=4, k=2)
    pts = list(box.points())
    for trial in range(30):
        seed = rng.sample(pts, rng.randint(1, 12))
        for n in (1, 2):
            assert close(seed, n, box).members == brute_close(seed, n, box), (seed, n)


def test_multi_axis_rule_adds_nothing():
    # windows spanning several axes are implied by iterated single-axis floods
    rng = random.Random(11)
    for trial in range(25):
        k = rng.choice((2, 3))
        width = rng.randint(3, 5) if k == 3 else rng.randint(3, 6)
        box = Box(lo=0, hi=width - 1, k=k)
        pts = list(box.points())
        n = rng.choice((1, 2))
        seed = rng.sample(pts, rng.randint(1, min(len(pts), 3 * width)))
        single = brute_close(seed, n, box, multi_axis=False)
        multi = brute_close(seed, n, box, multi_axis=True)
        assert single == multi, (seed, n, box)


def test_close_respects_stop_target():
    # early stop keeps members consistent with its own trace
    coll = x32_minimal()
    seed = flatten_bundles(coll)
    box = Box(lo=-2, hi=4, k=3)
    cube = Box(lo=0, hi=2, k=3)
    target = list(cube.points())
    state = close(seed, 2, box, target=cube)
    assert set(target) <= state.members
    assert replay_trace(state.seed, 2, box, state.trace) == state.members
    full_state = close(seed, 2, box)
    assert state.members <= full_state.members


def test_replay_rejects_corrupt_trace():
    box = Box(lo=0, hi=3, k=1)
    state = close([(0,), (1,)], 1, box)
    app = state.trace[0]
    bad = type(app)(axis=app.axis, line=app.line, window_start=2, added=app.added)
    with pytest.raises(ValueError):
        replay_trace(state.seed, 1, box, (bad,))


def test_replay_refuses_rules_that_do_not_fit_k():
    box = Box(lo=0, hi=3, k=2)
    seed = [(0, 0), (1, 0)]
    for axis, line in ((7, (0,)), (2, (0,)), (-1, (0,)), (0, ()), (1, (0, 0))):
        bad = RuleApplication(axis=axis, line=line, window_start=0, added=())
        with pytest.raises(ValueError, match="does not fit k=2"):
            replay_trace(seed, 1, box, (bad,))


def test_replay_refuses_added_points_outside_the_box():
    box = Box(lo=0, hi=3, k=2)
    seed = [(0, 0), (1, 0)]
    for point in ((4, 0), (-1, 0), (2,), (2, 0, 0)):
        bad = RuleApplication(axis=0, line=(0,), window_start=0, added=(point,))
        with pytest.raises(ValueError, match="outside box"):
            replay_trace(seed, 1, box, (bad,))


def test_certificate_refuses_an_uncovered_target():
    box = Box(lo=0, hi=3, k=2)
    state = close([(0, 0), (1, 0)], 1, box)
    with pytest.raises(ValueError, match="not covered"):
        state.certificate(Box(lo=0, hi=1, k=2))
    with pytest.raises(ValueError, match="not inside box"):
        state.certificate(Box(lo=0, hi=4, k=2))
    covered = state.certificate(Box(lo=0, hi=0, k=2))
    assert (covered.trace, covered.members) == ((), state.seed)


def test_x32_closure_derivations():
    coll = x32_minimal()
    box = Box(lo=-1, hi=4, k=3)
    state = close(flatten_bundles(coll), 2, box)
    derived = set()
    for app in state.trace:
        derived.update(app.added)
    for pt in [(2, 2, 0), (1, 2, 3), (3, 2, 0), (2, 0, 0)]:
        assert pt in derived, pt
    assert set(Box(lo=0, hi=2, k=3).points()) <= state.members


def test_verify_fullness_x32():
    verdict = verify_fullness(x32_minimal(), margin=2)
    assert verdict.status == FULL
    assert verdict.detail["margin"] == 2
    # decided on orbit reps: the rules replay on reps, and expanded on points
    state = verdict.state
    assert replay_orbit_trace(state.seed, 2, state.box, state.trace) == state.members
    assert set(map(canonical_rep, Box(lo=0, hi=2, k=3).points())) <= state.members
    points = replay_trace(orbit_elements(state.seed), 2, state.box, expand_orbit_trace(state.trace))
    assert points == orbit_elements(state.members)
    assert set(Box(lo=0, hi=2, k=3).points()) <= points


def test_verify_fullness_rank_mismatch():
    coll = LefschetzCollection(
        k=2, n=1, blocks=(orbit_set(2, [(0, 0), (1, 0)]), orbit_set(2, [(0, 0), (1, 0)]))
    )
    verdict = verify_fullness(coll)
    assert verdict.status == NOT_FULL_BY_RANK
    assert verdict.detail["bundles"] == 6
    assert verdict.detail["expected"] == 4
    assert verdict.state is None


def test_verify_fullness_inconclusive_then_full():
    # with no margin the box is the bare cube; whole-line windows flood
    # nothing new, so the missing orbit of (2,0,0) stays missing
    coll = x32_minimal()
    tight = verify_fullness(coll, margin=0)
    assert tight.status == INCONCLUSIVE
    assert (2, 0, 0) in tight.detail["missing_sample"]
    wide = verify_fullness(coll, margin=2)
    assert wide.status == FULL


def test_oversized_box_refused_before_allocation(monkeypatch):
    # (P^1)^14 at margin 2 is a 6^14-cell box, about 78 GB of grid
    def no_allocation(*args, **kwargs):
        raise AssertionError("np.zeros called for an oversized box")

    seed = flatten_bundles(xk1(14))
    monkeypatch.setattr(np, "zeros", no_allocation)
    assert 6 ** 14 > MAX_BOX_CELLS > 6 ** 10
    with pytest.raises(ValueError, match="cells"):
        close_cube(seed, 1, 14, margin=2)


def test_orbit_closure_certifies_beyond_the_grid():
    # the same box holds C(6+12, 13) = 8,568 orbit lines
    verdict = verify_fullness(xk1(14), margin=2)
    assert verdict.status == FULL and verdict.detail == {"margin": 2}
    assert isinstance(verdict.state, OrbitClosureState)


def test_orbit_line_limit_refused_before_any_line(monkeypatch):
    def no_lines(*args):
        raise AssertionError("an orbit line built for an oversized box")

    monkeypatch.setattr(saturation, "_lines_through", no_lines)
    monkeypatch.setattr(saturation, "_line_points", no_lines)
    # (P^1)^20 at margin 4: C(10+18, 19) lines
    assert comb(28, 19) > MAX_ORBIT_LINES > comb(26, 19)
    with pytest.raises(ValueError, match=f"has {comb(28, 19)} orbit lines"):
        verify_fullness(xk1(20), margin=4)


def test_orbit_path_enumerates_no_element(monkeypatch):
    def no_elements(self):
        raise AssertionError("orbit elements enumerated")

    monkeypatch.setattr(lattice.Orbit, "elements", property(no_elements))
    verdict = verify_fullness(xk1(20))
    assert verdict.status == FULL
    assert replay_orbit_trace(verdict.state.seed, 1, verdict.state.box, verdict.state.trace)


def test_box_monotone_success():
    # once FULL at some margin, larger margins stay FULL
    coll = x32_minimal()
    for margin in (2, 3, 4):
        assert verify_fullness(coll, margin=margin).status == FULL


def test_full_implies_rank_count():
    for coll in (x32_minimal(), xk1(3), xk1(4)):
        verdict = verify_fullness(coll)
        assert verdict.status == FULL
        assert len(set(flatten_bundles(coll))) == (coll.n + 1) ** coll.k


def test_residual_check_passes_for_x32():
    violations, verdict = residual_check(x32_rectangular_part(), x32_residual())
    assert (violations, verdict.status) == ([], FULL)


def test_residual_check_catches_bad_residual():
    violations, _ = residual_check(x32_rectangular_part(), orbit_set(3, [(1, 0, 0)]))
    kinds = {v.kind for v in violations}
    assert "ext" in kinds  # the rectangular part maps onto its own orbit


def test_residual_check_catches_non_generating_residual():
    # orthogonal but too thin to regenerate the cube: rank drops below 27
    small = LefschetzCollection(
        k=3, n=2, blocks=(x32_rectangular_part().blocks[0],) * 2
    )
    _, verdict = residual_check(small, x32_residual())
    assert verdict.status == NOT_FULL_BY_RANK


def test_residual_of_another_arity_is_refused():
    with pytest.raises(ValueError, match="arity"):
        residual_check(x32_rectangular_part(), orbit_set(2, [(1, 0)]))


def test_closure_determinism():
    coll = x32_minimal()
    a = verify_fullness(coll, margin=2)
    b = verify_fullness(coll, margin=2)
    assert a.state.trace == b.state.trace
    assert a.state.members == b.state.members


def test_randomised_schedule_agrees_with_canonical():
    rng = random.Random(23)
    box = Box(lo=0, hi=4, k=2)
    pts = list(box.points())
    for trial in range(20):
        seed = rng.sample(pts, rng.randint(2, 14))
        n = rng.choice((1, 2))
        canonical = close(seed, n, box).members
        shuffled = random_sweep_close(seed, n, box, rng)
        assert canonical == shuffled, (seed, n)


def eager_close(seed, n, box, stop_when_contains=None):
    """The engine as it was before the grid became the state.

    It builds every RuleApplication during the sweep and the member
    frozenset at the end; returns (members, trace).
    """
    h = n + 1
    grid = np.zeros((box.width,) * box.k, dtype=bool)
    for p in seed:
        grid[tuple(c - box.lo for c in p)] = True
    target_idx = None
    if stop_when_contains is not None:
        pts = list(stop_when_contains)
        target_idx = tuple(
            np.array([p[i] - box.lo for p in pts], dtype=np.intp) for i in range(box.k)
        )

    def target_met():
        return target_idx is not None and bool(grid[target_idx].all())

    def axis_pass(axis):
        g = np.moveaxis(grid, axis, -1)
        if g.shape[-1] < h:
            return []
        windows = sliding_window_view(g, h, axis=-1).all(axis=-1)
        has_window = windows.any(axis=-1)
        flood = has_window[..., None] & ~g
        entries = []
        for raw_line in np.argwhere(flood.any(axis=-1)):
            idx = tuple(int(c) for c in raw_line)
            line = tuple(box.lo + c for c in idx)
            added = tuple(
                line[:axis] + (box.lo + int(z),) + line[axis:]
                for z in np.flatnonzero(flood[idx])
            )
            start = box.lo + int(np.argmax(windows[idx]))
            entries.append(RuleApplication(axis=axis, line=line, window_start=start, added=added))
        g[flood] = True
        return entries

    trace = []
    done = target_met()
    changed = True
    while changed and not done:
        changed = False
        for axis in range(box.k):
            entries = axis_pass(axis)
            if entries:
                changed = True
                trace.extend(entries)
                if target_met():
                    done = True
                    break
    members = frozenset(tuple(int(c) + box.lo for c in idx) for idx in np.argwhere(grid))
    return members, tuple(trace)


@st.composite
def closure_cases(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 0))
    width = draw(st.integers(1, {1: 12, 2: 9, 3: 6, 4: 5}[k]))
    box = Box(lo=lo, hi=lo + width - 1, k=k)
    points = list(box.points())
    seed = draw(st.lists(st.sampled_from(points), max_size=min(len(points), 40)))
    t_lo = draw(st.integers(box.lo, box.hi))
    target = Box(lo=t_lo, hi=draw(st.integers(t_lo, box.hi)), k=k)
    stop = draw(st.booleans())
    return seed, n, box, target, stop


@settings(max_examples=150, deadline=None)
@given(closure_cases())
def test_grid_state_matches_eager_reference(case):
    seed, n, box, target, stop = case
    stop_at = list(target.points()) if stop else None
    state = close(seed, n, box, target=target if stop else None)
    members, trace = eager_close(seed, n, box, stop_when_contains=stop_at)
    assert state.member_count == len(members)
    assert state.trace_length == len(trace)
    assert state.members == members
    assert state.trace == trace
    missing = [p for p in target.points() if p not in members]
    assert state.missing_points(target) == missing
    assert state.missing_points(target, limit=3) == missing[:3]
    assert replay_trace(state.seed, n, box, state.trace) == state.members
    assert not state.grid.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.data())
def test_close_cube_matches_eager_reference(k, n, margin, data):
    box = Box(lo=-margin, hi=n + margin, k=k)
    seed = data.draw(st.lists(st.sampled_from(list(box.points())), max_size=3 * (n + 1) ** (k - 1)))
    cube = list(Box(lo=0, hi=n, k=k).points())
    state, missing = close_cube(seed, n, k, margin)
    members, trace = eager_close(seed, n, box, stop_when_contains=cube)
    assert state.box == box
    assert (state.members, state.trace) == (members, trace)
    assert missing == tuple(p for p in cube if p not in members)[:MISSING_SAMPLE]


def test_close_cube_drops_or_refuses_seeds_outside_the_box():
    # a coordinate beyond int64 is outside the box too
    for far in (5, 2 ** 70, -(2 ** 70)):
        with pytest.raises(ValueError, match="outside box"):
            close_cube([(0, 0), (far, 0)], 1, 2, 0)
        state, missing = close_cube([(0, 0), (far, 0)], 1, 2, 0, drop_outside=True)
        assert state.seed == frozenset({(0, 0)})
        assert missing == ((0, 1), (1, 0), (1, 1))


def test_orbit_closure_drops_or_refuses_seeds_outside_the_box():
    seed = orbit_elements([(0, 0, 0, 0), (5, 0, 0, 0)])
    message = r"seed point \(\d(,\d){3}\) outside box \[0, 1\]\^4"
    with pytest.raises(ValueError, match=message):
        close_orbits(seed, 1, 4, 0)
    state, missing = close_orbits(seed, 1, 4, 0, drop_outside=True)
    assert state.seed == frozenset({(0, 0, 0, 0)})
    assert missing == close_cube([(0, 0, 0, 0)], 1, 4, 0)[1]


def test_seed_points_of_another_arity_are_refused_not_dropped():
    # a wrong-arity point is no point of the box; dropping it would answer
    # as for an empty seed, and refusing it as "outside" would misname it
    for close_seed in (
        lambda seed: close_cube(seed, 1, 4),
        lambda seed: close_cube(seed, 1, 4, drop_outside=True),
        lambda seed: close_orbits(seed, 1, 4),
        lambda seed: close(seed, 1, Box(lo=0, hi=1, k=4)),
    ):
        with pytest.raises(ValueError, match=r"seed point \(0,0,0\) has arity 3, not k=4"):
            close_seed([(0, 0, 0, 0), (0, 0, 0)])


@pytest.mark.parametrize(
    "seed",
    [
        [(0.5, 0), (1, 0)],
        [(0, 0), (9.5, 0)],  # outside the box too: refused, not dropped
        [(0, 0), ("1", 0)],
        np.array([(0.7, 0.2)]),
        np.array([(1.0, 0.0), (0.0, 0.0)]),
    ],
)
def test_seed_coordinates_that_are_no_integers_are_refused_not_truncated(seed):
    # int() would read (0.5, 0) and (0.7, 0.2) as (0, 0) and close from there
    for close_seed in (
        lambda seed: close_cube(seed, 1, 2, 0),
        lambda seed: close_cube(seed, 1, 2, 0, drop_outside=True),
        lambda seed: close_orbits(seed, 1, 2, 0),
        lambda seed: close_orbits(seed, 1, 2, 0, drop_outside=True),
        lambda seed: close(seed, 1, Box(lo=0, hi=1, k=2)),
    ):
        with pytest.raises(ValueError, match=r"seed point .* is not a sequence of integers"):
            close_seed(seed)


def test_replay_trace_refuses_seed_coordinates_that_are_no_integers():
    # int() would read (0.5, 0) as (0, 0), a member no engine seeds
    with pytest.raises(ValueError, match=r"seed point .* is not a sequence of integers"):
        replay_trace([(0.5, 0), (1, 0)], 1, Box(lo=0, hi=1, k=2), [])
    assert replay_trace([(np.int8(0), 0), (1, True)], 1, Box(lo=0, hi=1, k=2), []) == {
        (0, 0), (1, 1)
    }


def test_replay_orbit_trace_refuses_seed_coordinates_that_are_no_integers():
    # canonical_rep alone would keep (0.5, 0, 0, 0) as a member rep
    with pytest.raises(ValueError, match=r"seed point .* is not a sequence of integers"):
        replay_orbit_trace([(0.5, 0, 0, 0)], 1, Box(lo=0, hi=1, k=4), [])
    assert replay_orbit_trace([(0, np.int8(1), 0, 0)], 1, Box(lo=0, hi=1, k=4), []) == {
        (1, 0, 0, 0)
    }


def test_symmetry_test_refuses_seed_coordinates_that_are_no_integers():
    # int() would read these four points as the one point (0, 0, 0, 0), a whole orbit
    seed = [(0.5, 0, 0, 0), (0, 0.5, 0, 0), (0, 0, 0.5, 0), (0, 0, 0, 0.5)]
    with pytest.raises(ValueError, match=r"seed point .* is not a sequence of integers"):
        saturation.close_seed(seed, 1, 4, 0)
    # a whole S_2-orbit goes to the orbit engine, half of one to the grid alone
    for seed, engine in (([(1, 0), (0, 1)], "close_orbits"), ([(1, 0)], "close_cube")):
        with mock.patch.object(saturation, "close_orbits", wraps=close_orbits) as orbits, \
                mock.patch.object(saturation, "close_cube", wraps=close_cube) as cube:
            _, missing = saturation.close_seed(seed, 1, 2, 0)
        calls = [name for name, m in (("close_orbits", orbits), ("close_cube", cube)) if m.called]
        assert missing and calls == [engine]


def test_integer_seed_coordinates_of_any_integer_type_are_read():
    seeds = ([(np.int8(0), 0), (1, True)], np.array([(0, 0), (1, 1)], dtype=np.uint8))
    for seed in seeds:
        assert close_cube(seed, 1, 2, 0)[0].seed == {(0, 0), (1, 1)}


def point_by_point_refusal(seed, box, drop_outside):
    """The message a point-by-point seed intake gives, or None.

    It takes the distinct points the drop keeps, in set order, and names the
    first of another arity than k, else (without the drop) the first outside
    the box.
    """
    kept = [p for p in seed if not drop_outside or len(p) != box.k or p in box]
    points = frozenset(tuple(int(c) for c in p) for p in kept)
    for p in points:
        if len(p) != box.k:
            return f"seed point {lattice.format_multidegree(p)} has arity {len(p)}, not k={box.k}"
    for p in () if drop_outside else points:
        if p not in box:
            return (
                f"seed point {lattice.format_multidegree(p)} outside box "
                f"[{box.lo}, {box.hi}]^{box.k}"
            )
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 4), min_size=2, max_size=4).map(tuple), min_size=0, max_size=40
    ),
    st.booleans(),
)
def test_seed_intake_refuses_as_point_by_point(seed, drop_outside):
    box = Box(lo=-1, hi=2, k=3)
    want = point_by_point_refusal(seed, box, drop_outside)
    if want is None:
        state, _ = close_cube(seed, 1, 3, 1, drop_outside=drop_outside)
        assert state.seed == frozenset(p for p in seed if p in box)
        array = np.array(sorted(state.seed), dtype=np.int64).reshape(-1, 3)
        assert close(array, 1, box).seed == state.seed
        if not drop_outside:  # an iterator is read once
            assert close(iter(seed), 1, box).seed == state.seed
        orbits, _ = close_orbits(seed, 1, 3, 1, drop_outside=drop_outside)
        assert orbits.seed == {canonical_rep(p) for p in state.seed}
        return
    closers = [
        lambda: close_cube(seed, 1, 3, 1, drop_outside=drop_outside),
        lambda: close_orbits(seed, 1, 3, 1, drop_outside=drop_outside),
    ]
    if not drop_outside:
        closers.append(lambda: close(seed, 1, box))
    if seed and len(set(map(len, seed))) == 1:  # an integer array is checked vectorised
        closers.append(lambda: close_cube(np.array(seed), 1, 3, 1, drop_outside=drop_outside))
    for closer in closers:
        with pytest.raises(ValueError) as info:
            closer()
        assert str(info.value) == want


def test_both_engines_name_the_same_refused_point():
    # the drop keeps the two points of arity 3; set order puts (0,2,0) first
    seed = [(-2, -1, -2), (2, -1, -3, 3), (0, 2, 0)]
    message = r"^seed point \(0,2,0\) has arity 3, not k=4$"
    for closes in (close_cube, close_orbits):
        with pytest.raises(ValueError, match=message):
            closes(seed, 1, 4, 0, drop_outside=True)


@pytest.mark.parametrize(
    "seed",
    [
        np.array([(0, 0), (2 ** 64 - 1, 0)], dtype=np.uint64),
        np.array([(0, 0), (2 ** 70, 0)], dtype=object),
    ],
    ids=["uint64", "object"],
)
def test_array_seeds_of_other_dtypes_are_read_point_by_point(seed):
    # no coordinate wraps into the box, and none overflows on the way in
    box = Box(lo=-1, hi=2, k=2)
    message = rf"^seed point \({seed[1, 0]},0\) outside box \[-1, 2\]\^2$"
    for closer in (
        lambda: close_cube(seed, 1, 2, 1),
        lambda: close_orbits(seed, 1, 2, 1),
        lambda: close(seed, 1, box),
    ):
        with pytest.raises(ValueError, match=message):
            closer()
    for closes in (close_cube, close_orbits):
        state, _ = closes(seed, 1, 2, 1, drop_outside=True)
        assert state.seed == frozenset({(0, 0)})


def test_orbit_missing_sample_is_drawn_lazily(monkeypatch):
    drawn = []

    def counted(values):
        for p in lattice._multiset_permutations(values):
            drawn.append(p)
            yield p

    monkeypatch.setattr(saturation, "_multiset_permutations", counted)
    # the orbit of (1,)*13 + (0,)*13 has C(26, 13) points, above MAX_ORBIT_BUNDLES
    assert comb(26, 13) > lattice.MAX_ORBIT_BUNDLES
    state, missing = close_orbits([(0,) * 26], 1, 26, 0)
    assert state.trace == ()
    assert missing == tuple(
        tuple(map(int, format(i, "026b"))) for i in range(1, MISSING_SAMPLE + 1)
    )
    # one point of each of the 26 missing orbits, then one per sampled point
    assert len(drawn) <= 26 + MISSING_SAMPLE


def test_close_cube_takes_an_integer_array_seed():
    seed = list(flatten_bundles(x32_minimal()))
    state, missing = close_cube(seed, 2, 3, 1)
    for array in (np.array(seed), np.array(seed + seed[:5], dtype=np.int32)):
        got, got_missing = close_cube(array, 2, 3, 1)
        assert (got.seed, got.members, got.trace, got_missing) == (
            state.seed, state.members, state.trace, missing
        )
        assert array.flags.writeable
    with pytest.raises(ValueError, match=r"seed point \(5,0,0\) outside box \[-1, 3\]\^3"):
        close_cube(np.array(seed + [(5, 0, 0)]), 2, 3, 1)
    dropped, _ = close_cube(np.array(seed + [(5, 0, 0)]), 2, 3, 1, drop_outside=True)
    assert dropped.seed == state.seed


def test_full_stable_seeds_close_in_the_least_box_that_covers_the_cube():
    seed = flatten_bundles(xk1(6))
    state, missing = saturation.close_seed(seed, 1, 6, 3)
    assert missing == () and state.box == Box(lo=-1, hi=2, k=6)
    assert close_cube(seed, 1, 6, 0, drop_outside=True)[1]
    cert = state.certificate(Box(lo=0, hi=1, k=6))
    replayed = replay_trace(seed, 1, Box(lo=-3, hi=4, k=6), cert.trace)
    assert replayed == set(seed) | cert.members
    assert replayed.issuperset(Box(lo=0, hi=1, k=6).points())
    # an unstable seed, and an inconclusive one, keep the requested box
    assert saturation.close_seed(seed[1:], 1, 6, 3)[0].box == Box(lo=-3, hi=4, k=6)
    state, missing = saturation.close_seed([(0,) * 6], 1, 6, 3)
    assert missing and state.box == Box(lo=-3, hi=4, k=6)


def test_the_margin_climb_closes_the_reps_already_read():
    seed, calls = flatten_bundles(xk1(8)), []

    def recording(seed, *args, **kwargs):
        out = close_orbits(seed, *args, **kwargs)
        calls.append((seed, out[0]))
        return out

    with mock.patch.object(saturation, "close_orbits", recording):
        state, missing = saturation.close_seed(seed, 1, 8, None)
    assert missing == () and state.box == Box(lo=-1, hi=2, k=8)
    reps = calls[0][1].seed
    assert len(reps) == 9
    # the requested margin 2, then margins 0 and 1, each given the 9 reps alone
    assert [seed for seed, _ in calls] == [reps] * 3


@pytest.mark.parametrize(
    "weight, points, calls", [(None, 256, 3), (0, 255, 1)], ids=["full", "inconclusive"]
)
def test_close_seed_reads_each_seed_point_once(weight, points, calls):
    # xk1(8), or xk1(8) without its weight-0 orbit, which does not generate
    first, second = xk1(8).blocks
    seed = [p for p in first.bundles() if sum(p) != weight]
    seed += [twist(p, 1) for p in second.bundles()]
    reads = []

    def counting(p, what):
        reads.append(p)
        return lattice._integer_point(p, what)

    with mock.patch.object(saturation, "_integer_point", counting):
        _, missing = saturation.close_seed(seed, 1, 8, None)
    assert (missing == ()) == (weight is None)
    assert len(seed) == points and reads[:points] == seed
    # then only the reps, once in each close_orbits call
    reps = {canonical_rep(p) for p in seed}
    assert collections.Counter(reads[points:]) == {r: calls for r in reps}


def test_missing_points_refuses_target_outside_box():
    state = close([(0, 0)], 1, Box(lo=0, hi=2, k=2))
    with pytest.raises(ValueError, match="not inside box"):
        state.missing_points(Box(lo=-1, hi=1, k=2))


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
def test_window_mask_matches_sliding_window(h):
    rng = np.random.default_rng(h)
    grid = rng.random((7, 6, 8)) < 0.8
    for axis in range(grid.ndim):
        moved = np.moveaxis(grid, axis, -1)
        want = np.moveaxis(sliding_window_view(moved, h, axis=-1).all(axis=-1), -1, axis)
        got = saturation._window_mask(grid, axis, h)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (h, axis)


def test_fold_matches_numpy_reduce():
    rng = np.random.default_rng(3)
    for shape in [(9,), (4, 5), (3, 4, 6)]:
        a = rng.random(shape) < 0.6
        for axis in range(a.ndim):
            for ufunc in (np.logical_and, np.logical_or):
                want = ufunc.reduce(a, axis=axis, keepdims=True)
                assert np.array_equal(saturation._fold(ufunc, a, axis), want)


@pytest.mark.parametrize(
    "seed, n, k",
    [
        ([(0, 0, 0), (1, 0, 0)], 1, 3),  # one line floods, then nothing
        ([(0, 0), (1, 0), (0, 1)], 1, 2),  # a cross, never the corner (1, 1)
        ([(0, 0)], 1, 2),  # no pass gains anything
        ([(0,), (2,)], 1, 1),
    ],
)
def test_fixed_point_stops_after_exactly_k_idle_passes(monkeypatch, seed, n, k):
    # inconclusive seeds: the cube is never covered, so only the fixed point ends the loop
    calls = []
    axis_pass = saturation._axis_pass

    def counting(grid, axis, h):
        record = axis_pass(grid, axis, h)
        calls.append((axis, record is not None))
        return record

    monkeypatch.setattr(saturation, "_axis_pass", counting)
    state, missing = close_cube(seed, n, k, margin=1)
    assert missing
    gains = [i for i, (_, gained) in enumerate(calls) if gained]
    assert len(calls) - 1 - (gains[-1] if gains else -1) == k
    assert [axis for axis, _ in calls] == [i % k for i in range(len(calls))]
    assert len(state.passes) == len(gains)


def test_residual_generation_violation_records_its_case():
    rect, res = x32_rectangular_part(), x32_residual()
    # the right bundle count whose closure stops short at margin 0: undecided
    violations, verdict = residual_check(rect, res, margin=0)
    assert (violations, verdict.status) == ([], INCONCLUSIVE)
    missing = verdict.detail["missing_sample"]
    assert missing and all(0 <= c <= 2 for p in missing for c in p)  # unreached cube points
    violations, verdict = residual_check(rect, res, margin=1)
    assert (violations, verdict.status) == ([], FULL)
    # too few bundles: decided by the count, before any closure
    small = LefschetzCollection(k=3, n=2, blocks=(rect.blocks[0],) * 2)
    _, verdict = residual_check(small, res)
    assert verdict.status == NOT_FULL_BY_RANK
    assert (verdict.detail["bundles"], verdict.detail["expected"]) == (20, 27)


def grid_generation(coll, margin):
    """Status and missing sample of the grid closure of the flattened collection."""
    _, missing = close_cube(flatten_bundles(coll), coll.n, coll.k, margin, drop_outside=True)
    return (INCONCLUSIVE if missing else FULL), missing


ORBIT_CASES = [(xk1(k), m) for k in range(4, 11) for m in range(3)] + [
    (staircase_rectangular(k, n), m)
    for k in range(4, 7)
    for n in range(1, 4)
    for m in range(n + 2)
]


@pytest.mark.parametrize(
    "coll, margin", ORBIT_CASES, ids=[f"{c.k}-{c.n}-m{m}" for c, m in ORBIT_CASES]
)
def test_orbit_verdicts_agree_with_the_grid_on_collections(coll, margin):
    verdict = verify_fullness(coll, margin=margin)
    if verdict.status != NOT_FULL_BY_RANK:
        assert isinstance(verdict.state, OrbitClosureState)
        missing = verdict.detail.get("missing_sample", ())
        assert (verdict.status, missing) == grid_generation(coll, margin)


def orbit_elements(reps):
    return {p for r in reps for p in orbit_of(r).elements}


@st.composite
def symmetric_seeds(draw):
    """Orbits of a random share of the reps of the box, a quarter to nearly all of them."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    margin = draw(st.integers(0, 2 if k < 5 else 1))
    box = range(n + margin, -margin - 1, -1)
    reps = list(itertools.combinations_with_replacement(box, k))
    share, rng = draw(st.floats(0.25, 0.95)), draw(st.randoms(use_true_random=False))
    chosen = [r for r in reps if rng.random() < share]
    return sorted(orbit_elements(chosen)), n, k, margin


def every_line_close(seed, n, k, margin):
    """close_orbits as specified: each pass visits every orbit line, ascending lex.

    Returns the trace as (line, window_start, added) tuples.
    """
    lo, hi = -margin, n + margin
    members = {canonical_rep(p) for p in seed if all(lo <= c <= hi for c in p)}
    lines = sorted(itertools.combinations_with_replacement(range(hi, lo - 1, -1), k - 1))
    cube = set(itertools.combinations_with_replacement(range(n, -1, -1), k))
    trace, gained = [], True
    while gained and not cube <= members:
        gained = False
        for line in lines:
            points = [canonical_rep(line + (z,)) for z in range(lo, hi + 1)]
            present = [p in members for p in points]
            starts = [s for s in range(len(points) - n) if all(present[s : s + n + 1])]
            if starts and not all(present):
                added = tuple(p for p, here in zip(points, present) if not here)
                members.update(added)
                trace.append((line, lo + starts[0], added))
                gained = True
                if cube <= members:
                    break
    return trace


@settings(max_examples=120, deadline=None)
@given(symmetric_seeds())
def test_orbit_closure_agrees_with_the_grid(case):
    seed, n, k, margin = case
    state, missing = close_orbits(seed, n, k, margin)
    # skipping the lines that gained nothing since their last visit changes no rule
    assert [(r.line, r.window_start, r.added) for r in state.trace] == every_line_close(
        seed, n, k, margin
    )
    grid_state, grid_missing = close_cube(seed, n, k, margin)
    assert missing == grid_missing
    if missing:  # both at their fixed point
        assert state.members == {canonical_rep(p) for p in grid_state.members}
    # the expanded trace replays on the elements to the orbits of the members
    replayed = replay_trace(seed, n, state.box, expand_orbit_trace(state.trace))
    assert replayed == orbit_elements(state.members)
    assert replay_orbit_trace(seed, n, state.box, state.trace) == state.members


@pytest.mark.parametrize("coll", [xk1(4), xk1(5), staircase_rectangular(4, 2)], ids=str)
def test_expanded_orbit_trace_replays_to_the_cube(coll):
    verdict = verify_fullness(coll)
    state, seed = verdict.state, flatten_bundles(coll)
    trace = expand_orbit_trace(state.trace)
    assert len(trace) == sum(coll.k * orbit_of(r.line).size for r in state.trace)
    members = replay_trace(seed, coll.n, state.box, trace)
    assert set(Box(lo=0, hi=coll.n, k=coll.k).points()) <= members


@st.composite
def counted_seeds(draw):
    """(rep, size) of each orbit of the cube [0, n]^k, k <= 3, twisted by its own random t.

    (n+1)^k bundles unless two twisted reps meet; margins 0..n+1.
    """
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    margin = draw(st.integers(0, n + 1))
    spread, rng = draw(st.integers(0, 2)), draw(st.randoms(use_true_random=False))
    reps = itertools.combinations_with_replacement(range(n, -1, -1), k)
    orbits = [(twist(r, rng.randint(-spread, spread)), orbit_of(r).size) for r in reps]
    return orbits, n, k, margin


@settings(max_examples=150, deadline=None)
@given(counted_seeds())
def test_a_generation_verdict_is_the_same_on_reps_and_on_the_grid(case):
    orbits, n, k, margin = case
    verdicts = []
    for limit in (0, 2 ** 62):  # every box on the grid, then every box on reps
        with mock.patch.object(lattice, "REPS_MAX_CELLS", limit):
            verdicts.append(saturation._generation_verdict(orbits, n, k, margin))
    grid, reps = verdicts
    assert (reps.status, reps.detail) == (grid.status, grid.detail)
    if reps.status == NOT_FULL_BY_RANK:
        return
    assert isinstance(grid.state, ClosureState) and isinstance(reps.state, OrbitClosureState)
    if reps.status == FULL:
        state, cube = reps.state, Box(lo=0, hi=n, k=k)
        replayed = replay_orbit_trace(state.seed, n, state.box, state.trace)
        assert set(map(canonical_rep, cube.points())) <= replayed
        seed = orbit_elements(state.seed)
        points = replay_trace(seed, n, state.box, expand_orbit_trace(state.trace))
        assert set(cube.points()) <= points


def test_the_closure_engine_follows_the_arity_and_the_size():
    # x3n(7) closes in a box of 24^3 cells, at most REPS_MAX_CELLS: on reps, with
    # no numpy; x3n(9) and x3n(13), in boxes of 30^3 and 42^3, on the grid
    assert 24 ** 3 <= lattice.REPS_MAX_CELLS < 30 ** 3
    grid = mock.patch.object(saturation, "close_cube", side_effect=AssertionError("grid"))
    arrays = mock.patch.object(saturation, "_numpy", side_effect=AssertionError("numpy"))
    with grid, arrays:
        assert verify_fullness(x3n_rectangular(7)).status == FULL
    with mock.patch.object(saturation, "close_orbits", side_effect=AssertionError("reps")):
        for n in (9, 13):
            assert isinstance(verify_fullness(x3n_rectangular(n)).state, ClosureState)


def test_orbit_replay_rejects_corrupt_traces():
    state = verify_fullness(xk1(6)).state
    first = state.trace[0]
    replay_orbit_trace(state.seed, 1, state.box, state.trace)
    window = canonical_rep(first.line + (first.window_start,))
    with pytest.raises(ValueError, match="missing before rule"):
        replay_orbit_trace(state.seed - {window}, 1, state.box, state.trace)
    off_line = (state.box.hi,) * 6  # in the box, but holds no copy of the line
    assert state.box.hi not in first.line
    bad = OrbitRule(first.line, first.window_start, first.added + (off_line,))
    with pytest.raises(ValueError, match="not on line"):
        replay_orbit_trace(state.seed, 1, state.box, (bad,) + state.trace[1:])


def test_orbit_closure_refuses_a_negative_margin():
    with pytest.raises(ValueError, match="nonnegative"):
        close_orbits([(0, 0, 0, 0)], 1, 4, -1)


def test_orbit_closure_refuses_n_below_1_as_the_grid_does():
    # an empty cube would leave nothing missing, which reads as FULL
    for n in (0, -1):
        for closes in (close_cube, close_orbits):
            with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
                closes([(0, 0, 0, 0)], n, 4, 1)


def test_orbit_replay_refuses_rules_that_do_not_fit_k():
    box = Box(lo=0, hi=3, k=4)
    seed = [(0, 0, 0, 0), (1, 0, 0, 0)]
    for line, added in (((0, 0), ()), ((0, 0, 0, 0), ()), ((0, 0, 0), ((2, 0, 0),))):
        bad = OrbitRule(line=line, window_start=0, added=added)
        with pytest.raises(ValueError, match="does not fit k=4"):
            replay_orbit_trace(seed, 1, box, (bad,))


@st.composite
def full_closures(draw):
    """close_cube of random seeds, k <= 3, n <= 2, margins 0..n+1, where it is FULL."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    margin = draw(st.integers(0, n + 1))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 0.4, 0.6]))
    box = Box(lo=-margin, hi=n + margin, k=k)
    seed = [p for p in box.points() if rng.random() < density]
    state, missing = close_cube(seed, n, k, margin)
    assume(not missing)
    return state


def covers(members, cube):
    return all(p in members for p in cube.points())


@settings(max_examples=120, deadline=None)
@given(full_closures())
def test_certificate_is_a_sound_irredundant_slice_of_the_trace(state):
    n, k = state.n, state.box.k
    cube = Box(lo=0, hi=n, k=k)
    cert = state.certificate(cube)
    assert (cert.box, cert.n, cert.seed) == (state.box, state.n, state.seed)
    assert not cert.grid.flags.writeable
    assert cert.trace_length == len(cert.trace)
    assert cert.member_count == len(cert.members)
    replayed = replay_trace(cert.seed, n, cert.box, cert.trace)
    assert replayed == cert.members
    assert covers(replayed, cube)
    # the entries are engine rules, in engine order, each adding a subset
    engine = iter(state.trace)
    for app in cert.trace:
        rule = next((r for r in engine if (r.axis, r.line) == (app.axis, app.line)), None)
        assert rule is not None
        assert rule.window_start == app.window_start
        assert app.added and set(app.added) <= set(rule.added)

    def breaks(trace):
        try:
            return not covers(replay_trace(cert.seed, n, cert.box, trace), cube)
        except ValueError:
            return True

    trace = cert.trace
    for i, app in enumerate(trace):
        assert breaks(trace[:i] + trace[i + 1 :])
        for j in range(len(app.added)):
            fewer = replace(app, added=app.added[:j] + app.added[j + 1 :])
            assert breaks(trace[:i] + (fewer,) + trace[i + 1 :])
