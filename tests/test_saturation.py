import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from lefkit import saturation
from lefkit.lattice import Box, orbit_set
from lefkit.lefschetz import (
    LefschetzCollection,
    flatten_bundles,
    x32_minimal,
    x32_rectangular_part,
    x32_residual,
    xk1,
)
from lefkit.saturation import (
    FULL,
    INCONCLUSIVE,
    MAX_BOX_CELLS,
    MISSING_SAMPLE,
    NOT_FULL_BY_RANK,
    RuleApplication,
    close,
    close_cube,
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
    state = verdict.state
    assert replay_trace(state.seed, 2, state.box, state.trace) == state.members
    assert set(Box(lo=0, hi=2, k=3).points()) <= state.members


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

    monkeypatch.setattr(np, "zeros", no_allocation)
    assert 6 ** 14 > MAX_BOX_CELLS > 6 ** 10
    with pytest.raises(ValueError, match="cells"):
        verify_fullness(xk1(14), margin=2)


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
    violations = residual_check(x32_rectangular_part(), x32_residual())
    assert violations == []


def test_residual_check_catches_bad_residual():
    violations = residual_check(x32_rectangular_part(), orbit_set(3, [(1, 0, 0)]))
    kinds = {v.kind for v in violations}
    assert "ext" in kinds  # the rectangular part maps onto its own orbit


def test_residual_check_catches_non_generating_residual():
    # orthogonal but too thin to regenerate the cube: rank drops below 27
    small = LefschetzCollection(
        k=3, n=2, blocks=(x32_rectangular_part().blocks[0],) * 2
    )
    violations = residual_check(small, x32_residual())
    assert any(v.kind == "generation" for v in violations)


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
    with pytest.raises(ValueError, match="outside box"):
        close_cube([(0, 0), (5, 0)], 1, 2, 0)
    state, missing = close_cube([(0, 0), (5, 0)], 1, 2, 0, drop_outside=True)
    assert state.seed == frozenset({(0, 0)})
    assert missing == ((0, 1), (1, 0), (1, 1))


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
    (v,) = residual_check(rect, res, margin=0)
    assert (v.kind, v.detail) == ("generation", (INCONCLUSIVE,))
    assert v.witness and all(0 <= c <= 2 for p in v.witness for c in p)  # unreached cube points
    assert residual_check(rect, res, margin=1) == []
    # too few bundles: decided by the count, before any closure
    small = LefschetzCollection(k=3, n=2, blocks=(rect.blocks[0],) * 2)
    (v,) = [v for v in residual_check(small, res) if v.kind == "generation"]
    assert (v.witness, v.detail) == ((20, 27), (NOT_FULL_BY_RANK,))
