"""Window-generation closure over finite boxes in Z^k, with replayable traces.

The single generation rule: if n+1 consecutive points of an axis-parallel
line all belong to the generated set, the whole line (inside the working
box) belongs to it.  The closure is the least fixed point of that rule and
does not depend on application order; the engine applies it in a canonical
order (axes ascending, lines ascending lex, sweeps repeated until stable)
so traces are deterministic.  Every rule application is recorded and can be
replayed by an independent pure-set routine, which is how FULL verdicts
stay auditable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ext import ext_graded, orthogonal_mask
from .lattice import Box, Multidegree, OrbitSet, format_multidegree
from .lefschetz import LefschetzCollection, Violation, flatten_bundles, ranks

FULL = "FULL"
NOT_FULL_BY_RANK = "NOT_FULL_BY_RANK"
INCONCLUSIVE = "INCONCLUSIVE"

# Largest working box, in cells (one byte each in the grid, a few times that
# in the sweep temporaries).  (P^1)^10 at margin 2 needs 6^10 ~ 6.0e7.
MAX_BOX_CELLS = 2 ** 29


@dataclass(frozen=True)
class RuleApplication:
    """One line flood: fixed coordinates, the witnessing window, points added.

    line lists the k-1 coordinates of the other axes in index order; the
    window [window_start, window_start + n] along `axis` was fully in the
    member set before this application.
    """

    axis: int
    line: tuple[int, ...]
    window_start: int
    added: tuple[Multidegree, ...]


@dataclass(frozen=True)
class ClosureState:
    box: Box
    n: int
    seed: frozenset
    members: frozenset
    trace: tuple[RuleApplication, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a fullness check; certificate data depends on status.

    FULL carries the closure state whose trace replays to cover [0, n]^k.
    NOT_FULL_BY_RANK carries the offending counts.  INCONCLUSIVE carries a
    sample of unreached points (enlarging the box may still succeed).
    """

    status: str
    state: ClosureState | None
    detail: dict = field(default_factory=dict)


def _insert_coord(line, axis, value):
    return line[:axis] + (value,) + line[axis:]


def _axis_pass(grid, axis, h, box):
    """Flood every line along `axis` holding a full window; return trace entries.

    Lines along one axis are pairwise disjoint, so flooding them from a
    common snapshot equals any sequential order.
    """
    g = np.moveaxis(grid, axis, -1)
    if g.shape[-1] < h:
        return []
    windows = sliding_window_view(g, h, axis=-1).all(axis=-1)
    has_window = windows.any(axis=-1)
    if not has_window.any():
        return []
    flood = has_window[..., None] & ~g
    gains = flood.any(axis=-1)
    entries = []
    for raw_line in np.argwhere(gains):
        idx = tuple(int(c) for c in raw_line)
        start = int(np.argmax(windows[idx]))
        line = tuple(box.lo + c for c in idx)
        added = tuple(
            _insert_coord(line, axis, box.lo + int(z))
            for z in np.flatnonzero(flood[idx])
        )
        entries.append(
            RuleApplication(
                axis=axis, line=line, window_start=box.lo + start, added=added
            )
        )
    g[flood] = True
    return entries


def close(seed, n: int, box: Box, stop_when_contains=None) -> ClosureState:
    """Least fixed point of the window rule over `box`, starting from `seed`.

    stop_when_contains, if given, is a set of points; sweeping stops early
    once all of them are members (checked after each axis pass).  This keeps
    traces small when only a target region matters; it never changes whether
    the target is reached, only how much of the rest of the box gets filled.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if box.size > MAX_BOX_CELLS:
        raise ValueError(
            f"box [{box.lo}, {box.hi}]^{box.k} has {box.size} cells, more than the "
            f"limit of {MAX_BOX_CELLS}; use a smaller margin"
        )
    seed = frozenset(tuple(int(c) for c in p) for p in seed)
    for p in seed:
        if p not in box:
            raise ValueError(
                f"seed point {format_multidegree(p)} outside box [{box.lo}, {box.hi}]^{box.k}"
            )
    h = n + 1
    grid = np.zeros((box.width,) * box.k, dtype=bool)
    for p in seed:
        grid[tuple(c - box.lo for c in p)] = True

    target_idx = None
    if stop_when_contains is not None:
        pts = [tuple(int(c) for c in p) for p in stop_when_contains]
        for p in pts:
            if p not in box:
                raise ValueError(
                    f"target point {format_multidegree(p)} outside box"
                )
        target_idx = tuple(
            np.array([p[i] - box.lo for p in pts], dtype=np.intp)
            for i in range(box.k)
        )

    def target_met():
        return target_idx is not None and bool(grid[target_idx].all())

    trace = []
    done = target_met()
    changed = True
    while changed and not done:
        changed = False
        for axis in range(box.k):
            entries = _axis_pass(grid, axis, h, box)
            if entries:
                changed = True
                trace.extend(entries)
                if target_met():
                    done = True
                    break

    members = frozenset(
        tuple(int(c) + box.lo for c in idx) for idx in np.argwhere(grid)
    )
    return ClosureState(box=box, n=n, seed=seed, members=members, trace=tuple(trace))


def replay_trace(seed, n: int, box: Box, trace) -> frozenset:
    """Re-run a trace with plain set operations, verifying each precondition.

    Raises ValueError if any window was not fully present when its rule
    fired, if an added point leaves the box, or if it is off the rule's
    line.  Returns the final member set.
    """
    members = set(tuple(int(c) for c in p) for p in seed)
    h = n + 1
    for app in trace:
        for z in range(app.window_start, app.window_start + h):
            pt = _insert_coord(app.line, app.axis, z)
            if pt not in members:
                raise ValueError(
                    f"window point {format_multidegree(pt)} missing before rule on "
                    f"axis {app.axis}, line {app.line}"
                )
        for p in app.added:
            if p not in box:
                raise ValueError(f"added point {format_multidegree(p)} outside box")
            if p[: app.axis] + p[app.axis + 1 :] != app.line:
                raise ValueError(
                    f"added point {format_multidegree(p)} not on line {app.line}"
                )
            members.add(p)
    return frozenset(members)


def _target_cube(n, k):
    return list(itertools.product(range(n + 1), repeat=k))


def verify_fullness(coll: LefschetzCollection, margin: int | None = None) -> Verdict:
    """Decide fullness of an exceptional collection by rank count plus closure.

    A full collection must have exactly (n+1)^k bundles; any other count is
    NOT_FULL_BY_RANK before any closure runs.  With the count right, the
    twisted bundles seed a closure over [-margin, n+margin]^k; covering the
    cube [0, n]^k certifies FULL (the cube generates everything), otherwise
    the verdict is INCONCLUSIVE for this margin.
    """
    n, k = coll.n, coll.k
    h = n + 1
    if margin is None:
        margin = h
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    bundles = flatten_bundles(coll)
    expected = h ** k
    if len(bundles) != expected or len(set(bundles)) != expected:
        return Verdict(
            status=NOT_FULL_BY_RANK,
            state=None,
            detail={
                "bundles": len(set(bundles)),
                "expected": expected,
                "ranks": ranks(coll),
            },
        )
    box = Box(lo=-margin, hi=n + margin, k=k)
    target = _target_cube(n, k)
    # bundles that overflow a small box are dropped; generating the cube from
    # fewer seeds is still a sound FULL certificate
    seed = [p for p in bundles if p in box]
    state = close(seed, n, box, stop_when_contains=target)
    missing = [p for p in target if p not in state.members]
    if not missing:
        return Verdict(status=FULL, state=state, detail={"margin": margin})
    return Verdict(
        status=INCONCLUSIVE,
        state=state,
        detail={"margin": margin, "missing_sample": tuple(missing[:20])},
    )


def residual_check(
    rect_part: LefschetzCollection, residual: OrbitSet, margin: int | None = None
) -> list[Violation]:
    """Check a rectangular part against a residual orbit set.

    Verifies, exhaustively, that every twisted bundle of every block has
    vanishing Ext into every residual bundle, and that the union of all
    those bundles window-generates the cube [0, n]^k.  Returns all
    violations found (empty list means the residual check passed).
    """
    n, k = rect_part.n, rect_part.k
    h = n + 1
    if margin is None:
        margin = h
    if residual.k != k:
        return [Violation(kind="invariance", witness=(residual.k, k))]
    flat = flatten_bundles(rect_part)
    res_bundles = residual.bundles()
    out = [
        Violation(
            kind="ext",
            witness=(flat[q], res_bundles[r]),
            detail=ext_graded(n, flat[q], res_bundles[r]),
        )
        for q, r in np.argwhere(~orthogonal_mask(n, flat, res_bundles)).tolist()
    ]
    box = Box(lo=-margin, hi=n + margin, k=k)
    seed = set(flat) | set(res_bundles)
    seed = {p for p in seed if p in box}
    target = _target_cube(n, k)
    state = close(seed, n, box, stop_when_contains=target)
    missing = tuple(p for p in target if p not in state.members)
    if missing:
        out.append(Violation(kind="generation", witness=missing[:20]))
    return out
