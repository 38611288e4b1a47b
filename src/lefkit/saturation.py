"""Window-generation closure over finite boxes in Z^k, with replayable traces.

The single generation rule: if n+1 consecutive points of an axis-parallel
line all belong to the generated set, the whole line (inside the working
box) belongs to it.  The closure is the least fixed point of that rule and
does not depend on application order; the engine applies it in a canonical
order (axes visited cyclically until k passes in a row add nothing, lines
ascending lex) so traces are deterministic.

The engine's state is a boolean numpy grid over the box.  Each axis pass is
recorded as arrays (the flooded lines, their first windows and the points
they gained); the member set and the trace of rule applications are built
from the grid and those records only when asked for.  Every rule
application can be replayed by an independent pure-set routine, which is
how FULL verdicts stay auditable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .ext import ext_graded, orthogonal_mask
from .lattice import Box, Multidegree, OrbitSet, format_multidegree
from .lefschetz import LefschetzCollection, Violation, flatten_bundles, ranks

FULL = "FULL"
NOT_FULL_BY_RANK = "NOT_FULL_BY_RANK"
INCONCLUSIVE = "INCONCLUSIVE"

# Largest working box, in cells (one byte each in the grid, a few times that
# in the sweep temporaries).  (P^1)^10 at margin 2 needs 6^10 ~ 6.0e7.
MAX_BOX_CELLS = 2 ** 29

# Unreached cube points reported with an INCONCLUSIVE closure.
MISSING_SAMPLE = 20


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


@dataclass(frozen=True, eq=False)
class _Pass:
    """One axis pass that flooded at least one line, recorded as arrays.

    lines holds the flat indices of the flooded lines in the grid shape with
    `axis` collapsed to length 1, ascending (so the lines come in ascending
    lex order); starts holds the index of each line's first full window
    along `axis`; added holds one boolean row per line, over the whole box
    width, of the points the flood gained.
    """

    axis: int
    lines: np.ndarray
    starts: np.ndarray
    added: np.ndarray


@dataclass(frozen=True, eq=False)
class ClosureState:
    """The closure of `seed` over `box`: a boolean grid plus per-pass records.

    grid[i_1, ..., i_k] is True when the point (box.lo + i_1, ...,
    box.lo + i_k) is a member; it is read-only.  member_count, trace_length
    and missing_points read the arrays.  members (a frozenset of points) and
    trace (the RuleApplications in engine order) are built on first access.
    """

    box: Box
    n: int
    seed: frozenset
    grid: np.ndarray = field(repr=False)
    passes: tuple[_Pass, ...] = field(repr=False)

    @functools.cached_property
    def member_count(self) -> int:
        return int(np.count_nonzero(self.grid))

    @property
    def trace_length(self) -> int:
        return sum(len(p.lines) for p in self.passes)

    @functools.cached_property
    def members(self) -> frozenset:
        return frozenset(map(tuple, (np.argwhere(self.grid) + self.box.lo).tolist()))

    @functools.cached_property
    def trace(self) -> tuple[RuleApplication, ...]:
        lo = self.box.lo
        out = []
        for p in self.passes:
            shape = self.grid.shape[: p.axis] + (1,) + self.grid.shape[p.axis + 1 :]
            coords = np.stack(np.unravel_index(p.lines, shape), axis=1) + lo
            rows, zs = np.nonzero(p.added)
            points = coords[rows]
            points[:, p.axis] = zs + lo
            points = list(map(tuple, points.tolist()))
            ends = np.cumsum(np.count_nonzero(p.added, axis=1)).tolist()
            lines = np.delete(coords, p.axis, axis=1).tolist()
            begin = 0
            for line, start, end in zip(lines, (p.starts + lo).tolist(), ends):
                out.append(
                    RuleApplication(
                        axis=p.axis,
                        line=tuple(line),
                        window_start=start,
                        added=tuple(points[begin:end]),
                    )
                )
                begin = end
        return tuple(out)

    def missing_points(self, target: Box, limit: int | None = None) -> list[Multidegree]:
        """Points of `target`, a box inside the working box, that are not members.

        Ascending lex order, at most `limit` of them.
        """
        sub = self.grid[_sub_box(self.box, target)]
        flat = np.flatnonzero(~sub)[:limit]
        coords = np.stack(np.unravel_index(flat, sub.shape), axis=1) + target.lo
        return list(map(tuple, coords.tolist()))


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


def _sub_box(box: Box, target: Box) -> tuple[slice, ...]:
    """The slices selecting `target` in a grid over `box`; ValueError unless it is inside."""
    if target.k != box.k or target.lo < box.lo or target.hi > box.hi:
        raise ValueError(
            f"target [{target.lo}, {target.hi}]^{target.k} not inside box "
            f"[{box.lo}, {box.hi}]^{box.k}"
        )
    offset = target.lo - box.lo
    return (slice(offset, offset + target.width),) * target.k


def _margin(n: int, margin: int | None) -> int:
    """The closure margin around the cube [0, n]^k: n + 1 by default, never negative."""
    if margin is None:
        return n + 1
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return margin


def _insert_coord(line, axis, value):
    return line[:axis] + (value,) + line[axis:]


def _slab(a, axis, start, stop):
    return a[(slice(None),) * axis + (slice(start, stop),)]


def _window_mask(grid, axis, h):
    """mask[..., s, ...] is True when grid[..., s:s+h, ...] is all True along `axis`.

    Built by doubling from shifted slices along the axis itself: a window
    reduction over a strided view is an order of magnitude slower when
    `axis` is the contiguous last one.
    """
    run, length = grid, 1
    while length < h:
        # run covers `length` cells from each start; overlap two runs
        step = min(length, h - length)
        count = run.shape[axis] - step
        run = _slab(run, axis, 0, count) & _slab(run, axis, step, step + count)
        length += step
    return run


def _fold(ufunc, a, axis):
    """ufunc.reduce over `axis`, keeping it with length 1.

    One in-place ufunc call per slice along `axis`: on the short axes of a
    closure box this beats numpy's own reduction, most of all along the
    contiguous last axis.
    """
    out = _slab(a, axis, 0, 1).copy()
    for i in range(1, a.shape[axis]):
        ufunc(out, _slab(a, axis, i, i + 1), out=out)
    return out


def _line_cells(shape, lines, axis, length):
    """Index selecting the first `length` cells along `axis` of each flat line index.

    The result of indexing with it has one row per line.
    """
    index = [c[:, None] for c in np.unravel_index(lines, shape)]
    index[axis] = np.arange(length)[None, :]
    return tuple(index)


def _axis_pass(grid, axis, h):
    """Flood every line along `axis` holding a full window; return its record.

    Returns None when no line gains a point.  Lines along one axis are
    pairwise disjoint, so flooding them from a common snapshot equals any
    sequential order.
    """
    width = grid.shape[axis]
    if width < h:
        return None
    windows = _window_mask(grid, axis, h)
    gains = _fold(np.logical_or, windows, axis) & ~_fold(np.logical_and, grid, axis)
    lines = np.flatnonzero(gains)
    if not lines.size:
        return None
    starts = np.argmax(windows[_line_cells(gains.shape, lines, axis, width - h + 1)], axis=1)
    cells = _line_cells(gains.shape, lines, axis, width)
    added = ~grid[cells]
    grid[cells] = True
    return _Pass(axis=axis, lines=lines, starts=starts, added=added)


def close(seed, n: int, box: Box, target: Box | None = None) -> ClosureState:
    """Least fixed point of the window rule over `box`, starting from `seed`.

    The axes are visited cyclically until k passes in a row add nothing (the
    fixed point) or, if target (a box inside `box`) is given, until all its
    points are members.  The target keeps traces small when only it matters;
    it never changes whether it is reached, only how much of the rest of the
    box gets filled.
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
    if seed:
        grid[tuple((np.array(list(seed)) - box.lo).T)] = True

    window = None if target is None else _sub_box(box, target)

    def target_met():
        return window is not None and bool(grid[window].all())

    passes, idle, axis = [], 0, 0
    while idle < box.k and not target_met():
        record = _axis_pass(grid, axis, h)
        if record is None:
            idle += 1
        else:
            passes.append(record)
            idle = 0
        axis = (axis + 1) % box.k

    grid.flags.writeable = False
    return ClosureState(box=box, n=n, seed=seed, grid=grid, passes=tuple(passes))


def close_cube(seed, n: int, k: int, margin: int | None = None, drop_outside: bool = False):
    """Close `seed` over [-margin, n+margin]^k, stopping once [0, n]^k is covered.

    margin defaults to n + 1 and must not be negative.  Returns the state
    and the first MISSING_SAMPLE points of the cube that were not reached,
    ascending lex; an empty sample certifies that the cube, and so
    everything, is generated.  With drop_outside, seed points outside the
    box are dropped instead of refused (generating the cube from fewer
    seeds is still a sound certificate).
    """
    margin = _margin(n, margin)
    box = Box(lo=-margin, hi=n + margin, k=k)
    if drop_outside:
        seed = [p for p in seed if p in box]
    cube = Box(lo=0, hi=n, k=k)
    state = close(seed, n, box, target=cube)
    return state, tuple(state.missing_points(cube, limit=MISSING_SAMPLE))


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


def _generation_verdict(bundles, n: int, k: int, margin: int | None) -> Verdict:
    """Decide whether `bundles` generate: the distinct-bundle count, then the closure.

    Generating with exactly (n+1)^k bundles needs that many distinct ones;
    any other count is NOT_FULL_BY_RANK before any closure runs.  With the
    count right, the bundles seed a closure over [-margin, n+margin]^k
    (close_cube's margin rule); covering the cube [0, n]^k certifies FULL
    (the cube generates everything), otherwise the verdict is INCONCLUSIVE
    for this margin.  A negative margin is refused even when the count decides.
    """
    _margin(n, margin)
    expected = (n + 1) ** k
    distinct = len(set(bundles))
    if len(bundles) != expected or distinct != expected:
        detail = {"bundles": distinct, "expected": expected}
        return Verdict(status=NOT_FULL_BY_RANK, state=None, detail=detail)
    state, missing = close_cube(bundles, n, k, margin, drop_outside=True)
    if not missing:
        return Verdict(status=FULL, state=state, detail={"margin": -state.box.lo})
    detail = {"margin": -state.box.lo, "missing_sample": missing}
    return Verdict(status=INCONCLUSIVE, state=state, detail=detail)


def verify_fullness(coll: LefschetzCollection, margin: int | None = None) -> Verdict:
    """Decide fullness of an exceptional collection by rank count plus closure.

    The twisted bundles go through _generation_verdict; a NOT_FULL_BY_RANK
    verdict also carries the collection's ranks.
    """
    verdict = _generation_verdict(flatten_bundles(coll), coll.n, coll.k, margin)
    if verdict.status != NOT_FULL_BY_RANK:
        return verdict
    return replace(verdict, detail={**verdict.detail, "ranks": ranks(coll)})


def residual_check(
    rect_part: LefschetzCollection, residual: OrbitSet, margin: int | None = None
) -> list[Violation]:
    """Check a rectangular part against a residual orbit set.

    Verifies, exhaustively, that every twisted bundle of every block has
    vanishing Ext into every residual bundle, and that the union of all
    those bundles generates the cube [0, n]^k by verify_fullness's rule.
    Returns all violations found (empty list means the residual check
    passed).  A generation violation's detail is the verdict status:
    NOT_FULL_BY_RANK when the union has the wrong bundle count, with the
    counts as witness; INCONCLUSIVE when its closure stopped short at this
    margin, with unreached cube points as witness.
    """
    n, k = rect_part.n, rect_part.k
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
    verdict = _generation_verdict(flat + res_bundles, n, k, margin)
    if verdict.status == NOT_FULL_BY_RANK:
        witness = (verdict.detail["bundles"], verdict.detail["expected"])
        out.append(Violation(kind="generation", witness=witness, detail=(NOT_FULL_BY_RANK,)))
    elif verdict.status == INCONCLUSIVE:
        witness = verdict.detail["missing_sample"]
        out.append(Violation(kind="generation", witness=witness, detail=(INCONCLUSIVE,)))
    return out
