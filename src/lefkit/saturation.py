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
how FULL verdicts stay auditable.  ClosureState.certificate slices a
state that covers a target down to the rules the target depends on, each
listing only the points needed, so an application's added points may be a
subset of what its line gained.

The rule commutes with permuting coordinates, so the closure of an
S_k-stable seed is S_k-stable and is decided on weakly decreasing reps
alone: close_orbits floods orbit lines, the points sort(M + (z,)) of a
weakly decreasing (k-1)-tuple M.  It visits C(W+k-2, k-1) lines of W
points instead of the grid's W^k cells, in pure Python.  Fullness verdicts
and close_seed use it where lattice.on_reps holds for the box: from k =
ORBIT_MIN_K on, and on boxes small enough that it costs less than loading
numpy below that.  close_seed reads its seed once on every route, before
any box is sized, and hands close_orbits the reps of an S_k-stable seed
where on_reps holds.  Its INCONCLUSIVE answers on reps stand; every other
seed goes to the grid once, a FULL one in the least box that covers the
cube, for the certificate a ClosureState slices: the closure grows with
the box, so the orbit engine finds that box by trying the margins in
ascending order, on the same reps.  replay_orbit_trace checks its rules,
and expand_orbit_trace turns them into the RuleApplications replay_trace
reads.  _cube_box alone turns a margin into a box.

A seed of points has one reader, _seed_tuples: it takes each coordinate
through lattice._integer_point and refuses a point of another arity than
k or outside the box.  An integer array seed is checked vectorised, and
read by _seed_tuples only when it is refused, to name the point.  The two replayers
alone read points on their own, so that they check a trace independently.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field, replace
from math import comb

from . import _numpy
from .lattice import (
    Box,
    Multidegree,
    Orbit,
    OrbitSet,
    _integer_point,
    _multinomial,
    _multiset_permutations,
    _refuse_above_limit,
    canonical_rep,
    format_multidegree,
    on_reps,
    stabilizer_shape,
)
from .lefschetz import (
    LefschetzCollection,
    Violation,
    _twisted_orbits,
    ext_violations,
    flatten_bundles,
    ranks,
)

FULL = "FULL"
NOT_FULL_BY_RANK = "NOT_FULL_BY_RANK"
INCONCLUSIVE = "INCONCLUSIVE"

# Largest working box, in cells (one byte each in the grid, a few times that
# in the sweep temporaries).  (P^1)^10 at margin 2 needs 6^10 ~ 6.0e7.
MAX_BOX_CELLS = 2 ** 29

# Most orbit lines in a close_orbits box, C(W+k-2, k-1) for box width W; the
# reps it may hold are about W/k times as many.  xk1(13) at margin 2 has 6,188.
MAX_ORBIT_LINES = 2 ** 20

# Unreached cube points reported with an INCONCLUSIVE closure.
MISSING_SAMPLE = 20


@dataclass(frozen=True)
class RuleApplication:
    """One line flood: fixed coordinates, the witnessing window, points added.

    line lists the k-1 coordinates of the other axes in index order; the
    window [window_start, window_start + n] along `axis` was fully in the
    member set before this application.  added lists the line's points the
    application adds; in a certificate that may be a subset of what the
    flood gained.
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
    """The closure of a seed over `box`: a boolean grid plus per-pass records.

    seed_points holds the seed points, all inside the box, as a read-only
    integer array of k columns (a point may repeat).  grid[i_1, ..., i_k] is
    True when the point (box.lo + i_1, ..., box.lo + i_k) is a member; it is
    read-only.  member_count, trace_length and missing_points read the
    arrays.  seed and members (frozensets of points) and trace (the
    RuleApplications in engine order) are built on first access.
    """

    box: Box
    n: int
    seed_points: np.ndarray = field(repr=False)
    grid: np.ndarray = field(repr=False)
    passes: tuple[_Pass, ...] = field(repr=False)

    @functools.cached_property
    def seed(self) -> frozenset:
        return frozenset(map(tuple, self.seed_points.tolist()))

    @functools.cached_property
    def member_count(self) -> int:
        return int(_numpy().count_nonzero(self.grid))

    @property
    def trace_length(self) -> int:
        return sum(len(p.lines) for p in self.passes)

    @functools.cached_property
    def members(self) -> frozenset:
        return frozenset(map(tuple, (_numpy().argwhere(self.grid) + self.box.lo).tolist()))

    @functools.cached_property
    def trace(self) -> tuple[RuleApplication, ...]:
        np = _numpy()
        out, lo = [], self.box.lo
        for p in self.passes:
            shape = self.grid.shape[: p.axis] + (1,) + self.grid.shape[p.axis + 1 :]
            coords = np.stack(np.unravel_index(p.lines, shape), axis=1) + lo
            rows, zs = np.nonzero(p.added)
            points = coords[rows]
            points[:, p.axis] = zs + lo
            # the points gained, line after line
            points = map(tuple, points.tolist())
            lines = np.delete(coords, p.axis, axis=1).tolist()
            counts = np.count_nonzero(p.added, axis=1).tolist()
            for line, start, count in zip(lines, (p.starts + lo).tolist(), counts):
                added = tuple(itertools.islice(points, count))
                out.append(RuleApplication(p.axis, tuple(line), start, added))
        return tuple(out)

    def certificate(self, target: Box) -> ClosureState:
        """The rules `target`'s points depend on, as a state with this box, n and seed.

        target is a box inside the working box whose points are all members.
        Walking the passes backwards, a line is kept when it gained a needed
        point, and it lists only those; its window then becomes needed.
        Windows read the snapshot before their pass, so each window point is
        a seed point or was gained, exactly once, in an earlier pass, whose
        rule is then kept.  The result replays to the seed plus the listed
        points, and no entry or listed point can be dropped without breaking
        the replay or leaving a target point uncovered.  ValueError unless
        the target is covered.
        """
        np = _numpy()
        window = _sub_box(self.box, target)
        if not self.grid[window].all():
            raise ValueError(
                f"target [{target.lo}, {target.hi}]^{target.k} is not covered by the closure"
            )
        seed = _grid_of(self.seed_points, self.box)
        need = np.zeros_like(self.grid)
        need[window] = True
        need &= ~seed
        kept, h = [], self.n + 1
        for p in reversed(self.passes):
            shape = self.grid.shape[: p.axis] + (1,) + self.grid.shape[p.axis + 1 :]
            rows = p.added & need[_line_cells(shape, p.lines, p.axis, self.grid.shape[p.axis])]
            keep = rows.any(axis=1)
            if not keep.any():
                continue
            lines, starts = p.lines[keep], p.starts[keep]
            kept.append(_Pass(axis=p.axis, lines=lines, starts=starts, added=rows[keep]))
            need[_line_cells(shape, lines, p.axis, h, first=starts)] = True
        # every needed point that is not a seed point is listed by the rule gaining it
        need |= seed
        need.flags.writeable = False
        return ClosureState(
            box=self.box,
            n=self.n,
            seed_points=self.seed_points,
            grid=need,
            passes=tuple(reversed(kept)),
        )

    def missing_points(self, target: Box, limit: int | None = None) -> list[Multidegree]:
        """Points of `target`, a box inside the working box, that are not members.

        Ascending lex order, at most `limit` of them.
        """
        np = _numpy()
        sub = self.grid[_sub_box(self.box, target)]
        flat = np.flatnonzero(~sub)[:limit]
        coords = np.stack(np.unravel_index(flat, sub.shape), axis=1) + target.lo
        return list(map(tuple, coords.tolist()))


@dataclass(frozen=True)
class OrbitRule:
    """One orbit-line flood: the line, the witnessing window, the reps added.

    line is the weakly decreasing k-1 other coordinates; the reps
    sort(line + (z,)) for z in [window_start, window_start + n] were all
    members before this rule, and added lists the reps it gained, by
    ascending z.
    """

    line: Multidegree
    window_start: int
    added: tuple[Multidegree, ...]


@dataclass(frozen=True, eq=False)
class OrbitClosureState:
    """The closure of an S_k-stable seed over `box`, held by weakly decreasing reps.

    seed and members are frozensets of reps; trace holds the OrbitRules in
    engine order.  member_count counts the points of the member orbits, as
    ClosureState.member_count counts grid cells.
    """

    box: Box
    n: int
    seed: frozenset
    members: frozenset = field(repr=False)
    trace: tuple[OrbitRule, ...] = field(repr=False)

    @functools.cached_property
    def member_count(self) -> int:
        return sum(_multinomial(stabilizer_shape(r)) for r in self.members)

    @property
    def trace_length(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a fullness check; certificate data depends on status.

    FULL carries the closure state (an OrbitClosureState where
    _generation_verdict decides on reps, else a ClosureState) whose trace
    replays to cover [0, n]^k.
    NOT_FULL_BY_RANK carries the offending counts.  INCONCLUSIVE carries a
    sample of unreached points (enlarging the box may still succeed).
    """

    status: str
    state: ClosureState | OrbitClosureState | None
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


def _refuse_small_n(n: int):
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _cube_box(n: int, k: int, margin: int | None) -> Box:
    """The working box [-m, n+m]^k around the cube [0, n]^k, for the margin m.

    The one reader of a closure margin: m defaults to n + 1.  A negative
    margin is refused, then n below 1.
    """
    if margin is not None and margin < 0:
        raise ValueError("margin must be nonnegative")
    _refuse_small_n(n)
    m = n + 1 if margin is None else margin
    return Box(lo=-m, hi=n + m, k=k)


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


def _line_cells(shape, lines, axis, length, first=0):
    """Index selecting `length` cells along `axis` of each flat line index.

    They start at `first`, a number or one start per line.  The result of
    indexing with it has one row per line.
    """
    np = _numpy()
    index = [c[:, None] for c in np.unravel_index(lines, shape)]
    index[axis] = np.reshape(first, (-1, 1)) + np.arange(length)
    return tuple(index)


def _axis_pass(grid, axis, h):
    """Flood every line along `axis` holding a full window; return its record.

    Returns None when no line gains a point.  Lines along one axis are
    pairwise disjoint, so flooding them from a common snapshot equals any
    sequential order.
    """
    np = _numpy()
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


def _seed_tuples(seed, box: Box, drop_outside: bool) -> list[Multidegree]:
    """The seed points as tuples of ints, in the order given, repeats kept.

    The one reader of a seed given as points: close_seed, close_orbits and
    _seed_array read them here alone.  seed is an iterable of points.  A
    point with a coordinate that is no integer raises ValueError, dropped
    or not.  A point outside `box` is dropped with drop_outside; then the
    first of the distinct points kept, in set order, of another arity than
    k raises ValueError, and without the drop so does the first outside
    the box.  A coordinate of any size is read, so one no int64 holds is
    outside the box.
    """
    k = box.k
    # points of another arity are kept by the drop, to be refused below
    seed = [_integer_point(p, "seed point") for p in seed]
    seed = [p for p in seed if not drop_outside or len(p) != k or p in box]
    points = frozenset(seed)
    for p in points:
        if len(p) != k:
            raise ValueError(f"seed point {format_multidegree(p)} has arity {len(p)}, not k={k}")
    for p in () if drop_outside else points:
        if p not in box:
            raise ValueError(
                f"seed point {format_multidegree(p)} outside box [{box.lo}, {box.hi}]^{box.k}"
            )
    return seed


def _rows(points, k: int) -> np.ndarray:
    """An int64 array of k columns, one row per point of `points` (tuples of k ints)."""
    np = _numpy()
    return np.array(list(itertools.chain.from_iterable(points)), np.int64).reshape(-1, k)


def _seed_array(seed, box: Box, drop_outside: bool = False) -> np.ndarray:
    """The seed points as an integer array of k columns, one row per point.

    seed is an iterable of points or already such an array, read as
    _seed_tuples reads it.  A signed integer array is checked and dropped
    vectorised; one with a point outside the box and nothing dropped, like
    any other seed, goes point by point through _seed_tuples, which names
    the refused point.
    """
    np = _numpy()
    k = box.k
    if isinstance(seed, np.ndarray):
        if seed.dtype.kind == "i" and seed.ndim == 2 and seed.shape[1] == k:
            points = seed.astype(np.int64)
            inside = ((points >= box.lo) & (points <= box.hi)).all(axis=1)
            if drop_outside:
                return points[inside]
            if inside.all():
                return points
        seed = seed.tolist()
    return _rows(_seed_tuples(seed, box, drop_outside), k)


def _grid_of(points: np.ndarray, box: Box) -> np.ndarray:
    """A writable boolean grid over `box`, True at `points` (array rows inside it)."""
    grid = _numpy().zeros((box.width,) * box.k, dtype=bool)
    grid[tuple((points - box.lo).T)] = True
    return grid


def _refuse_large_box(box: Box, advice: str):
    if box.size > MAX_BOX_CELLS:
        raise ValueError(
            f"box [{box.lo}, {box.hi}]^{box.k} has {box.size} cells, more than the "
            f"limit of {MAX_BOX_CELLS}; {advice}"
        )


def close(seed, n: int, box: Box, target: Box | None = None) -> ClosureState:
    """Least fixed point of the window rule over `box`, starting from `seed`.

    seed is an iterable of points or an integer array of k columns.  The
    axes are visited cyclically until k passes in a row add nothing (the
    fixed point) or, if target (a box inside `box`) is given, until all its
    points are members.  The target keeps traces small when only it matters;
    it never changes whether it is reached, only how much of the rest of the
    box gets filled.
    """
    _refuse_small_n(n)
    _refuse_large_box(box, "use a smaller margin")
    points = _seed_array(seed, box)
    points.flags.writeable = False
    h = n + 1
    grid = _grid_of(points, box)

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
    return ClosureState(box=box, n=n, seed_points=points, grid=grid, passes=tuple(passes))


def close_cube(seed, n: int, k: int, margin: int | None = None, drop_outside: bool = False):
    """Close `seed` over [-margin, n+margin]^k, stopping once [0, n]^k is covered.

    seed is an iterable of points or an integer array of k columns.  margin
    defaults to n + 1 and must not be negative.  Returns the state and the
    first MISSING_SAMPLE points of the cube that were not reached,
    ascending lex; an empty sample certifies that the cube, and so
    everything, is generated.  With drop_outside, seed points outside the
    box are dropped instead of refused (generating the cube from fewer
    seeds is still a sound certificate); a point of another arity than k
    is refused either way.
    """
    box = _cube_box(n, k, margin)
    if drop_outside:
        seed = _seed_array(seed, box, drop_outside=True)
    cube = Box(lo=0, hi=n, k=k)
    state = close(seed, n, box, target=cube)
    return state, tuple(state.missing_points(cube, limit=MISSING_SAMPLE))


def replay_trace(seed, n: int, box: Box, trace) -> frozenset:
    """Re-run a trace with plain set operations, verifying each precondition.

    Raises ValueError if a rule's axis or line does not fit the box's k, if
    any window was not fully present when its rule fired, if an added point
    leaves the box, or if it is off the rule's line.  Returns the final
    member set.
    """
    members = {_integer_point(p, "seed point") for p in seed}
    h, k, lo, hi = n + 1, box.k, box.lo, box.hi
    for app in trace:
        if not 0 <= app.axis < k or len(app.line) != k - 1:
            raise ValueError(f"rule on axis {app.axis}, line {app.line} does not fit k={k}")
        for z in range(app.window_start, app.window_start + h):
            pt = _insert_coord(app.line, app.axis, z)
            if pt not in members:
                raise ValueError(
                    f"window point {format_multidegree(pt)} missing before rule on "
                    f"axis {app.axis}, line {app.line}"
                )
        for p in app.added:
            if len(p) != k or min(p) < lo or max(p) > hi:
                raise ValueError(f"added point {format_multidegree(p)} outside box")
            if p[: app.axis] + p[app.axis + 1 :] != app.line:
                raise ValueError(
                    f"added point {format_multidegree(p)} not on line {app.line}"
                )
            members.add(p)
    return frozenset(members)


def _lines_through(p) -> list[Multidegree]:
    """The orbit lines holding a weakly decreasing point: p less one copy of each value."""
    return [p[:i] + p[i + 1 :] for i in range(len(p)) if i == 0 or p[i] != p[i - 1]]


def _line_points(line, lo: int, hi: int) -> list[Multidegree]:
    """The reps sort(line + (z,)) for z = lo..hi, of a weakly decreasing line."""
    points, i = [], len(line)
    for z in range(lo, hi + 1):
        while i and line[i - 1] < z:
            i -= 1
        points.append(line[:i] + (z,) + line[i:])
    return points


def _cube_reps(n: int, k: int):
    """The weakly decreasing points of [0, n]^k."""
    return itertools.combinations_with_replacement(range(n, -1, -1), k)


def close_orbits(seed, n: int, k: int, margin: int | None = None, drop_outside: bool = False):
    """close_cube for an S_k-stable seed, given by any points of its orbits.

    Members are the weakly decreasing reps in [-margin, n+margin]^k.  The
    box is close_cube's, and the seed is read by _seed_tuples, as
    close_cube's is unless it is an integer array, so n below 1, seed
    points outside the box and seed points of another arity than k are
    refused alike; with drop_outside, points outside the box are dropped
    instead.  No array is built.
    A pass visits the orbit lines in ascending lex order and floods each line
    holding n+1 consecutive member points at once; lines that gained no
    member since their last visit are skipped, as they would flood nothing.
    The closure stops when all C(n+k, k) reps of [0, n]^k are members or
    after a pass that adds nothing.  The line count is refused above
    MAX_ORBIT_LINES before any line is built.
    Returns the state and the first MISSING_SAMPLE unreached points of the
    cube, ascending lex, as close_cube does.
    """
    box = _cube_box(n, k, margin)
    lines = comb(box.width + k - 2, k - 1)
    if lines > MAX_ORBIT_LINES:
        raise ValueError(
            f"box [{box.lo}, {box.hi}]^{k} has {lines} orbit lines, more than the "
            f"limit of {MAX_ORBIT_LINES}; use a smaller margin"
        )
    seed = frozenset(map(canonical_rep, _seed_tuples(seed, box, drop_outside)))
    members, trace, h = set(seed), [], n + 1

    def in_cube(p):
        return p[0] <= n and p[-1] >= 0

    # lines that a flood reaches join this pass if they are ahead of it,
    # the next one otherwise
    covered, goal = sum(map(in_cube, members)), comb(n + k, k)
    todo = {line for p in members for line in _lines_through(p)}
    while todo and covered < goal:
        heap, later = sorted(todo), set()
        queued = set(heap)
        while heap and covered < goal:
            line = heapq.heappop(heap)
            points = _line_points(line, box.lo, box.hi)
            present = [p in members for p in points]
            run = 0
            for z, here in enumerate(present):
                run = run + 1 if here else 0
                if run == h:
                    break
            if run < h or all(present):
                continue
            added = tuple(p for p, here in zip(points, present) if not here)
            members.update(added)
            trace.append(OrbitRule(line=line, window_start=box.lo + z - n, added=added))
            covered += sum(map(in_cube, added))
            for other in {o for p in added for o in _lines_through(p)}:
                if other < line:
                    later.add(other)
                elif other > line and other not in queued:
                    queued.add(other)
                    heapq.heappush(heap, other)
        todo = later
    state = OrbitClosureState(
        box=box, n=n, seed=seed, members=frozenset(members), trace=tuple(trace)
    )
    missing = [r for r in _cube_reps(n, k) if r not in members]
    # the orbits are disjoint and each is listed in ascending lex order
    sample = itertools.islice(heapq.merge(*map(_multiset_permutations, missing)), MISSING_SAMPLE)
    return state, tuple(sample)


def close_seed(seed, n: int, k: int, margin: int | None):
    """close_cube's answer, decided on orbit reps where the seed allows it.

    _seed_tuples reads the seed once, in the requested box, before any box
    is sized, so a seed point is refused alike on every route.  Where
    lattice.on_reps(k, box cells) holds (_generation_verdict's rule) and
    the seed is S_k-stable, its distinct points numbering the orbit sizes
    summed over their reps, close_orbits closes the reps.  Both engines
    reach the same least fixed point, so when the cube is not covered the
    OrbitClosureState stands, with close_cube's member count and missing
    sample.  When it is covered, close_orbits tries the margins 0, 1, ...
    up to the requested one on the reps, and the first that covers the
    cube is the least box whose grid covers it: the closure grows with the
    box, and dropping the seed points outside a smaller box drops whole
    orbits.  Every other seed, off the router, unstable or FULL, has one
    grid hand-off: its box, the least for a FULL one and the requested
    one otherwise, is refused above MAX_BOX_CELLS, and then close_cube
    closes one int64 array of the points read, with drop_outside, for the
    state that ClosureState.certificate slices; a certificate built in
    the least box replays unchanged in the requested one.  So a refused
    seed loads no numpy.
    """
    box = _cube_box(n, k, margin)
    seed = _seed_tuples(seed, box, False)
    points = frozenset(seed)
    reps = frozenset(map(canonical_rep, points)) if on_reps(k, box.size) else None
    least, advice = margin, "use a smaller margin"
    if reps is not None and len(points) == sum(_multinomial(stabilizer_shape(r)) for r in reps):
        state, missing = close_orbits(reps, n, k, margin)
        if missing:
            return state, missing
        requested = -box.lo
        covering = (
            m for m in range(requested) if not close_orbits(reps, n, k, m, drop_outside=True)[1]
        )
        least = next(covering, requested)
        advice = f"it is the least box whose closure covers [0, {n}]^{k}"
    _refuse_large_box(_cube_box(n, k, least), advice)
    return close_cube(_rows(seed, k), n, k, least, drop_outside=True)


def replay_orbit_trace(seed, n: int, box: Box, trace) -> frozenset:
    """Re-run an orbit trace on plain sets of sorted reps, verifying each precondition.

    Raises ValueError if a rule's line or an added rep does not fit the box's
    k, if the rep of a window point was not a member when its rule fired, or
    if an added rep leaves the box or is off the rule's line.  Returns the
    final set of reps.
    """
    members, k = {canonical_rep(_integer_point(p, "seed point")) for p in seed}, box.k
    for rule in trace:
        if len(rule.line) != k - 1 or any(len(p) != k for p in rule.added):
            raise ValueError(f"rule on line {rule.line} does not fit k={k}")
        line = canonical_rep(rule.line)
        for z in range(rule.window_start, rule.window_start + n + 1):
            if canonical_rep(line + (z,)) not in members:
                raise ValueError(
                    f"window point {format_multidegree(canonical_rep(line + (z,)))} missing "
                    f"before rule on line {rule.line}"
                )
        for p in map(canonical_rep, rule.added):
            if p not in box:
                raise ValueError(f"added point {format_multidegree(p)} outside box")
            if all(p[:i] + p[i + 1 :] != line for i in range(len(p))):
                raise ValueError(f"added point {format_multidegree(p)} not on line {rule.line}")
            members.add(p)
    return frozenset(members)


def expand_orbit_trace(trace) -> tuple[RuleApplication, ...]:
    """The RuleApplications of an orbit trace, for replay_trace.

    Each rule becomes one application per permutation of its line (ascending
    lex) and per axis, in that order; each adds every point of its line
    whose rep the rule added.
    """
    out = []
    for rule in trace:
        # the free coordinate of an added rep is what it holds beyond the line
        zs = [sum(p) - sum(rule.line) for p in rule.added]
        for line in Orbit(rule.line).elements:
            for axis in range(len(line) + 1):
                added = tuple(_insert_coord(line, axis, z) for z in zs)
                out.append(RuleApplication(axis, line, rule.window_start, added))
    return tuple(out)


def _generation_verdict(orbits, n: int, k: int, margin: int | None) -> Verdict:
    """Decide whether the given orbits generate: the bundle counts, then the closure.

    orbits yields one (rep, size) pair per orbit, the rep weakly decreasing
    and the size its orbit's, repeats allowed.
    Generating with exactly (n+1)^k bundles needs that many distinct ones;
    any other count, taken from the orbit sizes, is NOT_FULL_BY_RANK before
    any closure runs.  With the count right, the orbits seed a closure over
    [-margin, n+margin]^k (close_cube's margin rule): close_orbits when
    lattice.on_reps(k, box cells) holds, from k = ORBIT_MIN_K on and for
    boxes of at most REPS_MAX_CELLS cells below it; the grid otherwise.
    Both reach the same fixed point, so the status, margin and missing
    sample do not depend on the engine; the state and its trace do.
    Covering the cube [0, n]^k certifies FULL (the cube generates
    everything), and an orbit certificate is replayed by replay_orbit_trace
    first; otherwise the verdict is INCONCLUSIVE for this margin.  A
    negative margin is refused even when the count decides.
    """
    box = _cube_box(n, k, margin)
    expected = (n + 1) ** k
    # one pass over orbits: a repeated rep counts again in total, once in size
    size = {}
    total = sum(size.setdefault(rep, s) for rep, s in orbits)
    count = sum(size.values())
    if count != expected or total != expected:
        detail = {"bundles": count, "expected": expected}
        return Verdict(status=NOT_FULL_BY_RANK, state=None, detail=detail)
    if on_reps(k, box.size):
        state, missing = close_orbits(size, n, k, margin, drop_outside=True)
        if not missing:
            replayed = replay_orbit_trace(state.seed, n, state.box, state.trace)
            if not replayed.issuperset(_cube_reps(n, k)):
                raise ValueError("orbit closure certificate does not replay to the cube")
    else:
        np = _numpy()
        _refuse_above_limit(expected)
        rows = _rows(size, k)
        # every permutation of every rep, repeats and all
        seed = np.concatenate([rows[:, list(p)] for p in itertools.permutations(range(k))])
        state, missing = close_cube(seed, n, k, margin, drop_outside=True)
    if not missing:
        return Verdict(status=FULL, state=state, detail={"margin": -state.box.lo})
    detail = {"margin": -state.box.lo, "missing_sample": missing}
    return Verdict(status=INCONCLUSIVE, state=state, detail=detail)


def verify_fullness(coll: LefschetzCollection, margin: int | None = None) -> Verdict:
    """Decide fullness of an exceptional collection by rank count plus closure.

    The twisted orbits go through _generation_verdict; a NOT_FULL_BY_RANK
    verdict also carries the collection's ranks.
    """
    verdict = _generation_verdict(_twisted_orbits(coll), coll.n, coll.k, margin)
    if verdict.status != NOT_FULL_BY_RANK:
        return verdict
    return replace(verdict, detail={**verdict.detail, "ranks": ranks(coll)})


def residual_check(
    rect_part: LefschetzCollection, residual: OrbitSet, margin: int | None = None
) -> tuple[list[Violation], Verdict]:
    """Check a rectangular part against a residual orbit set.

    Returns the Ext violations, exhaustively, from every twisted bundle of
    every block into every residual bundle (ext_violations order), and the
    verdict of _generation_verdict on the union of all those bundles.  The
    check passes when the list is empty and the verdict FULL.  A residual
    of another arity than the collection raises ValueError.
    """
    n, k = rect_part.n, rect_part.k
    if residual.k != k:
        raise ValueError(f"arity mismatch: expected k={k}, got a residual of k={residual.k}")
    violations = list(ext_violations(n, flatten_bundles(rect_part), residual.bundles()))
    orbits = itertools.chain(_twisted_orbits(rect_part), ((o.rep, o.size) for o in residual.orbits))
    return violations, _generation_verdict(orbits, n, k, margin)
