"""Independent checks of lefkit's outputs, written without lefkit.

Everything here is rebuilt from the paper's definitions: S_k-orbits, the
staircase blocks E and Ehat, the flatten order lefkit documents, the
cohomology of O(d) on P^n, the window rule of the closure, and the orbit
count that bounds a minimal first block.  Nothing in this module imports
or calls lefkit, so a fault in lefkit cannot hide in its own checker.

A collection is a (k, n, blocks) triple; blocks is a list of sorted lists
of canonical representatives (coordinates weakly decreasing), and block i
enters twisted by O(i, ..., i).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    """An output of lefkit disagrees with the independent computation."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# --- lattice -----------------------------------------------------------------


def parse_point(text: str) -> tuple[int, ...]:
    """"(2,1,0)" -> (2, 1, 0)."""
    s = text.strip()
    require(s.startswith("(") and s.endswith(")"), f"not a multidegree: {text!r}")
    return tuple(int(c) for c in s[1:-1].split(","))


def fmt_point(p) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def orbit(rep) -> list[tuple[int, ...]]:
    """Distinct coordinate permutations of rep, ascending lex.

    Multiset permutations are generated directly, so a k = 10 orbit costs
    its own size, not 10! permutations.
    """
    counts = Counter(rep)
    values = sorted(counts)
    out, prefix = [], []

    def rec(left):
        if left == 0:
            out.append(tuple(prefix))
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                rec(left - 1)
                prefix.pop()
                counts[v] += 1

    rec(len(rep))
    return out


def cube(n: int, k: int):
    return itertools.product(range(n + 1), repeat=k)


# --- the paper's collections -------------------------------------------------


def staircase(k: int, n: int, strict: bool) -> list[tuple[int, ...]]:
    """Reps c_1 >= ... >= c_k = 0 with k*c_i < (n+1)*(k-i) (<= when not strict)."""
    h = n + 1
    reps = []
    for head in itertools.product(range(h, -1, -1), repeat=k - 1):
        c = head + (0,)
        if any(c[i] < c[i + 1] for i in range(k - 1)):
            continue
        ok = all(
            (k * c[i - 1] < h * (k - i)) if strict else (k * c[i - 1] <= h * (k - i))
            for i in range(1, k)
        )
        if ok:
            reps.append(c)
    return sorted(reps)


def xk1(k: int):
    e = staircase(k, 1, strict=True)
    first = e if k % 2 else staircase(k, 1, strict=False)
    return (k, 1, [first, e])


def x3n_rectangular(n: int):
    return (3, n, [staircase(3, n, strict=True)] * (n + 1))


def _x32_small_block():
    return sorted(staircase(3, 2, strict=True) + [(1, 1, 0)])


def x32_minimal():
    big = [r for r in staircase(3, 2, strict=False) if r != (2, 0, 0)]
    small = _x32_small_block()
    return (3, 2, [big, small, small])


def x32_rectangular_part():
    small = _x32_small_block()
    return (3, 2, [small, small, small])


X32_RESIDUAL_REP = (1, 0, -1)


def flatten(coll) -> list[tuple[int, ...]]:
    """lefkit's documented order: blocks in order, each twisted by its index;
    inside a block, orbits ascending lex by rep, elements ascending lex."""
    _, _, blocks = coll
    return [
        tuple(c + i for c in el)
        for i, block in enumerate(blocks)
        for rep in sorted(block)
        for el in orbit(rep)
    ]


def ranks(coll) -> tuple[int, ...]:
    return tuple(sum(len(orbit(r)) for r in block) for block in coll[2])


def nested(coll) -> bool:
    blocks = coll[2]
    return all(set(blocks[i + 1]) <= set(blocks[i]) for i in range(len(blocks) - 1))


# --- Ext vanishing from the cohomology of O(d) on P^n ------------------------


def line_cohomology_total(n: int, d: int) -> int:
    """dim H^*(P^n, O(d)): H^0 for d >= 0, H^n by Serre duality for d <= -n-1."""
    if d >= 0:
        return math.comb(d + n, n)
    if d <= -n - 1:
        return math.comb(-d - 1, n)
    return 0


def ext_nonzero(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean (len(a), len(b)) matrix: Ext^*(O(a_i), O(b_j)) != 0 on (P^n)^k.

    By Kuenneth, Ext^*(O(a), O(b)) = (x)_t H^*(P^n, O(b_t - a_t)), so it is
    nonzero exactly when every factor is.
    """
    diff = b[None, :, :] - a[:, None, :]
    lo, hi = int(diff.min()), int(diff.max())
    table = np.array([line_cohomology_total(n, d) != 0 for d in range(lo, hi + 1)])
    return table[diff - lo].all(axis=2)


def _rows(count: int, width: int, cells: int = 4_000_000):
    step = max(1, cells // max(1, width))
    for s in range(0, count, step):
        yield s, min(count, s + step)


def exceptional_violations(n: int, bundles) -> int:
    """Pairs p < q of the sequence with Ext^*(O(E_q), O(E_p)) != 0."""
    flat = np.array(bundles, dtype=np.int64)
    count = len(flat)
    total = 0
    for s, e in _rows(count, count * flat.shape[1]):
        nz = ext_nonzero(n, flat[s:e], flat)
        earlier = np.arange(count)[None, :] < np.arange(s, e)[:, None]
        total += int((nz & earlier).sum())
    return total


def nonvanishing_pairs(n: int, sources, targets) -> int:
    """Pairs (a, b) of sources x targets with Ext^*(O(a), O(b)) != 0."""
    a = np.array(sources, dtype=np.int64)
    b = np.array(targets, dtype=np.int64)
    total = 0
    for s, e in _rows(len(a), b.size):
        total += int(ext_nonzero(n, a[s:e], b).sum())
    return total


def _staircase_bundles(k: int, n: int, strict: bool):
    return [p for r in staircase(k, n, strict) for p in orbit(r)]


def semiorthogonality_pair_count(k: int, n: int) -> int:
    """Pairs in the theorem's grid: E(k,n) twisted by 1..n against Ehat(k,n)."""
    e = sum(len(orbit(r)) for r in staircase(k, n, strict=True))
    ehat = sum(len(orbit(r)) for r in staircase(k, n, strict=False))
    return n * e * ehat


def semiorthogonality_grid(k: int, n: int) -> int:
    """Nonvanishing pairs of E(k,n)(i) against Ehat(k,n), i = 1..n (0 is the theorem)."""
    e = _staircase_bundles(k, n, strict=True)
    ehat = _staircase_bundles(k, n, strict=False)
    return sum(
        nonvanishing_pairs(n, [tuple(c + i for c in p) for p in e], ehat)
        for i in range(1, n + 1)
    )


# --- window closure ----------------------------------------------------------


def box_cells(n: int, k: int, margin: int) -> int:
    return (n + 1 + 2 * margin) ** k


def flood(seed, n: int, k: int, margin: int, record: bool = False):
    """Window flood over [-margin, n+margin]^k until the cube [0,n]^k is covered.

    A line is flooded when it holds n+1 consecutive members; runs are found
    from prefix sums.  Seed points outside the box are dropped.  Returns
    (covered, trace); the trace, kept only when record is set, uses the
    certificate format of `lefkit closure --trace-out`.
    """
    lo, width, h = -margin, n + 1 + 2 * margin, n + 1
    grid = np.zeros((width,) * k, dtype=bool)
    for p in seed:
        if all(lo <= c < lo + width for c in p):
            grid[tuple(c - lo for c in p)] = True
    target = (slice(margin, margin + h),) * k
    trace = []
    changed = True
    while changed and not grid[target].all():
        changed = False
        for axis in range(k):
            g = np.moveaxis(grid, axis, -1)
            csum = np.concatenate(
                [np.zeros(g.shape[:-1] + (1,), dtype=np.int64), np.cumsum(g, axis=-1)],
                axis=-1,
            )
            full_window = (csum[..., h:] - csum[..., :-h]) == h
            lines = full_window.any(axis=-1)
            gain = lines[..., None] & ~g
            if not gain.any():
                continue
            changed = True
            if record:
                for idx in map(tuple, np.argwhere(gain.any(axis=-1))):
                    line = tuple(int(c) + lo for c in idx)
                    trace.append(
                        {
                            "axis": axis,
                            "line": list(line),
                            "window_start": int(np.argmax(full_window[idx])) + lo,
                            "added": [
                                fmt_point(line[:axis] + (int(z) + lo,) + line[axis:])
                                for z in np.flatnonzero(gain[idx])
                            ],
                        }
                    )
            g |= lines[..., None]
            if grid[target].all():
                break
    return bool(grid[target].all()), trace


def fullness_by_flood(coll, margin: int, max_cells: int = 2_000_000):
    """True/False if the flood decides fullness inside the box, None if it cannot.

    The closure is monotone in the box, so when the requested box is too
    large a smaller margin that still covers the cube certifies FULL; only
    a failure in the full requested box shows INCONCLUSIVE.
    """
    k, n, _ = coll
    m = margin
    while m > 0 and box_cells(n, k, m) > max_cells:
        m -= 1
    covered, _ = flood(flatten(coll), n, k, m)
    if covered:
        return True
    return False if m == margin else None


def replay_certificate(seed, n: int, k: int, margin: int, lines) -> set:
    """Replay a `--trace-out` certificate with plain sets.

    Every window must be present before its rule fires, and every added
    point must lie on the rule's line inside the box.  Returns the members.
    """
    lo, hi = -margin, n + margin
    members = set(seed)
    for number, raw in enumerate(lines, 1):
        entry = json.loads(raw)
        axis, ws = entry["axis"], entry["window_start"]
        line = tuple(entry["line"])
        require(len(line) == k - 1 and 0 <= axis < k, f"entry {number}: bad line or axis")
        for z in range(ws, ws + n + 1):
            pt = line[:axis] + (z,) + line[axis:]
            require(pt in members, f"entry {number}: window point {fmt_point(pt)} missing")
        for text in entry["added"]:
            p = parse_point(text)
            require(len(p) == k and all(lo <= c <= hi for c in p), f"entry {number}: {text} outside box")
            require(p[:axis] + p[axis + 1 :] == line, f"entry {number}: {text} off its line")
            members.add(p)
    return members


def covers_cube(members, n: int, k: int) -> bool:
    return all(p in members for p in cube(n, k))


# --- representation-theoretic bound -----------------------------------------


def minimal_first_block_bound(k: int, n: int) -> int:
    """Least first block of an S_k-stable Lefschetz chain of length n+1.

    The n+1 blocks tile the orbits of {0..n}^k shape by shape (a shape is
    the multiset of coordinate multiplicities, i.e. the stabiliser), and
    nesting makes each shape's counts weakly decreasing, so block 0 holds at
    least ceil(t/(n+1)) of the t orbits of each shape.
    """
    h = n + 1
    per_shape = Counter()
    size = {}
    for rep in itertools.combinations_with_replacement(range(h), k):
        shape = tuple(sorted(Counter(rep).values(), reverse=True))
        per_shape[shape] += 1
        size[shape] = len(orbit(rep))
    return sum(-(-t // h) * size[shape] for shape, t in per_shape.items())
