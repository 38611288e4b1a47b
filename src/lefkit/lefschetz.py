"""Builders and checkers for S_k-stable Lefschetz collections of line bundles.

A Lefschetz collection on (P^n)^k is a list of blocks B_0 >= B_1 >= ... of
S_k-stable bundle sets; block i enters the collection twisted by O(i,...,i).
The checkers return violations as data (witness pairs with their graded Ext
dimensions) rather than raising, so failed checks are themselves reportable
certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ext import ext_graded, first_failing_twists, nonorthogonal_below
from .lattice import (
    Multidegree,
    OrbitSet,
    _refuse_above_limit,
    canonical_rep,
    format_multidegree,
    normalised_reps,
    orbit_set,
    parse_multidegree,
    twist,
)

JSON_SCHEMA = "lefkit/1"


@dataclass(frozen=True)
class LefschetzCollection:
    """Blocks of orbit sets; block i is implicitly twisted by O(i,...,i)."""

    k: int
    n: int
    blocks: tuple[OrbitSet, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not self.blocks:
            raise ValueError("a collection needs at least one block")
        for b in self.blocks:
            if b.k != self.k:
                raise ValueError(f"block arity {b.k} does not match k={self.k}")

    @property
    def d(self) -> int:
        """Largest twist used (number of blocks minus one)."""
        return len(self.blocks) - 1


@dataclass(frozen=True)
class Violation:
    """One failed check, with enough data to re-verify it independently.

    kind: "order" (duplicate bundle), "ext" (nonvanishing Ext where required
    to vanish, detail holds the graded dimensions), or "nesting" (block not
    contained in its predecessor).
    """

    kind: str
    witness: tuple
    detail: tuple = field(default=())


def _staircase(k: int, n: int, strict: bool):
    """Reps c_1 >= ... >= c_k = 0 with k*c_i < (n+1)*(k-i) (or <=) for i < k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    caps = [((n + 1) * (k - i) - strict) // k for i in range(1, k)]
    reps = normalised_reps(k, caps[0] if caps else 0)
    return [c for c in reps if all(x <= cap for x, cap in zip(c, caps))]


def build_E(k: int, n: int) -> OrbitSet:
    """Orbits of c with c_1 >= ... >= c_k = 0 and k*c_i < (n+1)*(k-i) for i < k."""
    return orbit_set(k, _staircase(k, n, strict=True))


def build_Ehat(k: int, n: int) -> OrbitSet:
    """Non-strict variant of build_E: k*c_i <= (n+1)*(k-i) for i < k."""
    return orbit_set(k, _staircase(k, n, strict=False))


def adjust(base: OrbitSet, add=(), remove=()) -> OrbitSet:
    """Add and remove whole orbits, validating presence and absence by rep."""
    reps = set(base.reps())
    for a in remove:
        r = canonical_rep(a)
        if r not in reps:
            raise ValueError(f"cannot remove orbit {format_multidegree(r)}: not present")
        reps.discard(r)
    for a in add:
        r = canonical_rep(a)
        if r in reps:
            raise ValueError(f"cannot add orbit {format_multidegree(r)}: already present")
        reps.add(r)
    return orbit_set(base.k, reps)


def flatten_bundles(coll: LefschetzCollection) -> tuple[Multidegree, ...]:
    """The collection as one ordered bundle list.

    Blocks in order, block i twisted by i; within a block, orbits ascending
    lex by rep, elements ascending lex.  Inside the cube [0, n]^k this order
    linearly extends the componentwise order, which is what exceptionality
    needs there.  The total is sized first and refused above MAX_ORBIT_BUNDLES.
    """
    _refuse_above_limit(sum(ranks(coll)))
    return tuple(
        twist(el, i)
        for i, block in enumerate(coll.blocks)
        for o in block.orbits
        for el in o.elements
    )


def _twisted_orbits(coll: LefschetzCollection):
    """(rep, size) of every orbit of the collection, block i's rep twisted by i, drawn lazily."""
    return ((twist(o.rep, i), o.size) for i, b in enumerate(coll.blocks) for o in b.orbits)


def ranks(coll: LefschetzCollection) -> tuple[int, ...]:
    """Bundle counts per block."""
    return tuple(b.bundle_count for b in coll.blocks)


def is_rectangular(coll: LefschetzCollection) -> bool:
    """True when every block is the same orbit set."""
    return all(b.reps() == coll.blocks[0].reps() for b in coll.blocks[1:])


def check_lefschetz(coll: LefschetzCollection):
    """None if blocks are weakly decreasing; else a nesting Violation."""
    for i in range(len(coll.blocks) - 1):
        prev = set(coll.blocks[i].reps())
        for rep in coll.blocks[i + 1].reps():
            if rep not in prev:
                return Violation(kind="nesting", witness=(rep,), detail=(i + 1,))
    return None


def check_exceptional(coll: LefschetzCollection) -> list[Violation]:
    """All later-to-earlier pairs with nonvanishing Ext, in flatten order.

    Violations come in (later, earlier) index order; graded dimensions are
    computed only for the pairs reported.  An empty list certifies the
    flattened sequence is exceptional (each member is a line bundle, hence
    exceptional on its own).
    """
    return exceptional_violations(coll)[1]


def exceptional_violations(coll: LefschetzCollection, shown: int | None = None):
    """(count, first): how many violations check_exceptional finds, and the first `shown`.

    One scan counts them all; Violations, and their graded dimensions, are
    built only for the ones returned (all of them when shown is None).
    """
    flat, n = flatten_bundles(coll), coll.n
    count, first = 0, []
    for qs, ps in nonorthogonal_below(n, flat):
        take = None if shown is None else shown - len(first)
        for q, p in zip(qs[:take].tolist(), ps[:take].tolist()):
            later, earlier = flat[q], flat[p]
            if later == earlier:
                first.append(Violation(kind="order", witness=(later, earlier)))
            else:
                detail = ext_graded(n, later, earlier)
                first.append(Violation(kind="ext", witness=(later, earlier), detail=detail))
        count += len(qs)
    return count, first


def is_exceptional(coll: LefschetzCollection) -> bool:
    """check_exceptional(coll) == [], answered without building any Violation.

    A nested collection (check_lefschetz(coll) is None) is decided on the
    reps of its first block B_0 and is never flattened.  Orthogonality is
    unchanged when both sides are permuted at once, so a rep stands for its
    orbit against any S_k-stable set, and the flattened pairs reduce to two
    checks on each orbit P of B_0, with t_P the last block that holds P:
    1. inside B_0: the rep against every bundle listed before it, those of
       the orbits before P and the rest of P.  Pairs inside a later block
       B_t are pairs of B_0 in the same order, since B_t is a subset of B_0
       and both list their orbits in ascending rep order.
    2. across blocks: for t = 1..t_P, the rep twisted by t against every
       bundle of B_0.  Block t against block s < t is a subset of block t-s
       against block 0, as B_t is in B_{t-s} and B_s in B_0.
    Both are one ext.first_failing_twists call, B_0 one group: each rep's
    least failing twist must be past t_P.  Other collections are flattened
    and scanned.
    """
    n, first = coll.n, coll.blocks[0]
    if check_lefschetz(coll) is not None:
        return next(nonorthogonal_below(n, flatten_bundles(coll)), None) is None
    # B_0 as one group, or no group when B_0 is empty
    groups = [0, len(first.orbits)] if first.orbits else [0]
    bad = first_failing_twists(n, first.orbits, groups)
    last = {rep: t for t, block in enumerate(coll.blocks) for rep in block.reps()}
    return all(row[0] > last[rep] for rep, row in zip(first.reps(), bad))


def ext_violations(n: int, sources, targets):
    """Yield an "ext" Violation for each (a, b) in sources x targets with Ext*(O(a), O(b)) != 0.

    Pairs come source-major, targets in their given order, drawn lazily from
    the full-rectangle nonorthogonal_below scan; graded dimensions are
    computed only for the pairs drawn.
    """
    for qs, ps in nonorthogonal_below(n, sources, targets):
        for i, j in zip(qs.tolist(), ps.tolist()):
            a, b = sources[i], targets[j]
            yield Violation(kind="ext", witness=(a, b), detail=ext_graded(n, a, b))


def check_theorem_semiorthogonality(k: int, n: int):
    """Every bundle of build_E twisted by 1..n is Ext-orthogonal into build_Ehat.

    The yes/no is is_exceptional of the nested collection (Ehat, E, ..., E),
    n copies of E: with E in Ehat it tests each rep of E twisted by 1..n
    against all of Ehat, which is the grid, plus twist-0 pairs inside Ehat,
    which never fail inside the cube [0, n]^k.  A yes is the grid holding
    whatever Ehat is, as those pairs are part of the collection; only a no
    draws the witness, from a scan of orbit representatives of build_E
    against every bundle of build_Ehat (the vanishing predicate is
    unchanged when both sides are permuted at once, and build_Ehat is
    S_k-stable, so a representative stands for its orbit).  Returns None on
    success, else the first Violation in scan order (ascending twist, then
    representatives ascending lex, then build_Ehat in flatten order), or
    None when the scan finds none.
    """
    e, ehat = build_E(k, n), build_Ehat(k, n)
    if is_exceptional(LefschetzCollection(k=k, n=n, blocks=(ehat,) + (e,) * n)):
        return None
    twisted = [twist(rep, i) for i in range(1, n + 1) for rep in e.reps()]
    return next(ext_violations(n, twisted, ehat.bundles()), None)


def staircase_rectangular(k: int, n: int) -> LefschetzCollection:
    """The rectangular candidate on (P^n)^k: n+1 copies of build_E(k, n).

    The paper's rectangular collections for k = 3 and for n = 1 with k odd
    are this builder.  When gcd(n+1, k) > 1 the block has the wrong size.
    """
    return LefschetzCollection(k=k, n=n, blocks=(build_E(k, n),) * (n + 1))


def x3n_rectangular(n: int) -> LefschetzCollection:
    """The rectangular candidate on (P^n)^3: staircase_rectangular(3, n)."""
    return staircase_rectangular(3, n)


def x32_minimal() -> LefschetzCollection:
    """The minimal-first-block collection on (P^2)^3.

    First block: the non-strict orbit set minus the orbit of (2,0,0).
    Second and third: the strict orbit set plus the orbit of (1,1,0).
    Ranks come out (13, 7, 7).
    """
    b = adjust(build_E(3, 2), add=[(1, 1, 0)])
    bhat = adjust(build_Ehat(3, 2), remove=[(2, 0, 0)])
    return LefschetzCollection(k=3, n=2, blocks=(bhat, b, b))


def x32_rectangular_part() -> LefschetzCollection:
    """Three untruncated copies of the small block of x32_minimal."""
    b = adjust(build_E(3, 2), add=[(1, 1, 0)])
    return LefschetzCollection(k=3, n=2, blocks=(b, b, b))


def x32_residual() -> OrbitSet:
    """The orbit complementing x32_rectangular_part: O(1,-1,0) and its permutations."""
    return orbit_set(3, [(1, -1, 0)])


def xk1(k: int) -> LefschetzCollection:
    """The two-block collection on (P^1)^k.

    For odd k both blocks equal build_E(k, 1) (more than half the
    coordinates zero); for even k the first block is the non-strict
    build_Ehat(k, 1) (at least half zero), giving ranks
    ((2^k + C(k, k/2)) / 2, (2^k - C(k, k/2)) / 2).
    """
    if k % 2 == 1:
        return staircase_rectangular(k, 1)
    return LefschetzCollection(k=k, n=1, blocks=(build_Ehat(k, 1), build_E(k, 1)))


def collection_to_json(coll: LefschetzCollection) -> str:
    """Deterministic JSON form: fixed key order, reps ascending lex per block."""
    doc = {
        "schema": JSON_SCHEMA,
        "k": coll.k,
        "n": coll.n,
        "blocks": [
            [format_multidegree(rep) for rep in block.reps()] for block in coll.blocks
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _shown(value) -> str:
    """value as JSON for an error message, cut short after 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:40] + "..."


def collection_from_json(doc) -> LefschetzCollection:
    """Read a collection document, given as JSON text or as the parsed object.

    k and n must be JSON integers: true, 2.7 and "2" are refused, not truncated.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or doc.get("schema") != JSON_SCHEMA:
        raise ValueError(f"expected a collection document with schema {JSON_SCHEMA!r}")
    try:
        k, n, raw_blocks = doc["k"], doc["n"], doc["blocks"]
    except KeyError as exc:
        raise ValueError(f"malformed collection document: {exc}") from None
    for key, value in (("k", k), ("n", n)):
        if type(value) is not int:
            raise ValueError(
                f"malformed collection document: {key} must be an integer, got {_shown(value)}"
            )
    if not isinstance(raw_blocks, list) or not all(
        isinstance(reps, list) and all(isinstance(r, str) for r in reps)
        for reps in raw_blocks
    ):
        raise ValueError(
            "malformed collection document: blocks must be a list of lists of "
            'multidegree strings such as "(1,0,0)"'
        )
    blocks = tuple(
        orbit_set(k, [parse_multidegree(r, k) for r in reps]) for reps in raw_blocks
    )
    return LefschetzCollection(k=k, n=n, blocks=blocks)
