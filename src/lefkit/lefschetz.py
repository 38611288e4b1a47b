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

from .ext import ext_graded, nonorthogonal_below, orthogonal_mask
from .lattice import (
    Multidegree,
    OrbitSet,
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
    to vanish, detail holds the graded dimensions), "nesting" (block not
    contained in its predecessor), "invariance" (orbit arity mismatch), or
    "generation" (the bundles do not generate the cube; detail holds the
    verdict status, NOT_FULL_BY_RANK or INCONCLUSIVE at the closure margin).
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
    needs there.
    """
    return tuple(
        twist(el, i)
        for i, block in enumerate(coll.blocks)
        for o in block.orbits
        for el in o.elements
    )


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
    flat = flatten_bundles(coll)
    n = coll.n
    out = []
    for qs, ps in nonorthogonal_below(n, flat):
        for q, p in zip(qs.tolist(), ps.tolist()):
            later, earlier = flat[q], flat[p]
            if later == earlier:
                out.append(Violation(kind="order", witness=(later, earlier)))
            else:
                out.append(
                    Violation(
                        kind="ext",
                        witness=(later, earlier),
                        detail=ext_graded(n, later, earlier),
                    )
                )
    return out


def is_exceptional(coll: LefschetzCollection) -> bool:
    """check_exceptional(coll) == [], stopping at the first block of rows with a violation."""
    return not any(len(qs) for qs, _ in nonorthogonal_below(coll.n, flatten_bundles(coll)))


def check_theorem_semiorthogonality(k: int, n: int):
    """Every bundle of build_E twisted by 1..n is Ext-orthogonal into build_Ehat.

    Only orbit representatives of build_E are scanned: the vanishing
    predicate is unchanged when both sides are permuted at once, and
    build_Ehat is S_k-stable, so a representative stands for its orbit.
    Returns None on success, else the first Violation in scan order
    (ascending twist, then representatives ascending lex, then build_Ehat
    in flatten order).
    """
    reps = build_E(k, n).reps()
    ehat_bundles = build_Ehat(k, n).bundles()
    twisted = [twist(rep, i) for i in range(1, n + 1) for rep in reps]
    bad = ~orthogonal_mask(n, twisted, ehat_bundles)
    if not bad.any():
        return None
    i, j = divmod(int(bad.argmax()), bad.shape[1])
    a, b = twisted[i], ehat_bundles[j]
    return Violation(kind="ext", witness=(a, b), detail=ext_graded(n, a, b))


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
                f"malformed collection document: {key} must be an integer, got {json.dumps(value)}"
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
