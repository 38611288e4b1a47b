"""The four workloads: their operations, expected exit codes and output checks.

An operation is a `lefkit` command line, or a library call (libop.py) where
lefkit has no command.  Its expected exit code and the values its output
must show come from checks.py, computed apart from lefkit and at most once
per run.  The exit codes are the ones the README documents: 0 verified,
1 checked and failed, 2 usage error, 3 inconclusive.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Callable

import checks
from checks import require
from setup_inputs import INCONCLUSIVE_SEEDS, fullness_seed_path, inconclusive_seed_path

FULL, INCONCLUSIVE, NOT_FULL = "FULL", "INCONCLUSIVE", "NOT_FULL_BY_RANK"


@dataclass
class Op:
    label: str
    argv: list[str]
    lib: bool
    expected_rc: Callable[[], int]
    check: Callable[[str], None]

    def written_files(self) -> list[str]:
        return [self.argv[i + 1] for i, a in enumerate(self.argv) if a in ("--trace-out", "--output")]


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line and not line[0].isspace() and ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def _expect_fields(stdout: str, exact: dict, prefixes: dict):
    got = _fields(stdout)
    for key, want in exact.items():
        require(got.get(key) == want, f"{key}: got {got.get(key)!r}, want {want!r}")
    for key, want in prefixes.items():
        require(got.get(key, "").startswith(want), f"{key}: got {got.get(key)!r}, want {want!r}...")
    return got


def _ranks_text(ranks) -> str:
    return "(" + ", ".join(str(r) for r in ranks) + ")"


def verify_op(coll, flags, margin=None, residual=None, paper_full=None) -> Op:
    """`lefkit verify`: ranks, exceptionality, nesting, then fullness or the residual."""
    k, n, blocks = coll

    @functools.cache
    def truth():
        flat = checks.flatten(coll)
        violations = checks.exceptional_violations(n, flat)
        nest = checks.nested(coll)
        sound = violations == 0 and nest
        m = n + 1 if margin is None else margin
        exact = {
            "collection": f"k={k} n={n}",
            "ranks": _ranks_text(checks.ranks(coll)),
            "rectangular": "yes" if all(b == blocks[0] for b in blocks) else "no",
            "exceptional": "ok" if violations == 0 else f"{violations} violations",
        }
        prefixes = {"nesting": "ok" if nest else "violated"}
        if residual is not None:
            res = checks.orbit(residual)
            bad = sum(
                checks.nonvanishing_pairs(n, [tuple(c + i for c in p) for r in block for p in checks.orbit(r)], res)
                for i, block in enumerate(blocks)
            )
            generated, _ = checks.flood(set(flat) | set(res), n, k, m)
            problems = bad + (0 if generated else 1)
            exact["residual"] = "ok" if problems == 0 else f"{problems} violations"
            ok = sound and problems == 0
            rc = 0 if ok else 1
        else:
            need, distinct = (n + 1) ** k, len(set(flat))
            if len(flat) != need or distinct != need:
                status = NOT_FULL
                prefixes["fullness"] = f"{NOT_FULL} ({distinct} bundles, expected {need})"
            else:
                full = checks.fullness_by_flood(coll, m)
                require(full is not None, f"flood cannot decide fullness at margin {m}")
                status = FULL if full else INCONCLUSIVE
                tail = "trace length " if full else "missing "
                prefixes["fullness"] = f"{status} (margin {m}, {tail}"
            if paper_full is not None:
                require((status == FULL) == paper_full, f"independent fullness {status} contradicts the paper")
            ok = sound and status == FULL
            rc = 0 if ok else (3 if sound and status == INCONCLUSIVE else 1)
        exact["verdict"] = "ok" if ok else "fail"
        return rc, exact, prefixes

    def check(stdout):
        _, exact, prefixes = truth()
        _expect_fields(stdout, exact, prefixes)

    return Op(" ".join(["verify", *flags]), ["verify", *flags], False, lambda: truth()[0], check)


def closure_certificate_op(seed_file, certificate, coll, shared) -> Op:
    """`lefkit closure --trace-out`: FULL, and the certificate replays to the cube."""
    k, n, blocks = coll
    margin = n + 1

    @functools.cache
    def truth():
        with open(seed_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        want = [[checks.fmt_point(r) for r in block] for block in blocks]
        require((doc.get("k"), doc.get("n"), doc.get("blocks")) == (k, n, want), "seed file is not the collection")
        require(checks.fullness_by_flood(coll, margin), "independent flood does not certify FULL")
        return 0

    def check(stdout):
        got = _expect_fields(stdout, {"status": FULL}, {})
        members, _, cells = got.get("members", "").partition(" of ")
        require(cells == str(checks.box_cells(n, k, margin)), f"box size {cells}")
        with open(certificate, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        require(got.get("trace entries") == str(len(lines)), "trace length differs from the certificate")
        replayed = checks.replay_certificate(checks.flatten(coll), n, k, margin, lines)
        require(checks.covers_cube(replayed, n, k), "certificate does not cover the cube")
        require(members == str(len(replayed)), f"members {members}, replay gives {len(replayed)}")
        shared["members"], shared["entries"] = len(replayed), len(lines)

    argv = ["closure", "--seed-file", seed_file, "--trace-out", certificate]
    return Op(f"closure --seed-file xk1({k}) --trace-out", argv, False, truth, check)


def replay_op(seed_file, certificate, margin, shared) -> Op:
    """replay_trace of the certificate the closure operation just wrote."""

    def check(stdout):
        doc = json.loads(stdout.strip().splitlines()[-1])
        require("members" in shared, "no checked certificate to compare with")
        require(doc["cube_covered"] is True, "replay_trace does not cover the cube")
        require(doc["entries"] == shared["entries"], "replay_trace read a different number of entries")
        require(doc["members"] == shared["members"], "replay_trace members differ from the independent replay")

    argv = ["replay", seed_file, certificate, str(margin)]
    return Op("replay_trace(certificate)", argv, True, lambda: 0, check)


def closure_inconclusive_op(seed_file, k, weight) -> Op:
    """`lefkit closure` on fewer than 2^k points: never FULL, exit 3."""
    n, margin = 1, 2

    @functools.cache
    def truth():
        first, second = checks.xk1(k)[2]
        want = [p for r in first for p in checks.orbit(r) if sum(p) != weight]
        want += [tuple(c + 1 for c in p) for r in second for p in checks.orbit(r)]
        with open(seed_file, encoding="utf-8") as fh:
            got = [checks.parse_point(p) for p in json.load(fh)["points"]]
        require(sorted(got) == sorted(want), "seed file is not xk1 minus the weight class")
        require(len(set(got)) < 2 ** k, "seed has 2^k points")  # so it cannot be full
        return 3

    def check(stdout):
        got = _expect_fields(stdout, {"status": INCONCLUSIVE}, {"missing": "("})
        members, _, cells = got.get("members", "").partition(" of ")
        require(cells == str(checks.box_cells(n, k, margin)), f"box size {cells}")
        require(members.isdigit() and int(members) <= int(cells), f"members {members}")
        missing = [checks.parse_point(p) for p in re.findall(r"\([^)]*\)", got["missing"])]
        require(all(len(p) == k and all(0 <= c <= n for c in p) for p in missing), "missing point off the cube")

    argv = ["closure", "--seed-file", seed_file, "--n", str(n), "--margin", str(margin)]
    return Op(f"closure xk1({k}) without weight {weight}", argv, False, truth, check)


def grid_op(k, n) -> Op:
    """check_theorem_semiorthogonality(k, n) against the independent grid."""

    @functools.cache
    def truth():
        require(checks.semiorthogonality_grid(k, n) == 0, "independent grid contradicts the theorem")
        return 0

    def check(stdout):
        doc = json.loads(stdout.strip().splitlines()[-1])
        require(doc["violation"] is None, f"lefkit reports a violation {doc['violation']}")

    return Op(f"check_theorem_semiorthogonality({k}, {n})", ["grid", str(k), str(n)], True, truth, check)


HIT = re.compile(r"hit ranks=\(([^)]*)\) blocks (.*)")


def search_op(k, n, target, flags=(), facts=()) -> Op:
    """`lefkit search`: every hit exceptional, nested and full; the paper's facts hold."""
    bound = checks.minimal_first_block_bound(k, n) if target == "minimal" else None

    @functools.cache
    def checked_hit(line):
        match = HIT.fullmatch(line)
        require(match is not None, f"unparsed hit line {line[:80]!r}")
        blocks = [
            sorted(checks.parse_point(p) for p in re.findall(r"\([^)]*\)", part))
            for part in match.group(2).split("; ")
        ]
        coll = (k, n, blocks)
        ranks = checks.ranks(coll)
        require(match.group(1) == ", ".join(map(str, ranks)), f"ranks {match.group(1)} != {ranks}")
        require(len(blocks) == n + 1, "chain length is not n+1")
        require(checks.nested(coll), "blocks not nested")
        require(checks.exceptional_violations(n, checks.flatten(coll)) == 0, "hit is not exceptional")
        require(checks.flood(checks.flatten(coll), n, k, n + 1)[0], "hit does not flood the cube")
        if target == "rectangular":
            require(all(b == blocks[0] for b in blocks), "rectangular hit has unequal blocks")
        else:
            require(ranks[0] >= bound, f"first block {ranks[0]} below the bound {bound}")
        return ranks, blocks

    def check(stdout):
        lines = stdout.strip().splitlines()
        require(bool(lines), "no output")
        summary = lines[-1]
        hits = [checked_hit(line) for line in lines[:-1]]
        require(summary.startswith(f"hits: {len(hits)}, ") and summary.endswith("exhausted: yes"), summary)
        if bound is not None:
            require(hits and hits[0][0][0] == bound, f"first hit does not attain the bound {bound}")
        for fact in facts:
            fact(hits)

    argv = ["search", "--k", str(k), "--n", str(n), "--target", target, *flags]
    return Op(" ".join(argv), argv, False, lambda: 0, check)


def _has_ranks(ranks):
    def fact(hits):
        require(any(r == ranks for r, _ in hits), f"no hit with ranks {ranks}")

    return fact


def _has_staircase_block(k, n):
    def fact(hits):
        e = checks.staircase(k, n, strict=True)
        require(any(blocks[0] == e for _, blocks in hits), f"E({k},{n}) is not among the hits")

    return fact


def _no_hits(hits):
    require(not hits, "a rectangular hit exists where the paper rules it out")


def fullness(directory):
    seed, cert, shared = fullness_seed_path(directory), f"{directory}/certificate.jsonl", {}
    ops = [verify_op(checks.xk1(k), ["--builtin", "xk1", "--k", str(k)], paper_full=True) for k in (7, 8, 9, 10)]
    ops.append(verify_op(checks.xk1(9), ["--builtin", "xk1", "--k", "9", "--margin", "1"], margin=1, paper_full=True))
    ops.append(closure_certificate_op(seed, cert, checks.xk1(9), shared))
    ops.append(replay_op(seed, cert, 2, shared))
    return ops


def inconclusive(directory):
    ops = [closure_inconclusive_op(inconclusive_seed_path(directory, k, w), k, w) for k, w in INCONCLUSIVE_SEEDS]
    ops.append(verify_op(checks.x32_minimal(), ["--builtin", "x32-minimal", "--margin", "0"], margin=0))
    ops.append(verify_op(checks.xk1(9), ["--builtin", "xk1", "--k", "9", "--margin", "0"], margin=0))
    return ops


def orthogonality(directory):
    ops = [
        verify_op(checks.x3n_rectangular(n), ["--builtin", "x3n-rectangular", "--n", str(n)], paper_full=(n + 1) % 3 != 0)
        for n in (9, 10, 11, 12, 13)
    ]
    ops.append(
        verify_op(
            checks.x32_rectangular_part(),
            ["--builtin", "x32-rect", "--residual", "(1,-1,0)"],
            residual=checks.X32_RESIDUAL_REP,
        )
    )
    ops += [grid_op(k, n) for k, n in ((4, 6), (5, 5), (6, 3), (7, 2))]
    return ops


def search(directory):
    return [
        search_op(3, 2, "minimal", facts=[_has_ranks((13, 7, 7))]),
        search_op(3, 2, "minimal", ["--pool-hi", "4"], facts=[_has_ranks((13, 7, 7))]),
        search_op(2, 5, "minimal"),
        search_op(3, 3, "rectangular", facts=[_has_staircase_block(3, 3)]),
        search_op(3, 2, "rectangular", ["--no-prune"], facts=[_no_hits]),
        search_op(7, 1, "rectangular", facts=[_has_staircase_block(7, 1)]),
    ]


WORKLOADS = {
    "fullness": fullness,
    "inconclusive": inconclusive,
    "orthogonality": orthogonality,
    "search": search,
}
