"""The benchmark's library operations: certificate replay and the theorem grid.

lefkit offers no command for either, so they go through the library.  The
untimed benchmark runs each in a child process of its own, like the
command operations; the traced run calls `run` in-process.

    python3 perfbench/libop.py replay SEED_FILE CERTIFICATE MARGIN
    python3 perfbench/libop.py grid K N

Prints one JSON object.
"""

from __future__ import annotations

import json
import sys


def replay(seed_file: str, certificate: str, margin: str) -> dict:
    """Parse a `closure --trace-out` certificate and replay it with replay_trace."""
    from lefkit import (
        Box,
        RuleApplication,
        collection_from_json,
        flatten_bundles,
        parse_multidegree,
        replay_trace,
    )

    with open(seed_file, encoding="utf-8") as fh:
        coll = collection_from_json(fh.read())
    k, n, m = coll.k, coll.n, int(margin)
    trace = []
    with open(certificate, encoding="utf-8") as fh:
        for raw in fh:
            doc = json.loads(raw)
            trace.append(
                RuleApplication(
                    axis=doc["axis"],
                    line=tuple(doc["line"]),
                    window_start=doc["window_start"],
                    added=tuple(parse_multidegree(p, k) for p in doc["added"]),
                )
            )
    members = replay_trace(flatten_bundles(coll), n, Box(lo=-m, hi=n + m, k=k), trace)
    covered = all(p in members for p in Box(lo=0, hi=n, k=k).points())
    return {"entries": len(trace), "members": len(members), "cube_covered": covered}


def grid(k: str, n: str) -> dict:
    """check_theorem_semiorthogonality(k, n) and its first violation, if any."""
    from lefkit import check_theorem_semiorthogonality, format_multidegree

    v = check_theorem_semiorthogonality(int(k), int(n))
    witness = None if v is None else [format_multidegree(w) for w in v.witness]
    return {"k": int(k), "n": int(n), "violation": witness}


OPERATIONS = {"replay": replay, "grid": grid}


def run(argv) -> dict:
    return OPERATIONS[argv[0]](*argv[1:])


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1:])))
