"""Self-tests of the independent checks, one planted fault each.

Each check must accept a sound input and reject the same input with one
fault planted in it.  The fixture is the paper's minimal (13, 7, 7)
collection on (P^2)^3, rebuilt by checks.py, so no lefkit output is needed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import checks


def _drop_window_point(trace, h):
    """Remove from the certificate one added point that a later window needs."""
    added_by = {}
    for i, entry in enumerate(trace):
        axis, line, ws = entry["axis"], tuple(entry["line"]), entry["window_start"]
        for z in range(ws, ws + h):
            pt = checks.fmt_point(line[:axis] + (z,) + line[axis:])
            if pt in added_by:
                planted = [dict(e, added=list(e["added"])) for e in trace]
                planted[added_by[pt]]["added"].remove(pt)
                return planted
        for pt in entry["added"]:
            added_by.setdefault(pt, i)
    raise AssertionError("fixture certificate has no window built from an earlier rule")


def _rejects(fn) -> bool:
    try:
        fn()
    except checks.CheckFailed:
        return True
    return False


def run_selftests() -> list[str]:
    """Names of the self-tests that failed (empty when all pass)."""
    coll = checks.x32_minimal()
    k, n, blocks = coll
    flat = checks.flatten(coll)
    margin = n + 1
    failures = []

    def expect(name, cond):
        if not cond:
            failures.append(name)

    expect("minimal bound of (P^2)^3 is 13", checks.minimal_first_block_bound(3, 2) == 13)
    expect("fixture ranks are (13, 7, 7)", checks.ranks(coll) == (13, 7, 7))

    expect("pairwise test accepts the collection", checks.exceptional_violations(n, flat) == 0)
    swapped = list(flat)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    expect("pairwise test rejects two bundles swapped", checks.exceptional_violations(n, swapped) > 0)

    covered, trace = checks.flood(flat, n, k, margin, record=True)
    expect("flood accepts the collection", covered)
    dropped = (k, n, [[r for r in blocks[0] if r != (2, 1, 0)]] + blocks[1:])
    expect("flood rejects one orbit dropped", not checks.flood(checks.flatten(dropped), n, k, margin)[0])

    def replay(entries):
        members = checks.replay_certificate(flat, n, k, margin, [json.dumps(e) for e in entries])
        checks.require(checks.covers_cube(members, n, k), "cube not covered")

    expect("replayer accepts the certificate", not _rejects(lambda: replay(trace)))
    expect(
        "replayer rejects one window point removed",
        _rejects(lambda: replay(_drop_window_point(trace, n + 1))),
    )
    return failures


def main() -> int:
    failures = run_selftests()
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    print("self-tests: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
