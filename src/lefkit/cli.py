"""Command line front end.

Subcommands: ext, verify, dims, bounds, closure, search, report.  Exit
codes: 0 success or verified, 1 checked and failed, 2 usage or input
error, 3 inconclusive (box margin or search budget ran out before a
certificate either way).
"""

from __future__ import annotations

import argparse
import json
import sys

from .ext import ext_graded, is_orthogonal_pair
from .lattice import Box, format_multidegree, orbit_set, parse_multidegree
from .lefschetz import (
    JSON_SCHEMA,
    check_exceptional,
    check_lefschetz,
    check_theorem_semiorthogonality,
    collection_from_json,
    collection_to_json,
    is_rectangular,
    ranks,
    x32_minimal,
    x32_rectangular_part,
    x32_residual,
    x3n_rectangular,
    xk1,
)
from .reptheory import (
    divisibility_criterion,
    equivariant_lengths,
    invariant_bound,
    lef_bounds,
    schur_weyl_table,
)
from .saturation import FULL, INCONCLUSIVE, NOT_FULL_BY_RANK, close, residual_check, verify_fullness
from .explorer import SearchSpec, search_minimal, search_rectangular

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

BUILTINS = ("x3n-rectangular", "x32-minimal", "x32-rect", "xk1")


def _emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _trace_doc(app):
    return {
        "axis": app.axis,
        "line": list(app.line),
        "window_start": app.window_start,
        "added": [format_multidegree(p) for p in app.added],
    }


def _trace_jsonl(trace) -> str:
    return "".join(json.dumps(_trace_doc(app)) + "\n" for app in trace)


def cmd_ext(args) -> int:
    a = parse_multidegree(getattr(args, "from"))
    b = parse_multidegree(args.to, k=len(a))
    dims = ext_graded(args.n, a, b)
    vanishes = is_orthogonal_pair(args.n, a, b)
    if args.format == "json":
        doc = {
            "schema": JSON_SCHEMA,
            "n": args.n,
            "from": format_multidegree(a),
            "to": format_multidegree(b),
            "dims": list(dims),
            "vanishes": vanishes,
        }
        _emit(args, _json_dumps(doc))
    else:
        lines = [f"degree {i}: {d}" for i, d in enumerate(dims) if d]
        lines.append(f"vanishes: {'true' if vanishes else 'false'}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _load_collection(args):
    if args.collection:
        with open(args.collection, encoding="utf-8") as fh:
            return collection_from_json(fh.read())
    if args.builtin == "x3n-rectangular":
        if args.n is None:
            raise ValueError("--builtin x3n-rectangular needs --n")
        return x3n_rectangular(args.n)
    if args.builtin == "x32-minimal":
        return x32_minimal()
    if args.builtin == "x32-rect":
        return x32_rectangular_part()
    if args.builtin == "xk1":
        if args.k is None:
            raise ValueError("--builtin xk1 needs --k")
        return xk1(args.k)
    raise ValueError("provide --builtin or --collection")


def cmd_verify(args) -> int:
    coll = _load_collection(args)
    if args.dump:
        _emit(args, collection_to_json(coll))
        return EXIT_OK

    exc_violations = check_exceptional(coll)
    nest = check_lefschetz(coll)
    res_violations = None
    verdict = None
    if args.residual:
        # with a residual the meaningful generation check is the joint one
        rep = parse_multidegree(args.residual, k=coll.k)
        res_violations = residual_check(coll, orbit_set(coll.k, [rep]), margin=args.margin)
        ok = not exc_violations and nest is None and not res_violations
    else:
        verdict = verify_fullness(coll, margin=args.margin)
        ok = not exc_violations and nest is None and verdict.status == FULL

    if args.format == "json":
        doc = {
            "schema": JSON_SCHEMA,
            "k": coll.k,
            "n": coll.n,
            "ranks": list(ranks(coll)),
            "rectangular": is_rectangular(coll),
            "exceptional": not exc_violations,
            "exceptional_violations": [
                {
                    "kind": v.kind,
                    "witness": [format_multidegree(w) for w in v.witness],
                    "detail": list(v.detail),
                }
                for v in exc_violations[:20]
            ],
            "nesting_ok": nest is None,
        }
        if verdict is not None:
            doc["fullness"] = verdict.status
            doc["fullness_detail"] = {
                key: (list(val) if isinstance(val, tuple) else val)
                for key, val in verdict.detail.items()
            }
        if res_violations is not None:
            doc["residual_ok"] = not res_violations
        doc["verdict"] = "ok" if ok else "fail"
        _emit(args, _json_dumps(doc))
    else:
        lines = [
            f"collection: k={coll.k} n={coll.n}",
            f"ranks: ({', '.join(str(r) for r in ranks(coll))})",
            f"rectangular: {'yes' if is_rectangular(coll) else 'no'}",
            f"exceptional: {'ok' if not exc_violations else f'{len(exc_violations)} violations'}",
        ]
        if exc_violations:
            v = exc_violations[0]
            lines.append(
                f"  first: {v.kind} {format_multidegree(v.witness[0])} -> "
                f"{format_multidegree(v.witness[1])}"
            )
        lines.append(f"nesting: {'ok' if nest is None else 'violated at block ' + str(nest.detail)}")
        if verdict is not None:
            if verdict.status == FULL:
                lines.append(
                    f"fullness: FULL (margin {verdict.detail['margin']}, "
                    f"trace length {len(verdict.state.trace)})"
                )
            elif verdict.status == NOT_FULL_BY_RANK:
                lines.append(
                    f"fullness: NOT_FULL_BY_RANK "
                    f"({verdict.detail['bundles']} bundles, expected {verdict.detail['expected']})"
                )
            else:
                missing = ", ".join(
                    format_multidegree(p) for p in verdict.detail["missing_sample"][:4]
                )
                lines.append(
                    f"fullness: INCONCLUSIVE (margin {verdict.detail['margin']}, missing {missing})"
                )
        if res_violations is not None:
            lines.append(f"residual: {'ok' if not res_violations else f'{len(res_violations)} violations'}")
        lines.append(f"verdict: {'ok' if ok else 'fail'}")
        _emit(args, "\n".join(lines) + "\n")
    if ok:
        return EXIT_OK
    if verdict is not None and verdict.status == INCONCLUSIVE and not exc_violations and nest is None:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_dims(args) -> int:
    table = schur_weyl_table(args.h, args.k)
    witness = divisibility_criterion(args.h, args.k)
    if args.format == "json":
        doc = {
            "schema": JSON_SCHEMA,
            "h": args.h,
            "k": args.k,
            "rows": [
                {
                    "lambda": format_multidegree(lam),
                    "dim_schur": s,
                    "dim_irrep_transpose": r,
                    "divisible": s % args.h == 0,
                }
                for lam, s, r in table.rows
            ],
            "mass": table.mass,
            "divisibility_ok": witness is None,
            "witness": format_multidegree(witness) if witness else None,
        }
        _emit(args, _json_dumps(doc))
    else:
        lines = ["lambda\tdim_schur\tdim_irrep_transpose\tdivisible"]
        for lam, s, r in table.rows:
            lines.append(
                f"{format_multidegree(lam)}\t{s}\t{r}\t{'yes' if s % args.h == 0 else 'no'}"
            )
        if args.format == "text":
            lines.append(f"mass: {table.mass}")
            lines.append(
                "divisibility: ok"
                if witness is None
                else f"divisibility: fail (witness {format_multidegree(witness)})"
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bounds(args) -> int:
    r0_min, rd_max = lef_bounds(args.h, args.k)
    inv = invariant_bound(args.h, args.k)
    if args.format == "json":
        doc = {
            "schema": JSON_SCHEMA,
            "h": args.h,
            "k": args.k,
            "r0_min": r0_min,
            "rd_max": rd_max,
            "invariant_r0_min": inv,
        }
        _emit(args, _json_dumps(doc))
    elif args.format == "tsv":
        _emit(
            args,
            "h\tk\tr0_min\trd_max\tinvariant_r0_min\n"
            f"{args.h}\t{args.k}\t{r0_min}\t{rd_max}\t{inv}\n",
        )
    else:
        _emit(
            args,
            f"h={args.h} k={args.k}\n"
            f"r0_min: {r0_min}\nrd_max: {rd_max}\ninvariant_r0_min: {inv}\n",
        )
    return EXIT_OK


def _load_seed(path):
    """A seed file is either a collection document or {"k":, "points": [...]}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("seed file must hold a JSON object")
    if "blocks" in doc:
        coll = collection_from_json(json.dumps(doc))
        from .lefschetz import flatten_bundles

        return coll.k, coll.n, flatten_bundles(coll)
    try:
        k = int(doc["k"])
        raw_points = doc["points"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed seed file: {exc}") from None
    if not isinstance(raw_points, list) or not all(isinstance(p, str) for p in raw_points):
        raise ValueError(
            'malformed seed file: points must be a list of multidegree strings such as "(1,0)"'
        )
    return k, None, [parse_multidegree(p, k) for p in raw_points]


def cmd_closure(args) -> int:
    k, file_n, seed = _load_seed(args.seed_file)
    n = args.n if args.n is not None else file_n
    if n is None:
        raise ValueError("--n is required when the seed file carries no n")
    if file_n is not None and args.n is not None and args.n != file_n:
        raise ValueError(f"--n {args.n} conflicts with seed file n={file_n}")
    margin = args.margin if args.margin is not None else n + 1
    box = Box(lo=-margin, hi=n + margin, k=k)
    target = [p for p in Box(lo=0, hi=n, k=k).points()]
    state = close(seed, n, box, stop_when_contains=target)
    missing = [p for p in target if p not in state.members]
    status = FULL if not missing else INCONCLUSIVE

    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(_trace_jsonl(state.trace))
    if args.format == "json":
        doc = {
            "schema": JSON_SCHEMA,
            "k": k,
            "n": n,
            "margin": margin,
            "status": status,
            "members": len(state.members),
            "box_size": box.size,
            "trace": [_trace_doc(app) for app in state.trace],
        }
        if missing:
            doc["missing_sample"] = [format_multidegree(p) for p in missing[:20]]
        _emit(args, _json_dumps(doc))
    else:
        lines = [
            f"status: {status}",
            f"members: {len(state.members)} of {box.size}",
            f"trace entries: {len(state.trace)}",
        ]
        if missing:
            lines.append(
                "missing: " + ", ".join(format_multidegree(p) for p in missing[:4])
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if status == FULL else EXIT_INCONCLUSIVE


def cmd_search(args) -> int:
    pool_box = None
    if args.pool_hi is not None:
        pool_box = Box(lo=0, hi=args.pool_hi, k=args.k)
    spec = SearchSpec(
        k=args.k,
        n=args.n,
        target=args.target,
        pool_box=pool_box,
        budget=args.budget,
        margin=args.margin,
        prune=not args.no_prune,
    )
    result = (
        search_rectangular(spec) if args.target == "rectangular" else search_minimal(spec)
    )
    if args.format == "json":
        out = []
        for coll in result.found:
            out.append(
                json.dumps(
                    {
                        "k": coll.k,
                        "n": coll.n,
                        "ranks": list(ranks(coll)),
                        "blocks": [
                            [format_multidegree(r) for r in b.reps()] for b in coll.blocks
                        ],
                    }
                )
            )
        out.append(
            json.dumps(
                {
                    "summary": True,
                    "hits": len(result.found),
                    "inconclusive": len(result.inconclusive),
                    "nodes": result.nodes_visited,
                    "exhausted": result.exhausted,
                }
            )
        )
        _emit(args, "\n".join(out) + "\n")
    else:
        lines = []
        for coll in result.found:
            blocks = "; ".join(
                ",".join(format_multidegree(r) for r in b.reps()) for b in coll.blocks
            )
            lines.append(f"hit ranks=({', '.join(str(r) for r in ranks(coll))}) blocks {blocks}")
        lines.append(
            f"hits: {len(result.found)}, inconclusive: {len(result.inconclusive)}, "
            f"nodes: {result.nodes_visited}, exhausted: {'yes' if result.exhausted else 'no'}"
        )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if result.exhausted else EXIT_INCONCLUSIVE


def cmd_report(args) -> int:
    sections = []

    grid_ok = True
    for k in range(1, 4):
        for n in range(1, 4):
            if check_theorem_semiorthogonality(k, n) is not None:
                grid_ok = False
    sections.append(("semiorthogonality grid k<=3 n<=3", "ok" if grid_ok else "FAIL"))

    coll = x32_minimal()
    verdict = verify_fullness(coll, margin=2)
    res = residual_check(x32_rectangular_part(), x32_residual())
    sections.append(
        (
            "x32-minimal",
            f"ranks ({', '.join(str(r) for r in ranks(coll))}), "
            f"exceptional {'ok' if not check_exceptional(coll) else 'FAIL'}, "
            f"fullness {verdict.status} at margin 2, "
            f"residual {'ok' if not res else 'FAIL'}",
        )
    )

    for k in (2, 3, 4):
        v = verify_fullness(xk1(k))
        sections.append(
            (f"xk1 k={k}", f"ranks ({', '.join(str(r) for r in ranks(xk1(k)))}), {v.status}")
        )

    v = verify_fullness(x3n_rectangular(3))
    sections.append(("x3n-rectangular n=3", v.status))

    r0_min, rd_max = lef_bounds(3, 3)
    inv = invariant_bound(3, 3)
    table = schur_weyl_table(3, 3)
    dims = ", ".join(f"{format_multidegree(l)}:{s}/{r}" for l, s, r in table.rows)
    sections.append(("schur dims h=3 k=3", dims))
    sections.append(
        ("bounds h=3 k=3", f"r0_min {r0_min}, rd_max {rd_max}, invariant {inv}")
    )
    per_orbit, total = equivariant_lengths(coll.blocks[0])
    sections.append(
        ("equivariant lengths of first block", f"{list(per_orbit)} total {total}")
    )

    ok = grid_ok and verdict.status == FULL and not res
    if args.format == "json":
        doc = {
            "schema": JSON_SCHEMA,
            "sections": [{"name": name, "value": value} for name, value in sections],
            "ok": ok,
        }
        _emit(args, _json_dumps(doc))
    else:
        width = max(len(name) for name, _ in sections)
        lines = [f"{name.ljust(width)}  {value}" for name, value in sections]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefkit",
        description="Build, verify and search symmetric exceptional collections "
        "of line bundles on products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("ext", help="graded Ext dimensions between two line bundles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", required=True, help='source multidegree, e.g. "(1,0,0)"')
    p.add_argument("--to", required=True, help='target multidegree, e.g. "(0,0,0)"')
    add_common(p)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("verify", help="check a collection: exceptional, nesting, fullness")
    p.add_argument("--builtin", choices=BUILTINS)
    p.add_argument("--collection", help="path to a collection JSON document")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--margin", type=int)
    p.add_argument("--residual", help='residual orbit rep, e.g. "(1,-1,0)"')
    p.add_argument("--dump", action="store_true", help="print the collection JSON and exit")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="Schur/symmetric-group dimension table")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("bounds", help="block size bounds for length-h chains")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("closure", help="window-generation closure from a seed file")
    p.add_argument("--seed-file", "--seed", dest="seed_file", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--margin", type=int)
    p.add_argument("--trace-out", help="write the rule trace as JSON lines")
    add_common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("search", help="enumerate and certify candidate collections")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=("rectangular", "minimal"), required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--margin", type=int)
    p.add_argument("--pool-hi", type=int, help="pool box is [0, pool-hi]^k (default n+1)")
    p.add_argument("--no-prune", action="store_true", help="disable exact rank pruning")
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="run the bundled reproduction battery")
    add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
