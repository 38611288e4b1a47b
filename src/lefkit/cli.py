"""Command line front end.

Subcommands: ext, verify, dims, bounds, closure, search, report.  Each
command computes its result once and hands it to `_render` as views, one
per format it offers; `_render` alone picks the view for --format, turns it
into text or JSON, and writes it to --output or stdout.  Exit codes: 0
success or verified, 1 checked and failed, 2 usage or input error, 3
inconclusive (box margin or search budget ran out before a certificate
either way).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .ext import ext_graded, is_orthogonal_pair
from .lattice import (
    Box,
    _refuse_above_limit,
    format_multidegree,
    on_reps,
    orbit_set,
    parse_multidegree,
)
from .lefschetz import (
    JSON_SCHEMA,
    _shown,
    check_lefschetz,
    check_theorem_semiorthogonality,
    collection_from_json,
    collection_to_json,
    exceptional_violations,
    flatten_bundles,
    is_exceptional,
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
from .saturation import (
    FULL,
    INCONCLUSIVE,
    NOT_FULL_BY_RANK,
    _cube_box,
    close_seed,
    residual_check,
    verify_fullness,
)
from .explorer import SearchSpec, search_minimal, search_rectangular

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# --builtin name -> (builder taking the parsed arguments, the options it takes)
BUILTINS = {
    "x3n-rectangular": (lambda args: x3n_rectangular(args.n), ("n",)),
    "x32-minimal": (lambda args: x32_minimal(), ()),
    "x32-rect": (lambda args: x32_rectangular_part(), ()),
    "xk1": (lambda args: xk1(args.k), ("k",)),
}


def _render(args, rc: int, **views) -> int:
    """Write the view named by args.format to args.output or stdout; return rc.

    A view is a dict, written as one indented JSON document; a list of
    lines, each a string or a dict written as one compact JSON line; or a
    callable returning either, called only when its format is chosen.
    """
    view = views[args.format]
    if callable(view):
        view = view()
    if isinstance(view, dict):
        body = json.dumps(view, indent=2) + "\n"
    else:
        lines = (line if isinstance(line, str) else json.dumps(line) for line in view)
        body = "".join(line + "\n" for line in lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return rc


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _ranks_text(coll) -> str:
    return "(" + ", ".join(str(r) for r in ranks(coll)) + ")"


def _trace_docs(state):
    """One JSON-ready dict per rule of state.trace, keyed by the rule's fields, in order."""
    for rule in state.trace:
        added = [format_multidegree(p) for p in rule.added]
        yield {**vars(rule), "line": list(rule.line), "added": added}


def _missing_text(points) -> str:
    """The first four unreached points, as the text reports list them."""
    return ", ".join(format_multidegree(p) for p in points[:4])


def _read_json(path):
    """The JSON document in the file at path; one nested too deeply is a ValueError too."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def cmd_ext(args) -> int:
    a = parse_multidegree(getattr(args, "from"))
    b = parse_multidegree(args.to, k=len(a))
    dims = ext_graded(args.n, a, b)
    vanishes = is_orthogonal_pair(args.n, a, b)
    doc = {
        "schema": JSON_SCHEMA,
        "n": args.n,
        "from": format_multidegree(a),
        "to": format_multidegree(b),
        "dims": dims,
        "vanishes": vanishes,
    }
    text = [f"degree {i}: {d}" for i, d in enumerate(dims) if d]
    text.append(f"vanishes: {json.dumps(vanishes)}")
    return _render(args, EXIT_OK, text=text, json=doc)


def _load_collection(args):
    # each builtin takes only its own --k/--n; a collection document carries both
    # and names no builtin; --dump writes the collection and checks nothing
    if args.collection:
        source, takes, options = "--collection", (), ("builtin", "k", "n")
    elif args.builtin is None:
        raise ValueError("provide --builtin or --collection")
    else:
        (build, takes), source = BUILTINS[args.builtin], f"--builtin {args.builtin}"
        options = ("k", "n")
    checks = [(source, option, option in takes) for option in options]
    checks += [("--dump", option, False) for option in ("residual", "margin") if args.dump]
    for name, option, needed in checks:
        given = getattr(args, option) is not None
        if given != needed:
            raise ValueError(f"{name} {'takes no' if given else 'needs'} --{option}")
    if args.collection:
        return collection_from_json(_read_json(args.collection))
    return build(args)


def _fullness_text(verdict) -> str:
    detail = verdict.detail
    if verdict.status == FULL:
        return f"FULL (margin {detail['margin']}, trace length {verdict.state.trace_length})"
    if verdict.status == NOT_FULL_BY_RANK:
        return f"NOT_FULL_BY_RANK ({detail['bundles']} bundles, expected {detail['expected']})"
    missing = _missing_text(detail["missing_sample"])
    return f"INCONCLUSIVE (margin {detail['margin']}, missing {missing})"


def cmd_verify(args) -> int:
    coll = _load_collection(args)
    if args.dump:
        dump = collection_to_json(coll).splitlines()
        return _render(args, EXIT_OK, text=dump, json=dump)

    # where on_reps does not hold for the fullness box, the closure seeds the
    # grid with every bundle (no twist table lists one): such a collection is
    # sized as flattened first, so a refusal depends neither on the verdict
    # nor on the form that decides it, and comes before any Ext check
    if not on_reps(coll.k, _cube_box(coll.n, coll.k, args.margin).size):
        _refuse_above_limit(sum(ranks(coll)))
    if is_exceptional(coll):
        violation_count, violations = 0, []
    else:
        violation_count, violations = exceptional_violations(coll, shown=20)
    nest = check_lefschetz(coll)
    doc = {
        "schema": JSON_SCHEMA,
        "k": coll.k,
        "n": coll.n,
        "ranks": ranks(coll),
        "rectangular": is_rectangular(coll),
        "exceptional": not violation_count,
        "exceptional_violations": [
            {
                "kind": v.kind,
                "witness": [format_multidegree(w) for w in v.witness],
                "detail": v.detail,
            }
            for v in violations
        ],
        "nesting_ok": nest is None,
    }
    text = [
        f"collection: k={coll.k} n={coll.n}",
        f"ranks: {_ranks_text(coll)}",
        f"rectangular: {_yes(doc['rectangular'])}",
        f"exceptional: {f'{violation_count} violations' if violation_count else 'ok'}",
    ]
    if violations:
        first = doc["exceptional_violations"][0]
        text.append(f"  first: {first['kind']} {first['witness'][0]} -> {first['witness'][1]}")
    text.append(f"nesting: {'ok' if nest is None else f'violated at block {nest.detail[0]}'}")
    residual_violations = []
    if args.residual:
        # with a residual the meaningful generation check is the joint one
        rep = parse_multidegree(args.residual, k=coll.k)
        residual_violations, verdict = residual_check(
            coll, orbit_set(coll.k, [rep]), margin=args.margin
        )
        count = len(residual_violations) + (verdict.status != FULL)
        doc["residual_ok"] = not count
        text.append(f"residual: {f'{count} violations' if count else 'ok'}")
    else:
        verdict = verify_fullness(coll, margin=args.margin)
        doc["fullness"] = verdict.status
        doc["fullness_detail"] = verdict.detail
        text.append(f"fullness: {_fullness_text(verdict)}")
    rc = {FULL: EXIT_OK, INCONCLUSIVE: EXIT_INCONCLUSIVE}.get(verdict.status, EXIT_FAIL)
    if violations or residual_violations or nest is not None:
        rc = EXIT_FAIL
    doc["verdict"] = "ok" if rc == EXIT_OK else "fail"
    text.append(f"verdict: {doc['verdict']}")
    return _render(args, rc, text=text, json=doc)


def cmd_dims(args) -> int:
    table = schur_weyl_table(args.h, args.k)
    witness = divisibility_criterion(args.h, args.k)
    rows = [
        {
            "lambda": format_multidegree(lam),
            "dim_schur": s,
            "dim_irrep_transpose": r,
            "divisible": s % args.h == 0,
        }
        for lam, s, r in table.rows
    ]
    doc = {
        "schema": JSON_SCHEMA,
        "h": args.h,
        "k": args.k,
        "rows": rows,
        "mass": table.mass,
        "divisibility_ok": witness is None,
        "witness": format_multidegree(witness) if witness else None,
    }
    tsv = ["lambda\tdim_schur\tdim_irrep_transpose\tdivisible"] + [
        f"{row['lambda']}\t{row['dim_schur']}\t{row['dim_irrep_transpose']}\t"
        f"{_yes(row['divisible'])}"
        for row in rows
    ]
    divisibility = "ok" if witness is None else f"fail (witness {doc['witness']})"
    text = tsv + [f"mass: {table.mass}", f"divisibility: {divisibility}"]
    return _render(args, EXIT_OK, text=text, json=doc, tsv=tsv)


def cmd_bounds(args) -> int:
    r0_min, rd_max = lef_bounds(args.h, args.k)
    doc = {
        "schema": JSON_SCHEMA,
        "h": args.h,
        "k": args.k,
        "r0_min": r0_min,
        "rd_max": rd_max,
        "invariant_r0_min": invariant_bound(args.h, args.k),
    }
    fields = ("h", "k", "r0_min", "rd_max", "invariant_r0_min")
    tsv = ["\t".join(fields), "\t".join(str(doc[key]) for key in fields)]
    text = [f"h={args.h} k={args.k}"] + [f"{key}: {doc[key]}" for key in fields[2:]]
    return _render(args, EXIT_OK, text=text, json=doc, tsv=tsv)


def _load_seed(path):
    """A seed file is either a collection document or {"k":, "points": [...]}."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("seed file must hold a JSON object")
    if "blocks" in doc:
        coll = collection_from_json(doc)
        return coll.k, coll.n, flatten_bundles(coll)
    try:
        k, raw_points = doc["k"], doc["points"]
    except KeyError as exc:
        raise ValueError(f"malformed seed file: {exc}") from None
    if type(k) is not int:
        raise ValueError(f"malformed seed file: k must be an integer, got {_shown(k)}")
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
    state, missing = close_seed(seed, n, k, args.margin)
    box = _cube_box(n, k, args.margin)
    status = FULL if not missing else INCONCLUSIVE
    members = state.member_count
    if status == FULL:
        state = state.certificate(Box(lo=0, hi=n, k=k))
        # replayed in `box`, the certificate gives the seed plus its listed
        # points; its own box may be smaller and leave seed points out
        members = state.member_count + len(set(seed) - state.seed)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(doc) + "\n" for doc in _trace_docs(state))

    def doc():
        out = {
            "schema": JSON_SCHEMA,
            "k": k,
            "n": n,
            "margin": -box.lo,
            "status": status,
            "members": members,
            "box_size": box.size,
            "trace": list(_trace_docs(state)),
        }
        if missing:
            out["missing_sample"] = [format_multidegree(p) for p in missing]
        return out

    text = [
        f"status: {status}",
        f"members: {members} of {box.size}",
        f"trace entries: {state.trace_length}",
    ]
    if missing:
        text.append("missing: " + _missing_text(missing))
    return _render(args, EXIT_OK if status == FULL else EXIT_INCONCLUSIVE, text=text, json=doc)


def cmd_search(args) -> int:
    spec = SearchSpec(
        k=args.k, n=args.n, pool_hi=args.pool_hi, budget=args.budget, margin=args.margin
    )
    if args.target == "rectangular":
        result = search_rectangular(spec, prune=not args.no_prune)
    elif args.no_prune:
        raise ValueError("--no-prune applies to --target rectangular only")
    else:
        result = search_minimal(spec)
    # found blocks repeat their reps: an unpruned k = 2, n = 1100 hit holds 1,101 equal blocks
    fmt = functools.cache(format_multidegree)
    hits = [
        {
            "k": coll.k,
            "n": coll.n,
            "ranks": ranks(coll),
            "blocks": [[fmt(r) for r in b.reps()] for b in coll.blocks],
        }
        for coll in result.found
    ]
    summary = {
        "summary": True,
        "hits": len(result.found),
        "inconclusive": len(result.inconclusive),
        "nodes": result.nodes_visited,
        "exhausted": result.exhausted,
    }
    text = [
        f"hit ranks={_ranks_text(coll)} blocks " + "; ".join(",".join(b) for b in hit["blocks"])
        for coll, hit in zip(result.found, hits)
    ]
    text.append(
        f"hits: {summary['hits']}, inconclusive: {summary['inconclusive']}, "
        f"nodes: {summary['nodes']}, exhausted: {_yes(result.exhausted)}"
    )
    rc = EXIT_INCONCLUSIVE if result.inconclusive or not result.exhausted else EXIT_OK
    return _render(args, rc, text=text, json=hits + [summary])


def cmd_report(args) -> int:
    sections = []

    grid_ok = all(
        check_theorem_semiorthogonality(k, n) is None for k in range(1, 4) for n in range(1, 4)
    )
    sections.append(("semiorthogonality grid k<=3 n<=3", "ok" if grid_ok else "FAIL"))

    coll = x32_minimal()
    verdict = verify_fullness(coll, margin=2)
    res_violations, res_verdict = residual_check(x32_rectangular_part(), x32_residual())
    res_ok = not res_violations and res_verdict.status == FULL
    sections.append(
        (
            "x32-minimal",
            f"ranks {_ranks_text(coll)}, "
            f"exceptional {'ok' if is_exceptional(coll) else 'FAIL'}, "
            f"fullness {verdict.status} at margin 2, "
            f"residual {'ok' if res_ok else 'FAIL'}",
        )
    )

    for k in (2, 3, 4):
        v = verify_fullness(xk1(k))
        sections.append((f"xk1 k={k}", f"ranks {_ranks_text(xk1(k))}, {v.status}"))

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

    ok = grid_ok and verdict.status == FULL and res_ok
    doc = {
        "schema": JSON_SCHEMA,
        "sections": [{"name": name, "value": value} for name, value in sections],
        "ok": ok,
    }
    width = max(len(name) for name, _ in sections)
    text = [f"{name.ljust(width)}  {value}" for name, value in sections]
    return _render(args, EXIT_OK if ok else EXIT_FAIL, text=text, json=doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefkit",
        description="Build, verify and search symmetric exceptional collections "
        "of line bundles on products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
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
    add_common(p, formats=("text", "json", "tsv"))
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("bounds", help="block size bounds for length-h chains")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p, formats=("text", "json", "tsv"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("closure", help="window-generation closure from a seed file")
    p.add_argument("--seed-file", required=True)
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
