"""Spans around lefkit's public functions, installed from outside the package.

Each wrapped call records a span (id, parent, operation, name, start, end)
in memory.  ext_graded runs once per reported violation, so it is counted
and timed in aggregate instead; its time is charged to the span that
called it.  is_orthogonal_pair is not wrapped at all: its pairs are
computed from input sizes.  A wrapper replaces the function in the module
that defines it and at every lefkit module that imported it by name, so
calls made through `from .x import f` are traced too.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import checks


def _bundle_count(coll) -> int:
    return sum(b.bundle_count for b in coll.blocks)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# module -> [(function, counts(args, kwargs, result) or None)]
SPANNED = {
    "lattice": [
        ("orbit_of", lambda a, kw, r: {"kept": len(r.elements), "generated": math.factorial(len(r.rep))}),
        ("orbit_set", None),
    ],
    "lefschetz": [
        ("flatten_bundles", None),
        ("check_exceptional", lambda a, kw, r: {"bundles": _bundle_count(_arg(a, kw, 0, "coll")), "violations": len(r)}),
        ("check_lefschetz", None),
        ("check_theorem_semiorthogonality", lambda a, kw, r: {"k": _arg(a, kw, 0, "k"), "n": _arg(a, kw, 1, "n")}),
        ("build_E", None),
        ("build_Ehat", None),
        ("x3n_rectangular", None),
        ("x32_minimal", None),
        ("x32_rectangular_part", None),
        ("xk1", None),
        ("collection_from_json", None),
        ("collection_to_json", None),
    ],
    "saturation": [
        ("close", lambda a, kw, r: {"box_cells": _arg(a, kw, 2, "box").size, "trace": len(r.trace), "members": len(r.members)}),
        ("replay_trace", lambda a, kw, r: {"entries": len(_arg(a, kw, 3, "trace"))}),
        ("verify_fullness", None),
        ("residual_check", None),
    ],
    "explorer": [
        ("search_minimal", lambda a, kw, r: {"candidates": r.nodes_visited, "hits": len(r.found)}),
        ("search_rectangular", lambda a, kw, r: {"candidates": r.nodes_visited, "hits": len(r.found)}),
    ],
    "cli": [("main", None)],
}
AGGREGATED = {"ext": ["ext_graded"]}
LAYERS = ("cli", "lattice", "ext", "lefschetz", "saturation", "explorer")

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "lattice.self_s": "s",
    "lattice.orbit_s": "s",
    "lattice.orbit_calls": "count",
    "lattice.orbit_yield": "ratio",
    "ext.graded_calls": "count",
    "ext.graded_s": "s",
    "lefschetz.self_s": "s",
    "lefschetz.exceptional_s": "s",
    "lefschetz.exceptional_calls": "count",
    "lefschetz.exceptional_pairs": "count",
    "lefschetz.violations": "count",
    "lefschetz.semiortho_s": "s",
    "lefschetz.semiortho_pairs": "count",
    "saturation.self_s": "s",
    "saturation.close_s": "s",
    "saturation.close_calls": "count",
    "saturation.box_cells": "count",
    "saturation.trace_entries": "count",
    "saturation.members": "count",
    "saturation.fullness_self_s": "s",
    "saturation.replay_s": "s",
    "saturation.replay_entries": "count",
    "explorer.self_s": "s",
    "explorer.candidates": "count",
    "explorer.rejected": "count",
    "explorer.closure_runs": "count",
    "explorer.hits": "count",
    "explorer.hit_yield": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.outside_s": "s",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end, aggregated child time, counts)
        self.stack = []  # [span id, aggregated child time] of open spans
        self.aggregated = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.root_aggregated = 0.0
        self.op = None
        self.out_bytes = 0

    def _spanned(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans) + len(tracer.stack)
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
            extra = counts(args, kwargs, result) if counts else None
            tracer.spans.append((sid, parent, tracer.op, name, start, end, frame[1], extra))
            return result

        return wrapper

    def _aggregated(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                entry = tracer.aggregated[name]
                entry[0] += 1
                entry[1] += spent
                if tracer.stack:
                    tracer.stack[-1][1] += spent
                else:
                    tracer.root_aggregated += spent

        return wrapper

    def install(self):
        """Replace the traced functions in every loaded lefkit module."""
        modules = [m for name, m in list(sys.modules.items()) if name == "lefkit" or name.startswith("lefkit.")]
        plan = [(mod, fn, self._spanned, counts) for mod, fns in SPANNED.items() for fn, counts in fns]
        plan += [(mod, fn, None, None) for mod, fns in AGGREGATED.items() for fn in fns]
        for mod, fn_name, kind, counts in plan:
            original = getattr(sys.modules[f"lefkit.{mod}"], fn_name)
            name = f"{mod}.{fn_name}"
            wrapped = kind(name, original, counts) if kind else self._aggregated(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def metrics(self, wall: float, untraced: float) -> dict:
        """Per-layer metrics; self times plus time outside spans add up to wall."""
        child = defaultdict(float)
        name_of, parent_of = {}, {}
        for sid, parent, _, name, start, end, _, _ in self.spans:
            name_of[sid], parent_of[sid] = name, parent
            if parent is not None:
                child[parent] += end - start

        def under_explorer(sid):
            sid = parent_of[sid]
            while sid is not None:
                if name_of[sid].startswith("explorer."):
                    return True
                sid = parent_of[sid]
            return False

        m = dict.fromkeys(PER_LAYER_UNITS, 0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_self["ext"] = self.aggregated["ext.ext_graded"][1]
        kept = generated = 0
        in_spans = self.root_aggregated
        for sid, parent, _, name, start, end, agg, extra in self.spans:
            took = end - start
            own = took - child[sid] - agg
            layer_self[name.split(".")[0]] += own
            if parent is None:
                in_spans += took
            if name == "lattice.orbit_of":
                m["lattice.orbit_s"] += took
                m["lattice.orbit_calls"] += 1
                kept += extra["kept"]
                generated += extra["generated"]
            elif name == "lefschetz.check_exceptional":
                m["lefschetz.exceptional_s"] += took
                m["lefschetz.exceptional_calls"] += 1
                b = extra["bundles"]
                m["lefschetz.exceptional_pairs"] += b * (b - 1) // 2
                m["lefschetz.violations"] += extra["violations"]
                if extra["violations"] and under_explorer(sid):
                    m["explorer.rejected"] += 1
            elif name == "lefschetz.check_theorem_semiorthogonality":
                m["lefschetz.semiortho_s"] += took
                m["lefschetz.semiortho_pairs"] += checks.semiorthogonality_pair_count(extra["k"], extra["n"])
            elif name == "saturation.close":
                m["saturation.close_s"] += took
                m["saturation.close_calls"] += 1
                m["saturation.box_cells"] += extra["box_cells"]
                m["saturation.trace_entries"] += extra["trace"]
                m["saturation.members"] += extra["members"]
            elif name == "saturation.verify_fullness":
                m["saturation.fullness_self_s"] += own
                if under_explorer(sid):
                    m["explorer.closure_runs"] += 1
            elif name == "saturation.replay_trace":
                m["saturation.replay_s"] += took
                m["saturation.replay_entries"] += extra["entries"]
            elif name.startswith("explorer."):
                m["explorer.candidates"] += extra["candidates"]
                m["explorer.hits"] += extra["hits"]
        calls, spent = self.aggregated["ext.ext_graded"]
        m["ext.graded_calls"], m["ext.graded_s"] = calls, spent
        m["lattice.orbit_yield"] = kept / generated if generated else 0
        m["explorer.hit_yield"] = m["explorer.hits"] / m["explorer.candidates"] if m["explorer.candidates"] else 0
        m["cli.out_bytes"] = self.out_bytes
        for layer, own in layer_self.items():
            m[f"{layer}.self_s"] = own
        m["trace.wall_s"] = wall
        m["trace.untraced_s"] = untraced
        m["trace.overhead_s"] = wall - untraced
        m["trace.outside_s"] = wall - in_spans
        gap = sum(layer_self.values()) + m["trace.outside_s"] - wall
        if abs(gap) > 1e-6 * max(1.0, wall):
            raise RuntimeError(f"layer self times miss the traced wall time by {gap:.3g} s")
        return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    def dump(self, path: str, ops, origin: float):
        """Write the spans as JSON lines: a header, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "ops": [op.label for op in ops],
                "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                "aggregated": {k: {"calls": c, "s": s} for k, (c, s) in self.aggregated.items()},
            }
            fh.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end, _, _ in self.spans:
                fh.write(json.dumps([sid, parent, op, name, round(start - origin, 7), round(end - origin, 7)]) + "\n")
