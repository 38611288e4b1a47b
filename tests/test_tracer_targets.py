"""The benchmark tracer wraps lefkit functions by module and name.

It replaces each one by identity, so a renamed function breaks a traced
run and an alias of another wrapped function would be wrapped twice.
"""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_are_distinct_lefkit_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        libop = importlib.import_module("libop")
        names = [(mod, fn) for mod, fns in tracer.SPANNED.items() for fn, _ in fns]
        names += [(mod, fn) for mod, fns in tracer.AGGREGATED.items() for fn in fns]
        functions = []
        for mod, name in names:
            fn = getattr(importlib.import_module(f"lefkit.{mod}"), name, None)
            assert inspect.isfunction(fn) and fn.__module__ == f"lefkit.{mod}", (mod, name)
            functions.append(fn)
        assert len({id(fn) for fn in functions}) == len(functions)
        assert libop.run(["grid", "3", "2"])["violation"] is None
    finally:
        for name in ("tracer", "libop", "checks"):
            sys.modules.pop(name, None)


def test_tracer_counters_read_real_results(monkeypatch):
    from lefkit import (
        Box,
        SearchSpec,
        check_exceptional,
        check_theorem_semiorthogonality,
        close,
        flatten_bundles,
        orbit_of,
        replay_trace,
        search_minimal,
        search_rectangular,
        xk1,
    )

    seed, box = flatten_bundles(xk1(2)), Box(lo=-1, hi=2, k=2)
    state = close(seed, 1, box, target=Box(lo=0, hi=1, k=2))
    minimal = search_minimal(SearchSpec(k=2, n=1))
    rectangular = search_rectangular(SearchSpec(k=3, n=1))
    # (module, function) -> (args, kwargs, result of that call, the counts it gives)
    calls = {
        ("lattice", "orbit_of"): (
            ((0, 1, 0),), {}, orbit_of((0, 1, 0)), {"kept": 3, "generated": 6}
        ),
        ("lefschetz", "check_exceptional"): (
            (xk1(3),), {}, check_exceptional(xk1(3)), {"bundles": 8, "violations": 0}
        ),
        ("lefschetz", "check_theorem_semiorthogonality"): (
            (2, 1), {}, check_theorem_semiorthogonality(2, 1), {"k": 2, "n": 1}
        ),
        ("saturation", "close"): (
            (seed, 1, box), {"target": Box(lo=0, hi=1, k=2)}, state,
            {"box_cells": 16, "trace": state.trace_length, "members": state.member_count},
        ),
        ("saturation", "replay_trace"): (
            (seed, 1, box, state.trace), {}, replay_trace(seed, 1, box, state.trace),
            {"entries": state.trace_length},
        ),
        ("explorer", "search_minimal"): (
            (SearchSpec(k=2, n=1),), {}, minimal,
            {"candidates": minimal.nodes_visited, "hits": 1},
        ),
        ("explorer", "search_rectangular"): (
            (), {"spec": SearchSpec(k=3, n=1)}, rectangular,
            {"candidates": rectangular.nodes_visited, "hits": 2},
        ),
    }
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        counters = {(mod, fn): c for mod, fns in tracer.SPANNED.items() for fn, c in fns if c}
        assert set(counters) == set(calls)
        for name, (args, kwargs, result, counts) in calls.items():
            assert counters[name](args, kwargs, result) == counts, name
    finally:
        for name in ("tracer", "checks"):
            sys.modules.pop(name, None)
