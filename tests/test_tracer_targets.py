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
