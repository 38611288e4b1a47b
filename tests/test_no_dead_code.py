"""Lint: no module imports a name it never uses, no private function is unreferenced,
no defaulted parameter goes unpassed, no unexported default is passed by every call,
no module calls a BLAS routine or imports numpy past `lefkit._numpy` (which
loads OpenBLAS with one thread), none calls `_numpy()` when it is imported,
every choice between orbit reps and the array forms goes through `lattice.on_reps`,
in `saturation` only the seed reader and the two replayers read points, and no
orbit is built only to read its size."""

import ast
from pathlib import Path

import lefkit

SRC = Path(__file__).resolve().parent.parent / "src" / "lefkit"
PERFBENCH = SRC.parent.parent / "perfbench"


def parsed_modules():
    return {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}


def referenced_names(nodes):
    """Every name read as a bare name or as an attribute, under `nodes`."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in parsed_modules().items():
        used = referenced_names([tree])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def unreferenced_private_functions(modules):
    """`module: name` of each module-level private function that no other code names.

    A dunder such as the package's `__getattr__` is a hook that Python calls, not a
    private helper, so only names that begin with `_` and do not end with `__` count.
    """
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            # a function calling itself is no reference from the rest of the code
            elsewhere = [other for other in modules.values() if other is not tree]
            elsewhere += [stmt for stmt in tree.body if stmt is not node]
            if node.name not in referenced_names(elsewhere):
                unreferenced.append(f"{name}: {node.name}")
    return unreferenced


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(parsed_modules()) == []


def test_a_planted_private_helper_is_caught_and_a_dunder_hook_is_not():
    planted = ast.parse("def __getattr__(name):\n    pass\n\n\ndef _helper():\n    pass\n")
    modules = {**parsed_modules(), "planted.py": planted}
    assert unreferenced_private_functions(modules) == ["planted.py: _helper"]


def defaulted_parameters(func):
    """(position, name) of each defaulted parameter of `func`; position None if keyword-only."""
    positional = func.args.posonlyargs + func.args.args
    out = [(i, a.arg) for i, a in enumerate(positional)][len(positional) - len(func.args.defaults):]
    kwonly = zip(func.args.kwonlyargs, func.args.kw_defaults)
    return out + [(None, a.arg) for a, default in kwonly if default is not None]


def passes(call, position, name):
    """Whether `call` passes the parameter at `position` (None: keyword-only) or named `name`."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def calls_by_name(modules):
    """Every call in `modules` and perfbench, by the bare name called; calls from the
    tests do not count."""
    trees = list(modules.values())
    trees += [ast.parse(path.read_text("utf-8")) for path in sorted(PERFBENCH.glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller in lefkit or perfbench overrides is a knob
    # without a user
    calls = calls_by_name(parsed_modules())
    unpassed = []
    for module, tree in parsed_modules().items():
        # a method is called as obj.name(...) or, for __init__, as Class(...)
        owner = {
            id(func): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for func in cls.body
            if isinstance(func, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
        }
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            method = id(func) in owner
            name = owner[id(func)] if func.name == "__init__" and method else func.name
            for position, param in defaulted_parameters(func):
                at = None if position is None else position - method
                if not any(passes(call, at, param) for call in calls.get(name, [])):
                    unpassed.append(f"{module}: {func.name}({param}=...)")
    assert unpassed == []


def always_overridden_defaults(modules):
    """`module: name(param=...)` of each defaulted parameter of a module-level function
    outside lefkit.__all__ that every call passes."""
    calls = calls_by_name(modules)
    overridden = []
    for module, tree in modules.items():
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef) or func.name in lefkit.__all__:
                continue
            made = calls.get(func.name, [])
            for position, param in defaulted_parameters(func):
                if made and all(passes(call, position, param) for call in made):
                    overridden.append(f"{module}: {func.name}({param}=...)")
    return overridden


def test_no_unexported_default_is_always_overridden():
    # a default that every caller in lefkit or perfbench overrides is a
    # contract nobody relies on; exported functions keep theirs for library users
    assert always_overridden_defaults(parsed_modules()) == []


def test_a_planted_always_overridden_default_is_caught():
    planted = ast.parse(
        "def _scaled(x, factor=2):\n    return x * factor\n\n\n"
        "def _shifted(x, by=1):\n    return x + by\n\n\n"
        "def _use(x):\n"
        "    return _scaled(x, 3) + _scaled(x, factor=4) + _shifted(x) + _shifted(x, 2)\n"
    )
    modules = {**parsed_modules(), "planted.py": planted}
    assert always_overridden_defaults(modules) == ["planted.py: _scaled(factor=...)"]


BLAS_ATTRIBUTES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def test_no_module_calls_a_blas_routine():
    # lefkit/__init__.py loads numpy with OPENBLAS_NUM_THREADS=1; that default
    # is only free while no BLAS routine runs
    calls = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
                calls.append(f"{name}:{node.lineno}: {node.attr}")
    assert calls == []


def test_only_the_package_imports_numpy():
    # every module takes numpy from lefkit._numpy, so none loads it with OpenBLAS's
    # default thread pool or before a kernel needs it
    imports = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                imports.append(f"{name}:{node.lineno}")
    assert imports == []


def import_time_calls(tree, name):
    """Line numbers of the calls to `name` that run when the module is imported.

    Those are all calls outside function bodies: at module level, in class
    bodies, and in decorators and parameter defaults.
    """
    lines, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            todo += args.defaults + [d for d in args.kw_defaults if d is not None]
            todo += getattr(node, "decorator_list", [])
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            lines.append(node.lineno)
        todo += ast.iter_child_nodes(node)
    return sorted(lines)


def test_no_module_loads_numpy_when_imported():
    # numpy costs each process about 0.1 s; it loads in the functions that build arrays
    calls = [
        f"{name}:{line}"
        for name, tree in parsed_modules().items()
        for line in import_time_calls(tree, "_numpy")
    ]
    assert calls == []


def test_a_planted_import_time_numpy_call_is_caught():
    planted = ast.parse(
        "np = _numpy()\n\n\n"
        "class Table:\n    np = _numpy()\n\n    def rows(self):\n        return _numpy()\n\n\n"
        "def kernel(np=_numpy()):\n    np = _numpy()\n    return lambda: _numpy()\n"
    )
    assert import_time_calls(planted, "_numpy") == [1, 5, 11]


BUNDLE_LISTING_NAMES = {"_multiset_permutations", "elements", "bundles", "bisect"}


def bundle_listing_names(tree):
    """The names among BUNDLE_LISTING_NAMES that `tree` reads or imports."""
    names = referenced_names([tree])
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names & BUNDLE_LISTING_NAMES


def test_no_twist_table_form_lists_a_bundle():
    # both forms of ext.first_failing_twists work on orbit reps alone
    assert bundle_listing_names(parsed_modules()["ext.py"]) == set()


def test_a_planted_bundle_listing_is_caught():
    planted = ast.parse(
        "import bisect\n"
        "from .lattice import _multiset_permutations\n\n\n"
        "def table(orbit, orbits):\n    return orbit.elements, orbits.bundles()\n"
    )
    assert bundle_listing_names(planted) == BUNDLE_LISTING_NAMES


# the modules that may name each constant of lattice.on_reps: none but lattice, since
# cli's fail-fast size of a flattened collection asks on_reps too
ROUTING_CONSTANTS = {"ORBIT_MIN_K": {"lattice.py"}, "REPS_MAX_CELLS": {"lattice.py"}}


def routing_constants_outside_the_router(modules):
    """`module: name` of each constant of ROUTING_CONSTANTS that a module outside its
    set reads, assigns or imports; docstrings and comments are no names."""
    found = []
    for module, tree in modules.items():
        names = referenced_names([tree])
        names.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        )
        found += [
            f"{module}: {name}"
            for name, allowed in ROUTING_CONSTANTS.items()
            if name in names and module not in allowed
        ]
    return found


def test_every_engine_choice_goes_through_the_router():
    # close_seed, _generation_verdict and the twist table pick their engine by on_reps
    assert routing_constants_outside_the_router(parsed_modules()) == []


def test_a_planted_engine_choice_is_caught():
    planted = ast.parse(
        '"""Routed by ORBIT_MIN_K and REPS_MAX_CELLS, as docstrings may say."""\n'
        "from .lattice import ORBIT_MIN_K\n\n\n"
        "def engine(k, cells):\n"
        "    return k >= ORBIT_MIN_K or cells <= lattice.REPS_MAX_CELLS\n"
    )
    cli = ast.parse("from .lattice import ORBIT_MIN_K, REPS_MAX_CELLS\n")
    assert routing_constants_outside_the_router({"cli.py": cli, "planted.py": planted}) == [
        "cli.py: ORBIT_MIN_K",
        "cli.py: REPS_MAX_CELLS",
        "planted.py: ORBIT_MIN_K",
        "planted.py: REPS_MAX_CELLS",
    ]


# the one reader of seed points, and the two replayers, which check a trace
# independently of the engines that wrote it
POINT_READERS = {"_seed_tuples", "replay_trace", "replay_orbit_trace"}


def point_readers_outside(tree, allowed):
    """Each top-level definition of `tree` not in `allowed` that names `_integer_point`.

    A top-level statement other than an import counts as `<module>`.
    """
    return [
        getattr(node, "name", "<module>")
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "name", None) not in allowed
        and "_integer_point" in referenced_names([node])
    ]


def test_seed_points_have_one_reader_in_saturation():
    assert point_readers_outside(parsed_modules()["saturation.py"], POINT_READERS) == []


def test_a_planted_second_point_reader_is_caught():
    planted = ast.parse(
        '"""Points are read by _integer_point, as docstrings may say."""\n'
        "from .lattice import _integer_point\n\n\n"
        "def _seed_tuples(seed):\n    return [_integer_point(p, 'seed point') for p in seed]\n\n\n"
        "def _is_symmetric(seed):\n    return {_integer_point(p, 'seed point') for p in seed}\n\n\n"
        "class Reader:\n    def read(self, p):\n"
        "        return lattice._integer_point(p, 'point')\n\n\n"
        "ORIGIN = _integer_point((0, 0), 'origin')\n"
    )
    assert point_readers_outside(planted, POINT_READERS) == ["_is_symmetric", "Reader", "<module>"]


def orbits_built_to_be_sized(tree):
    """Line of each `Orbit(...).size` or `orbit_of(...).size` in `tree`, ascending."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "size"
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", getattr(node.value.func, "attr", None))
        in {"Orbit", "orbit_of"}
    )


def test_no_orbit_is_built_only_to_read_its_size():
    # every orbit size is lattice._multinomial of a stabilizer shape, so a rep is sized as it is
    found = {name: orbits_built_to_be_sized(tree) for name, tree in parsed_modules().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_planted_orbit_built_to_be_sized_is_caught():
    planted = ast.parse(
        '"""Orbit(r).size is what docstrings may say."""\n\n\n'
        "def count(reps, orbits):\n"
        "    sizes = [Orbit(r).size for r in reps]\n"
        "    sizes.append(lattice.orbit_of(reps[0]).size)\n"
        "    sizes.append(lattice.Orbit(reps[0]).size)\n"
        "    return sum(sizes) + sum(o.size for o in orbits) + len(Orbit(reps[0]).elements)\n"
    )
    assert orbits_built_to_be_sized(planted) == [5, 6, 7]
