"""Lint: no module imports a name it never uses, no private function is unreferenced,
and no module calls a BLAS routine (lefkit loads OpenBLAS with one thread)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lefkit"


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
        if name == "__init__.py":
            continue  # it imports to re-export
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


def test_every_private_function_is_referenced():
    modules = parsed_modules()
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")):
                continue
            # a function calling itself is no reference from the rest of the code
            elsewhere = [other for other in modules.values() if other is not tree]
            elsewhere += [stmt for stmt in tree.body if stmt is not node]
            if node.name not in referenced_names(elsewhere):
                unreferenced.append(f"{name}: {node.name}")
    assert unreferenced == []


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
