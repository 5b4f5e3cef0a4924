"""Package layout: no private imports across modules, imports only at
module level in an acyclic module graph, no raised int/str digit limit, no
assert statement, an exact __all__, and no function without a caller."""

import ast
import os
import subprocess
import sys
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from types import ModuleType

import repwords

SRC = Path(repwords.__file__).parent


def test_no_private_imports_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            inside = node.level > 0 or (node.module or "").startswith("repwords")
            found += [
                f"{path.name}:{node.lineno}: {alias.name}"
                for alias in node.names
                if inside and alias.name.startswith("_")
            ]
    assert found == []


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def _package_imports(path):
    """Modules of the package that one source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "repwords" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            names |= {base} | {f"{base}.{a.name}" for a in node.names}
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    return {n.split(".")[1] for n in names if n.startswith("repwords.")} & modules


def test_module_imports_are_acyclic():
    graph = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    cycle = None
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        cycle = exc.args[1]
    assert cycle is None


def test_no_module_raises_the_int_str_digit_limit():
    # big numbers go through the package's own converters, never str()/int()
    # past Python's digit limit, so no module may lift that limit
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "set_int_max_str_digits":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_assert_statement():
    # python -O strips assert statements, and every check the library makes
    # on its own results must still run there
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_lists_every_public_name():
    public = [
        name
        for name, value in vars(repwords).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(repwords.__all__) == sorted(public)


def _defined_functions(tree):
    """(qualified name, def node) of each module-level function and each
    method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _named(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_function_has_a_caller():
    # a helper that only its own tests call is dead weight: every function
    # is named somewhere in the package outside its own body, or exported
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(_named(node) for tree in trees.values() for node in ast.walk(tree))
    found = []
    for fname, tree in trees.items():
        for qualname, fn in _defined_functions(tree):
            inside = sum(_named(node) == fn.name for node in ast.walk(fn))
            if uses[fn.name] <= inside and fn.name not in repwords.__all__:
                found.append(f"{fname}:{fn.lineno}: {qualname}")
    assert found == []


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest has loaded both here: the records
    # build without dataclasses, which alone would load inspect, ast and dis
    code = "import sys, repwords.cli; print(sys.modules.keys() & {'dataclasses', 'inspect'})"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert run.stdout == "set()\n"
