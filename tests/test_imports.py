"""Package layout: no private imports across modules, imports only at
module level in an acyclic module graph, no raised int/str digit limit, no
assert statement, and an exact __all__."""

import ast
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
