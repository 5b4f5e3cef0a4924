"""Package layout: no module imports another module's private names."""

import ast
from pathlib import Path

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
