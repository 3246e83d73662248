"""Source hygiene: every name imported in src/ and tests/ is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """(line, name) of each name bound by an import in path and read nowhere
    in it; `from __future__` imports bind no name."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_every_import_is_used():
    """The package __init__.py files import to re-export, so they are exempt."""
    paths = [
        path
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if not (top == "src" and path.name == "__init__.py")
    ]
    assert len(paths) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(path)
    ]
    assert not unused, "\n".join(unused)


def test_the_check_sees_unused_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from a import b as c, d\n"
        "d(json)\n"
    )
    assert _unused_imports(path) == [(2, "os"), (4, "c")]
