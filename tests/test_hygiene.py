"""Source hygiene: every name imported in src/ and tests/ is used, and no
check in src/ is a bare assert, which `python -O` strips."""

import ast
import subprocess
import sys
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


def test_src_has_no_assert_statement():
    """Checks in src/ raise AssertionError (or ValueError) explicitly."""
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "\n".join(found)


# checks of the tables, the tensor decomposition and the extended diagram,
# run under `python -O`: each one, made to fail, raises AssertionError
CHECKS_UNDER_O = """
from types import SimpleNamespace
from unittest import mock
from superdual import gradings, tables
from superdual.oscillator import tensor
from superdual.oscillator.module import HwsReport

real, calls = tables.verify_hws, []


def not_affine(spec, v):
    calls.append(spec)
    values = real(spec, v).weight.values
    values = (values[0] + len(calls) ** 2,) + values[1:]
    return SimpleNamespace(raised_to_zero=True, weight=SimpleNamespace(values=values))


def not_raised(spec, v):
    return HwsReport(False, None)


for what, target, name, patch, run in (
    ("is not annihilated", tables, "verify_hws", not_raised, lambda: tables.render_table(1)),
    ("not affine", tables, "verify_hws", not_affine, lambda: tables.render_table(1)),
    ("not raised to zero", tensor, "verify_hws", not_raised, lambda: tables.render_table(2)),
    ("parity flips", gradings.ExtendedDiagram, "p_odd_count", lambda self: 1,
     lambda: gradings.extended_diagram(gradings.parse_grading("su(2,|4|2)"))),
):
    with mock.patch.object(target, name, patch):
        try:
            run()
        except AssertionError as exc:
            if what not in str(exc):
                raise
        else:
            raise SystemExit("not raised: " + what)
"""


def test_checks_survive_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
