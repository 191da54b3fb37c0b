"""Source hygiene: no module under ``src/`` or ``tests/`` imports a name it
never uses.

A standard-library stand-in for pyflakes' unused-import check: each module
is parsed with :mod:`ast`, and every name an import binds must be read
somewhere in the module (or listed in its ``__all__``).  ``__future__``
imports and the re-exports of ``__init__.py`` files are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for top in ("src", "tests")
    for p in (ROOT / top).rglob("*.py")
    if p.name != "__init__.py"
)


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return read


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = _read_names(tree)
    return sorted(
        ((name, line) for name, line in _bound_names(tree).items() if name not in read),
        key=lambda item: item[1],
    )


def test_scanner_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "def f(x):\n"
        "    return np.abs(x)\n"
    )
    assert unused_imports(source) == [("os", 2), ("parse", 4)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
