"""Source hygiene, checked with the standard library's :mod:`ast` alone.

- No module under ``src/``, ``tests/`` or ``perfbench/`` imports a name it
  never uses: a stand-in for pyflakes' unused-import check, where every name
  an import binds must be read somewhere in the module (or listed in its
  ``__all__``).
  ``__future__`` imports and the re-exports of ``__init__.py`` files are
  exempt.
- No definition under ``src/`` or in ``tests/fixtures.py`` is dead: every
  module-level function or class, and every method that is not a dunder, is
  read by name (a loaded name or attribute) somewhere in ``src/``, ``tests/``
  or ``perfbench/``.
- Each ``__init__.py`` imports exactly the names of its ``__all__``, and
  lists none twice.
- Every public module-level function or class under ``src/``, exported or
  not, is reached from the CLI, the harness or ``perfbench/``, or is listed
  in ``TEST_ONLY_API`` with the test that needs it.  So is every public
  method or property of a public class under ``src/``: something in
  ``src/`` or ``perfbench/`` reads its name, or ``TEST_ONLY_API`` lists it
  as ``Class.name``.
- The number of values a caller can set under ``src/`` (dataclass fields,
  defaulted parameters and CLI flags) equals ``SETTABLE_VALUES``, so a change
  that adds or removes one edits the constant on purpose.
- Modules under ``src/`` import only the standard library, ``numpy`` (the
  one dependency pyproject declares) and ``mcfli`` itself, so no process
  pays for importing an undeclared package (importing ``scipy.linalg``
  takes 0.2 to 0.4 s on a 2-CPU host).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for top in ("src", "tests", "perfbench")
    for p in (ROOT / top).rglob("*.py")
    if p.name != "__init__.py"
)
PACKAGES = sorted((ROOT / "src").rglob("__init__.py"))


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


# ---------------------------------------------------------------------------
# dead definitions
# ---------------------------------------------------------------------------


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level functions and classes, and the non-dunder methods of
    those classes, with their lines."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs.extend(
                (sub.name, sub.lineno)
                for sub in node.body
                if isinstance(sub, functions) and not _is_dunder(sub.name)
            )
    return defs


def _module_names(tree: ast.AST) -> set[str]:
    """The names that ``import`` statements (not ``from ... import``) bind."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _chain_root(node: ast.Attribute) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def names_read(tree: ast.AST, modules: set[str] | None = None) -> set[str]:
    """Every name loaded, bare or as an attribute.

    An attribute chain rooted at a module (a name bound by an ``import``
    statement of ``tree``, or in ``modules``) reads only its root:
    ``np.trace`` reads ``np``, not a method named ``trace``.
    """
    if modules is None:
        modules = _module_names(tree)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = _chain_root(node)
            if not (isinstance(root, ast.Name) and root.id in modules):
                read.add(node.attr)
    return read


def test_dead_definition_scanner():
    source = (
        "import os\n"
        "def used(): pass\n"
        "def unused(): pass\n"
        "class K:\n"
        "    def __init__(self): self.attr = 1\n"
        "    def method(self): pass\n"
        "    def orphan(self): pass\n"
        "K().method()\n"
        "used()\n"
    )
    tree = ast.parse(source)
    dead = [(n, line) for n, line in definitions(tree) if n not in names_read(tree)]
    assert dead == [("unused", 3), ("orphan", 7)]


def test_module_attributes_do_not_read_members():
    # numpy's trace is not a read of K.trace, nor is os.path.join of K.join
    source = (
        "import numpy as np\n"
        "import os.path\n"
        "class K:\n"
        "    def trace(self): pass\n"
        "    def join(self): pass\n"
        "    def shape(self): pass\n"
        "def f(x):\n"
        "    return np.trace(x), os.path.join('a'), x.shape\n"
        "f(K())\n"
    )
    tree = ast.parse(source)
    dead = [(n, line) for n, line in definitions(tree) if n not in names_read(tree)]
    assert dead == [("trace", 4), ("join", 5)]


def test_no_dead_definitions():
    read = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            read |= names_read(ast.parse(path.read_text()))
    scanned = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "tests" / "fixtures.py"]
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in scanned
        for name, line in definitions(ast.parse(path.read_text()))
        if name not in read
    ]
    assert dead == []


# ---------------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------------


def imported_and_exported(source: str) -> tuple[list[str], list[str]]:
    """The names a module's imports bind, and the entries of its ``__all__``."""
    tree = ast.parse(source)
    imported, exported = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.extend(ast.literal_eval(node.value))
    return imported, exported


@pytest.mark.parametrize("path", PACKAGES, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_equal_all(path):
    imported, exported = imported_and_exported(path.read_text())
    assert len(set(imported)) == len(imported), "a name is imported twice"
    assert len(set(exported)) == len(exported), "a name is listed twice in __all__"
    assert sorted(imported) == sorted(exported)


# ---------------------------------------------------------------------------
# reach of the public API
# ---------------------------------------------------------------------------

# public names under src/ that no code outside the tests reaches, with what
# needs them
TEST_ONLY_API = {
    "solve_trace_min_psd": "criterion 7; test_solvers",
    "project_psd_cone": "the proximal step of solve_trace_min_psd; test_solvers",
    "nyquist_recover": "criterion 3; test_nyquist",
    "nyquist_sketches": "criterion 3's sketches; test_nyquist",
    "explicit_layout": "criterion 1; hand-placed cores in test_layout, test_sensing",
    "WavefieldSet.sensing_matrix": "ROADMAP item 5; the projection identities in "
    "test_calibration",
    "CoreLayout.max_snap_residual": "ROADMAP item 9, after item 2; test_layout",
    "CoreLayout.is_distinct": "the distinct-visibility cases of test_layout, "
    "test_sensing",
    "DemoReport.plateau_snr": "criterion 10",
    "transition_midpoint": "criteria 5 and 6; test_acceptance, test_harness",
    "scene_to_json": "the writer of the demo --scene format; test_serialization",
    "grid_to_dict": "the grid of the demo --scene format; test_serialization",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifier_strings(tree: ast.AST) -> set[str]:
    """String constants that could name an attribute (``getattr`` targets)."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    }


def reached_names() -> set[str]:
    """Names reached from ``perfbench/`` and from the module-level code of
    ``src/`` (the CLI's ``main`` among it), following what each reached
    module-level function or class reads.

    ``perfbench`` reads the package through attributes and ``getattr``
    strings; a bare name it defines itself is its own, not the package's.
    """
    live = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        tree = ast.parse(path.read_text())
        own = {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
        live |= (names_read(tree) - own) | _identifier_strings(tree)
    reads: dict[str, set[str]] = {}
    for path in (ROOT / "src").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules = _module_names(tree)
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                reads.setdefault(node.name, set()).update(names_read(node, modules))
            else:
                live |= names_read(node, modules)
    frontier = live & reads.keys()
    while frontier:
        new = set().union(*(reads[name] for name in frontier)) - live
        live |= new
        frontier = new & reads.keys()
    return live


def public_members(tree: ast.Module) -> dict[str, str]:
    """``Class.name`` of each public method or property of each public
    class, mapped to the member's name."""
    return {
        f"{node.name}.{sub.name}": sub.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not sub.name.startswith("_")
    }


def test_public_member_scanner():
    source = (
        "class K:\n"
        "    def used(self): pass\n"
        "    @property\n"
        "    def unread(self): pass\n"
        "    def _private(self): pass\n"
        "class _Hidden:\n"
        "    def method(self): pass\n"
        "K().used()\n"
    )
    tree = ast.parse(source)
    members = public_members(tree)
    assert members == {"K.used": "used", "K.unread": "unread"}
    assert [key for key, name in members.items() if name not in names_read(tree)] == [
        "K.unread"
    ]


def test_public_api_is_reached_or_listed():
    public, read, members = set(), set(), {}
    for path in (ROOT / "perfbench").rglob("*.py"):
        tree = ast.parse(path.read_text())
        read |= names_read(tree) | _identifier_strings(tree)
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text())
        public |= {
            node.name
            for node in tree.body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        }
        read |= names_read(tree)
        members.update(public_members(tree))
    test_only = (public - reached_names()) | {
        key for key, name in members.items() if name not in read
    }
    unlisted = sorted(test_only - TEST_ONLY_API.keys())
    assert unlisted == [], f"public, reached only from tests: {unlisted}"
    stale = sorted(TEST_ONLY_API.keys() - test_only)
    assert stale == [], f"TEST_ONLY_API entries that are reached or not public: {stale}"


# ---------------------------------------------------------------------------
# settable values
# ---------------------------------------------------------------------------

# dataclass fields + defaulted parameters + add_argument calls under src/
SETTABLE_VALUES = 60 + 36 + 31


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> tuple[int, int, int]:
    """Dataclass fields, defaulted parameters and ``add_argument`` calls."""
    fields = defaults = flags = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(sub, ast.AnnAssign) for sub in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            defaults += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            flags += 1
    return fields, defaults, flags


def test_settable_value_scanner():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: float = 1.0\n"
        "    def f(self, a, b=2, *, c=None, d): pass\n"
        "class B:\n"
        "    z: int = 0\n"
        "def g(p, q=lambda r=1: r): pass\n"
        "parser.add_argument('--n', type=int)\n"
    )
    assert settable_values(ast.parse(source)) == (2, 4, 1)


def test_settable_value_count():
    counts = [settable_values(ast.parse(p.read_text())) for p in (ROOT / "src").rglob("*.py")]
    assert sum(map(sum, counts)) == SETTABLE_VALUES


# ---------------------------------------------------------------------------
# imports under src/
# ---------------------------------------------------------------------------

ALLOWED_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "mcfli"}


def foreign_imports(source: str) -> list[tuple[str, int]]:
    """Top-level packages imported from outside ``ALLOWED_IMPORTS``, with
    their lines; a relative import stays inside ``mcfli``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        tops = (name.split(".")[0] for name in names)
        found.extend((top, node.lineno) for top in tops if top not in ALLOWED_IMPORTS)
    return found


def test_foreign_import_scanner():
    source = (
        "import os.path, numpy as np\n"
        "from scipy.linalg import blas\n"
        "from . import grid\n"
        "from mcfli.sensing import rs_scan\n"
        "def f():\n"
        "    import numba\n"
    )
    assert foreign_imports(source) == [("scipy", 2), ("numba", 6)]


def test_src_imports_only_the_standard_library_and_numpy():
    found = {
        str(path.relative_to(ROOT)): hits
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (hits := foreign_imports(path.read_text()))
    }
    assert found == {}
