"""Module boundaries: no pyrastab module imports another's private names.

A name with a leading underscore is private to its module; a helper that
two modules share is made public in one of them instead.  The check reads
the source with ``ast``, so it covers both ``from .x import _y`` and
``from pyrastab.x import _y``, as well as ``x._y`` on an imported module.
Every ``__all__`` lists names that exist, and the package re-exports only
names its modules list in theirs.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pyrastab

_SRC = Path(pyrastab.__file__).parent
_MODULES = sorted(_SRC.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: set[str] = set()  # local names bound to pyrastab modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "pyrastab"
            if not internal:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: from {node.module} import {alias.name}")
                elif node.module in (None, "pyrastab"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pyrastab":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_modules_are_found():
    names = {p.stem for p in _MODULES}
    assert {"equilibria", "periodic", "rootfinding", "cli"} <= names


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_private_cross_module_import(path):
    assert _private_imports(path) == []


def test_checker_sees_private_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .equilibria import _spectrum\n"
        "from pyrastab.rootfinding import _newton as n\n"
        "from . import periodic\n"
        "periodic._rk4\n"
    )
    assert len(_private_imports(bad)) == 3


# --- __all__ lists what a module exports -----------------------------------------


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    name = "pyrastab" if path.stem == "__init__" else f"pyrastab.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _unlisted_reexports(path: Path) -> list[str]:
    """Names ``path`` imports from a sibling module (``from .x import y``)
    that the module's ``__all__`` does not list."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"pyrastab.{node.module}")
            listed = getattr(module, "__all__", ())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    return found


def test_package_reexports_only_listed_names():
    assert _unlisted_reexports(_SRC / "__init__.py") == []


def test_checker_sees_unlisted_reexports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .equilibria import find_roots, _spectrum\n"
        "from .periodic import multipliers\n"
        "from .errors import InputError\n"
    )
    assert _unlisted_reexports(bad) == ["equilibria._spectrum"]


# --- the time-domain oracle stays independent ------------------------------------
#
# `simulate` checks the spectral verdicts of `equilibria` and `periodic` by
# integrating in time; it must not reuse any of their code to do so.

_ORACLE_FORBIDDEN = {"equilibria", "periodic"}


def _internal_imports(path: Path) -> set[str]:
    """The pyrastab modules a file imports, by their last dotted name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "pyrastab":
                continue
            inner = [p for p in parts if p and p != "pyrastab"]
            if inner:
                found.add(inner[0])
            else:  # from . import x, from pyrastab import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pyrastab" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_simulate_imports_no_spectral_module():
    # neither directly nor through the modules it imports
    reached, todo = set(), ["simulate"]
    while todo:
        name = todo.pop()
        if name not in reached and (_SRC / f"{name}.py").exists():
            reached.add(name)
            todo.extend(_internal_imports(_SRC / f"{name}.py"))
    assert "expressions" in reached  # reached through fields
    assert reached & _ORACLE_FORBIDDEN == set()


def test_checker_sees_spectral_imports(tmp_path):
    planted = [
        "from .equilibria import find_roots\n",
        "from . import periodic\n",
        "from pyrastab.periodic import dde_monodromy\n",
        "from pyrastab import equilibria as eq\n",
        "import pyrastab.periodic\n",
    ]
    for line in planted:
        bad = tmp_path / "bad.py"
        bad.write_text("from .errors import InputError\n" + line)
        assert _internal_imports(bad) & _ORACLE_FORBIDDEN, line
    clean = tmp_path / "clean.py"
    clean.write_text("import numpy as np\nfrom .fields import LinearField\n")
    assert _internal_imports(clean) == {"fields"}


# --- every internal import is at module level ------------------------------------
#
# A function-level import of a sibling module hides an import cycle; the
# modules are layered so that none is needed.


def _function_level_imports(path: Path) -> list[str]:
    """Imports of pyrastab modules inside a function or method of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                internal = node.level > 0 or (node.module or "").split(".")[0] == "pyrastab"
            elif isinstance(node, ast.Import):
                internal = any(a.name.split(".")[0] == "pyrastab" for a in node.names)
            else:
                continue
            if internal:
                found.append(f"line {node.lineno}: in {getattr(func, 'name', 'lambda')}")
    return found


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_function_level_internal_import(path):
    assert _function_level_imports(path) == []


def test_checker_sees_function_level_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from .errors import InputError\n"
        "def f():\n"
        "    from .problemio import describe_problem\n"
        "    import json\n"
        "class C:\n"
        "    def g(self):\n"
        "        import pyrastab.periodic\n"
        "        from pyrastab import equilibria\n"
    )
    assert _function_level_imports(bad) == ["line 4: in f", "line 8: in g", "line 9: in g"]
