"""No module of the package or of its tests imports a name it never uses,
and the package defines no name that nothing references.

The package has no linter, so these tests are its unused-import and
dead-name checks. The first parses each module of `src/tpbench` except the
package `__init__.py` files, which import names to re-export them, and each
module of `tests`, and reports every imported name that no expression of the
module reads. `from __future__` imports are no names. The second reports
each module-level function, class or constant of `src/tpbench` (dunders
excepted) that no module of `src`, `tests` or `sweepbench` references, as a
name, an attribute or an import, and that `pyproject.toml` does not name.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "tpbench"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_every_name_a_test_module_imports_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from pathlib import Path, PurePath as P\n\ndef f():\n    return os.path.sep, P\n")
    assert unused_imports(source) == ["json", "Path"]


def defined_names(tree: ast.Module) -> list[str]:
    """The functions, classes and constants a module defines at its top
    level, in order, dunders excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def referenced_names(tree: ast.Module) -> set[str]:
    """The names a module reads or imports, and the attributes it names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
    return refs


def dead_names(package: dict[str, str], others: list[str], text: str = "") -> list[str]:
    """`<module>: <name>` for each name a module of `package` (name ->
    source) defines that no module of `package` or `others` references and
    no word of `text` is."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    refs = set(re.findall(r"\w+", text)).union(
        *map(referenced_names, [*trees.values(), *map(ast.parse, others)]))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in defined_names(tree) if name not in refs]


def test_every_name_the_package_defines_is_referenced():
    package = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    others = [p.read_text(encoding="utf-8") for directory in ("tests", "sweepbench")
              for p in sorted((ROOT / directory).rglob("*.py"))]
    assert dead_names(package, others, (ROOT / "pyproject.toml").read_text(encoding="utf-8")) == []


def test_a_dead_name_is_reported():
    package = {"m.py": ("import csv\n__all__ = ['f']\nREPORT_COLUMNS = ('a',)\nX, _Y = 1, 2\n"
                        "def f():\n    return csv.writer\n\nclass K:\n    pass\n"),
               "n.py": "from m import K\n"}
    assert dead_names(package, ["import m\nm.f()\n"], "entry = 'm:X'") == [
        "m.py: REPORT_COLUMNS", "m.py: _Y"]
