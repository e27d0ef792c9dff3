"""No module of the package or of its tests imports a name it never uses.

The package has no linter, so this test is its unused-import check. It
parses each module of `src/tpbench` except the package `__init__.py` files,
which import names to re-export them, and each module of `tests`, and
reports every imported name that no expression of the module reads.
`from __future__` imports are no names.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tpbench"
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
