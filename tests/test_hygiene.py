"""Source hygiene: every name a module imports is used in that module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package's __init__.py imports only to re-export
SOURCES = sorted(p for p in (ROOT / "src" / "nambu").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


def test_scan_finds_unused_imports():
    source = ("import os\nimport itertools as it\nfrom math import pi, tau\n"
              "def f():\n    import sys\n    return tau + os.sep\n")
    assert unused_imports(source) == ["line 2: it", "line 3: pi", "line 5: sys"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
