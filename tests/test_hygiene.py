"""Source hygiene: every name a module imports is used in that module, every
local a library function assigns is read, every library function is
referenced somewhere, and every field of a library dataclass is read."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package's __init__.py imports only to re-export
SOURCES = sorted(p for p in (ROOT / "src" / "nambu").glob("*.py") if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src" / "nambu").glob("*.py"))
SOURCES += sorted((ROOT / "tests").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


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


def _own_nodes(fn):
    """The nodes of fn's own scope: nested functions and classes left out."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str):
    """Names a function binds and never reads (its nested functions count as
    readers), in source order; names starting with an underscore are exempt.
    Filling a container that the function itself built (x = [] then
    x.append(v)) does not read it."""
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, SCOPES):
            continue
        own = list(_own_nodes(fn))
        declared = {name for node in ast.walk(fn) if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        stores = [node for node in own if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        # names bound only to a container display: x = [], x = {k: v for ...}
        displays = {id(t) for node in own if isinstance(node, ast.Assign)
                    and isinstance(node.value, CONTAINERS) for t in node.targets}
        built = ({node.id for node in stores if id(node) in displays}
                 - {node.id for node in stores if id(node) not in displays})
        filled = {id(node.value.func.value) for node in ast.walk(fn)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute)
                  and isinstance(node.value.func.value, ast.Name) and node.value.func.value.id in built}
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store) and id(node) not in filled}
        read |= {node.target.id for node in ast.walk(fn)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        found |= {(node.lineno, node.id) for node in stores
                  if node.id not in read | declared and not node.id.startswith("_")}
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_finds_unused_locals():
    source = ("def f(a):\n"
              "    p, q, r = a\n"             # q and r are never read
              "    dead = a + 1\n"
              "    parts = []\n"              # filled, never read
              "    for i in range(3):\n"      # i is never read
              "        parts.append(a)\n"
              "    kept = []\n"
              "    kept.append(p)\n"
              "    group = make(a)\n"         # not built here: its calls may act elsewhere
              "    group.add(p)\n"
              "    total = 0\n"
              "    total += 1\n"
              "    _, seen = a\n"
              "    def g():\n"
              "        return seen\n"
              "    return kept, g\n")
    assert unused_locals(source) == ["line 2: q", "line 2: r", "line 3: dead", "line 4: parts",
                                     "line 5: i"]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_locals_are_read(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def _names(tree):
    """How often each name is read, as a bare name or as an attribute."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def unreferenced_functions(defining, referencing):
    """Functions and methods defined in `defining` ({label: source}) whose name
    no source in `referencing` reads outside the function's own body, as
    "label line N: name". Dunder methods are exempt. An import is not a
    reference, so a re-export does not keep a function alive."""
    read = collections.Counter()
    for source in referencing:
        read += _names(ast.parse(source))
    found = []
    for label, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if read[name] - _names(node)[name] <= 0:
                found.append(f"{label} line {node.lineno}: {name}")
    return found


def test_scan_finds_unreferenced_functions():
    module = ("def used():\n    return 1\n"
              "def unused():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "class C:\n"
              "    def __len__(self):\n        return 0\n"
              "    def method(self):\n        return 1\n"
              "    def caller(self):\n        return self.method()\n")
    package_init = "from .m import caller, unused\n"
    assert unreferenced_functions({"m": module}, [module]) == [
        "m line 3: unused", "m line 5: recursive", "m line 12: caller"]
    # a use in another file counts; a re-export does not
    assert unreferenced_functions({"m": module}, [module, "C().caller()\n", package_init]) == [
        "m line 3: unused", "m line 5: recursive"]


def test_every_library_function_is_referenced():
    # references come from the library and the tests; the package's
    # __init__.py only re-exports
    defining = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unreferenced_functions(defining, [p.read_text(encoding="utf-8") for p in SOURCES]) == []


def _is_dataclass(node):
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list
               if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name))


def unread_dataclass_fields(defining, referencing):
    """Fields of the dataclasses defined in `defining` ({label: source})
    that no source in `referencing` reads as an attribute, as
    "label line N: Class.field". Setting an attribute is not a read."""
    read = {node.attr for source in referencing for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for label, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in read):
                    found.append(f"{label} line {node.lineno}: {cls.name}.{node.target.id}")
    return found


def test_scan_finds_unread_dataclass_fields():
    module = ("from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class R:\n"
              "    used: int\n"
              "    stored: int = 0\n"
              "    listed: list = field(default_factory=list)\n"
              "@dataclass(frozen=True)\n"
              "class S:\n"
              "    never: int\n"
              "class Plain:\n"
              "    note: int = 0\n"
              "def f(r):\n"
              "    r.stored = r.used\n"
              "    return R(1, 2, [])\n")
    assert unread_dataclass_fields({"m": module}, [module]) == [
        "m line 5: R.stored", "m line 6: R.listed", "m line 9: S.never"]
    # a read in another file counts
    assert unread_dataclass_fields({"m": module}, [module, "print(s.never, r.listed)\n"]) == [
        "m line 5: R.stored"]


def test_every_dataclass_field_is_read():
    # reads come from the library and the tests
    defining = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unread_dataclass_fields(defining, [p.read_text(encoding="utf-8") for p in SOURCES]) == []
