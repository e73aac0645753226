"""Source hygiene: every name a module imports is used in that module, every
local a library function assigns is read, every library function is read by
the library or the benchmark or is public API (`nambu.__all__`, exactly the
names the package imports), and every field of a library dataclass is read."""

import ast
import collections
import importlib
import json
import pathlib

import pytest

import nambu

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


def _reads(tree):
    """How often each name is read: (as a bare name or as an attribute, as an
    attribute only)."""
    names, attrs = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            attrs[node.attr] += 1
    return names + attrs, attrs


def _functions(node, prefix="", in_class=False):
    """(qualified name, node, is a method) of every function defined under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child, in_class
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        else:
            yield from _functions(child, prefix, in_class)


def unreferenced_functions(defining, referencing, kept=frozenset()):
    """Functions and methods defined in `defining` ({module: source}) that no
    source in `referencing` reads outside the function's own body, as
    "module line N: qualified name". A method is read only as an attribute
    (obj.name), so a local variable of the same name does not keep it.
    Dunder methods are exempt, and so is each "module.qualified name" in
    `kept`. An import is not a read, so a re-export does not keep a function."""
    read, attrs = collections.Counter(), collections.Counter()
    for source in referencing:
        both, attr = _reads(ast.parse(source))
        read += both
        attrs += attr
    found = []
    for module, source in defining.items():
        for qualname, node, method in _functions(ast.parse(source)):
            name = node.name
            if name.startswith("__") and name.endswith("__") or f"{module}.{qualname}" in kept:
                continue
            if (attrs if method else read)[name] - _reads(node)[method][name] <= 0:
                found.append(f"{module} line {node.lineno}: {qualname}")
    return found


def package_api(source):
    """(the names the package's __all__ lists, {name: "module.name"} for each
    name it imports from its own modules)."""
    tree = ast.parse(source)
    listed = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    imported = {a.asname or a.name: f"{node.module}.{a.name}" for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
    return (listed[0] if listed else []), imported


def unread_library_functions(root):
    """The library functions of root's package that nothing keeps. Readers
    are the package's modules (not its __init__.py, which only re-exports)
    and perfbench/*.py, whose tracer wraps functions by name; kept are the
    top-level functions __all__ lists and the functions behind
    BENCHMARK.json's per-layer metrics ("module.[Class.]function.metric").
    The tests are not readers: a function only they call leaves the library."""
    package = root / "src" / "nambu"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    listed, imported = package_api((package / "__init__.py").read_text(encoding="utf-8"))
    kept = {imported[name] for name in listed if name in imported}
    kept |= {m["name"].rsplit(".", 1)[0] for m in
             json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    readers = modules + sorted((root / "perfbench").glob("*.py"))
    return unreferenced_functions({p.stem: p.read_text(encoding="utf-8") for p in modules},
                                  [p.read_text(encoding="utf-8") for p in readers], kept)


def test_scan_finds_unreferenced_functions(tmp_path):
    module = ("def used():\n    return 1\n"
              "def unused():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "class C:\n"
              "    def __len__(self):\n        return 0\n"
              "    def method(self):\n        return 1\n"
              "    def caller(self):\n        return self.method()\n")
    package_init = "from .m import caller, unused\n"
    assert unreferenced_functions({"m": module}, [module]) == [
        "m line 3: unused", "m line 5: recursive", "m line 12: C.caller"]
    # a use in another file counts; a re-export does not
    assert unreferenced_functions({"m": module}, [module, "C().caller()\n", package_init]) == [
        "m line 3: unused", "m line 5: recursive"]
    # a method is read only as an attribute
    assert unreferenced_functions({"m": module}, [module, "caller = 1\nprint(caller)\n"]) == [
        "m line 3: unused", "m line 5: recursive", "m line 12: C.caller"]
    assert unreferenced_functions({"m": module}, [module], {"m.unused", "m.C.caller"}) == [
        "m line 5: recursive"]

    files = {
        "src/nambu/__init__.py": "from .m import exported, tested, user\n"
                                 "__all__ = ['exported', 'user']\n",
        "src/nambu/m.py": "def tested():\n    return 1\n"
                          "def exported():\n    return 2\n"
                          "def timed():\n    return 3\n"
                          "def benched():\n    return 4\n"
                          "class C:\n"
                          "    def shadowed(self):\n        return 0\n"
                          "    def measured(self):\n        return 0\n"
                          "def user():\n"
                          "    shadowed = C()\n"
                          "    return shadowed\n",
        "tests/test_m.py": "from nambu.m import C, tested\n"
                           "def test_m():\n    assert tested() == 1 and C().shadowed() == 0\n",
        "perfbench/run.py": "import nambu.m\nnambu.m.benched()\n",
        "BENCHMARK.json": json.dumps({"per_layer": [{"name": "m.timed.calls"},
                                                    {"name": "m.C.measured.self_s"}]}),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    # read only by a test: flagged; listed in __all__, named by a per-layer
    # metric or read by perfbench: kept; a method whose name is only a local
    # variable: flagged
    assert unread_library_functions(tmp_path) == ["m line 1: tested", "m line 10: C.shadowed"]


def test_every_library_function_is_referenced():
    assert unread_library_functions(ROOT) == []


def test_api_is_what_the_package_imports():
    listed, imported = package_api((ROOT / "src" / "nambu" / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(listed) == sorted(imported)
    assert len(set(listed)) == len(listed)
    for name in listed:
        module, attr = imported[name].split(".")
        assert getattr(nambu, name) is getattr(importlib.import_module(f"nambu.{module}"), attr)


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
