"""Source hygiene: no module of the package or the tests imports a name it
never uses, no module of the package defines a private name, or a
private method or class attribute, it never reads, the sentence walk
lives in one place, and the README lists every module."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pregtrans"
# a package's __init__ imports names to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # a name may be used only in a quoted annotation
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: str(
    p.relative_to(PACKAGE if p.is_relative_to(PACKAGE) else ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from x import a, b, c\n"
        "def f(x: 'c') -> None:\n"
        "    '''json a'''\n"
        "    b()\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 3: a"]


def private_definitions(body) -> list[tuple[str, int]]:
    """Each name with one leading underscore that a statement of ``body``
    defines, with its line."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def unused_private_names(source: str) -> list[str]:
    """Module-level names with one leading underscore that the module
    defines and never reads."""
    tree = ast.parse(source)
    defined = {}
    for name, line in private_definitions(tree.body):
        defined.setdefault(name, line)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_unused_private_name_is_found():
    source = (
        "_A, _B = 1, 2\n"
        "__all__ = []\n"
        "PUBLIC = 3\n"
        "def _f():\n"
        "    return _A\n"
        "class _C:\n"
        "    _inner = 4\n"
    )
    assert unused_private_names(source) == ["line 1: _B", "line 4: _f", "line 6: _C"]


def unused_private_members(source: str) -> list[str]:
    """Methods and class attributes with one leading underscore that a class
    body defines and its module never reads as ``._name``."""
    tree = ast.parse(source)
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {cls.name}.{name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name, line in private_definitions(cls.body) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_private_members(path):
    assert unused_private_members(path.read_text(encoding="utf-8")) == []


def test_unused_private_member_is_found():
    source = (
        "class C:\n"
        "    _used, _unused = 1, 2\n"
        "    __slots__ = ()\n"
        "    def __init__(self):\n"
        "        self._state = self._used\n"
        "    def _helper(self):\n"
        "        return self._step()\n"
        "    def _step(self):\n"
        "        return 0\n"
        "    def public(self):\n"
        "        return _helper\n"
    )
    assert unused_private_members(source) == ["line 2: C._unused", "line 6: C._helper"]


def self_calls(source: str) -> list[str]:
    """Functions and methods that call themselves by name: ``f(...)``, or
    ``x.f(...)`` in a method ``f``."""
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and fn.name in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None)
            ):
                found.append(f"line {call.lineno}: {fn.name}")
    return found


def test_reduction_does_not_recurse():
    # the search keeps explicit stacks, so no input length hits the recursion limit
    assert self_calls((PACKAGE / "reduction.py").read_text(encoding="utf-8")) == []


def test_self_call_is_found():
    source = (
        "def f(n):\n"
        "    return f(n - 1) if n else g(n)\n"
        "class C:\n"
        "    def walk(self, node):\n"
        "        for child in node:\n"
        "            self.walk(child)\n"
        "    def other(self):\n"
        "        return self.walk([])\n"
    )
    assert self_calls(source) == ["line 2: f", "line 6: walk"]


def calls_named(source: str, names) -> list[str]:
    """Calls ``f(...)`` or ``x.f(...)`` of a function or method named in
    ``names``."""
    found = []
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in names:
                found.append(f"line {call.lineno}: {name}")
    return found


@pytest.mark.parametrize("name", ["cli.py", "functors.py"])
def test_one_sentence_walk(name):
    # selections and their witnesses are walked only in reduction.parse_sentence
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert calls_named(source, {"type_selections", "witnesses"}) == []


def test_call_by_name_is_found():
    source = (
        "for s, search in type_selections(a, g, t):\n"
        "    ws = search.witnesses(1)\n"
        "found = parse_sentence(lex, tokens, goal)\n"
        "witnesses = [w for _, w in found] + _SUITES[name](1)\n"
    )
    assert calls_named(source, {"type_selections", "witnesses"}) == [
        "line 1: type_selections", "line 2: witnesses"]


def test_readme_names_every_module():
    # each module of the package has an entry in the README's Modules list
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("\nModules:\n\n", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"^- `(\w+)`", listed, re.MULTILINE))
    assert named == {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
