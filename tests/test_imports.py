"""Import hygiene: every name a module of the package imports is used in
it, every private function, class and method the package defines is
read somewhere in it, __init__.py exports exactly the names it imports,
and each of those is read outside the module that defines it.

__init__.py imports names to export them, and __future__ imports switch
on compiler features, so both are left out of the first check. A private
name is one that starts with an underscore and is not a dunder; a helper
folded into another and left behind is one the second check finds. An
export that only its own module and the tests read is one the last
check finds: it belongs to that module, not to the public surface.
"""

import ast
import re
from pathlib import Path

import pytest

import aridem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aridem"
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in SOURCES if name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from json import dumps, loads as parse\nparse(regex)\n")
    assert unused_imports(source) == ["dumps", "os"]


def test_package_modules_are_found():
    assert {"cli.py", "core.py", "engine.py", "machine.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports(SOURCES[module]) == []


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes, and the private
    methods, that sources define and none of them reads, as module:name
    or module:Class.name in sorted order."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
                defined[f"{module}:{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and private(item.name):
                        defined[f"{module}:{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(where for where, name in defined.items() if name not in read)


def test_checker_finds_unread_private_definitions():
    sources = {
        "a.py": ("class _Base:\n    def _used(self): pass\n    def _left(self): pass\n"
                 "    def __repr__(self): return ''\n"
                 "def _helper(): pass\ndef _folded(): pass\ndef public(): pass\n"),
        "b.py": ("from .a import _Base, _folded\n"
                 "class Thing(_Base):\n    def go(self): return self._used() + _helper()\n"),
    }
    assert unread_private_definitions(sources) == ["a.py:_Base._left", "a.py:_folded"]


def test_every_private_definition_is_read():
    assert unread_private_definitions(SOURCES) == []


def export_mismatch(source: str) -> list[str]:
    """The names that source, an __init__.py, imports from its modules
    and leaves out of __all__, or lists in __all__ more than once or
    without importing them, in sorted order."""
    tree = ast.parse(source)
    imported, exported = set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            exported = ast.literal_eval(node.value)
    repeated = {name for name in exported if exported.count(name) > 1}
    return sorted(imported.symmetric_difference(exported) | repeated)


def test_checker_finds_export_mismatches():
    source = ("from .a import kept, dropped\nfrom .b import twice\n"
              "__version__ = '1'\n__all__ = ['kept', 'twice', 'twice', 'stale']\n")
    assert export_mismatch(source) == ["dropped", "stale", "twice"]


def test_init_exports_exactly_what_it_imports():
    assert export_mismatch(SOURCES["__init__.py"]) == []


def names_read(path: str, text: str) -> set[str]:
    """The names a Python source reads, as a name or an attribute, or
    every word of any other text."""
    if not path.endswith(".py"):
        return set(re.findall(r"\w+", text))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unread_exports(sources: dict[str, str], outside: dict[str, str], values: dict) -> list[str]:
    """The names in values, each exported name and its value, that no
    module of sources but the one __init__.py imports them from reads,
    that no outside text reads, and that are not the type of another
    exported value, in sorted order."""
    owners = {}
    for node in ast.parse(sources["__init__.py"]).body:
        if isinstance(node, ast.ImportFrom):
            owners.update((a.asname or a.name, f"{node.module}.py") for a in node.names)
    reads = {path: names_read(path, text) for path, text in {**sources, **outside}.items()
             if path != "__init__.py"}
    types = [type(value) for value in values.values()]
    return sorted(name for name, value in values.items()
                  if not any(name in read for path, read in reads.items() if path != owners[name])
                  and not any(value is kind for kind in types))


def test_checker_finds_unread_exports():
    sources = {"__init__.py": "from .a import Kind, KIND, used, own, shown, noted\n",
               "a.py": "class Kind: pass\nKIND = Kind()\ndef own(): pass\nown()\n",
               "b.py": "from .a import used\nused()\n"}
    outside = {"README.md": "Call `shown` and read KIND.",
               "demos/x.py": "import pkg\n# noted\npkg.shown()\n"}
    kind = type("Kind", (), {})
    values = {"Kind": kind, "KIND": kind(), "used": len, "own": abs, "shown": min,
              "noted": max}
    assert unread_exports(sources, outside, values) == ["noted", "own"]


def test_every_export_is_read_outside_its_module():
    paths = [ROOT / "README.md", *sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("bench/*.py"))]
    outside = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    values = {name: getattr(aridem, name) for name in aridem.__all__}
    assert unread_exports(SOURCES, outside, values) == []
