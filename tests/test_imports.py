"""Import hygiene: every name a module of the package imports is used in
it, every private function, class and method the package defines is
read somewhere in it, and __init__.py exports exactly the names it
imports.

__init__.py imports names to export them, and __future__ imports switch
on compiler features, so both are left out of the first check. A private
name is one that starts with an underscore and is not a dunder; a helper
folded into another and left behind is one the second check finds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aridem"
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
