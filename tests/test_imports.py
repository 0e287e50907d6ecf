"""Dead-name guards: no package module imports a name it never uses, and
no private name the package defines goes unread in the package.

`__init__.py` is exempt from the import guard, since its imports are the
package's exports, and so is `from __future__ import ...`. Standard
library only: the CI installs numpy, scipy and pytest and no lint tool.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dgtd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                           key=lambda item: item[1])
            if name not in used]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def dead_private_names(sources: list[str]) -> list[str]:
    """Private names defined in the sources that none of them reads: a
    module-level function, class or constant, a method, or an attribute
    set on self. A read is a loaded name or attribute of that spelling."""
    defined, read = [], set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:  # the plain names an assignment binds
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [name for name in names if _private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and _private(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node.value, ast.Name) and node.value.id == "self"
                        and _private(node.attr)):
                    defined.append(f"self.{node.attr}")
    return sorted({name for name in defined if name.rpartition(".")[2] not in read})


def test_the_package_modules_are_found():
    assert {"dg_core.py", "materials.py", "stability.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", ["line 1: math"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\nd()\n", ["line 1: c"]),
    ("from __future__ import annotations\n", []),
    ("from a import B\ndef f(x: B): pass\n", []),
])
def test_the_guard_flags_exactly_the_unused_names(source, unused):
    assert unused_imports(source) == unused


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_private_names(sources) == []


@pytest.mark.parametrize("sources, dead", [
    (["def _f(): pass\n_C = 1\nclass _K: pass\n__all__ = []\n"], ["_C", "_K", "_f"]),
    (["def _f(): pass\n", "from a import _f\n_f()\n"], []),
    (["class A:\n    def _m(self): pass\n    def __init__(self): self._x = 1\n"],
     ["A._m", "self._x"]),
    (["class A:\n    def _m(self): return self._x\n"
      "    def __init__(self): self._x, self.y = 1, 2\n", "A()._m()\n"], []),
])
def test_the_private_name_guard_flags_exactly_the_unread_names(sources, dead):
    assert dead_private_names(sources) == dead
