"""Dead-import guard: no package module imports a name it never uses.

`__init__.py` is exempt, since its imports are the package's exports, and
so is `from __future__ import ...`. Standard library only: the CI
installs numpy, scipy and pytest and no lint tool.
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
