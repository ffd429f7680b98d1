"""Every name a strangeci module imports is read somewhere in that module.

No linter runs on the sources, so this walks each module's syntax tree: a name bound by an
``import`` or ``from ... import`` and never loaded is an unused import.  ``__init__.py`` is
left out, as its imports are the package's public names, and so are ``from __future__``
imports, which bind nothing.
"""

import ast
from pathlib import Path

import pytest

import strangeci

MODULES = sorted(p for p in Path(strangeci.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"census", "cli", "geometry", "gf", "hompoly"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_oracle_sees_aliases_and_attribute_roots():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b as c, d\nx = np.zeros(os.sep)\n"
    assert unused_imports(source) == ["c", "d"]
