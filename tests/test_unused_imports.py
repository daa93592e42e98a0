"""No module imports a name that it never reads.

An unused import of ``row_insert`` stayed in ``harness.py`` after its last
call had gone, and only a later change noticed it.  These tests read the
source of every library module but ``__init__.py``, whose imports are its
re-exports, and of ``frontier/oracle_sweep.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "schensted").glob("*.py")) if p.name != "__init__.py"]
MODULES.append(ROOT / "frontier" / "oracle_sweep.py")


def unused_imports(source):
    """The line and name of every name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # ``import a.b`` binds ``a``
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "from itertools import cycle, groupby, repeat\n"
        "from operator import itemgetter\n"
        "from .insertion import XAlreadyPresent, _bump, row_insert\n"
        "import os.path\n"
        "import json as j\n"
        "def f(stop: XAlreadyPresent):\n"
        "    return cycle(repeat(_bump(os.path.sep)))\n"
    )
    assert unused_imports(source) == [(2, "groupby"), (3, "itemgetter"), (4, "row_insert"), (6, "j")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
