"""Source hygiene: every name a module imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "smoothfit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement and never loaded in ``source``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as ``np.linalg`` starts with a Name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scanner_flags_unused_names():
    source = ("import os\nimport numpy as np\nimport scipy.sparse\n"
              "from math import pi, tau\n"
              "def f():\n    from json import dumps\n"
              "    return np.zeros(1), scipy.sparse, pi\n")
    assert unused_imports(source) == ["dumps", "os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
