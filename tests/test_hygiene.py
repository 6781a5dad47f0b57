"""Source hygiene: every name a module imports is used in it, and every
field of a control dataclass is set by some call."""

import ast
import dataclasses
from pathlib import Path

import pytest

from smoothfit.efs import EFSControl
from smoothfit.lqefs import LqefsControl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smoothfit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
#: every Python file that may construct a control object
CALLERS = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


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


def keywords_passed(source, callee):
    """Keyword names passed in ``source`` to calls of ``callee``, called by
    its bare name or as an attribute (``mod.callee``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name == callee:
                out.update(k.arg for k in node.keywords if k.arg)
    return out


def test_keyword_scanner():
    source = ("from x import Ctl\nimport m\n"
              "a = Ctl(tol=1, **extra)\nb = m.Ctl(seed=2)\n"
              "c = Other(n_v=3)\nd = m.Ctl.other(max_outer=4)\n")
    assert keywords_passed(source, "Ctl") == {"tol", "seed"}


@pytest.mark.parametrize("control", [EFSControl, LqefsControl],
                         ids=lambda c: c.__name__)
def test_every_control_field_is_set_somewhere(control):
    # a field that no call sets is a constant, not a knob
    passed = set()
    for path in CALLERS:
        passed |= keywords_passed(path.read_text(encoding="utf-8"),
                                  control.__name__)
    fields = {f.name for f in dataclasses.fields(control)}
    assert fields - passed == set()
