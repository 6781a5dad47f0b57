"""Source hygiene: every name a module or test file imports is used in
it, every field of a control dataclass is set by some call, and importing
the package loads no scipy subpackage that the numerics do not call."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smoothfit.efs import EFSControl
from smoothfit.lqefs import LqefsControl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smoothfit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: scipy subpackages that no smoothfit module calls; ``scipy.stats`` alone
#: costs about 0.45 s and 19 MB per process and pulls in the other two
UNUSED_SCIPY = ("scipy.stats", "scipy.ndimage", "scipy.integrate")


def test_import_loads_only_the_scipy_the_numerics_call():
    # a fresh interpreter: every CLI call pays the package import
    path = filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, smoothfit, smoothfit.cli\n"
            "print(*(m for m in sys.argv[1:] if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *UNUSED_SCIPY],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.split() == []


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
