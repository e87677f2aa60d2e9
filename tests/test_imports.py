"""Every imported name is used, and the package needs only the standard
library.

An AST scan of the package modules, the tests and the demos: a name bound
by an import statement must appear as a name somewhere in the same module.
``nichols/__init__.py`` is skipped, since its imports are re-exports.  A
second scan checks that every module of the package imports only the
standard library and the package itself: it has no runtime dependencies.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nichols").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")))


def unused_imports(source):
    """Names bound by imports in ``source`` that no Name node refers to."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as s\n"
                          "from math import gcd, lcm\nprint(s, gcd)\n") \
        == ["lcm", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source):
    """Top-level modules imported by ``source`` that are neither in the
    standard library nor the package itself (relative imports are)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"nichols"})


def test_scan_finds_a_foreign_import():
    assert foreign_imports("import numpy.linalg\nimport os\n"
                           "from sympy import Matrix\nfrom . import pairs\n"
                           "from nichols.scalars import Cyc\n") \
        == ["numpy", "sympy"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
