"""Every imported name is used, the package needs only the standard
library, and every package definition has a caller.

An AST scan of the package modules, the tests and the demos: a name bound
by an import statement must appear as a name somewhere in the same module.
``nichols/__init__.py`` is skipped, since its imports are re-exports.  A
second scan checks that every module of the package imports only the
standard library and the package itself: it has no runtime dependencies.
A third, the reference scan, checks that every top-level function and
class of the package, and every method of those classes, is referred to
by other package code or exported by ``nichols/__init__.py``, unless
``ALLOWED`` names the caller outside the package that needs it.
"""

import ast
import sys
from collections import Counter
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


# package definitions that no package code calls, each with the caller
# outside the package that keeps it (ROADMAP items 1, 2 and 17)
ALLOWED = {
    "groups.cyclic": "group builder for item 2's non-abelian enumeration",
    "groups.dihedral": "group builder for item 2's non-abelian enumeration",
    "groups.symmetric": "group builder for item 2's non-abelian "
                        "enumeration; the cli-mix bench workload builds S4",
    "groups.conjugacy_classes": "item 2 enumerates the classes of a group; "
                                "the cli-mix bench workload reads S4's",
    "groups.cyclic_character": "characters of cyclic centralizers, the "
                               "yd_module summands of item 2",
    "algebra.GradedComputation.bases": "read by bench/panel.py; waits on "
                                       "item 1",
    "algebra.GradedComputation.transposed": "called by the relations item "
                                            "of bench/panel.py; waits on "
                                            "item 1",
    "braids.t1_apply": "a span of bench/spans.py; waits on item 1",
    "quandles.delta_matrix": "a span of bench/spans.py and the tests' dense "
                             "differential; waits on item 1",
    "linalg.Echelon.nullspace": "a span of bench/spans.py and a test "
                                "oracle; waits on item 1",
    "braids.symmetrizer": "test oracle: the full symmetrizer as a sum of "
                          "braid words",
    "braids.r_elt": "test oracle: R^j_i expanded, against its binomials",
    "braids.block": "test oracle: symmetrizers side by side on the strands",
    "braids.transposition": "test oracle: permutations as products of "
                            "adjacent transpositions",
    "fileio.dump_pair": "the pair-file writer; CI writes the Aff(7,3) pair "
                        "file with it",
    "quandles.Cochain2.constant": "constant cocycles, for item 2's sweep "
                                  "and the Aff(7,3) pair file of CI",
    "quandles.Cochain2.is_cocycle": "whether a cochain braids, for item 2's "
                                    "sweep over cochains",
    "pairs.BraidedPair.braiding_terms": "c(x_i (x) x_j) as letter pairs, "
                                        "for readers of a pair",
    "pairs.two_by_two_z_basis": "the eigenvector basis that makes the "
                                "two-plus-two modules diagonal (item 15)",
    "linalg.encode_word": "the inverse of decode_word, for callers that "
                          "build tensor vectors",
}


def _definitions(tree):
    """The top-level functions and classes of a module and the methods of
    those classes but dunders, as (qualified name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, defs[:2])
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub


def _references(node):
    """The names a subtree refers to, by Name id and Attribute attr, with
    their counts."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced(sources):
    """The definitions in ``sources``, {module: source} with ``__init__``
    the package's, that no code of the modules refers to outside the
    definition itself and ``__init__`` does not import, as sorted
    ``module.name`` and ``module.Class.method`` strings."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    init = trees.pop("__init__", ast.Module(body=[], type_ignores=[]))
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    total = sum(map(_references, trees.values()), Counter())
    found = []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            if qual not in exported and total[name] == _references(node)[name]:
                found.append(f"{mod}.{qual}")
    return sorted(found)


def test_scan_finds_an_unreferenced_definition():
    sources = {
        "__init__": "from .a import f\n",
        "a": ("def f():\n    return g()\n\n"
              "def g():\n    return C().m()\n\n"
              "def h(n):\n    return h(n - 1)\n\n"
              "class C:\n"
              "    def m(self):\n        return self.k\n"
              "    def k(self):\n        return 0\n"
              "    def unused(self):\n        return self.unused\n"
              "    def __len__(self):\n        return 0\n"),
        "b": "from .a import f\n",
    }
    assert unreferenced(sources) == ["a.C.unused", "a.h"]


def _package_sources():
    return {p.stem: p.read_text() for p in PACKAGE}


def test_every_package_definition_has_a_caller():
    assert [name for name in unreferenced(_package_sources())
            if name not in ALLOWED] == []


def test_allowed_names_exist_and_have_no_package_caller():
    # an entry whose definition is gone, or that package code now calls,
    # is stale
    found = set(unreferenced(_package_sources()))
    assert sorted(set(ALLOWED) - found) == []
