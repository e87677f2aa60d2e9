"""Every imported name is used, the package needs only the standard
library, and every package definition has a caller.

An AST scan of the package modules, the tests and the demos: a name bound
by an import statement must appear as a name somewhere in the same module.
``nichols/__init__.py`` is skipped, since its imports are re-exports.  A
second scan checks that every module of the package imports only the
standard library and the package itself: it has no runtime dependencies.
A third, the reference scan, checks that every top-level function and
class of the package, and every method of those classes, is read by
package code reachable from the modules' top level or from the exports of
``nichols/__init__.py``, unless ``ALLOWED`` names the caller outside the
package that needs it.
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


# package definitions that no reachable package code reads, each with the
# caller outside the package that keeps it (ROADMAP items 1, 2, 11 and 15)
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
    "algebra.GradedComputation.stats": "the per-degree cost records that "
                                       "item 11's --stats prints",
    "fileio.dump_crossed_set": "part of the pair-file writer dump_pair",
    "fileio.dump_cochain": "part of the pair-file writer dump_pair",
    "fileio._dump_table": "part of the pair-file writer dump_pair",
    "pairs.BraidedPair.matrix": "the braiding matrix dump_pair writes for a "
                                "matrix pair",
    "groups.FiniteGroup": "the group type the group builders return, for "
                          "item 2's enumeration",
    "scalars.Cyc.coeffs": "a value's rational coefficients, a boundary of "
                          "Cyc that the README documents",
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


def _class_data(node):
    """The data attributes of a class: its ``__slots__``, the names its
    body assigns and the attributes of ``self`` its methods store."""
    data = set()
    for sub in node.body:
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    data.add(target.id)
                    if (target.id == "__slots__"
                            and isinstance(sub.value, (ast.Tuple, ast.List))):
                        data.update(e.value for e in sub.value.elts
                                    if isinstance(e, ast.Constant))
    for n in ast.walk(node):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"):
            data.add(n.attr)
    return data


def _reads(tree, mod):
    """(site, owner, name) for each name the module reads (a Load): site is
    the key of the innermost definition the read sits in, a dunder method
    or the class body counting as its class, or None at the top level.
    owner is None for a Name, the enclosing class for ``self.x`` or
    ``cls.x`` in a method, the last identifier of the base for ``a.x`` or
    ``a.b.x``, and "" for any other attribute."""
    found = []

    def visit(node, site, cls):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((site, None, node.id))
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            base = node.value
            if isinstance(base, ast.Name):
                owner = (cls if cls and base.id in ("self", "cls")
                         else base.id)
            else:
                owner = getattr(base, "attr", "")
            found.append((site, owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, site, cls)

    methods = {qual for qual, _ in _definitions(tree)}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            visit(node, (mod, node.name) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None,
                None)
            continue
        key = (mod, node.name)
        for expr in node.bases + node.decorator_list:
            visit(expr, key, None)
        for sub in node.body:
            qual = f"{node.name}.{getattr(sub, 'name', '')}"
            visit(sub, (mod, qual) if qual in methods else key, node.name)
    return found


def unreferenced(sources):
    """The definitions in ``sources``, {module: source} with ``__init__``
    the package's, that nothing reachable reads, as sorted ``module.name``
    and ``module.Class.method`` strings.

    Top-level code and the names ``__init__`` imports are reachable, and
    so is whatever a reachable definition reads; a class's body and dunder
    methods count as the class.  A read is qualified where the AST allows:
    ``self.x`` in a method of C and ``C.x``, for C a package class, read
    the x of C or of its first package base class defining it, method or
    data attribute (``__slots__``, its body or ``self.x = ...``).  A Name
    reads every top-level definition so named, and any other ``a.x`` every
    definition named x: without types, a method that shares its name with
    an attribute read elsewhere still passes.  A definition read only from
    itself, or from other unreachable code such as an ``ALLOWED`` entry, is
    reported."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    init = trees.pop("__init__", ast.Module(body=[], type_ignores=[]))
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    defs, classes = set(), {}
    for mod, tree in trees.items():
        defs.update((mod, qual) for qual, _ in _definitions(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (mod, _class_data(node), [
                    b.id for b in node.bases if isinstance(b, ast.Name)])
    by_name = {}
    for mod, qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[-1], set()).add((mod, qual))

    def targets(owner, name):
        if owner is None:
            return {k for k in by_name.get(name, ()) if "." not in k[1]}
        cls = owner
        while cls in classes:
            mod, data, bases = classes[cls]
            if (mod, f"{cls}.{name}") in defs:
                return {(mod, f"{cls}.{name}")}
            if name in data:
                return set()
            cls = next((b for b in bases if b in classes), None)
        return by_name.get(name, set())

    edges = {}
    for mod, tree in trees.items():
        for site, owner, name in _reads(tree, mod):
            edges.setdefault(site, set()).update(targets(owner, name))
    live = {k for k in defs if k[1] in exported}
    todo = [None, *live]
    while todo:
        for key in edges.get(todo.pop(), ()):
            if key not in live:
                live.add(key)
                todo.append(key)
    return sorted(f"{mod}.{qual}" for mod, qual in defs - live)


def test_scan_finds_an_unreferenced_definition():
    sources = {
        "__init__": "from .a import f\n",
        "a": ("def f():\n    return g()\n\n"
              "def g():\n    return C().m() + D.s()\n\n"
              "def h(n):\n    return h(n - 1) + only_h_calls()\n\n"
              "def only_h_calls():\n    return 0\n\n"
              "class C:\n"
              "    def m(self):\n        return self.k\n"
              "    def k(self):\n        return 0\n"
              "    def unused(self):\n        return self.unused\n"
              "    def size(self):\n        return 0\n\n"
              "class D:\n"
              "    __slots__ = ('size',)\n"
              "    def s():\n        return E().t\n"
              "    def k(self):\n        return 0\n"
              "    def __len__(self):\n        return self.size\n\n"
              "class E:\n"
              "    def __init__(self):\n        self.t = 0\n"
              "    def t(self):\n        return 0\n"),
        "b": "from .a import f\n\nX = f()\n",
    }
    # self.k inside C reads C.k, not D.k, and self.size inside D reads its
    # slot, not C.size; E().t reads E.t, as the base is no class name; h
    # reads only_h_calls, but nothing reachable reads h
    assert unreferenced(sources) == [
        "a.C.size", "a.C.unused", "a.D.k", "a.h", "a.only_h_calls"]


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
