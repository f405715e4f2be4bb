"""The package is stdlib-only: every import in src/akhodge/*.py names the
package itself (or a relative module) or a standard-library module; every
name that a module of the package or of its tests imports at module level
is used by that module; and every function, class and method the package
defines is named somewhere in the package.

The last detector reads names, not calls, so it has two blind spots. It
skips dunder methods, which operators and built-ins call without naming
them (`a - b`, `str(x)`, `hash(x)`). And a method counts as called when any
class's method of the same name is read: one `.to_dict` read keeps every
`to_dict` alive. A definition in either spot is found only by tracing which
functions a run actually enters (`sys.setprofile` over the tests, the
benchmark and every CLI command on every catalog entry)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "akhodge"
TESTS = Path(__file__).resolve().parent


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by source that are neither akhodge nor in
    the standard library; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [top for top in (name.split(".")[0] for name in names)
                  if top != "akhodge" and top not in sys.stdlib_module_names]
    return found


def test_detector_flags_third_party_imports():
    source = ("import os.path, numpy\nfrom sympy.core import S\n"
              "from . import linalg\nfrom akhodge.hodge import verify\n"
              "def f():\n    import scipy\n")
    assert foreign_imports(source) == ["numpy", "sympy", "scipy"]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    assert {path.name: foreign_imports(path.read_text(encoding="utf-8"))
            for path in files} == {path.name: [] for path in files}


def module_level_imports(node: ast.AST):
    """Import statements outside every function and class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
            yield from module_level_imports(child)


def referenced_names(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, in string annotations, in __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of source that it never reads."""
    tree = ast.parse(source)
    used = referenced_names(tree)
    unused = []
    for node in module_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                unused.append(bound)
    return unused


def test_detector_flags_unused_imports():
    source = ('"""Fraction named only in a docstring."""\n'
              "from __future__ import annotations\n"
              "import os, os.path as osp\nimport json\n"
              "from typing import TYPE_CHECKING, Mapping\n"
              "from fractions import Fraction\n"
              "from . import linalg, hodge\n"
              "if TYPE_CHECKING:\n    from .model import ManifoldSpec, Form\n"
              "__all__ = ['hodge']\n"
              "def f(spec: 'list[ManifoldSpec]') -> Mapping:\n"
              "    import re\n    return os.sep\n")
    assert unused_imports(source) == ["osp", "json", "Fraction", "linalg",
                                      "Form"]


def test_package_has_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) >= 20
    assert {path.name: unused_imports(path.read_text(encoding="utf-8"))
            for path in files} == {path.name: [] for path in files}


# Definitions that no engine module names, each kept for the outside caller
# given.
KEPT_FOR_OUTSIDE_CALLERS = {
    "catalog.dsl_source": "perfbench/workloads.py parses its oracle specs "
                          "from it",
    "linalg.Matrix.nullspace": "the perfbench tracer wraps it",
    "linalg.Matrix.solve_map": "the perfbench tracer wraps it",
    "hodge.Subspace.contains": "the perfbench tracer wraps it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module, module: str):
    """(qualified name, name, is a method) of each top-level function and
    class of a module, and of each non-dunder method of its classes."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, DEFINITIONS[:2])
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def names_in(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(every name the code mentions: names, attributes, imported names;
    the names it reads as attributes)."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names | attributes, attributes


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in sources (module -> text) that
    no module mentions; a method counts as mentioned only when some module
    reads its name as an attribute, so a local variable of the same name
    does not hide it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    mentioned = [names_in(tree) for tree in trees.values()]
    named = set().union(*(names for names, _ in mentioned))
    attributes = set().union(*(attrs for _, attrs in mentioned))
    return sorted(qualified for module, tree in trees.items()
                  for qualified, name, method in definitions(tree, module)
                  if name not in (attributes if method else named))


def test_detector_flags_uncalled_definitions():
    sources = {
        "a": ("def used():\n    pass\n"
              "def imported():\n    pass\n"
              "def unused():\n    return 'unused'\n"
              "class K:\n"
              "    def __init__(self):\n        self.m()\n"
              "    def m(self):\n        pass\n"
              "    @property\n    def p(self):\n        pass\n"
              "    def n(self):\n        pass\n"
              "    def shadowed(self):\n        pass\n"),
        "b": ("from .a import imported as alias\n"
              "def f(x):\n    shadowed = x.p\n    return used(), shadowed\n"),
    }
    assert uncalled_definitions(sources) == ["a.K", "a.K.n", "a.K.shadowed",
                                             "a.unused", "b.f"]


def test_engine_defines_only_what_it_calls():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 10
    assert uncalled_definitions(sources) == sorted(KEPT_FOR_OUTSIDE_CALLERS)
