"""The package is stdlib-only: every import in src/akhodge/*.py names the
package itself (or a relative module) or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "akhodge"


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
