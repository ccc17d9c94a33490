"""numpy is the only runtime dependency: every import in the package
resolves to the standard library, numpy or the package itself, and every
imported name is used."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qspeedup"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qspeedup"}


def imported_modules(source: str):
    """Top-level modules named by the import statements of source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            yield "qspeedup" if node.level else node.module.split(".")[0]


def unused_imports(source: str):
    """Names bound by the import statements of source and never read.

    from __future__ imports are directives, not names.
    """
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_reader_sees_every_import_form():
    source = ("import os.path, scipy.linalg\nfrom . import dynamics\n"
              "from .spectral import AtomKind\nfrom hypothesis import given\n"
              "def f():\n    import numba\n")
    assert list(imported_modules(source)) == ["os", "scipy", "qspeedup", "qspeedup",
                                              "hypothesis", "numba"]


def test_unused_reader_sees_every_binding_form():
    source = ("from __future__ import annotations\nimport os.path, math\n"
              "import numpy as np\nfrom .dynamics import ROOT_HALF, Trajectory as T\n"
              "from . import sweep\n"
              "def f(x: T):\n    import json\n    return os.sep, np.pi, sweep\n")
    assert unused_imports(source) == ["math", "ROOT_HALF", "json"]


def test_numpy_is_the_only_runtime_dependency():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 11
    outside = [f"{path.name}: {name}" for path in files
               for name in imported_modules(path.read_text(encoding="utf-8"))
               if name not in ALLOWED]
    assert outside == []


def test_every_imported_name_is_used():
    # __init__.py imports to re-export
    files = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    assert len(files) >= 10
    unused = [f"{path.name}: {name}" for path in files
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
