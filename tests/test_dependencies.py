"""numpy is the only runtime dependency: every import in the package
resolves to the standard library, numpy or the package itself."""

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


def test_reader_sees_every_import_form():
    source = ("import os.path, scipy.linalg\nfrom . import dynamics\n"
              "from .spectral import AtomKind\nfrom hypothesis import given\n"
              "def f():\n    import numba\n")
    assert list(imported_modules(source)) == ["os", "scipy", "qspeedup", "qspeedup",
                                              "hypothesis", "numba"]


def test_numpy_is_the_only_runtime_dependency():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 11
    outside = [f"{path.name}: {name}" for path in files
               for name in imported_modules(path.read_text(encoding="utf-8"))
               if name not in ALLOWED]
    assert outside == []
