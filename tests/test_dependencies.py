"""numpy is the only runtime dependency: every import in the package
resolves to the standard library, numpy or the package itself, every
imported name is used (in the package and in its tests, scripts and
benchmark harness), no module imports another's underscore name, and every
top-level name of a module is read."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qspeedup"
# the benchmark harness, the scripts and the acceptance suite, read here
# and never written
CONSUMERS = [PACKAGE.parents[1] / "bench", PACKAGE.parents[1] / "scripts"]
TESTS = pathlib.Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"
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


def private_imports(source: str):
    """Underscore names that the package imports of source take from
    another package module; a dunder such as __version__ is public."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "qspeedup")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def top_level_names(tree: ast.Module):
    """Functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def read_names(tree: ast.Module) -> set:
    """Names a module reads: bare, as an attribute, or imported by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unreferenced_names(sources: dict, used_outside: set):
    """Top-level names of the modules in sources that no module reads and
    that are not in used_outside: dead code."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in top_level_names(tree)
            if name not in read | used_outside]


def consumer_names() -> set:
    """Names the Python files under bench/ and scripts/ and the acceptance
    suite read."""
    paths = sorted(path for folder in CONSUMERS for path in folder.rglob("*.py"))
    return set().union(*(read_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in [*paths, ACCEPTANCE]))


def test_reader_sees_every_import_form():
    source = ("import os.path, scipy.linalg\nfrom . import dynamics\n"
              "from .spectral import AtomKind\nfrom hypothesis import given\n"
              "def f():\n    import numba\n")
    assert list(imported_modules(source)) == ["os", "scipy", "qspeedup", "qspeedup",
                                              "hypothesis", "numba"]


def test_unused_reader_sees_every_binding_form():
    source = ("from __future__ import annotations\nimport os.path, math\n"
              "import numpy as np\nfrom .dynamics import envelope, Trajectory as T\n"
              "from . import sweep\n"
              "def f(x: T):\n    import json\n    return os.sep, np.pi, sweep\n")
    assert unused_imports(source) == ["math", "envelope", "json"]


def test_numpy_is_the_only_runtime_dependency():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 11
    outside = [f"{path.name}: {name}" for path in files
               for name in imported_modules(path.read_text(encoding="utf-8"))
               if name not in ALLOWED]
    assert outside == []


def test_every_imported_name_is_used():
    # __init__.py imports to re-export.  An unused import in a test, a
    # script or the harness would keep a dead public name alive through
    # consumer_names
    files = sorted([*set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"},
                    *TESTS.glob("*.py"), *(p for f in CONSUMERS for p in f.rglob("*.py"))])
    assert len(files) >= 30
    unused = [f"{path.relative_to(PACKAGE.parents[1])}: {name}" for path in files
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    # a check that two modules need has one home: the module that owns it
    # and calls it, or a public name
    assert private_imports("from .spectral import AtomKind, _check\n"
                           "from qspeedup.sweep import _DEPTH\nfrom numpy import _core\n"
                           "from . import __version__\n") == ["_check", "_DEPTH"]
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_dead_name_reader_sees_every_definition_form():
    sources = {"a.py": ("from .b import used\nLIMIT = 3\nX, (Y, Z) = 1, (2, 3)\n"
                        "def helper():\n    return Y\nclass Shown:\n    pass\n"
                        "def public():\n    pass\n"),
               "b.py": "from . import a\ndef used():\n    return a.LIMIT\n"}
    assert unreferenced_names(sources, {"public", "Shown"}) == [
        "a.py: X", "a.py: Z", "a.py: helper"]


def test_every_top_level_name_is_read_or_used_outside():
    # a helper whose last caller is gone fails here.  A public name the
    # package does not read itself must be read by the benchmark, a script
    # or the acceptance suite: a place in __all__ or in the README alone is
    # not use
    import qspeedup

    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})}
    assert len(sources) >= 10
    used_outside = set(qspeedup.__all__) & consumer_names()
    assert unreferenced_names(sources, used_outside) == []
