"""The package has no runtime dependencies: read from the sources alone,
every module imports only the standard library and ``bd4`` itself, and
uses every name it imports."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bd4"


def imported_roots(tree):
    """The top-level name of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_module_imports_only_the_standard_library_and_bd4():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for root in imported_roots(tree):
            assert root in sys.stdlib_module_names or root == "bd4", (
                path.name, root)


def test_a_third_party_import_is_seen():
    tree = ast.parse("import os\nfrom numpy.linalg import norm\n"
                     "from . import syntax\n")
    assert list(imported_roots(tree)) == ["os", "numpy"]


# modules that start threads, processes or timers, or take signals; the
# benchmark's reference clock drives SIGALRM from its own timer, so the
# package must do none of this
CONCURRENCY = frozenset(("signal", "threading", "_thread", "multiprocessing",
                         "concurrent", "subprocess"))


def concurrency_imports(package):
    """(module file name, root) for each such import under package."""
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for root in sorted(CONCURRENCY.intersection(imported_roots(tree))):
            yield path.name, root


def test_no_module_uses_signals_threads_or_processes():
    assert list(concurrency_imports(PACKAGE)) == []


def test_a_concurrency_import_is_seen(tmp_path):
    (tmp_path / "clean.py").write_text("import os\n")
    (tmp_path / "timed.py").write_text(
        "import os, signal\nfrom concurrent import futures\n"
        "def run():\n    import subprocess as sp\n")
    assert list(concurrency_imports(tmp_path)) == [
        ("timed.py", "concurrent"), ("timed.py", "signal"),
        ("timed.py", "subprocess")]


def unused_imports(tree):
    """The names a module binds by import and never reads, ``from
    __future__`` aside."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0]
                         for a in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_module_uses_what_it_imports():
    modules = [path for path in sorted(PACKAGE.rglob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) > 10
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        assert unused_imports(tree) == [], path.name


def test_an_unused_import_is_seen():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\n"
                     "from .values import T, F as falsum\n"
                     "print(os.sep, T)\n")
    assert unused_imports(tree) == ["falsum", "regex"]
