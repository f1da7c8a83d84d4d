"""The package has no runtime dependencies: read from the sources alone,
every module imports only the standard library and ``bd4`` itself."""

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
