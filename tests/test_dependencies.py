"""The package has no runtime dependencies: read from the sources alone,
every module imports only the standard library and ``bd4`` itself, and
uses every name it imports."""

import ast
import importlib.util
import pathlib
import subprocess
import sys

import pytest

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


# the module sets that bench/setup_probe.py times, and the CLI's
SET_UPS = ("bd4.kernel, bd4.parser, bd4.proofio, bd4.search",
           "bd4.parser, bd4.proofio, bd4.semantics", "bd4.acceptance",
           "bd4.cli")


def loaded_of(modules: str, names) -> list:
    """Those of names, sorted, that a fresh interpreter has loaded after
    importing modules; ``-S`` keeps site hooks out of the count."""
    code = ("import sys; sys.path.insert(0, %r); import %s; "
            "print(sorted(%r & set(sys.modules)))"
            % (str(PACKAGE.parent), modules, set(names)))
    return ast.literal_eval(subprocess.run(
        [sys.executable, "-S", "-c", code], check=True, capture_output=True,
        text=True).stdout)


@pytest.mark.parametrize("modules", SET_UPS)
def test_a_set_up_imports_neither_dataclasses_nor_inspect(modules):
    """Both are slow to import (``dataclasses`` loads ``inspect``, which
    loads ``ast``, ``dis`` and ``tokenize``), and every CLI call pays
    for its imports."""
    assert loaded_of(modules, ("dataclasses", "inspect")) == []


def test_the_matrix_module_loads_no_formula_engine():
    """``matrixlab`` treats truth tables as data, so importing it loads
    neither the evaluator nor the parser."""
    assert loaded_of("bd4.matrixlab", ("bd4.semantics", "bd4.parser")) == []


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


def recursive_functions(tree) -> list:
    """The module-level functions, and tables assigned at module level,
    that reach themselves through calls: a call reaches each module-level
    name in its callee's expression and each one passed bare as an
    argument, and a function or table reaches what the calls in it do."""
    bodies = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies[node.name] = node
        elif isinstance(node, ast.Assign):
            bodies.update((t.id, node.value) for t in node.targets
                          if isinstance(t, ast.Name))
    calls = {}
    for name, body in bodies.items():
        called = calls[name] = set()
        for call in ast.walk(body):
            if isinstance(call, ast.Call):
                called.update(n.id for n in ast.walk(call.func)
                              if isinstance(n, ast.Name) and n.id in bodies)
                called.update(a.id for a in call.args
                              if isinstance(a, ast.Name) and a.id in bodies)
    out = []
    for name in bodies:
        reached, todo = set(), list(calls[name])
        while todo:
            n = todo.pop()
            if n not in reached:
                reached.add(n)
                todo += calls[n]
        if name in reached:
            out.append(name)
    return sorted(out)


def test_no_function_in_syntax_calls_itself():
    """Printing, free variables and substitution keep their own stacks,
    so a formula of any depth built through the API passes through."""
    path = PACKAGE / "syntax.py"
    assert recursive_functions(ast.parse(path.read_text(), str(path))) == []


# the functions of semantics that reach themselves through calls, and
# why each may; the mask evaluator and every other path keep their own
# stacks, so a formula of any depth built through the API passes through
RECURSIVE_IN_SEMANTICS = {
    "evaluate": "the slow reference for one structure, a walk of the formula "
                "that reads a quantifier whose variable is not free in its "
                "body once, as _run runs it",
    "evaluate_prop": "the slow reference for one valuation, a walk of the "
                     "formula",
    "_count_kept": "it calls _fo_sweep.cache_info() and cache_clear(), "
                   "which name _fo_sweep, whose calls reach it again",
    "_fo_sweep": "it calls _count_kept, which names it in those calls",
}


def test_only_the_references_in_semantics_call_themselves():
    path = PACKAGE / "semantics.py"
    assert recursive_functions(ast.parse(path.read_text(), str(path))) == (
        sorted(RECURSIVE_IN_SEMANTICS))


def test_a_recursive_function_is_seen():
    tree = ast.parse(
        "def direct(n): return direct(n - 1)\n"
        "def there(n): return back(n)\n"
        "def back(n): return TABLE[0](n)\n"
        "TABLE = [lambda n: there(n)]\n"
        "def passed(n): return apply(passed, n)\n"
        "def apply(f, n): return f(n)\n"
        "def named(n): return named is not None and apply(len, n)\n"
        "def nested(n):\n"
        "    def inner(k): return nested(k)\n"
        "    return inner\n")
    assert recursive_functions(tree) == [
        "TABLE", "back", "direct", "nested", "passed", "there"]


ROOT = PACKAGE.parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def defaulted_parameters(package):
    """(module.[Class.]function, parameter, callee names, position) for
    each parameter with a default of a function or method under package.
    The position counts the arguments a call passes before it (a
    method's self aside); it is None for a keyword-only parameter.  An
    ``__init__`` is called by its class's name or as ``__init__``."""
    for path, tree in _trees(package):
        for scope in ast.walk(tree):
            body = getattr(scope, "body", ())  # a lambda's is one node
            for fn in body if isinstance(body, list) else ():
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                method = isinstance(scope, ast.ClassDef) and not any(
                    _name(d) == "staticmethod" for d in fn.decorator_list)
                owner = scope.name + "." if method else ""
                callees = ((scope.name, fn.name)
                           if method and fn.name == "__init__"
                           else (fn.name,))
                a = fn.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield (path.stem + "." + owner + fn.name, arg.arg,
                           callees, i - method)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield (path.stem + "." + owner + fn.name, arg.arg,
                               callees, None)


def calls(*dirs):
    """{callee name: [(positional arguments, keywords)]} over every call
    under dirs; ``functools.partial(f, ...)`` is a call of f.  A starred
    argument counts as every position, and ``**`` as every keyword
    (the keyword None)."""
    out = {}
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, list(node.args)
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            n = (float("inf") if any(isinstance(a, ast.Starred) for a in args)
                 else len(args))
            out.setdefault(_name(func), []).append(
                (n, {k.arg for k in node.keywords}))
    return out


def unset_defaults(package, *callers):
    """The defaulted parameters that no call under package or callers
    passes, by keyword, by position or through functools.partial."""
    made = calls(package, *callers)
    out = []
    for where, param, callees, position in defaulted_parameters(package):
        found = [call for name in callees for call in made.get(name, [])]
        if not any(param in kw or None in kw
                   or (position is not None and n > position)
                   for n, kw in found):
            out.append(where + "." + param)
    return sorted(out)


_HOOKED_READER = ("the public reader of the sweep that bench/layertrace.py "
                  "hooks, which tests compare with the nested-loop reference")
# defaulted parameters that no call in src or bench sets, and why each
# stays
KEPT_DEFAULTS = {
    "cli.main.argv": "the tests run the CLI in process through it",
    "semantics.consequence_fo.cap":
        "the differential tests drive its refusals at caps of 10 and 3,000",
    "semantics.consequence_fo.allowed":
        "bench/layertrace.py reads it from the bound arguments",
    "semantics.consequence_fo.eq_distinct":
        "bench/layertrace.py reads it from the bound arguments",
    "semantics.valuations.allowed":
        "the reference the engine's modes are tested against",
    "semantics.enumerate_structures.mode": _HOOKED_READER,
    "semantics.enumerate_structures.allowed": _HOOKED_READER,
    "semantics.enumerate_structures.need_eq": _HOOKED_READER,
    "semantics.enumerate_structures.eq_distinct": _HOOKED_READER,
}


def test_every_defaulted_parameter_is_set_by_some_call():
    assert len(list(defaulted_parameters(PACKAGE))) > 40
    assert unset_defaults(PACKAGE, ROOT / "bench") == sorted(KEPT_DEFAULTS)


# the package's defaulted parameters; a change that adds an option
# raises this number in its own diff
MOST_DEFAULTED = 47


def test_the_defaulted_parameters_do_not_grow_unseen():
    assert len(list(defaulted_parameters(PACKAGE))) <= MOST_DEFAULTED


def test_a_parameter_no_call_sets_is_seen(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import functools\n"
        "def used(a, b=1, *, c=2): pass\n"
        "def unused(a, flag=False): pass\n"
        "def two(a, b=1, c=2): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    def m(self, y=1, z=2): pass\n"
        "    @staticmethod\n"
        "    def s(w=3): pass\n"
        "used(0, 1, c=3)\n"
        "unused(0)\n"
        "two(0, 1)\n"
        "K(5).m(1)\n"
        "functools.partial(K.s, 1)\n")
    callers = tmp_path / "bench"
    callers.mkdir()
    (callers / "run.py").write_text(
        "from mod import K\nimport functools\n"
        "functools.partial(K().m, z=4)\n")
    assert unset_defaults(package, callers) == [
        "mod.two.c", "mod.unused.flag"]
    assert unset_defaults(package) == [
        "mod.K.m.z", "mod.two.c", "mod.unused.flag"]


def _read(*dirs) -> set:
    """The names modules under dirs read: as a name, as an attribute or
    by importing it."""
    read = set()
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unread_names(package, *readers):
    """module.name for each module-level name under package, dunders
    aside, that no module under package or readers reads."""
    read, out = _read(package, *readers), []
    for path, tree in _trees(package):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            out += [path.stem + "." + n for n in names
                    if not _dunder(n) and n not in read]
    return sorted(out)


def unread_members(package, *readers):
    """module.Class.name for each method or property of a class under
    package, dunders aside, that no module under package or readers
    reads, as an attribute or as a name."""
    read, out = _read(package, *readers), []
    for path, tree in _trees(package):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                out += ["%s.%s.%s" % (path.stem, cls.name, fn.name)
                        for fn in cls.body
                        if isinstance(fn, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                        and not _dunder(fn.name) and fn.name not in read]
    return sorted(out)


# module-level names that nothing in src or bench reads, and why each
# stays; a name that only tests read belongs in tests/
UNREAD_NAMES = {
    "semantics.enumerate_structures":
        "bench/layertrace.py hooks it by name; it moves to tests/ with the "
        "next change to the benchmark",
}


def test_every_module_level_name_is_read():
    assert unread_names(PACKAGE, ROOT / "bench") == sorted(UNREAD_NAMES)


def test_an_unread_name_is_seen(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "__all__ = ['helper']\n"
        "USED, UNUSED = 1, 2\n"
        "LOCAL: int = USED\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "class Thing: pass\n"
        "class Lone: pass\n")
    readers = tmp_path / "tests"
    readers.mkdir()
    (readers / "test_mod.py").write_text(
        "import mod\nfrom mod import helper\n"
        "print(mod.LOCAL, mod.Thing)\n")
    assert unread_names(package, readers) == [
        "mod.Lone", "mod.UNUSED", "mod.orphan"]


# methods and properties that nothing in src or bench reads, and why
# each stays
UNREAD_MEMBERS = {}


def test_every_method_and_property_is_read():
    assert unread_members(PACKAGE, ROOT / "bench") == sorted(UNREAD_MEMBERS)


def test_an_unread_member_is_seen(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def orphan(self): pass\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    @property\n"
        "    def unread(self): return 0\n"
        "    def named(self): pass\n"
        "    alias = named\n"
        "def outer():\n"
        "    class Inner:\n"
        "        def lone(self): pass\n"
        "    return Inner\n")
    readers = tmp_path / "bench"
    readers.mkdir()
    (readers / "run.py").write_text(
        "from mod import Thing\nprint(Thing().size)\n")
    assert unread_members(package, readers) == [
        "mod.Inner.lone", "mod.Thing.orphan", "mod.Thing.unread"]
    assert unread_members(package) == [
        "mod.Inner.lone", "mod.Thing.orphan", "mod.Thing.size",
        "mod.Thing.unread"]


def _bd4_bindings() -> dict:
    """Every name bound in a loaded ``bd4`` module, and in the classes
    those modules define, with the object it is bound to."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "bd4" and not name.startswith("bd4."):
            continue
        for var, val in vars(mod).items():
            out[name, var] = val
            if isinstance(val, type) and val.__module__ == name:
                out.update(((name, var, attr), v)
                           for attr, v in vars(val).items())
    return out


def test_the_benchmark_tracer_finds_every_hook_and_puts_each_back(
        monkeypatch):
    """A renamed hook target is seen here, not only by a traced benchmark
    run, and the traced run leaves the package as it found it."""
    path = ROOT / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "layertrace", layertrace)
    spec.loader.exec_module(layertrace)
    for hook in layertrace.HOOKS:
        importlib.import_module(hook.module)
    before = _bd4_bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        assert tracer.installed == {"%s.%s" % (h.module, h.name)
                                    for h in layertrace.HOOKS}
        traced = _bd4_bindings()
        assert traced["bd4.semantics", "consequence_prop"] is not before[
            "bd4.semantics", "consequence_prop"]
    finally:
        tracer.uninstall()
    after = _bd4_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
