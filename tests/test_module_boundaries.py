"""No module of the package reads another module's private names, and no
module imports a name it never reads.

A name with one leading underscore is private to the module that defines
it.  The check walks every module of src/numelast and rejects an import of
such a name from the package (``from .x import _name``) and an attribute
read ``x._name`` where ``x`` is bound to a module of the package (``from .
import x``, ``import numelast.x``).

Every name a module imports must be read in it.  ``__init__.py`` is exempt,
since its imports are the public re-exports, and so is ``from __future__
import annotations``.

Every import is from the standard library (``sys.stdlib_module_names``) or
from the package itself, as ``dependencies = []`` promises.

Every private name a module defines at its top level is read somewhere in
the package other than its own definition: a helper that nothing calls is
deleted, not kept alive.

No module has an ``assert`` statement: python -O strips them, and contract
checks must still run there, so they raise typed errors instead.

No module imports dataclasses: importing it pulls in inspect, ast, dis
and tokenize, and every command pays that at start-up; the value classes
derive from numelast.records instead.

No module but monoid.py reads the breakpoint lists ``max_breaks`` and
``min_breaks`` of WindowTables: the others ask the tables for a length,
the columns or last_breakpoint(), so a change of the lists' layout edits
monoid.py alone.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "numelast"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _in_package(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "numelast"


def private_reads(source):
    """(line, name) for each private name of another module that ``source`` reads."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "numelast"):  # binds a module of the package
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numelast":
                    modules.add(alias.asname or "numelast")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: private_reads(path.read_text()) for path in paths}
    assert {name: reads for name, reads in found.items() if reads} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .monoid import _fill\n", [(1, "_fill")]),
        ("from numelast.monoid import window_tables, _fill as fill\n", [(1, "_fill")]),
        ("from . import monoid as mo\n\ndef f():\n    return mo._fill\n", [(4, "_fill")]),
        ("import numelast.profile\nx = numelast.profile._first_miss\n", [(2, "_first_miss")]),
        ("from . import monoid as mo\nfrom .monoid import window_tables\n"
         "def f(t):\n    return mo.window_tables, t._private, __name__\n", []),
    ],
)
def test_private_reads_detects_each_form(source, expected):
    assert private_reads(source) == expected


def unused_imports(source):
    """(line, name) for each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for line, name in imported if name not in read)


def test_no_module_has_an_unused_import():
    paths = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(paths) > 5
    found = {path.name: unused_imports(path.read_text()) for path in paths}
    assert {name: unused for name, unused in found.items() if unused} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("from .monoid import contains, frobenius\nx = contains\n", [(1, "frobenius")]),
        ("import numelast.profile\nnumelast = 1\n", [(1, "numelast")]),  # a store is no read
        ("from collections.abc import Iterator as It\ndef f() -> It[int]:\n    pass\n", []),
        ("from __future__ import annotations\nimport os.path\nx = os.path.sep\n", []),
    ],
)
def test_unused_imports_detects_each_form(source, expected):
    assert unused_imports(source) == expected


def foreign_imports(source):
    """(line, module) for each import in ``source`` from neither the standard
    library nor the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not _in_package(node):
            modules = [node.module]
        else:
            continue
        found += [
            (node.lineno, module) for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names | {"numelast"}
        ]
    return sorted(found)


def test_every_import_is_stdlib_or_the_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: foreign_imports(path.read_text()) for path in paths}
    assert {name: foreign for name, foreign in found.items() if foreign} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy\n", [(1, "numpy")]),
        ("from numpy import array\n", [(1, "numpy")]),
        ("import os, numpy.linalg as la\nx = la\n", [(1, "numpy.linalg")]),
        ("def f():\n    from sympy import Rational\n", [(2, "sympy")]),
        ("from .monoid import contains\nfrom . import profile\n", []),  # relative
        ("from array import array\nimport numelast.profile\n", []),
        ("from __future__ import annotations\nimport collections.abc\n", []),
    ],
)
def test_foreign_imports_detects_each_form(source, expected):
    assert foreign_imports(source) == expected


def assert_lines(source):
    """Line of each assert statement in ``source``."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_module_has_an_assert_statement():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: assert_lines(path.read_text()) for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("assert x\n", [1]),
        ("def f(x):\n    if x:\n        assert x > 0, 'positive'\n", [3]),
        ("class C:\n    def f(self):\n        assert self\n\nassert C\n", [3, 5]),
        ("x = 'assert y'\n# assert z\n", []),  # a string or a comment is no statement
        ("def f(x):\n    if not x:\n        raise ValueError(x)\n", []),
    ],
)
def test_assert_lines_detects_each_form(source, expected):
    assert assert_lines(source) == expected


def unread_privates(source):
    """(line, name) for each private name bound at the top level of
    ``source`` (a def, a class or an assignment) that no other top-level
    statement of ``source`` reads.  No module reads another module's
    private names, so a name unread in its module is unread in the package."""
    tree = ast.parse(source)
    loads = [  # the names each top-level statement reads
        {
            sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for node in tree.body
    ]
    readers = Counter(name for names in loads for name in names)
    found = []
    for node, own in zip(tree.body, loads):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)
            ]
        else:
            continue
        found += [  # read by no statement but, at most, its own
            (node.lineno, name) for name in names
            if _private(name) and readers[name] == (name in own)
        ]
    return sorted(found)


def test_every_private_name_is_read():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: unread_privates(path.read_text()) for path in paths}
    assert {name: unread for name, unread in found.items() if unread} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def _helper():\n    pass\n", [(1, "_helper")]),
        ("class _Box:\n    pass\n", [(1, "_Box")]),
        ("_A, B = 1, 2\n_C: int = 3\nx = B\n", [(1, "_A"), (2, "_C")]),
        # a call from its own body is no read from elsewhere
        ("def _loop(n):\n    return _loop(n - 1) if n else 0\n", [(1, "_loop")]),
        ("_HALF = 2\n\ndef _f():\n    return _HALF\n\ndef g():\n    return _f()\n", []),
        ("def f():\n    _local = 1\n    return 0\n", []),  # not at the top level
        ("__all__ = ['f']\ndef _g():\n    pass\nx = [_g]\n", []),
    ],
)
def test_unread_privates_detects_each_form(source, expected):
    assert unread_privates(source) == expected


def dataclass_imports(source):
    """Line of each import of dataclasses in ``source``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [node.lineno for module in modules if module.split(".")[0] == "dataclasses"]
    return sorted(found)


def test_no_module_imports_dataclasses():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: dataclass_imports(path.read_text()) for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from dataclasses import dataclass\n", [1]),
        ("import os, dataclasses as dc\nx = dc\n", [1]),
        ("def f():\n    from dataclasses import replace\n", [2]),
        ("from .records import FrozenRecord\nx = 'import dataclasses'\n", []),
        ("from . import dataclasses\n", []),  # a module of the package by that name
    ],
)
def test_dataclass_imports_detects_each_form(source, expected):
    assert dataclass_imports(source) == expected


BREAKPOINT_LISTS = {"max_breaks", "min_breaks"}


def breakpoint_reads(source):
    """(line, name) for each attribute of ``source`` named max_breaks or min_breaks."""
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in BREAKPOINT_LISTS
    )


def test_only_monoid_reads_the_breakpoint_lists():
    paths = sorted(path for path in PACKAGE.glob("*.py") if path.name != "monoid.py")
    assert len(paths) > 5
    found = {path.name: breakpoint_reads(path.read_text()) for path in paths}
    assert {name: reads for name, reads in found.items() if reads} == {}
    # the owner reads them under these names, so the check is not vacuous
    assert breakpoint_reads((PACKAGE / "monoid.py").read_text())


@pytest.mark.parametrize(
    "source, expected",
    [
        ("N0 = max(r[-1][0] for r in tables.max_breaks)\n", [(1, "max_breaks")]),
        ("def f(t, g):\n    return t.min_breaks[0], window_tables(g).max_breaks\n",
         [(2, "max_breaks"), (2, "min_breaks")]),
        ("self.min_breaks = []\n", [(1, "min_breaks")]),
        ("N0 = tables.last_breakpoint()\nmax_breaks = 1\n", []),  # a bare name is no attribute
        ("x = 'tables.max_breaks'\n", []),
    ],
)
def test_breakpoint_reads_detects_each_form(source, expected):
    assert breakpoint_reads(source) == expected
