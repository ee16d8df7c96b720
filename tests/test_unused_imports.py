"""No module under ``src/`` imports a name it never uses, and no private
helper goes unread.

A stdlib ``ast`` scan: every name an import statement binds, anywhere in a
module, must be read somewhere in that module.  The one exception is a
documented re-export.  Every module-level ``_name`` that a module defines
must be read by some module under ``src/``.
"""

import ast
import pathlib

import pytest

import cvgec

SRC = pathlib.Path(cvgec.__file__).parent

#: (module, name) pairs imported only to be re-exported.  ``protocol``
#: documents that the pattern names are part of its surface, and the
#: package resolves ``null_space_encoder`` from it.
RE_EXPORTS = {("protocol", "NoProtectedSubspaceError"), ("protocol", "null_space_encoder")}


def unused_imports(source: str) -> set[str]:
    """Names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - read


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\nimport numpy as np\nnp.zeros(os.cpu_count())\n", set()),
        ("import os.path\nos.sep\n", set()),
        ("from __future__ import annotations\nfrom a import b\ndef f(x: b): pass\n", set()),
        ("import os\nimport numpy as np\nos.sep\n", {"np"}),
        ("def f():\n    from .states import tensor, vacuum_state\n    return tensor\n", {"vacuum_state"}),
    ],
    ids=["all read", "dotted import", "annotation", "unread alias", "function scope"],
)
def test_scan_flags_exactly_the_unread_names(source, expected):
    assert unused_imports(source) == expected


def test_src_imports_no_unused_name():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert found == RE_EXPORTS


def private_definitions(source: str) -> set[str]:
    """Module-level ``_name`` functions, classes and assignments of ``source``;
    dunder names aside."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            )
    return {name for name in found if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names and attributes that ``source`` reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def unread_private_names(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each private module-level name no module reads."""
    read = set().union(*(read_names(source) for source in sources.values()))
    return {
        (module, name)
        for module, source in sources.items()
        for name in private_definitions(source) - read
    }


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a": "_X = 1\ndef f():\n    return _X\n"}, set()),
        ({"a": "def _f(): pass\n", "b": "from .a import _f\n_f()\n"}, set()),
        ({"a": "def _f(): pass\n", "b": "from . import a\na._f()\n"}, set()),
        (
            {"a": "def _f(): pass\nclass _C: pass\n_X, _Y = 1, 2\n_Y\n"},
            {("a", "_f"), ("a", "_C"), ("a", "_X")},
        ),
        ({"a": "_T: int = 1\n__all__ = []\ndef f():\n    _local = 1\n"}, {("a", "_T")}),
        ({"a": "def _f(): pass\n", "b": "from .a import _f\n"}, {("a", "_f")}),
    ],
    ids=["read in place", "imported", "attribute", "unread", "annotated", "import only"],
)
def test_private_scan_flags_exactly_the_unread_names(sources, expected):
    assert unread_private_names(sources) == expected


def test_src_has_no_unread_private_name():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == set()
