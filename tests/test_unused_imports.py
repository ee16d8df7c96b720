"""No module under ``src/`` imports a name it never uses.

A stdlib ``ast`` scan: every name an import statement binds, anywhere in a
module, must be read somewhere in that module.  The one exception is a
documented re-export.
"""

import ast
import pathlib

import pytest

import cvgec

SRC = pathlib.Path(cvgec.__file__).parent

#: (module, name) pairs imported only to be re-exported.  ``protocol``
#: documents that the pattern names are part of its surface.
RE_EXPORTS = {("protocol", "NoProtectedSubspaceError")}


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
