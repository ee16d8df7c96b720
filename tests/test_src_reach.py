"""Every top-level function and class under ``src/`` is reached by the
program, not only by the tests.

A stdlib ``ast`` walk to a fixpoint.  The roots are the code that runs
without being named: each module's top-level statements other than
definitions (they run on import), dunder functions (the interpreter calls
them), the console scripts of ``pyproject.toml`` and every name that
``perfbench/child.py`` calls.  A definition is reached once reached code
reads its name, as a name or as an attribute, and then its whole body is
reached, a class's methods included.  Names match by spelling alone, so
the walk can only over-approximate: a definition it reports is read by
nothing the commands, the layers or the benchmark's calls run.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cvgec"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read_names(node: ast.AST) -> set[str]:
    """Names and attributes read anywhere under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def called_names(source: str) -> set[str]:
    """Names of the functions that ``source`` calls, bare or as attributes."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call):
            if isinstance(n.func, ast.Name):
                found.add(n.func.id)
            elif isinstance(n.func, ast.Attribute):
                found.add(n.func.attr)
    return found


def unreached(sources: dict[str, str], roots: set[str]) -> set[tuple[str, str]]:
    """(module, name) of each top-level definition that no reached code reads."""
    definitions = {}
    frontier = set(roots)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("__"):
                definitions[(module, node.name)] = node
            else:
                frontier |= read_names(node)
    reached = set()
    while frontier:
        reached |= frontier
        frontier = set().union(
            *(read_names(node) for (_, name), node in definitions.items() if name in frontier)
        ) - reached
    return {key for key in definitions if key[1] not in reached}


@pytest.mark.parametrize(
    "sources, roots, expected",
    [
        ({"a": "def f():\n    return g()\ndef g(): pass\n"}, {"f"}, set()),
        ({"a": "def f(): pass\ndef g(): pass\n"}, {"f"}, {("a", "g")}),
        ({"a": "def f():\n    return g()\ndef g(): pass\n"}, set(), {("a", "f"), ("a", "g")}),
        ({"a": "def f(): pass\n", "b": "from . import a\nX = a.f\n"}, set(), set()),
        ({"a": "class C:\n    def m(self):\n        return f()\ndef f(): pass\n"}, {"C"}, set()),
        ({"a": "def __getattr__(name):\n    return f\ndef f(): pass\n"}, set(), set()),
        ({"a": "def f(): pass\n", "b": "def f(): pass\n"}, {"f"}, set()),
    ],
    ids=[
        "chain", "unread", "unrooted chain", "module statement", "class body", "dunder", "spelling"
    ],
)
def test_walk_reports_exactly_the_unreached_definitions(sources, roots, expected):
    assert unreached(sources, roots) == expected


def test_child_calls_are_read_off_the_calls():
    source = "import m\nx = m.value\nm.run(f(1))\n"
    assert called_names(source) == {"run", "f"}


def test_src_has_no_definition_only_the_tests_reach():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = re.findall(r'^\w+\s*=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    roots = set(scripts) | called_names((ROOT / "perfbench" / "child.py").read_text())
    assert unreached(sources, roots) == set()
