"""Every top-level function and class under ``src/`` is reached by the
program, not only by the tests, and so is every default parameter.

A stdlib ``ast`` walk to a fixpoint.  The roots are the code that runs
without being named: each module's top-level statements other than
definitions (they run on import), dunder functions (the interpreter calls
them), the console scripts of ``pyproject.toml`` and every name that
``perfbench/child.py`` calls.  A definition is reached once reached code
reads its name, as a name or as an attribute, and then its whole body is
reached, a class's methods included.  Names match by spelling alone, so
the walk can only over-approximate: a definition it reports is read by
nothing the commands, the layers or the benchmark's calls run.

A parameter with a default is passed once some call in ``src/`` or in
``perfbench/child.py`` to a function of its name passes it, by keyword, by
position (a method's ``self`` or ``cls`` is not counted), or through
``*args`` or ``**kwargs``.  A parameter no such call passes is an option
only the tests set, or one nothing sets.
"""

import ast
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cvgec"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


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


def default_parameters(source: str) -> set[tuple[str, str, int | None]]:
    """(function, parameter, position) of each parameter with a default of
    each function in ``source``; the position is None for keyword-only ones
    and does not count a method's first parameter."""
    tree = ast.parse(source)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS)
        and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            skip = 1 if id(node) in methods else 0
            for i, arg in enumerate(positional[first:], start=first):
                found.add((node.name, arg.arg, i - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.add((node.name, arg.arg, None))
    return found


def passed_parameters(sources: list[str]) -> dict[str, list[tuple[float, set]]]:
    """Function name -> (positional count, keyword names) of each call in
    ``sources``; ``*args`` counts as every position and ``**kwargs`` as the
    keyword None."""
    found = {}
    for n in (n for source in sources for n in ast.walk(ast.parse(source))):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            count = math.inf if starred else len(n.args)
            found.setdefault(name, []).append((count, {k.arg for k in n.keywords}))
    return found


def unpassed(sources: dict[str, str], callers: list[str]) -> set[tuple[str, str, str]]:
    """(module, function, parameter) of each default parameter in ``sources``
    that no call in ``callers`` passes."""
    calls = passed_parameters(callers)
    return {
        (module, function, parameter)
        for module, source in sources.items()
        for function, parameter, position in default_parameters(source)
        if not any(
            parameter in keywords or None in keywords or (position is not None and count > position)
            for count, keywords in calls.get(function, ())
        )
    }


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


@pytest.mark.parametrize(
    "source, callers, expected",
    [
        ("def f(a, b=1): pass\n", ["f(0, 2)\n"], set()),
        ("def f(a, b=1): pass\n", ["f(0, b=2)\n"], set()),
        ("def f(a, b=1): pass\n", ["f(0)\n"], {("m", "f", "b")}),
        ("def f(a, *, b=1): pass\n", ["f(0, 2)\n"], {("m", "f", "b")}),
        ("def f(a, b=1): pass\n", ["f(*args)\n"], set()),
        ("def f(a, b=1): pass\n", ["f(**kw)\n"], set()),
        ("class C:\n    def m(self, a=1): pass\n", ["c.m(2)\n"], set()),
        ("class C:\n    def m(self, a, b=1): pass\n", ["c.m(2)\n"], {("m", "m", "b")}),
        ("def f(a=1): pass\ndef g(a=1): pass\n", ["f(a=1)\n"], {("m", "g", "a")}),
        ("def f():\n    def g(a=1): pass\n", ["x.g(2)\n"], set()),
    ],
    ids=[
        "position", "keyword", "unpassed", "keyword-only", "star", "double star", "method",
        "method self", "other name", "nested",
    ],
)
def test_parameter_walk_reports_exactly_the_unpassed_defaults(source, callers, expected):
    assert unpassed({"m": source}, callers) == expected


def test_src_has_no_definition_only_the_tests_reach():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = re.findall(r'^\w+\s*=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    roots = set(scripts) | called_names((ROOT / "perfbench" / "child.py").read_text())
    assert unreached(sources, roots) == set()


def test_src_has_no_default_parameter_only_the_tests_pass():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [*sources.values(), (ROOT / "perfbench" / "child.py").read_text()]
    assert unpassed(sources, callers) == set()
