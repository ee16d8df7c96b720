"""The CI workflow installs what the package and its tests declare."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_ci_installs_the_dependencies_and_the_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    installs = re.findall(r"^\s*run: python -m pip install (.*)$", workflow, re.MULTILINE)
    assert [line.split() for line in installs] == [names + project["optional-dependencies"]["test"]]
