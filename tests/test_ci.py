"""The CI workflow installs what the package and its tests declare, tests
the oldest Python the package admits, and turns warnings into errors in
the tier-1 and README steps; the package reports the version its
metadata declares."""

import json
import re
from pathlib import Path

import pytest

import cvgec

ROOT = Path(__file__).resolve().parents[1]


def test_ci_installs_the_dependencies_and_the_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    installs = re.findall(r"^\s*run: python -m pip install (.*)$", workflow, re.MULTILINE)
    assert [line.split() for line in installs] == [names + project["optional-dependencies"]["test"]]


def test_ci_matrix_starts_at_the_oldest_python_the_package_admits():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (lower,) = re.findall(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.MULTILINE)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", workflow, re.MULTILINE)
    versions = re.findall(r'"(\d+\.\d+)"', matrix)
    assert versions[0] == lower
    assert versions == sorted(versions, key=lambda v: tuple(map(int, v.split("."))))


def workflow_step(name: str) -> str:
    """The text of the workflow step called ``name``, up to the next step."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.split(r"^      - ", workflow, flags=re.MULTILINE)
    (step,) = [s for s in steps if re.match(rf"name: {re.escape(name)}$", s, re.MULTILINE)]
    return step


def test_tier_1_step_runs_in_development_mode_with_warnings_as_errors():
    (run,) = re.findall(r"^\s*run: (.*)$", workflow_step("Tier-1 tests"), re.MULTILINE)
    assert re.search(r"\bpython -X dev -W error -m pytest\b", run)


def test_readme_step_turns_warnings_into_errors():
    step = workflow_step("README command-line examples")
    env = re.search(r"^        env:\n((?:          .*\n)+)", step, re.MULTILINE).group(1)
    assert "PYTHONWARNINGS: error" in [line.strip() for line in env.splitlines()]


def test_benchmark_smoke_step_runs_every_declared_workload():
    # a workload added to BENCHMARK.json must not silently skip CI
    step = workflow_step("Benchmark smoke runs")
    (loop,) = re.findall(r"^\s*for workload in (.*); do$", step, re.MULTILINE)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert loop.split() == [workload["name"] for workload in declared]


def test_package_version_is_the_declared_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert cvgec.__version__ == project["version"]
