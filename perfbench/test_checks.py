"""The output checks bite: real outputs pass, one moved value fails.

Runs one pass of every workload on seed 1 through the program, then
feeds each checker the real output and a copy with one value moved past
the check's tolerance (or one plan line dropped).

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads


@pytest.fixture(scope="module")
def outputs():
    """Every operation of seed 1, run once: (op, spawn result, files)."""
    root = run.HERE / "_out" / f"test-{os.getpid()}"
    done = []
    try:
        for workload in workloads.WORKLOADS:
            workdir = root / workload
            workdir.mkdir(parents=True)
            ops = workloads.build(workload, 1, workdir)
            for index, op in enumerate(ops):
                if op.kind == "api":
                    (workdir / f"tasks-{index}.json").write_text(json.dumps(op.tasks))
                res = run.spawn(run.command(op, index, workdir, None), workdir)
                assert res["code"] == 0, res["stderr"]
                files = {path: Path(path).read_text() for path in op.outputs}
                done.append((op, res, files))
        yield done
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            root.parent.rmdir()
        except OSError:
            pass  # a benchmark run is still using it


def pick(outputs, kind):
    return [(op, res, files) for op, res, files in outputs if op.kind == kind]


def set_cell(text: str, row: int, column: str, value) -> str:
    lines = text.split("\n")
    k = checks.SWEEP_COLUMNS.index(column)
    cells = lines[row + 1].split(",")
    cells[k] = repr(value(float(cells[k])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def nudge(x: float) -> float:
    """Moved by 1e-7 relative: a hundred times the closed-form tolerance."""
    return x * (1.0 + 1e-7)


def test_every_real_output_passes(outputs):
    for op, res, _ in outputs:
        assert run.check(op, res) == [[]] * op.count, op.kind


def test_sweep_coherent_rejects_moved_values(outputs):
    for op, _, files in pick(outputs, "sweep-coherent"):
        text = files[op.outputs[0]]
        assert checks.check_sweep_coherent(text, op.params) == []
        for row in (0, 7):
            for column in checks.SWEEP_COLUMNS[1:8]:
                if column == "fid_incoh" and op.params["xi"] > 0 and row > 0:
                    continue  # checked against a bracket, which is closed only at eps = 0
                moved = set_cell(text, row, column, nudge)
                assert checks.check_sweep_coherent(moved, op.params), (row, column)
        moved = set_cell(text, 7, "insep_corr", lambda x: 2.0)
        assert checks.check_sweep_coherent(moved, op.params)


def test_sweep_entangle_rejects_moved_values(outputs):
    for op, res, files in pick(outputs, "sweep-entangle"):
        text = files[op.outputs[0]]
        stdout = res["stdout"]
        assert checks.check_sweep_entangle(text, stdout, op.params) == []
        for column in ("var_x_corr_snu", "var_p_uncorr_snu", "insep_corr", "insep_uncorr"):
            moved = set_cell(text, 30, column, nudge)
            assert checks.check_sweep_entangle(moved, stdout, op.params), column
        value = float(stdout.split(":")[1].split()[0])
        moved_out = f"uncorrected breaking point: {value + 2e-6!r} SNU\n"
        assert checks.check_sweep_entangle(text, moved_out, op.params)


def test_breaking_points_reject_moved_values(outputs):
    (op, _, files), = pick(outputs, "api")[:1]
    results = json.loads(files[op.outputs[0]])
    for task, result in zip(op.tasks, results):
        assert checks.check_breaking_task(result, task) == []
        moved = dict(result, value=result["value"] + 2e-6)
        assert checks.check_breaking_task(moved, task)
        cov = np.array(result["cov"])
        cov[1, 3] *= 1.0 + 1e-6
        assert checks.check_breaking_task(dict(result, cov=cov.tolist()), task)


def test_optimize_rejects_moved_values(outputs):
    for op, res, _ in pick(outputs, "optimize"):
        out = json.loads(res["stdout"])
        assert checks.check_optimize(res["stdout"], op.params) == []
        moved = dict(out, objective_value=nudge(out["objective_value"]))
        assert checks.check_optimize(json.dumps(moved), op.params)
        if op.params["xi"] == 0.0:
            moved = dict(out, T_d=out["T_d"] + 2e-6)
            assert checks.check_optimize(json.dumps(moved), op.params)


def test_trace_rejects_a_moved_sample(outputs):
    (op, _, files), = pick(outputs, "trace")
    text = files[op.outputs[0]]
    assert checks.check_trace(text, op.params) == []
    lines = text.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("corrected,P,"))
    stage, quad, index, value = lines[k].split(",")
    lines[k] = ",".join([stage, quad, index, repr(float(value) + 1e4)])
    assert checks.check_trace("\n".join(lines), op.params)


def test_synth_rejects_a_dropped_plan_line(outputs):
    for op, res, files in pick(outputs, "synth"):
        plan, manifest = files[op.outputs[0]], files[op.outputs[1]]
        patterns = op.params["patterns"]
        assert checks.check_synth(plan, res["stdout"], manifest, patterns) == []
        lines = plan.split("\n")
        for kind in ("BS", "PS"):
            k = max(i for i, line in enumerate(lines) if line.startswith(kind))
            dropped = "\n".join(lines[:k] + lines[k + 1:])
            assert checks.check_synth(dropped, res["stdout"], manifest, patterns), kind


def test_n_channel_rejects_moved_values(outputs):
    (op, _, files), = pick(outputs, "api")[1:]
    results = json.loads(files[op.outputs[0]])
    for task, result in zip(op.tasks, results):
        assert checks.check_n_channel(result, task) == []
        cov = np.array(result["cov"])
        cov[2, 2] += 1e-6
        assert checks.check_n_channel(dict(result, cov=cov.tolist()), task)
        mean = list(result["mean"])
        mean[3] += 1e-6
        assert checks.check_n_channel(dict(result, mean=mean), task)


# Beyond r = 6 the float64 entries cosh(2r)/2 and sinh(2r)/2 no longer
# resolve their difference, so no computation on the matrix can recover nu.
@pytest.mark.parametrize("r", [0.5, 2.0, 4.0, 6.0])
def test_symplectic_spectrum_of_squeezed_pairs(r):
    nu = checks.symplectic_spectrum(checks.tmsv_pair_after(r, 1.0, 0.0))
    assert np.allclose(nu, 0.5, rtol=1e-5)
    lossy = checks.symplectic_spectrum(checks.tmsv_pair_after(r, 0.5, 0.0))
    assert lossy.min() >= 0.5 - checks.PHYSICALITY_TOL


def test_unphysical_states_are_rejected():
    squeezed_too_far = np.diag([0.2, 0.5])
    assert checks.check_physical("x", squeezed_too_far)
    assert checks.check_physical("x", -np.eye(2))
    assert checks.check_physical("x", 0.5 * np.eye(2)) == []


def test_closed_forms_agree_with_each_other():
    # The corrected breaking point is where the Duan infimum reaches 2.
    g, eta, xi = 1.7, 0.8, 0.03
    eps = checks.breaking_point("corrected", g, eta, xi)
    noise = 2.0 * xi * eps / (1.0 + g)
    r_opt = 0.5 * math.atanh(2.0 * math.sqrt(eta) / (1.0 + eta))
    assert checks.duan_number(r_opt, eta, noise) == pytest.approx(2.0, rel=1e-12)
    # At the optimal splitting the closed-form fidelity is pure loss.
    t = 1.0 / (1.0 + g)
    f = checks.splitter_fidelity(t, t, g, 1.0, 0.0, eta, 30.0)
    assert f == pytest.approx(float(checks.coherent_fidelity(1.0, 4.0 * (1 - math.sqrt(eta)) ** 2)))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
