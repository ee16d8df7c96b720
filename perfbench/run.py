"""cvgec benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload coherent-sweep [--seed 1] [--seconds 30] [--trace 0]

Run from anywhere; the package is taken from ``src/`` next to this
directory.  The benchmark process starts the program's commands one after
another (a closed loop with one client), each as its own Python process
with BLAS threads set to 1, and repeats whole passes of the workload until
``--seconds`` have gone by (at least three).  Every output is checked by
:mod:`checks`; an operation whose command fails or whose output is wrong
counts as failed.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``run_s`` and
  ``peak_rss_mb``, medians over the run.  The lines before it give the
  workload's own timings (sweep, search, trace, synth and N-channel
  times) under the names the README lists.
* ``--trace 1``: untraced and traced passes alternate; the result holds
  the per-layer metrics of the traced passes and ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
#: A single program process may run this long before it is killed.
OP_TIMEOUT_S = 150.0
MIB = 1024.0 * 1024.0

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

#: Per-layer metrics of the traced run, with units; all are better lower.
PER_LAYER = tuple(
    [(f"{layer}.{m}", u) for layer in LAYERS for m, u in (("self_s", "s"), ("calls", "count"))]
    + [
        ("states.GaussianState.calls", "count"),
        ("states.constructions_per_point", "count/point"),
        ("transforms.apply.calls", "count"),
        ("transforms.two_mode_squeezed.calls", "count"),
        ("channel.apply_channel.calls", "count"),
        ("channel.modes_out_mean", "modes"),
        ("protocol.corrected_channel.calls", "count"),
        ("protocol.uncorrected_channel.calls", "count"),
        ("protocol.incoherent_strategy.calls", "count"),
        ("protocol.n_channel_protocol_s", "s"),
        ("fidelity.fidelity.calls", "count"),
        ("analysis.golden_section.calls", "count"),
        ("analysis.evals_per_breaking_point", "count/solve"),
        ("analysis.write_sweep_csv_s", "s"),
        ("montecarlo.sample_run_s", "s"),
        ("montecarlo.write_trace_csv_s", "s"),
        ("montecarlo.csv_mb", "MB"),
        ("network.decompose_network_s", "s"),
        ("network.NetworkPlan.calls", "count"),
        ("trace.overhead_s", "s"),
    ]
)

_ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    PYTHONHASHSEED="0",
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    VECLIB_MAXIMUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
)


def spawn(cmd: list, workdir: Path) -> dict:
    """Run one program process to its end; wall time, peak RSS and output."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_ENV, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss * 1024.0 / MIB,
        "code": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def setup_time(workdir: Path) -> float:
    """Wall time of ``cvgec --version``: interpreter start plus import."""
    res = spawn([sys.executable, "-m", "cvgec.cli", "--version"], workdir)
    if res["code"] != 0 or not res["stdout"].startswith("cvgec "):
        raise RuntimeError(f"cvgec --version failed: {res['stderr'].strip()}")
    return res["wall_s"]


def command(op: workloads.Op, index: int, workdir: Path, spans: Path | None) -> list:
    traced = ["--spans", str(spans)] if spans else []
    if op.kind == "api":
        tasks = workdir / f"tasks-{index}.json"
        child = [sys.executable, str(HERE / "child.py"), "api"]
        return child + traced + ["--tasks", str(tasks), "--out", op.outputs[0]]
    if spans:
        return [sys.executable, str(HERE / "child.py"), "cli", *traced, "--", *op.argv]
    return [sys.executable, "-m", "cvgec.cli", *op.argv]


def check(op: workloads.Op, res: dict) -> list[list[str]]:
    """Errors of each operation that ``op`` stands for (empty when right).

    Also stores on ``res`` what the metrics need from the outputs: the
    API tasks' own times and the trace CSV's size.
    """
    if res["code"] != 0:
        error = f"{op.kind} exited {res['code']}: {res['stderr'].strip()[-300:]}"
        return [[error]] * op.count
    if op.kind == "api":
        with open(op.outputs[0]) as fh:
            results = json.load(fh)
        if len(results) != len(op.tasks):
            return [["api: results do not match the tasks"]] * op.count
        per_task = []
        for task, result in zip(op.tasks, results):
            if task["op"] == "breaking_point":
                per_task.append(checks.check_breaking_task(result, task))
            else:
                per_task.append(checks.check_n_channel(result, task))
        res["task_seconds"] = [(t["op"], r["seconds"]) for t, r in zip(op.tasks, results)]
        return per_task
    errors = []
    for path in op.outputs:
        if path.endswith(".manifest.json"):
            with open(path) as fh:
                if json.load(fh).get("command") != op.argv[0]:
                    errors.append(f"{op.kind}: manifest names another command")
    text = Path(op.outputs[0]).read_text() if op.outputs else ""
    if op.kind == "sweep-coherent":
        errors += checks.check_sweep_coherent(text, op.params)
    elif op.kind == "sweep-entangle":
        errors += checks.check_sweep_entangle(text, res["stdout"], op.params)
    elif op.kind == "optimize":
        errors += checks.check_optimize(res["stdout"], op.params)
    elif op.kind == "trace":
        res["csv_bytes"] = len(text)
        errors += checks.check_trace(text, op.params)
    elif op.kind == "synth":
        manifest = Path(op.outputs[1]).read_text()
        errors += checks.check_synth(text, res["stdout"], manifest, op.params["patterns"])
    return [errors]


def run_pass(ops: list, workdir: Path, traced: bool) -> dict:
    """Run every operation once, then check and delete the outputs.

    Only the program processes are inside ``wall_s``; checks run after.
    """
    results = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        spans = workdir / f"spans-{index}.json" if traced else None
        res = spawn(command(op, index, workdir, spans), workdir)
        if spans is not None and spans.exists():
            res["spans"] = json.loads(spans.read_text())
            spans.unlink()
        results.append(res)
    wall = time.perf_counter() - start
    errors = []
    for op, res in zip(ops, results):
        try:
            errors += check(op, res)
        except Exception as exc:  # a broken output fails its check, not the run
            errors += [[f"{op.kind}: output unreadable ({exc!r})"]] * op.count
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
    return {"wall_s": wall, "ops": list(zip(ops, results)), "errors": errors}


def workload_metrics(passes: list) -> dict:
    """The workload's own timings over every untraced pass of the run.

    Times per operation are the median over passes of the pass's mean, so
    a family that mixes sizes (three synth meshes, two breaking-point
    strategies) is not split between its clusters; rates are totals.
    """
    per_pass: dict[str, list] = {}
    totals: dict[str, float] = {}
    for p in passes:
        family: dict[str, list] = {}
        for op, res in p["ops"]:
            family.setdefault(op.kind, []).append(res["wall_s"])
            for name, seconds in res.get("task_seconds", []):
                family.setdefault(name, []).append(seconds)
            if op.kind.startswith("sweep-"):
                totals["points"] = totals.get("points", 0) + op.params["eps_steps"]
                totals["sweep_s"] = totals.get("sweep_s", 0.0) + res["wall_s"]
            if op.kind == "trace":
                totals["shots"] = totals.get("shots", 0) + op.params["n"]
                totals["trace_s"] = totals.get("trace_s", 0.0) + res["wall_s"]
        for name, times in family.items():
            per_pass.setdefault(name, []).append(sum(times) / len(times))
    out = {}
    if "points" in totals:
        out["sweep_points_per_s"] = (totals["points"] / totals["sweep_s"], "points/s")
    for family, name in (
        ("sweep-coherent", "sweep_coherent_s"),
        ("sweep-entangle", "sweep_entangle_s"),
        ("breaking_point", "breaking_point_s"),
        ("optimize", "optimize_s"),
        ("trace", "trace_s"),
        ("synth", "synth_s"),
        ("n_channel", "n_channel_s"),
    ):
        if family in per_pass:
            out[name] = (statistics.median(per_pass[family]), "s")
    if "shots" in totals:
        out["trace_shots_per_s"] = (totals["shots"] / totals["trace_s"], "shots/s")
    return out


def layer_metrics(traced_pass: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its processes."""
    layers = {layer: [0.0, 0] for layer in LAYERS}
    names: dict[str, list] = {}
    totals = {"sweep_points": 0, "constructions_in_sweep": 0, "breaking_evals": 0, "modes_out": 0}
    csv_bytes = 0
    for op, res in traced_pass["ops"]:
        csv_bytes += res.get("csv_bytes", 0)
        summary = res.get("spans")
        if summary is None:
            continue
        for layer, entry in summary["layers"].items():
            layers[layer][0] += entry["self_s"]
            layers[layer][1] += entry["calls"]
        for name, entry in summary["names"].items():
            acc = names.setdefault(name, [0, 0.0])
            acc[0] += entry["calls"]
            acc[1] += entry["total_s"]
        for key in totals:
            totals[key] += summary[key]

    def calls(name):
        return names.get(name, [0, 0.0])[0]

    def seconds(name):
        return names.get(name, [0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, (self_s, n_calls) in layers.items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = n_calls
    for name in (
        "states.GaussianState",
        "transforms.apply",
        "transforms.two_mode_squeezed",
        "channel.apply_channel",
        "protocol.corrected_channel",
        "protocol.uncorrected_channel",
        "protocol.incoherent_strategy",
        "fidelity.fidelity",
        "analysis.golden_section",
        "network.NetworkPlan",
    ):
        out[f"{name}.calls"] = calls(name)
    out["states.constructions_per_point"] = ratio(
        totals["constructions_in_sweep"], totals["sweep_points"]
    )
    out["channel.modes_out_mean"] = ratio(totals["modes_out"], calls("channel.apply_channel"))
    out["analysis.evals_per_breaking_point"] = ratio(
        totals["breaking_evals"], calls("analysis.entanglement_breaking_point")
    )
    for name in (
        "protocol.n_channel_protocol",
        "analysis.write_sweep_csv",
        "montecarlo.sample_run",
        "montecarlo.write_trace_csv",
        "network.decompose_network",
    ):
        out[f"{name}_s"] = seconds(name)
    out["montecarlo.csv_mb"] = csv_bytes / MIB
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cvgec" / "__init__.py").is_file():
        print(f"error: no cvgec package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        for index, op in enumerate(ops):
            if op.kind == "api":
                (workdir / f"tasks-{index}.json").write_text(json.dumps(op.tasks))
        setup = [setup_time(workdir) for _ in range(SETUP_REPEATS)]
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(ops, workdir, traced=False))
            if args.trace:
                traced.append(run_pass(ops, workdir, traced=True))
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and len(plain) >= (1 if args.trace else MIN_PASSES):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    every = plain + traced
    attempted = sum(op.count for p in every for op, _ in p["ops"])
    op_errors = [e for p in every for e in p["errors"]]
    failed = sum(1 for e in op_errors if e)
    for errors in [e for e in op_errors if e][:10]:
        print("check failed: " + "; ".join(errors), file=sys.stderr)

    run_s = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - run_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(
                max(res["rss_mb"] for _, res in p["ops"]) for p in plain
            ),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, (value, unit) in workload_metrics(plain).items():
            print(f"{name} = {value!r} {unit}")
    print(f"passes = {len(plain)} untraced, {len(traced)} traced; operations per pass = "
          f"{sum(op.count for op in ops)}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
