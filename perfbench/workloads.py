"""The benchmark's workloads: seeded inputs and the operations of one pass.

A pass is a fixed list of operations.  Each operation is either one
``cvgec`` command or one child process running library calls (API
tasks).  The seed draws the physical parameters, pattern files and trace
seed; it never changes how many operations a pass holds, how many noise
points, shots or channels each one has, or which code path it takes, so
the work of a pass is the same on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

#: Noise points per sweep command.
COHERENT_STEPS = 300
ENTANGLE_STEPS = 60
#: Shots per trace command.
TRACE_SHOTS = 100_000
#: Channel counts of the synth pattern files; each holds N/2 patterns.
SYNTH_CHANNELS = (24, 36, 48)
#: n_channel_protocol size: N channels, K noise patterns.
N_CHANNEL = (32, 8)


@dataclass
class Op:
    """One operation of a pass.

    ``kind`` names the metric family ("sweep-coherent", "sweep-entangle",
    "optimize", "trace", "synth" or "api").  CLI operations carry the
    cvgec arguments; API operations carry their tasks, one library call
    each.  ``outputs`` are the files the operation writes.
    """

    kind: str
    argv: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def count(self) -> int:
        """Operations this entry stands for: one per command or API call."""
        return len(self.tasks) if self.kind == "api" else 1


def _f(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def coherent_sweep(rng, workdir: Path) -> list[Op]:
    """Four sweep-coherent commands, two at xi = 0 and two at small xi."""
    ops = []
    for k in range(4):
        p = {
            "g_ratio": _log_uniform(rng, 0.3, 3.0),
            "eta": float(rng.uniform(0.6, 1.0)),
            "xi": 0.0 if k % 2 == 0 else float(rng.uniform(0.005, 0.05)),
            "amplitude": [float(a) for a in rng.uniform(-3.0, 3.0, 2)],
            "eps_max": float(rng.uniform(10.0, 60.0)),
            "eps_steps": COHERENT_STEPS,
        }
        out = str(workdir / f"coherent-{k}.csv")
        argv = [
            "sweep-coherent", "--g-ratio", _f(p["g_ratio"]), "--eta", _f(p["eta"]),
            "--xi", _f(p["xi"]), "--amplitude", *map(_f, p["amplitude"]),
            "--eps-max", _f(p["eps_max"]), "--eps-steps", str(p["eps_steps"]), "--out", out,
        ]
        ops.append(Op("sweep-coherent", argv, p, outputs=[out, out + ".manifest.json"]))
    return ops


def entangle_search(rng, workdir: Path) -> list[Op]:
    """Two sweep-entangle commands, two API breaking-point solves and two
    optimize --objective fidelity commands.

    eta stays in [0.6, 0.98], so the uncorrected breaking point 2 eta lies
    in (1, 2] and every uncorrected search makes the same bisection steps;
    the corrected breaking point eta (1 + g) / xi is drawn in [36, 60], so
    its search brackets the same octave on every seed.
    """
    ops = []
    for k in range(2):
        p = {
            "r": float(rng.uniform(0.2, 1.5)),
            "g_ratio": _log_uniform(rng, 0.3, 3.0),
            "eta": float(rng.uniform(0.6, 0.98)),
            "xi": 0.0 if k == 0 else float(rng.uniform(0.005, 0.05)),
            "eps_max": float(rng.uniform(5.0, 40.0)),
            "eps_steps": ENTANGLE_STEPS,
        }
        out = str(workdir / f"entangle-{k}.csv")
        argv = [
            "sweep-entangle", "--r", _f(p["r"]), "--g-ratio", _f(p["g_ratio"]),
            "--eta", _f(p["eta"]), "--xi", _f(p["xi"]), "--eps-max", _f(p["eps_max"]),
            "--eps-steps", str(p["eps_steps"]), "--out", out,
        ]
        ops.append(Op("sweep-entangle", argv, p, outputs=[out, out + ".manifest.json"]))

    tasks = []
    for strategy in ("uncorrected", "corrected"):
        g = _log_uniform(rng, 0.3, 3.0)
        eta = float(rng.uniform(0.6, 0.98))
        if strategy == "uncorrected":
            xi = float(rng.uniform(0.005, 0.05))
        else:
            xi = eta * (1.0 + g) / float(rng.uniform(36.0, 60.0))
        tasks.append({
            "op": "breaking_point", "strategy": strategy, "g_ratio": g, "eta": eta,
            "xi": xi, "r": float(rng.uniform(0.2, 1.5)),
        })
    results = str(workdir / "breaking.json")
    ops.append(Op("api", tasks=tasks, outputs=[results]))

    for k in range(2):
        p = {
            "g1": _log_uniform(rng, 0.3, 3.0),
            "g2": float(rng.uniform(0.5, 2.0)),
            "xi": 0.0 if k == 0 else float(rng.uniform(0.01, 0.1)),
            "eta": float(rng.uniform(0.6, 1.0)),
            "eps": float(rng.uniform(5.0, 40.0)),
        }
        argv = [
            "optimize", "--g1", _f(p["g1"]), "--g2", _f(p["g2"]), "--xi", _f(p["xi"]),
            "--eta", _f(p["eta"]), "--eps", _f(p["eps"]), "--objective", "fidelity",
        ]
        ops.append(Op("optimize", argv, p))
    return ops


def trace_mesh(rng, workdir: Path) -> list[Op]:
    """One large trace, three synth pattern files and two N = 32
    n_channel_protocol calls.

    The trace runs at xi = 0 so that its corrected stage is pure loss.
    Pattern entries are Gaussian, so every signal vector is dense and each
    mesh has the same number of beam splitters on every seed.
    """
    p = {
        "eps": float(rng.uniform(5.0, 40.0)),
        "g_ratio": _log_uniform(rng, 0.3, 3.0),
        "eta": float(rng.uniform(0.6, 1.0)),
        "amplitude": [float(a) for a in rng.uniform(-3.0, 3.0, 2)],
        "n": TRACE_SHOTS,
        "seed": int(rng.integers(1, 2**31)),
    }
    out = str(workdir / "trace.csv")
    argv = [
        "trace", "--eps", _f(p["eps"]), "--g-ratio", _f(p["g_ratio"]), "--eta", _f(p["eta"]),
        "--xi", "0", "--amplitude", *map(_f, p["amplitude"]), "--n", str(p["n"]),
        "--seed", str(p["seed"]), "--out", out,
    ]
    ops = [Op("trace", argv, p, outputs=[out, out + ".manifest.json"])]

    for n in SYNTH_CHANNELS:
        patterns = np.round(rng.standard_normal((n // 2, n)), 6)
        path = workdir / f"patterns-{n}.txt"
        path.write_text("".join(" ".join(f"{x:.6f}" for x in row) + "\n" for row in patterns))
        plan = str(workdir / f"plan-{n}.txt")
        argv = ["synth", "--patterns", str(path), "--out", plan]
        params = {"patterns": patterns.tolist()}
        ops.append(Op("synth", argv, params, outputs=[plan, plan + ".manifest.json"]))

    n_ch, n_pat = N_CHANNEL
    tasks = []
    for _ in range(2):
        r = float(rng.uniform(0.2, 1.2))
        cov = checks.tmsv_pair_after(r, 1.0, 0.0)
        mean = [0.0, 0.0, *(float(a) for a in rng.uniform(-3.0, 3.0, 2))]
        tasks.append({
            "op": "n_channel",
            "patterns": rng.standard_normal((n_pat, n_ch)).tolist(),
            "variances": rng.uniform(0.1, 5.0, n_pat).tolist(),
            "eta": float(rng.uniform(0.6, 1.0)),
            "signal_mode": 1,
            "mean": mean,
            "cov": cov.tolist(),
        })
    ops.append(Op("api", tasks=tasks, outputs=[str(workdir / "n_channel.json")]))
    return ops


WORKLOADS = {
    "coherent-sweep": coherent_sweep,
    "entangle-search": entangle_search,
    "trace-mesh": trace_mesh,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``; writes the
    pattern files the operations read into ``workdir``."""
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[workload](rng, workdir)
