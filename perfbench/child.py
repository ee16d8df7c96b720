"""Benchmark child process: one cvgec command, or a list of API tasks.

    python perfbench/child.py cli [--spans FILE] -- <cvgec arguments>
    python perfbench/child.py api --tasks FILE --out FILE [--spans FILE]

With ``--spans`` the process runs under :class:`tracer.Tracer` and writes
the span summary to FILE when it ends.  API tasks are timed one by one
around the single library call they name; the results file holds each
task's time and the outputs the benchmark checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans")
    cli.add_argument("command", nargs=argparse.REMAINDER)
    api = sub.add_parser("api")
    api.add_argument("--spans")
    api.add_argument("--tasks", required=True)
    api.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if args.mode == "cli":
            import cvgec.cli

            command = args.command[1:] if args.command[:1] == ["--"] else args.command
            return cvgec.cli.main(command)
        with open(args.tasks) as fh:
            tasks = json.load(fh)
        results = [run_task(task) for task in tasks]
        with open(args.out, "w") as fh:
            json.dump(results, fh)
        return 0
    finally:
        if tracer is not None:
            with open(args.spans, "w") as fh:
                json.dump(tracer.summary(), fh)


def run_task(task: dict) -> dict:
    import numpy as np

    from cvgec import analysis, channel, protocol, states, transforms

    if task["op"] == "breaking_point":
        g, eta, xi = task["g_ratio"], task["eta"], task["xi"]
        start = time.perf_counter()
        value = analysis.entanglement_breaking_point(g, eta, xi, task["strategy"])
        seconds = time.perf_counter() - start
        # The output pair at the breaking point, for the physicality check.
        model = channel.standard_two_channel(value, g, eta, xi)
        t = protocol.optimal_splitting_for(model)
        cfg = protocol.ProtocolConfig(t, t, model)
        pair = transforms.two_mode_squeezed(task["r"])
        if task["strategy"] == "corrected":
            out = protocol.corrected_channel(cfg, pair, signal_mode=1)
        else:
            out = protocol.uncorrected_channel(cfg, pair, signal_mode=1, channel=0)
        return {"seconds": seconds, "value": value, "cov": out.cov.tolist()}
    if task["op"] == "n_channel":
        state = states.GaussianState(np.array(task["mean"]), np.array(task["cov"]))
        patterns = [np.array(p) for p in task["patterns"]]
        start = time.perf_counter()
        out = protocol.n_channel_protocol(
            patterns, task["eta"], task["variances"], state, signal_mode=task["signal_mode"]
        )
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "mean": out.mean.tolist(), "cov": out.cov.tolist()}
    raise ValueError(f"unknown task {task['op']!r}")


if __name__ == "__main__":
    sys.exit(main())
