"""Spans around the public functions and dataclass constructors of cvgec.

The tracer replaces, in every cvgec module namespace, each public
function with a wrapper that records a span (name, parent span, start,
end), and wraps the ``__init__`` of each public dataclass so that every
construction is a span too.  Nothing in the package changes on disk; the
wrappers live only in the traced process.  Spans stay in memory until
:meth:`Tracer.summary` reduces them to per-layer and per-name totals.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

#: The package's modules, in the order the benchmark reports them.
LAYERS = (
    "cli",
    "analysis",
    "protocol",
    "channel",
    "transforms",
    "states",
    "fidelity",
    "network",
    "montecarlo",
)

_SWEEPS = ("analysis.coherent_sweep", "analysis.entanglement_sweep")
_BREAKING = "analysis.entanglement_breaking_point"
_EVALS = ("protocol.corrected_channel", "protocol.uncorrected_channel")
_IN_SWEEP, _IN_BREAKING = 1, 2


class Tracer:
    """Records one span per wrapped call made in this process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.sweep_points = 0
        self.modes_out = 0

    def wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and dataclass of the layer modules."""
        hooks = {
            "channel.apply_channel": self._count_modes,
            "analysis.coherent_sweep": self._count_points,
            "analysis.entanglement_sweep": self._count_points,
        }
        package = importlib.import_module("cvgec")
        modules = [importlib.import_module(f"cvgec.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    obj.__init__ = self.wrap(name, obj.__init__)
        # Modules import functions by name, so every namespace that holds
        # an original gets the wrapper.
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _count_modes(self, state) -> None:
        self.modes_out += state.n_modes

    def _count_points(self, result) -> None:
        self.sweep_points += int(result.axis.size)

    def summary(self) -> dict:
        """Per-layer self time and calls, per-name calls and inclusive time,
        and the counters the benchmark turns into ratios."""
        n = len(self.spans)
        child_time = [0.0] * n
        flags = [0] * n
        own_flag = [
            _IN_SWEEP if name in _SWEEPS else _IN_BREAKING if name == _BREAKING else 0
            for name in self.names
        ]
        for i, (nid, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                flags[i] = flags[parent] | own_flag[self.spans[parent][0]]
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        names: dict[str, dict] = {}
        constructions_in_sweep = 0
        breaking_evals = 0
        for i, (nid, parent, start, end) in enumerate(self.spans):
            name = self.names[nid]
            layer = layers[name.split(".", 1)[0]]
            layer["self_s"] += (end - start) - child_time[i]
            layer["calls"] += 1
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            if name == "states.GaussianState" and flags[i] & _IN_SWEEP:
                constructions_in_sweep += 1
            if name in _EVALS and flags[i] & _IN_BREAKING:
                breaking_evals += 1
        return {
            "layers": layers,
            "names": names,
            "sweep_points": self.sweep_points,
            "constructions_in_sweep": constructions_in_sweep,
            "breaking_evals": breaking_evals,
            "modes_out": self.modes_out,
        }
