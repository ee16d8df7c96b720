"""Command-line front end: reproducible sweeps, traces and synthesis.

Every command that writes files also writes a JSON manifest alongside
(``<out>.manifest.json``) echoing the full parameter set, seed, tool
version, output list and the conventions in force, so a run can be
reproduced byte-for-byte.  A run writes each file to a temporary name and
renames them only once all of them exist, so an error leaves no partial
file and no manifest beside data it does not describe.

Exit codes: 0 success, 2 usage error, 3 domain error (e.g. no protected
subspace), 4 I/O error.

Each flag is declared once, in ``_FLAGS``; ``_COMMANDS`` lists the flags of
each command and what differs for it.  ``_write_outputs`` writes every file
a command makes, and the manifest lists exactly those.

Each command imports only the layers it runs, inside its handler:

* ``sweep-coherent``, ``sweep-entangle`` and ``optimize``: analysis, and
  through it fidelity, protocol, channel, transforms and states;
* ``trace``: montecarlo and protocol, with channel, transforms and states;
* ``synth``: network and patterns, which need numpy alone.

``--version`` and ``--help`` load no layer and no numpy.

The channel is one model: ``--channel-config`` as written, or else built
from ``--g-ratio``, ``--eta`` and ``--xi``.  ``trace`` runs it at ``--eps``;
the sweeps scale it to 1 SNU of channel-1 excess noise, and their noise axis
multiplies every source variance.  Manifests echo the model that ran.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile

from . import __version__

#: Conventions echoed into every manifest and all --help texts.
CONVENTIONS = {
    "snu": "shot-noise units: variance / 0.5, the vacuum quadrature variance in natural units",
    "beam_splitter_sign": (
        "pi_flip: a unit amplitude pair (c, s) of either sign, T = c^2, is the mode matrix"
        " ((c, -s), (-s, -c))"
    ),
    "port_labeling": (
        "the sweeps encode into the protected mode u, orthogonal to every source coupling, with the"
        " mirror of u (the reflection swapping e_0 and u), which as its own inverse also decodes;"
        " trace's u is (c, -s) of the noise-cancelling pair; the signal exits the first decoder port"
    ),
    "noise_axis": "eps is channel 1's excess noise in SNU at the channel output, before detection",
    "uncorrected_reference": "direct transmission through channel 1, no encoding",
    "inseparability": "Var(x1-x2) + Var(p1+p2) in natural units; entangled below 2",
}

_EPILOG = "Units and conventions:\n" + "\n".join(
    f"  {key}: {value}" for key, value in CONVENTIONS.items()
)
#: The help layout of cvgec and of every subcommand.
_HELP_FORMAT = {"epilog": _EPILOG, "formatter_class": argparse.RawDescriptionHelpFormatter}


class UsageError(Exception):
    """Bad flag values detected after parsing."""


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Looked up only now, so that main itself imports no layer.
        from .patterns import NoProtectedSubspaceError

        return 3 if isinstance(exc, NoProtectedSubspaceError) else 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


def _cmd_sweep_coherent(args) -> None:
    from .analysis import AUX_COLUMNS, SWEEP_COLUMNS, coherent_sweep, write_sweep_csv

    grid, model, swept = _sweep_inputs(args)
    result = coherent_sweep(swept, tuple(args.amplitude), grid)
    files = [
        (args.out, lambda fh: write_sweep_csv(result, fh, SWEEP_COLUMNS)),
        (args.out + ".aux.csv", lambda fh: write_sweep_csv(result, fh, AUX_COLUMNS)),
    ]
    extras = {
        "metadata": result.metadata,
        "columns": list(SWEEP_COLUMNS),
        "aux_columns": list(AUX_COLUMNS),
    }
    _write_outputs(args, files, extras, model=model)


def _cmd_sweep_entangle(args) -> None:
    from .analysis import SWEEP_COLUMNS, entanglement_sweep, write_sweep_csv

    grid, model, swept = _sweep_inputs(args)
    result = entanglement_sweep(swept, args.r, grid)
    metadata = dict(result.metadata)
    breaking = metadata.pop("uncorrected_breaking_point_snu")
    extras = {
        "metadata": metadata,
        "columns": list(SWEEP_COLUMNS),
        "uncorrected_breaking_point_snu": breaking,
    }
    _write_outputs(
        args, [(args.out, lambda fh: write_sweep_csv(result, fh))], extras, model=model,
        say=f"uncorrected breaking point: {format(breaking, '.17g')} SNU",
    )


def _cmd_trace(args) -> None:
    from .channel import dump_channel_config
    from .montecarlo import sample_run, stream_labels, write_trace_csv
    from .protocol import optimal_splitting_for

    _count(args.n, "--n")
    if args.modulation_period < 0:
        raise UsageError("--modulation-period must be nonnegative")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    model = _effective_channel(args, eps=args.eps)
    pair = optimal_splitting_for(model)
    records = sample_run(
        model,
        pair,
        args.n,
        args.seed,
        amplitude=tuple(args.amplitude),
        modulation_period=args.modulation_period,
    )
    extras = {
        "splitting": list(pair),
        "channel": dump_channel_config(model).splitlines(),
        "streams": list(stream_labels(model, pair)),
    }
    files = [(args.out, lambda fh: write_trace_csv(records, fh))]
    _write_outputs(args, files, extras, seed=args.seed, model=model)


def _cmd_synth(args) -> None:
    from .network import decompose_network, serialize_plan
    from .patterns import NoisePatternSet, mirror, null_space_encoder

    rows = []
    with open(args.patterns) as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            if raw.strip() and not raw.lstrip().startswith("#"):
                try:
                    rows.append([float(x) for x in raw.split()])
                except ValueError as exc:
                    raise ValueError(f"bad pattern line {lineno}: {raw!r}") from exc
    if not rows:
        raise UsageError("pattern file contains no vectors")
    patterns = NoisePatternSet(tuple(rows))
    signal = null_space_encoder(patterns)
    plan = decompose_network(mirror(signal))
    signal_line = " ".join(format(x, ".17g") for x in signal)
    text = serialize_plan(plan) + f"# signal {signal_line}\n"
    extras = {
        "signal": signal.tolist(),
        "n_channels": patterns.n_channels,
        "n_elements": len(plan.elements),
    }
    files = [(args.out, lambda fh: fh.write(text))]
    _write_outputs(args, files, extras, say=f"signal {signal_line}")


def _cmd_optimize(args) -> None:
    from .analysis import optimize_splitting

    pair, value = optimize_splitting(
        args.g1, args.g2, xi=args.xi, eta=args.eta,
        objective=args.objective, eps_snu=args.eps,
    )
    payload = {
        "T_e": pair[0] ** 2,
        "T_d": pair[0] ** 2,
        "objective": args.objective,
        "objective_value": value,
        "manifest": _manifest_payload(args),
    }
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


#: Every flag's add_argument keywords, declared once.  A command lists the
#: flags it takes, in --help order, and states only what differs for it.
_FLAGS = {
    "--r": {"type": _finite_float, "default": 0.5, "help": "input two-mode squeezing parameter"},
    "--eps": {"type": _finite_float, "help": "channel-1 excess noise, SNU"},
    "--g-ratio": {"type": _finite_float, "default": 1.0, "help": "noise asymmetry g1/g2"},
    "--g1": {"type": _finite_float, "required": True, "help": "channel-1 noise magnitude"},
    "--g2": {"type": _finite_float, "required": True, "help": "channel-2 noise magnitude"},
    "--eta": {"type": _finite_float, "default": 1.0, "help": "channel transmissivity"},
    "--xi": {"type": _finite_float, "default": 0.0, "help": "non-interfering noise fraction"},
    "--amplitude": {
        "type": _finite_float, "nargs": 2, "default": (2.0, 0.0), "metavar": ("X", "P"),
        "help": "input coherent amplitude, natural units",
    },
    "--eps-max": {"type": _finite_float, "default": 40.0, "help": "top of the noise axis, SNU"},
    "--eps-steps": {"type": int, "default": 41, "help": "number of grid points"},
    "--n": {"type": int, "default": 1000, "help": "number of shots"},
    "--seed": {"type": int, "default": 1, "help": "master seed"},
    "--modulation-period": {
        "type": int, "default": 0,
        "help": "sinusoidal input modulation period in samples (0 = constant)",
    },
    "--objective": {
        "choices": ("variance", "fidelity"), "default": "variance", "help": "quantity to optimize"
    },
    "--patterns": {"required": True, "help": "text file, one coupling vector per line"},
    "--channel-config": {"help": "load the channel from a config file instead"},
    "--dump-config": {
        "help": "also write the channel config here (source variance at a 10 SNU point)"
    },
    "--out": {"required": True, "help": "output CSV path"},
}

_SWEEP_FLAGS = ("--eps-max", "--eps-steps", "--channel-config", "--dump-config", "--out")

#: Subcommand -> (help, handler, flags in --help order).  A flag is a key of
#: _FLAGS, or a (key, keywords) pair that overrides what differs.
_COMMANDS = {
    "sweep-coherent": (
        "variance and fidelity vs channel noise for a coherent state", _cmd_sweep_coherent,
        (("--g-ratio", {"default": 0.61}), "--eta", "--xi", "--amplitude", *_SWEEP_FLAGS),
    ),
    "sweep-entangle": (
        "inseparability vs channel noise for an entangled pair", _cmd_sweep_entangle,
        ("--r", "--g-ratio", "--eta", "--xi", *_SWEEP_FLAGS),
    ),
    "trace": (
        "sampled quadrature traces per protocol stage", _cmd_trace,
        (
            ("--eps", {"default": 25.0}), "--g-ratio", "--eta", "--xi", "--amplitude", "--n",
            "--seed", "--modulation-period", "--channel-config",
            ("--dump-config", {"help": "also write the effective channel config here"}), "--out",
        ),
    ),
    "synth": (
        "protected signal mode and network plan from noise patterns", _cmd_synth,
        ("--patterns", ("--out", {"help": "output plan path"})),
    ),
    "optimize": (
        "closed-form best splitter settings", _cmd_optimize,
        ("--g1", "--g2", "--xi", "--eta", ("--eps", {"default": 10.0}), "--objective"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvgec",
        description="Correlated-noise Gaussian channel error correction toolkit",
        **_HELP_FORMAT,
    )
    parser.add_argument("--version", action="version", version=f"cvgec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, **_HELP_FORMAT)
        for flag in flags:
            flag, changes = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**_FLAGS[flag], **changes})
        p.set_defaults(func=handler)
    return parser


def _count(value: int, flag: str) -> None:
    """Refuse a count below 1, or one whose float array cannot be allocated
    (numpy's size limit or no address space); the probe touches no memory."""
    import numpy as np

    if value < 1:
        raise UsageError(f"{flag} must be at least 1")
    try:
        np.empty(value)
    except (MemoryError, ValueError):
        raise UsageError(f"{flag} {value} is more than an array can hold") from None


def _effective_channel(args, eps: float = 10.0):
    """The channel named on the command line: the --channel-config model as
    written, or else the flags' two-channel model at ``eps`` SNU of
    channel-1 excess noise."""
    from .channel import parse_channel_config, standard_two_channel

    if args.channel_config:
        with open(args.channel_config) as fh:
            return parse_channel_config(fh.read())
    return standard_two_channel(eps, args.g_ratio, args.eta, args.xi)


def _sweep_inputs(args):
    """A sweep's noise grid, the channel named on the command line, and the
    model the sweep runs: the flags' model at 1 SNU, or the config with every
    source variance divided by its channel-1 excess noise in SNU."""
    from dataclasses import replace

    import numpy as np

    from .channel import excess_noise_snu

    _count(args.eps_steps, "--eps-steps")
    if args.eps_max < 0:
        raise UsageError("--eps-max must be nonnegative")
    grid = np.linspace(0.0, args.eps_max, args.eps_steps)
    model = _effective_channel(args)
    if not args.channel_config:
        return grid, model, _effective_channel(args, eps=1.0)
    noise = excess_noise_snu(model, 0)
    if not 0.0 < noise < math.inf:
        raise UsageError("a sweep needs finite, nonzero channel-1 excess noise in the config")
    sources = tuple(replace(s, variance=s.variance / noise) for s in model.sources)
    return grid, model, replace(model, sources=sources)


def _write_outputs(args, files, extras, seed=None, model=None, say=None) -> None:
    """Write all of a command's files or none: ``files``, (path, write)
    pairs with --out first, then the --dump-config copy of ``model`` if one
    was asked for, last the manifest, which lists every file before it.
    Each is written to a temporary file beside its target; only once all
    exist are they renamed, the manifest last, and ``say`` printed.  The
    renames are not atomic as a set, so the previous manifest goes first: a
    manifest on disk lists only files that its own run wrote."""
    if model is not None and args.dump_config:
        from .channel import dump_channel_config

        config = dump_channel_config(model)
        files = files + [(args.dump_config, lambda fh: fh.write(config))]
    manifest = args.out + ".manifest.json"
    payload = _manifest_payload(args, seed=seed, extras=extras, outputs=[p for p, _ in files])
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    staged = []
    try:
        for target, write in files + [(manifest, lambda fh: fh.write(text))]:
            staged.append((target, _staged_copy(target, write)))
        target = manifest
        with contextlib.suppress(FileNotFoundError):
            os.unlink(manifest)
        while staged:
            target, tmp = staged[0]
            os.replace(tmp, target)
            staged.pop(0)
    except OSError as exc:
        if exc.filename is None:
            raise
        # name the target, not a temporary name
        raise OSError(exc.errno, exc.strerror, target) from None
    finally:
        for _, tmp in staged:
            os.unlink(tmp)
    if say is not None:
        print(say)


def _manifest_payload(args, seed=None, extras=None, outputs=()) -> dict:
    parameters = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command") and v is not None
    }
    payload = {
        "command": args.command,
        "parameters": parameters,
        "tool_version": __version__,
        "conventions": CONVENTIONS,
    }
    if seed is not None:
        payload["master_seed"] = seed
    if extras:
        payload["extras"] = extras
    if outputs:
        payload["outputs"] = [os.path.basename(path) for path in outputs]
    return payload


def _staged_copy(path: str, write) -> str:
    """Call ``write`` on a new temporary file in the directory of ``path``,
    with the mode a plain open() would give it, and return its name; on any
    failure the temporary file is removed."""
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory or ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            write(fh)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


if __name__ == "__main__":
    sys.exit(main())
