"""Command-line front end: reproducible sweeps, traces and synthesis.

Every command that writes files also writes a JSON manifest alongside
(``<out>.manifest.json``) echoing the full parameter set, seed, tool
version, output list and the conventions in force, so a run can be
reproduced byte-for-byte.  Files are written to a temporary name and
atomically renamed, so no partial output survives an error.

Exit codes: 0 success, 2 usage error, 3 domain error (e.g. no protected
subspace), 4 I/O error.

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
        "the sweeps encode the signal into the protected mode, the unit vector orthogonal to every"
        " source coupling, completed to an orthogonal encoder u and decoded by u^T; trace sets both"
        " splitters to the noise-cancelling pair; the signal exits the first decoder port"
    ),
    "noise_axis": "eps is channel 1's excess noise in SNU at the channel output, before detection",
    "uncorrected_reference": "direct transmission through channel 1, no encoding",
    "inseparability": "Var(x1-x2) + Var(p1+p2) in natural units; entangled below 2",
}

_EPILOG = "Units and conventions:\n" + "\n".join(
    f"  {key}: {value}" for key, value in CONVENTIONS.items()
)


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
        return args.func(args)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvgec",
        description="Correlated-noise Gaussian channel error correction toolkit",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"cvgec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        return p

    p = add("sweep-coherent", "variance and fidelity vs channel noise for a coherent state")
    p.add_argument("--g-ratio", type=_finite_float, default=0.61, help="noise asymmetry g1/g2")
    p.add_argument("--eta", type=_finite_float, default=1.0, help="channel transmissivity")
    p.add_argument("--xi", type=_finite_float, default=0.0, help="non-interfering noise fraction")
    p.add_argument(
        "--amplitude", type=_finite_float, nargs=2, default=(2.0, 0.0), metavar=("X", "P"),
        help="input coherent amplitude, natural units",
    )
    p.add_argument("--eps-max", type=_finite_float, default=40.0, help="top of the noise axis, SNU")
    p.add_argument("--eps-steps", type=int, default=41, help="number of grid points")
    p.add_argument("--channel-config", help="load the channel from a config file instead")
    p.add_argument(
        "--dump-config",
        help="also write the channel config here (source variance at a 10 SNU point)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep_coherent)

    p = add("sweep-entangle", "inseparability vs channel noise for an entangled pair")
    p.add_argument(
        "--r", type=_finite_float, default=0.5, help="input two-mode squeezing parameter"
    )
    p.add_argument("--g-ratio", type=_finite_float, default=1.0, help="noise asymmetry g1/g2")
    p.add_argument("--eta", type=_finite_float, default=1.0, help="channel transmissivity")
    p.add_argument("--xi", type=_finite_float, default=0.0, help="non-interfering noise fraction")
    p.add_argument("--eps-max", type=_finite_float, default=40.0, help="top of the noise axis, SNU")
    p.add_argument("--eps-steps", type=int, default=41, help="number of grid points")
    p.add_argument("--channel-config", help="load the channel from a config file instead")
    p.add_argument(
        "--dump-config",
        help="also write the channel config here (source variance at a 10 SNU point)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep_entangle)

    p = add("trace", "sampled quadrature traces per protocol stage")
    p.add_argument("--eps", type=_finite_float, default=25.0, help="channel-1 excess noise, SNU")
    p.add_argument("--g-ratio", type=_finite_float, default=1.0, help="noise asymmetry g1/g2")
    p.add_argument("--eta", type=_finite_float, default=1.0, help="channel transmissivity")
    p.add_argument("--xi", type=_finite_float, default=0.0, help="non-interfering noise fraction")
    p.add_argument(
        "--amplitude", type=_finite_float, nargs=2, default=(2.0, 0.0), metavar=("X", "P"),
        help="input coherent amplitude, natural units",
    )
    p.add_argument("--n", type=int, default=1000, help="number of shots")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument(
        "--modulation-period", type=int, default=0,
        help="sinusoidal input modulation period in samples (0 = constant)",
    )
    p.add_argument("--channel-config", help="load the channel from a config file instead")
    p.add_argument("--dump-config", help="also write the effective channel config here")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_trace)

    p = add("synth", "protected signal mode and network plan from noise patterns")
    p.add_argument("--patterns", required=True, help="text file, one coupling vector per line")
    p.add_argument("--out", required=True, help="output plan path")
    p.set_defaults(func=_cmd_synth)

    p = add("optimize", "closed-form best splitter settings")
    p.add_argument("--g1", type=_finite_float, required=True, help="channel-1 noise magnitude")
    p.add_argument("--g2", type=_finite_float, required=True, help="channel-2 noise magnitude")
    p.add_argument("--xi", type=_finite_float, default=0.0, help="non-interfering noise fraction")
    p.add_argument("--eta", type=_finite_float, default=1.0, help="channel transmissivity")
    p.add_argument("--eps", type=_finite_float, default=10.0, help="channel-1 excess noise, SNU")
    p.add_argument(
        "--objective", choices=("variance", "fidelity"), default="variance",
        help="quantity to optimize",
    )
    p.set_defaults(func=_cmd_optimize)

    return parser


def _cmd_sweep_coherent(args) -> int:
    from .analysis import AUX_COLUMNS, SWEEP_COLUMNS, coherent_sweep, write_sweep_csv

    grid = _eps_grid(args)
    model = _effective_channel(args)
    result = coherent_sweep(_sweep_model(args, model), tuple(args.amplitude), grid)
    aux_path = args.out + ".aux.csv"
    _atomic_write(args.out, lambda fh: write_sweep_csv(result, fh, SWEEP_COLUMNS))
    _atomic_write(aux_path, lambda fh: write_sweep_csv(result, fh, AUX_COLUMNS))
    _maybe_dump_config(args, model)
    _write_manifest(
        args,
        extras={
            "metadata": result.metadata,
            "columns": list(SWEEP_COLUMNS),
            "aux_columns": list(AUX_COLUMNS),
        },
        outputs=[aux_path],
    )
    return 0


def _cmd_sweep_entangle(args) -> int:
    from .analysis import SWEEP_COLUMNS, entanglement_sweep, write_sweep_csv

    grid = _eps_grid(args)
    model = _effective_channel(args)
    result = entanglement_sweep(_sweep_model(args, model), args.r, grid)
    metadata = dict(result.metadata)
    breaking = metadata.pop("uncorrected_breaking_point_snu")
    _atomic_write(args.out, lambda fh: write_sweep_csv(result, fh))
    print(f"uncorrected breaking point: {format(breaking, '.17g')} SNU")
    _maybe_dump_config(args, model)
    _write_manifest(
        args,
        extras={
            "metadata": metadata,
            "columns": list(SWEEP_COLUMNS),
            "uncorrected_breaking_point_snu": breaking,
        },
    )
    return 0


def _cmd_trace(args) -> int:
    from .channel import dump_channel_config
    from .montecarlo import sample_run, write_trace_csv
    from .protocol import ProtocolConfig, optimal_splitting_for

    _count(args.n, "--n")
    if args.modulation_period < 0:
        raise UsageError("--modulation-period must be nonnegative")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    model = _effective_channel(args, eps=args.eps)
    pair = optimal_splitting_for(model)
    records = sample_run(
        ProtocolConfig(pair, pair, model),
        args.n,
        args.seed,
        amplitude=tuple(args.amplitude),
        modulation_period=args.modulation_period,
    )
    _atomic_write(args.out, lambda fh: write_trace_csv(records, fh))
    _maybe_dump_config(args, model)
    channel = dump_channel_config(model).splitlines()
    _write_manifest(args, seed=args.seed, extras={"splitting": list(pair), "channel": channel})
    return 0


def _cmd_synth(args) -> int:
    from .network import decompose_network, serialize_plan
    from .patterns import NoisePatternSet, complete_orthonormal, null_space_encoder

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
    plan = decompose_network(complete_orthonormal(signal))
    signal_line = " ".join(format(x, ".17g") for x in signal)
    text = serialize_plan(plan) + f"# signal {signal_line}\n"
    _atomic_write(args.out, lambda fh: fh.write(text))
    print(f"signal {signal_line}")
    _write_manifest(
        args,
        extras={
            "signal": signal.tolist(),
            "n_channels": patterns.n_channels,
            "n_elements": len(plan.elements),
        },
    )
    return 0


def _cmd_optimize(args) -> int:
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
    return 0


def _eps_grid(args):
    import numpy as np

    _count(args.eps_steps, "--eps-steps")
    if args.eps_max < 0:
        raise UsageError("--eps-max must be nonnegative")
    return np.linspace(0.0, args.eps_max, args.eps_steps)


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


def _sweep_model(args, model):
    """The model a sweep runs: the flags' model at 1 SNU, or the config with every
    source variance divided by its channel-1 excess noise in SNU."""
    from dataclasses import replace

    from .channel import excess_noise_snu

    if not args.channel_config:
        return _effective_channel(args, eps=1.0)
    noise = excess_noise_snu(model, 0)
    if not 0.0 < noise < math.inf:
        raise UsageError("a sweep needs finite, nonzero channel-1 excess noise in the config")
    sources = tuple(replace(s, variance=s.variance / noise) for s in model.sources)
    return replace(model, sources=sources)


def _maybe_dump_config(args, model) -> None:
    if getattr(args, "dump_config", None):
        from .channel import dump_channel_config

        _atomic_write(args.dump_config, lambda fh: fh.write(dump_channel_config(model)))


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
    if getattr(args, "out", None):
        written = [args.out, *outputs]
        if getattr(args, "dump_config", None):
            written.append(args.dump_config)
        payload["outputs"] = [os.path.basename(path) for path in written]
    return payload


def _write_manifest(args, seed=None, extras=None, outputs=()) -> None:
    payload = _manifest_payload(args, seed=seed, extras=extras, outputs=outputs)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _atomic_write(args.out + ".manifest.json", lambda fh: fh.write(text))


def _atomic_write(path: str, write) -> None:
    """Call ``write`` on a unique temporary file in the target directory,
    then rename; the file gets the mode a plain open() would give it.  On
    any failure the temporary file is removed and ``path`` is untouched."""
    directory, name = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory or ".")
        with os.fdopen(fd, "w", newline="\n") as fh:
            write(fh)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the target, not the random temporary name
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


if __name__ == "__main__":
    sys.exit(main())
