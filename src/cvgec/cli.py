"""Command-line front end: reproducible sweeps, traces and synthesis.

Every command that writes files also writes a JSON manifest alongside
(``<out>.manifest.json``) echoing the full parameter set, seed, tool
version, output list and the conventions in force, so a run can be
reproduced byte-for-byte.  Files are written to a temporary name and
atomically renamed, so no partial output survives an error.

Exit codes: 0 success, 2 usage error, 3 domain error (e.g. no protected
subspace), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analysis import (
    SWEEP_COLUMNS,
    SweepResult,
    coherent_sweep,
    entanglement_breaking_point,
    entanglement_sweep,
    optimize_splitting,
    write_sweep_csv,
)
from .channel import dump_channel_config, parse_channel_config, standard_two_channel
from .network import complete_orthonormal, decompose_network, serialize_plan
from .protocol import (
    NoProtectedSubspaceError,
    NoisePatternSet,
    ProtocolConfig,
    null_space_encoder,
    optimal_splitting_for,
)
from .states import VACUUM_VARIANCE

#: Conventions echoed into every manifest and all --help texts.
CONVENTIONS = {
    "snu": "shot-noise units: variance / 0.5, the vacuum quadrature variance in natural units",
    "beam_splitter_sign": "pi_flip: amplitudes (sqrt(T), -sqrt(1-T); -sqrt(1-T), -sqrt(T))",
    "port_labeling": "optimal splitting T_e = T_d = g2/(g1+g2); the signal exits the first decoder port",
    "noise_axis": "eps is channel 1's excess noise in SNU at the channel output, before detection",
    "uncorrected_reference": "direct transmission through channel 1, no encoding",
    "inseparability": "Var(x1-x2) + Var(p1+p2) in natural units; entangled below 2",
}

#: Columns of the ``sweep-coherent`` sidecar ``<out>.aux.csv``: the
#: uncorrected channel-2 alternative and the displacement-corrected fidelities.
AUX_COLUMNS = (
    "eps_snu",
    "var_x_uncorr2_snu",
    "var_p_uncorr2_snu",
    "fid_uncorr2",
    "fid_corr_displaced",
    "fid_uncorr_displaced",
)

_EPILOG = "Units and conventions:\n" + "\n".join(
    f"  {key}: {value}" for key, value in CONVENTIONS.items()
)


class UsageError(Exception):
    """Bad flag values detected after parsing."""


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    value = float(text)
    if not np.isfinite(value):
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
    except NoProtectedSubspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    grid = _eps_grid(args)
    model = _effective_channel(args)
    result = coherent_sweep(args.g_ratio, args.eta, args.xi, tuple(args.amplitude), grid)
    metadata = dict(result.metadata)
    alt = metadata.pop("uncorrected_channel_2")
    shifted = metadata.pop("displacement_corrected")
    curves = (alt["var_x"], alt["var_p"], alt["fid"], shifted["fid_corr"], shifted["fid_uncorr"])
    aux = SweepResult(result.axis, dict(zip(AUX_COLUMNS[1:], curves)), {})
    aux_path = args.out + ".aux.csv"
    _atomic_write(args.out, lambda fh: write_sweep_csv(result, fh))
    _atomic_write(aux_path, lambda fh: write_sweep_csv(aux, fh, AUX_COLUMNS))
    _maybe_dump_config(args, model)
    _write_manifest(
        args,
        extras={
            "metadata": metadata,
            "columns": list(SWEEP_COLUMNS),
            "aux_columns": list(AUX_COLUMNS),
        },
        outputs=[aux_path],
    )
    return 0


def _cmd_sweep_entangle(args) -> int:
    grid = _eps_grid(args)
    model = _effective_channel(args)
    result = entanglement_sweep(args.r, args.eta, args.xi, grid, g_ratio=args.g_ratio)
    _atomic_write(args.out, lambda fh: write_sweep_csv(result, fh))
    breaking = entanglement_breaking_point(args.g_ratio, args.eta, args.xi, "uncorrected")
    print(f"uncorrected breaking point: {format(breaking, '.17g')} SNU")
    _maybe_dump_config(args, model)
    _write_manifest(
        args,
        extras={
            "metadata": result.metadata,
            "columns": list(SWEEP_COLUMNS),
            "uncorrected_breaking_point_snu": breaking,
        },
    )
    return 0


def _cmd_trace(args) -> int:
    # Imported here: the trace CSV kernel is sizeable, and no other command
    # should pay to compile it at start-up.
    from .montecarlo import sample_run, write_trace_csv

    if args.n < 1:
        raise UsageError("--n must be at least 1")
    model = _effective_channel(args, eps=args.eps)
    t = optimal_splitting_for(model)
    cfg = ProtocolConfig(t, t, model)
    records = sample_run(
        cfg,
        args.n,
        args.seed,
        amplitude=tuple(args.amplitude),
        modulation_period=args.modulation_period,
    )
    _atomic_write(args.out, lambda fh: write_trace_csv(records, fh))
    _maybe_dump_config(args, model)
    _write_manifest(args, seed=args.seed, extras={"splitting": t})
    return 0


def _cmd_synth(args) -> int:
    with open(args.patterns) as fh:
        rows = [
            [float(x) for x in line.split()]
            for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not rows:
        raise UsageError("pattern file contains no vectors")
    patterns = NoisePatternSet(tuple(np.array(row) for row in rows))
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
    te, td, value = optimize_splitting(
        args.g1, args.g2, xi=args.xi, eta=args.eta,
        objective=args.objective, eps_snu=args.eps,
    )
    payload = {
        "T_e": te,
        "T_d": td,
        "objective": args.objective,
        "objective_value": value,
        "manifest": _manifest_payload(args),
    }
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    return 0


def _eps_grid(args) -> np.ndarray:
    if args.eps_steps < 1:
        raise UsageError("--eps-steps must be at least 1")
    if args.eps_max < 0:
        raise UsageError("--eps-max must be nonnegative")
    return np.linspace(0.0, args.eps_max, args.eps_steps)


def _effective_channel(args, eps: float = 10.0):
    """Channel used by the command: from --channel-config if given.

    The sweep commands rebuild the model per noise level from --g-ratio;
    a loaded config must therefore match that parameterization, so its
    g-ratio/eta/xi are adopted as the effective flags.  A config the sweeps
    cannot represent (per-channel eta, thermal noise) is refused; trace
    runs the loaded model as it is.
    """
    if getattr(args, "channel_config", None):
        with open(args.channel_config) as fh:
            model = parse_channel_config(fh.read())
        if model.n_channels != 2 or len(model.sources) != 1:
            raise UsageError("config must describe two channels with one source")
        c = model.sources[0].coupling
        if c[1] == 0:
            raise UsageError("channel-2 coupling must be nonzero")
        if not hasattr(args, "eps") and (model.eta[1] != model.eta[0] or np.any(model.thermal)):
            raise UsageError(
                "the sweeps take one eta for both channels and no thermal noise; "
                "this config needs trace"
            )
        args.g_ratio = float(c[0] ** 2 / c[1] ** 2)
        args.eta = float(model.eta[0])
        args.xi = float(model.mismatch)
        if hasattr(args, "eps"):
            args.eps = float(model.sources[0].variance * c[0] ** 2 / VACUUM_VARIANCE)
        return model
    return standard_two_channel(
        getattr(args, "eps", eps), args.g_ratio, args.eta, args.xi
    )


def _maybe_dump_config(args, model) -> None:
    if getattr(args, "dump_config", None):
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
    fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory or ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            write(fh)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
