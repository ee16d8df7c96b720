"""Package surface: lazily resolved names and per-command imports."""

import importlib
import os
import subprocess
import sys

import pytest

import cvgec

#: The package's public names and the layer each comes from.
SURFACE = {
    "ChannelModel": "channel",
    "GaussianMap": "transforms",
    "GaussianState": "states",
    "NetworkPlan": "network",
    "NoProtectedSubspaceError": "protocol",
    "NoisePatternSet": "protocol",
    "NoiseSource": "channel",
    "ProtocolConfig": "protocol",
    "VACUUM_VARIANCE": "states",
    "as_snu": "states",
    "beam_splitter": "transforms",
    "channel": None,
    "corrected_channel": "protocol",
    "decompose_network": "network",
    "displace": "states",
    "excess_noise_snu": "channel",
    "n_channel_protocol": "protocol",
    "network": None,
    "protocol": None,
    "standard_two_channel": "channel",
    "states": None,
    "transforms": None,
    "two_mode_squeezed": "transforms",
    "uncorrected_channel": "protocol",
    "vacuum_state": "states",
}

LAYERS = (
    "analysis",
    "channel",
    "fidelity",
    "montecarlo",
    "network",
    "patterns",
    "protocol",
    "states",
    "transforms",
)


def imported(out):
    """Module names a ``-X importtime`` run reports."""
    return {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}


def run_python(*args):
    """Run a fresh interpreter with this checkout's package on the path."""
    src = os.path.dirname(os.path.dirname(cvgec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def test_all_is_unchanged():
    assert cvgec.__all__ == sorted(SURFACE)


def test_names_resolve_to_the_layer_objects():
    for name, layer in SURFACE.items():
        if layer is None:
            expected = importlib.import_module(f"cvgec.{name}")
        else:
            expected = getattr(importlib.import_module(f"cvgec.{layer}"), name)
        assert getattr(cvgec, name) is expected, name
        assert name in dir(cvgec), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cvgec.nope


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy_and_no_layer(flag):
    loaded = imported(run_python("-X", "importtime", "-m", "cvgec.cli", flag))
    assert "cvgec" in loaded
    assert "numpy" not in loaded
    assert not loaded & {f"cvgec.{layer}" for layer in LAYERS}


def cvgec_modules(*layers):
    return {f"cvgec.{layer}" for layer in layers}


@pytest.mark.parametrize(
    "argv, needed, skipped",
    [
        (
            ["synth", "--patterns", "{dir}/p.txt"],
            cvgec_modules("network", "patterns"),
            cvgec_modules(
                "analysis", "channel", "fidelity", "montecarlo", "protocol", "states", "transforms"
            ),
        ),
        (
            ["trace", "--n", "10"],
            cvgec_modules("montecarlo", "protocol", "channel"),
            cvgec_modules("analysis", "fidelity", "network"),
        ),
        (
            ["sweep-coherent", "--eps-steps", "2"],
            cvgec_modules("analysis", "fidelity"),
            cvgec_modules("montecarlo", "network") | {"hashlib"},
        ),
        (
            ["optimize", "--g1", "1", "--g2", "1"],
            cvgec_modules("analysis"),
            cvgec_modules("montecarlo", "network") | {"hashlib"},
        ),
    ],
)
def test_each_command_loads_only_its_layers(tmp_path, argv, needed, skipped):
    (tmp_path / "p.txt").write_text("1 1 0\n")
    argv = [a.format(dir=tmp_path) for a in argv]
    if argv[0] != "optimize":
        argv += ["--out", str(tmp_path / "out")]
    loaded = imported(run_python("-X", "importtime", "-m", "cvgec.cli", *argv))
    assert needed <= loaded
    assert not loaded & skipped
