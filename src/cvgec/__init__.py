"""Gaussian phase-space engine for correlated-noise channel error correction.

Covariance-matrix simulation of multimode Gaussian states, lossy channels
with classically correlated noise, the beam-splitter encode/decode scheme
that cancels that noise, an incoherent measure-and-feedforward baseline,
and passive-network synthesis for the N-channel generalization.

The names below are loaded on first use (PEP 562), so ``import cvgec``
loads neither numpy nor any layer until one of them is asked for.
"""

import importlib

__version__ = "0.3.3"

#: Layer modules that the package exposes as attributes.
_LAYERS = ("channel", "network", "protocol", "states", "transforms")

#: Public names by the layer that defines them.
_EXPORTS = {
    "states": (
        "GaussianState",
        "VACUUM_VARIANCE",
        "as_snu",
        "displace",
        "vacuum_state",
    ),
    "transforms": (
        "GaussianMap",
        "beam_splitter",
        "two_mode_squeezed",
    ),
    "channel": (
        "ChannelModel",
        "NoiseSource",
        "excess_noise_snu",
        "standard_two_channel",
    ),
    "patterns": ("NoProtectedSubspaceError", "NoisePatternSet", "null_space_encoder"),
    "protocol": (
        "ProtocolConfig",
        "corrected_channel",
        "n_channel_protocol",
        "uncorrected_channel",
    ),
    "network": ("NetworkPlan", "decompose_network"),
}

_ORIGIN = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_LAYERS, *_ORIGIN])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    layer = _ORIGIN.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

