"""Reference maps for the protocol tests, independent of the map core.

``pure_loss_reference`` writes the pure-loss channel out entry by entry;
``characterize_single_mode_map`` reads any single-mode Gaussian map back
from its action on three probe states; ``direct_transmission_map`` places
the signal on one channel of the channel stage, with no encoder;
``two_build_noise_axis`` finds a strategy's noise axis without reading
input labels, by building it once silent and once loud.
"""

from dataclasses import replace

import numpy as np

from cvgec.channel import channel_map
from cvgec.states import GaussianState, displace, vacuum_state


def characterize_single_mode_map(channel_fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe a Gaussian map on one mode and return (X, d, Y).

    The map acts as mean -> X mean + d and cov -> X cov X^T + Y; it is
    reconstructed from the images of the vacuum and two displaced vacua.
    """
    base = channel_fn(vacuum_state(1))
    d = base.mean
    x = np.zeros((2, 2))
    for k in range(2):
        probe = displace(vacuum_state(1), 0, 1.0 if k == 0 else 0.0, 1.0 if k == 1 else 0.0)
        x[:, k] = channel_fn(probe).mean - d
    y = base.cov - 0.5 * x @ x.T
    return x, d, y


def pure_loss_reference(state: GaussianState, eta: float, mode: int = 0) -> GaussianState:
    """Pure-loss map of transmissivity eta applied to one mode of a state."""
    n = state.n_modes
    scale = np.ones(2 * n)
    scale[2 * mode] = scale[2 * mode + 1] = np.sqrt(eta)
    cov = np.outer(scale, scale) * state.cov
    cov[2 * mode, 2 * mode] += (1.0 - eta) * 0.5
    cov[2 * mode + 1, 2 * mode + 1] += (1.0 - eta) * 0.5
    return GaussianState(scale * state.mean, cov)


def direct_transmission_map(model, n_modes, signal_mode=0, channel=0):
    """Direct transmission through a single channel, no encoding: the signal
    mode is carried by ``channel`` and every other channel by a fresh
    vacuum, appended after the N state modes."""
    idle = iter(range(n_modes, n_modes + model.n_channels - 1))
    carriers = [signal_mode if i == channel else next(idle) for i in range(model.n_channels)]
    return channel_map(model, carriers, n_modes + model.n_channels - 1)


def two_build_noise_axis(strategy, model):
    """(X, Y0, Y1) of ``strategy(model, n_modes)`` on its signal mode, with
    cov -> X cov X^T + Y0 + eps Y1 when eps scales every source variance.
    The map is built twice, once with every source silent and once as
    given; both have the same inputs F, so X and Y0 are the silent map's,
    and Y1 weighs the inputs by the variance the sources added."""
    silent = replace(model, sources=tuple(replace(s, variance=0.0) for s in model.sources))
    quiet = strategy(silent, 1).restricted(1)
    loud = strategy(model, 1).restricted(1)
    return quiet.X, quiet.Y, (loud.F * (loud.v - quiet.v)) @ loud.F.T
