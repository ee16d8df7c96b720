"""Reference maps for the protocol tests, independent of the map core.

``pure_loss_reference`` writes the pure-loss channel out entry by entry;
``characterize_single_mode_map`` reads any single-mode Gaussian map back
from its action on three probe states.
"""

import numpy as np

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
