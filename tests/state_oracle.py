"""Direct state-level references, kept as an oracle.

``duan_simon`` reads the Duan inseparability number off a covariance
entry by entry, so it shares nothing with the closed form in
``cvgec.analysis`` that the sweeps write.  ``add_noise`` is a plain helper
that adds a classical noise covariance to a state.  ``tensor`` and
``partial_trace`` restrict a map the long way: append vacua, apply the
whole register map, keep the state's modes; the package's
``GaussianMap.restricted`` does it in one formula.  ``channel_margin``
says whether a map is a valid Gaussian channel, and ``preparation`` turns
a state into the map that prepares it, so one check covers both.
"""

import numpy as np

from cvgec.states import GaussianState, _check_mode, _quad_indices
from cvgec.transforms import GaussianMap


def channel_margin(m: GaussianMap) -> float:
    """Smallest eigenvalue of Y + (i/2)(Omega - X Omega X^T), with Omega the
    symplectic form of the (x, p)-interleaved order.

    It is nonnegative iff the map is a Gaussian channel (Holevo & Werner,
    PRA 63, 032312 (2001)), and it is the noise the map adds above a
    quantum-limited one.  A gate (Y = 0) has minus half the spectral norm of
    its symplectic defect X Omega X^T - Omega; a preparation (X = 0,
    Y = cov) has that of its state's uncertainty, cov + i Omega / 2.
    """
    omega = np.kron(np.eye(m.n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.linalg.eigvalsh(m.Y + 0.5j * (omega - m.X @ omega @ m.X.T))[0])


def preparation(state: GaussianState) -> GaussianMap:
    """The map that replaces any input by ``state``'s covariance: X = 0,
    Y = cov.  It is a channel iff the state is physical."""
    return GaussianMap(np.zeros_like(state.cov), state.cov)


def add_noise(state: GaussianState, noise_cov) -> GaussianState:
    """``state`` with zero-mean classical noise of covariance ``noise_cov`` added."""
    return GaussianState(state.mean, state.cov + np.asarray(noise_cov, dtype=float))


def duan_simon(state: GaussianState, pair: tuple[int, int]) -> float:
    """Inseparability number Var(x_i - x_j) + Var(p_i + p_j).

    Second moments are taken about the mean.  Values below 2 certify
    entanglement of the mode pair; any product of single-mode states
    yields at least 2.
    """
    i, j = pair
    if i == j:
        raise ValueError("need two distinct modes")
    if not (0 <= i < state.n_modes and 0 <= j < state.n_modes):
        raise ValueError(f"modes {pair} out of range for {state.n_modes} modes")
    return float(duan_number(state.cov, pair))


def duan_number(cov: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """:func:`duan_simon` over a stack of covariances of shape (..., 2N, 2N)."""
    xi, xj = 2 * pair[0], 2 * pair[1]
    pi, pj = xi + 1, xj + 1
    var_x = cov[..., xi, xi] + cov[..., xj, xj] - 2.0 * cov[..., xi, xj]
    var_p = cov[..., pi, pi] + cov[..., pj, pj] + 2.0 * cov[..., pi, pj]
    return var_x + var_p


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state with the modes of ``b`` appended after those of ``a``."""
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    na = a.mean.size
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(mean, cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state over the kept modes (ascending mode order)."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    for k in keep:
        _check_mode(state, k)
    idx = _quad_indices(keep)
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])
