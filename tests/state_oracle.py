"""Direct state-level references, kept as an oracle.

``duan_simon`` reads the Duan inseparability number off a covariance
entry by entry, so it shares nothing with the closed form in
``cvgec.analysis`` that the sweeps write.  ``add_noise`` is a plain helper
that adds a classical noise covariance to a state.  ``tensor`` and
``partial_trace`` restrict a map the long way: append vacua, apply the
whole register map, keep the state's modes; the package's
``GaussianMap.restricted`` does it in one formula.  ``channel_margin``
says whether a pair of matrices (X, Y) is a valid Gaussian channel, and
``preparation`` turns a state into the pair that prepares it, so one check
covers both; a map passes ``m.X, m.Y``.  ``squeeze`` is the single-mode
squeezer block, which no command needs, and ``rotated_squeeze`` turns it
to any axis, for random test states.  ``fidelity`` is the two-state
Uhlmann closed form on single-mode states, written with numpy's linear
algebra; the package computes only the overlap with a coherent probe.
``direct_overlap`` is that overlap's closed form on the unscaled moments,
term for term as the package writes it on scaled ones, so the two agree
bit for bit wherever this one neither overflows nor underflows.
"""

import numpy as np

from cvgec.states import GaussianState, _check_mode, _quad_indices
from cvgec.transforms import _MAX_SQUEEZING

from network_oracle import phase_shift


def channel_margin(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest eigenvalue of Y + (i/2)(Omega - X Omega X^T), with Omega the
    symplectic form of the (x, p)-interleaved order.

    It is nonnegative iff the map cov -> X cov X^T + Y is a Gaussian channel
    (Holevo & Werner, PRA 63, 032312 (2001)), and it is the noise the map
    adds above a quantum-limited one.  A gate (Y = 0) has minus half the
    spectral norm of its symplectic defect X Omega X^T - Omega; a
    preparation (X = 0, Y = cov) has that of its state's uncertainty,
    cov + i Omega / 2.
    """
    omega = np.kron(np.eye(len(x) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.linalg.eigvalsh(y + 0.5j * (omega - x @ omega @ x.T))[0])


def preparation(state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """The map (X, Y) = (0, cov) that replaces any input by ``state``'s
    covariance.  It is a channel iff the state is physical."""
    return np.zeros_like(state.cov), state.cov


def squeeze(r: float) -> np.ndarray:
    """2x2 block of a single-mode squeezer along x: the x variance scales by
    exp(-2r) and the p variance by exp(+2r).  |r| > 20 is rejected to avoid
    overflow, far beyond any regime of interest.
    """
    if not np.isfinite(r) or abs(r) > _MAX_SQUEEZING:
        raise ValueError("squeezing parameter out of supported range")
    return np.diag([np.exp(-r), np.exp(r)])


def rotated_squeeze(r: float, theta: float) -> np.ndarray:
    """2x2 block of a squeezer whose squeezing axis is rotated by ``theta``:
    R squeeze(r) R^T, with R the phase-space rotation by ``theta``."""
    rot = phase_shift(theta)
    return rot @ squeeze(r) @ rot.T


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity between two single-mode Gaussian states.

    With Delta = det(A + B) and Lambda = 4 (det A - 1/4)(det B - 1/4) for
    covariances A, B in the vacuum-1/2 convention, and d the mean difference,
    F = exp(-d^T (A + B)^{-1} d / 2) / (sqrt(Delta + Lambda) - sqrt(Lambda))
    (Scutaru, J. Phys. A 31, 3659 (1998)).  For moderate moments only.
    """
    if a.n_modes != 1 or b.n_modes != 1:
        raise ValueError("fidelity is implemented for single-mode states only")
    total = a.cov + b.cov
    d = a.mean - b.mean
    delta = np.linalg.det(total)
    lam = max(4.0 * (np.linalg.det(a.cov) - 0.25) * (np.linalg.det(b.cov) - 0.25), 0.0)
    return float(np.exp(-0.5 * d @ np.linalg.solve(total, d)) / (np.sqrt(delta + lam) - np.sqrt(lam)))


def direct_overlap(mean, cov, alpha) -> np.ndarray:
    """exp(-d^T H^{-1} d / 2) / sqrt(det H) with H = cov + I / 2 and
    d = mean - alpha, on stacks of moments, with no scaling and no rule for
    an overflowed term; entries may be inf or NaN."""
    with np.errstate(all="ignore"):
        h = cov + 0.5 * np.eye(2)
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        dx = mean[..., 0] - alpha[..., 0]
        dp = mean[..., 1] - alpha[..., 1]
        off = h[..., 0, 1] + h[..., 1, 0]
        quad = (dx * dx * h[..., 1, 1] - dx * dp * off + dp * dp * h[..., 0, 0]) / det
        return np.exp(-0.5 * quad) / np.sqrt(det)


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
