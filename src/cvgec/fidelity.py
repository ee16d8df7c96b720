"""Uhlmann fidelity for single-mode Gaussian states.

Uses the closed form for one mode: with covariances A, B, mean difference
d and
    Delta = det(A + B),   Lambda = 4 (det A - 1/4) (det B - 1/4),
the fidelity is
    F = exp(-d^T (A + B)^{-1} d / 2) / (sqrt(Delta + Lambda) - sqrt(Lambda)).
For two coherent states this reduces to exp(-|d|^2 / 2) and it equals 1
exactly on identical states.  Multimode fidelity is out of scope.
"""

from __future__ import annotations

import numpy as np

from .states import GaussianState


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Fidelity between two single-mode Gaussian states, in [0, 1]."""
    if a.n_modes != 1 or b.n_modes != 1:
        raise ValueError("fidelity is implemented for single-mode states only")
    return float(fidelity_moments(a.mean, a.cov, b.mean, b.cov))


def fidelity_moments(mean_a, cov_a, mean_b, cov_b) -> np.ndarray:
    """Fidelity over stacks of single-mode moments, in [0, 1].

    Means have shape (..., 2) and covariances (..., 2, 2); the stacks
    broadcast against each other.  Inputs are taken as valid states.
    """
    total = cov_a + cov_b
    det_total = _det(total)
    lam = np.maximum(4.0 * (_det(cov_a) - 0.25) * (_det(cov_b) - 0.25), 0.0)  # clip rounding
    dx = mean_a[..., 0] - mean_b[..., 0]
    dp = mean_a[..., 1] - mean_b[..., 1]
    # d^T (A + B)^{-1} d with the 2 x 2 inverse written out
    quad = (
        dx * dx * total[..., 1, 1]
        - dx * dp * (total[..., 0, 1] + total[..., 1, 0])
        + dp * dp * total[..., 0, 0]
    ) / det_total
    f = np.exp(-0.5 * quad) / (np.sqrt(det_total + lam) - np.sqrt(lam))
    return np.clip(f, 0.0, 1.0)


def _det(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
