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

_LOG_4 = np.log(4.0)


def fidelity_moments(mean_a, cov_a, mean_b, cov_b) -> np.ndarray:
    """Fidelity over stacks of single-mode moments, in [0, 1].

    Means have shape (..., 2) and covariances (..., 2, 2); the stacks
    broadcast against each other.  Inputs are taken as valid states.
    Entries where a determinant or the mean term overflows, or where
    Lambda > Delta makes the difference of roots cancel, are recomputed by
    :func:`_fidelity_logs`, so every finite input gives a finite value, and
    a state with an infinite variance has fidelity 0 with any finite state.
    """
    with np.errstate(all="ignore"):
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
        direct = np.isfinite(det_total + quad) & (lam <= det_total)
        if not direct.all():
            f = np.where(direct, f, _fidelity_logs(mean_a, cov_a, mean_b, cov_b))
    return np.clip(f, 0.0, 1.0)


def _fidelity_logs(mean_a, cov_a, mean_b, cov_b) -> np.ndarray:
    """The same fidelity from logarithms of halved moments, with no
    determinant formed from products of entries.

    With H = (A + B) / 2, Delta = 4 det H and
    sqrt(Delta + Lambda) - sqrt(Lambda) = Delta / (sqrt(Delta + Lambda) + sqrt(Lambda)).
    The mean term is 2 (zx^2 - 2 rho zx zp + zp^2) / (1 - rho^2) in the
    half difference scaled by H's standard deviations, with rho H's
    correlation; a NaN there is an overflowed (infinite) term.  A state
    with an infinite variance gives 0.
    """
    half = 0.5 * cov_a + 0.5 * cov_b
    log_delta = _LOG_4 + _log_det(half)
    log_lam = _LOG_4 + _log_excess(cov_a) + _log_excess(cov_b)
    log_sum = np.logaddexp(0.5 * np.logaddexp(log_delta, log_lam), 0.5 * log_lam)
    sx = np.sqrt(half[..., 0, 0])
    sp = np.sqrt(half[..., 1, 1])
    rho = half[..., 0, 1] / sx / sp
    zx = (0.5 * mean_a[..., 0] - 0.5 * mean_b[..., 0]) / sx
    zp = (0.5 * mean_a[..., 1] - 0.5 * mean_b[..., 1]) / sp
    form = zx * zx - 2.0 * rho * zx * zp + zp * zp
    quad = 2.0 * np.where(np.isnan(form), np.inf, form) / (1.0 - rho * rho)
    return np.where(np.isinf(sx) | np.isinf(sp), 0.0, np.exp(log_sum - log_delta - 0.5 * quad))


def _log_det(m: np.ndarray) -> np.ndarray:
    """log det of symmetric 2 x 2 matrices with a positive diagonal."""
    rho_sq = (m[..., 0, 1] / m[..., 0, 0]) * (m[..., 1, 0] / m[..., 1, 1])
    return np.log(m[..., 0, 0]) + np.log(m[..., 1, 1]) + np.log1p(-rho_sq)


def _log_excess(m: np.ndarray) -> np.ndarray:
    """log(det m - 1/4), -inf for a pure state or rounding below it."""
    log_det = _log_det(m)
    return log_det + np.log1p(-np.minimum(0.25 * np.exp(-log_det), 1.0))


def _det(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
