"""Fidelity of single-mode Gaussian states with a coherent probe.

Every fidelity cvgec reports compares a channel output with the coherent
state |alpha> that went in.  For a pure reference the Uhlmann fidelity is
the overlap <alpha| rho |alpha> = exp(-d^T H^{-1} d / 2) / sqrt(det H), with
H = cov + I / 2, the output covariance plus the probe's, and d = mean - alpha.
It is 1 exactly on the probe itself.  Multimode fidelity is out of scope.
"""

from __future__ import annotations

import numpy as np

from .states import VACUUM_VARIANCE

_LOG_4 = np.log(4.0)


def coherent_fidelity(mean, cov, alpha) -> np.ndarray:
    """Overlap of stacked single-mode states with coherent states, in [0, 1].

    ``mean`` and the probe mean ``alpha`` have shape (..., 2), ``cov``
    (..., 2, 2); they broadcast.  Where det H or the mean term overflows,
    :func:`_fidelity_logs` takes over, so a finite input gives a finite
    value and a state with an infinite variance gives 0.
    """
    with np.errstate(all="ignore"):
        h = cov + VACUUM_VARIANCE * np.eye(2)
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        root = np.sqrt(det)
        dx = mean[..., 0] - alpha[..., 0]
        dp = mean[..., 1] - alpha[..., 1]
        # d^T H^{-1} d with the 2 x 2 inverse written out
        off = h[..., 0, 1] + h[..., 1, 0]
        quad = (dx * dx * h[..., 1, 1] - dx * dp * off + dp * dp * h[..., 0, 0]) / det
        f = np.exp(-0.5 * quad) / root
        direct = np.isfinite(root + quad)
        if not direct.all():
            f = np.where(direct, f, _fidelity_logs(mean, cov, alpha))
    return np.clip(f, 0.0, 1.0)


def _fidelity_logs(mean, cov, alpha) -> np.ndarray:
    """The same overlap, exp(-(log det H + q) / 2), from logarithms of
    half = H / 2, so no determinant is formed from products of entries.
    q = 2 (zx^2 - 2 rho zx zp + zp^2) / (1 - rho^2) in the half difference
    over half's standard deviations, rho its correlation; a NaN form is an
    overflowed (infinite) term.  An infinite variance gives 0.
    """
    half = 0.5 * cov + 0.5 * (VACUUM_VARIANCE * np.eye(2))
    log_det = _LOG_4 + _log_det(half)
    sx = np.sqrt(half[..., 0, 0])
    sp = np.sqrt(half[..., 1, 1])
    rho = half[..., 0, 1] / sx / sp
    zx = (0.5 * mean[..., 0] - 0.5 * alpha[..., 0]) / sx
    zp = (0.5 * mean[..., 1] - 0.5 * alpha[..., 1]) / sp
    form = zx * zx - 2.0 * rho * zx * zp + zp * zp
    quad = 2.0 * np.where(np.isnan(form), np.inf, form) / (1.0 - rho * rho)
    return np.where(np.isinf(sx) | np.isinf(sp), 0.0, np.exp(-0.5 * log_det - 0.5 * quad))


def _log_det(m: np.ndarray) -> np.ndarray:
    """log det of symmetric 2 x 2 matrices with a positive diagonal."""
    rho_sq = (m[..., 0, 1] / m[..., 0, 0]) * (m[..., 1, 0] / m[..., 1, 1])
    return np.log(m[..., 0, 0]) + np.log(m[..., 1, 1]) + np.log1p(-rho_sq)
