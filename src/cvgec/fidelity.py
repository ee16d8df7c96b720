"""Fidelity of single-mode Gaussian states with a coherent probe.

Every fidelity cvgec reports compares a channel output with the coherent
state |alpha> that went in.  For a pure reference the Uhlmann fidelity is
the overlap <alpha| rho |alpha> = exp(-d^T H^{-1} d / 2) / sqrt(det H), with
H = cov + I / 2, the output covariance plus the probe's, and d = mean - alpha.
It is 1 exactly on the probe itself.  The closed form runs on D H D and D d,
D = diag(2^-kx, 2^-kp) with k half the binary exponent of each diagonal
entry of H, and F is that value times 2^-(kx + kp).  Powers of two commute
with rounding, so the scaled form is bit for bit the direct one wherever
the direct one neither overflows nor underflows; D H D has its diagonal in
[1/2, 2), so above that range nothing overflows.  Multimode fidelity is out
of scope.
"""

from __future__ import annotations

import numpy as np

from .states import VACUUM_VARIANCE


def coherent_fidelity(mean, cov, alpha) -> np.ndarray:
    """Overlap of stacked single-mode states with coherent states, in [0, 1].

    ``mean`` and the probe mean ``alpha`` have shape (..., 2), ``cov``
    (..., 2, 2); they broadcast.  F is 0 for a mean term that overflows (NaN
    in the scaled form, counted as infinite), for an infinite variance (an
    infinite det H) and where det H <= 0, H not positive definite in double
    precision.  A state has H >= I / 2, so F <= sqrt(2 / max(h_xx, h_pp)),
    and det H rounds to 0 only where both variances pass about 1e14: that 0
    stands for an F below about 1e-7.  No finite input gives NaN.
    """
    with np.errstate(all="ignore"):
        h = cov + VACUUM_VARIANCE * np.eye(2)
        k = np.frexp(np.diagonal(h, axis1=-2, axis2=-1))[1] // 2
        h = np.ldexp(h, -k[..., :, None] - k[..., None, :])
        d = np.ldexp(mean - alpha, -k)
        dx, dp = d[..., 0], d[..., 1]
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        # d^T H^{-1} d with the 2 x 2 inverse written out
        off = h[..., 0, 1] + h[..., 1, 0]
        quad = (dx * dx * h[..., 1, 1] - dx * dp * off + dp * dp * h[..., 0, 0]) / det
        f = np.exp(-0.5 * np.where(np.isnan(quad), np.inf, quad)) / np.sqrt(det)
        f = np.where(det > 0, np.ldexp(f, -k[..., 0] - k[..., 1]), 0.0)
    return np.clip(f, 0.0, 1.0)
