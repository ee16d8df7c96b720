"""Phase-space representation of multimode Gaussian states.

A state of N bosonic modes is carried as a mean vector and covariance
matrix over the quadratures, interleaved as (x1, p1, ..., xN, pN).  We use
the convention [x, p] = i, so the vacuum has variance 1/2 per quadrature;
shot-noise units (SNU) normalize variances to that value.

States are built here (vacuum, displacement); validity is checked on the
maps that act on them.  A map (X, Y) is a Gaussian channel iff
Y + i (Omega - X Omega X^T) / 2 >= 0, with Omega the symplectic form
(Holevo & Werner, PRA 63, 032312 (2001)); the tests' ``channel_margin(x, y)``
in ``tests/state_oracle.py`` is its smallest eigenvalue.  A map's Y is a
sum of independent noise inputs, so it is positive semidefinite by
construction, and a state is checked as its preparation (0, cov).  A map restricted to
the kept modes (:meth:`cvgec.transforms.GaussianMap.restricted`) stands in
for the tensor product with vacua and the partial trace.

All types are immutable values and every operation is a pure function of
its inputs, so states can be shared and evaluated in parallel freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: Quadrature variance of the vacuum in natural units.
VACUUM_VARIANCE = 0.5

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of one or more modes.

    Args:
        mean: real vector of length 2N, ordered (x1, p1, ..., xN, pN).
        cov: real symmetric 2N x 2N covariance matrix in the same ordering,
            natural units (vacuum variance 1/2).

    Finite entries and symmetry of ``cov`` to 1e-12 are enforced on
    construction.  Physicality (cov + i Omega / 2 >= 0) is not; the tests
    check validity on the maps that act on states.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if mean.size == 0 or mean.size % 2 != 0:
            raise ValueError("need a positive even number of quadratures")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if _asymmetric(cov):
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def vacuum_state(n: int) -> GaussianState:
    """N-mode vacuum: zero mean, covariance (1/2) * identity."""
    if n < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * n), VACUUM_VARIANCE * np.eye(2 * n))


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Shift the mean of one mode by (dx, dp); the covariance is unchanged."""
    _check_mode(state, mode)
    mean = state.mean.copy()
    mean[2 * mode] += dx
    mean[2 * mode + 1] += dp
    return GaussianState(mean, state.cov)


def as_snu(variance: float) -> float:
    """Convert a natural-units variance to shot-noise units (vacuum = 1)."""
    return variance / VACUUM_VARIANCE


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")


def _asymmetric(matrix: np.ndarray) -> bool:
    """Asymmetric beyond 1e-12, relative for entries above 1."""
    scale = max(1.0, float(np.max(np.abs(matrix))))
    return bool(np.max(np.abs(matrix - matrix.T)) > _SYMMETRY_TOL * scale)


def _quad_indices(modes) -> list[int]:
    """Positions of the (x, p) quadratures of integer ``modes`` in the interleaved order."""
    try:
        return [2 * operator.index(m) + q for m in modes for q in (0, 1)]
    except TypeError:
        raise ValueError("mode indices must be integers") from None
