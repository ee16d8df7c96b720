"""Phase-space representation of multimode Gaussian states.

A state of N bosonic modes is carried as a mean vector and covariance
matrix over the quadratures, interleaved as (x1, p1, ..., xN, pN).  We use
the convention [x, p] = i, so the vacuum has variance 1/2 per quadrature;
shot-noise units (SNU) normalize variances to that value.

All types are immutable values and every operation is a pure function of
its inputs, so states can be shared and evaluated in parallel freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Quadrature variance of the vacuum in natural units.
VACUUM_VARIANCE = 0.5

_SYMMETRY_TOL = 1e-12
_NOISE_PSD_TOL = -1e-10
_PHYSICALITY_TOL = 1e-9
_RESOLUTION_LIMIT = 1e-6


class QuadratureAxis(Enum):
    """The two field quadratures of a mode."""

    X = 0
    P = 1


@dataclass(frozen=True)
class Quadrature:
    """A single quadrature slot: mode index plus X or P axis."""

    mode: int
    axis: QuadratureAxis

    def index(self) -> int:
        """Position of this quadrature in the interleaved ordering."""
        return 2 * self.mode + self.axis.value


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of one or more modes.

    Args:
        mean: real vector of length 2N, ordered (x1, p1, ..., xN, pN).
        cov: real symmetric 2N x 2N covariance matrix in the same ordering,
            natural units (vacuum variance 1/2).

    Finite entries and symmetry of ``cov`` to 1e-12 are enforced on
    construction.  Physicality (symplectic eigenvalues >= 1/2) is *not*
    enforced here; use :func:`physicality_check` to test it.
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


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form for the (x, p)-interleaved ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


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


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state with the modes of ``b`` appended after those of ``a``."""
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    na = a.mean.size
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(mean, cov)


def add_noise(state: GaussianState, noise_cov: np.ndarray) -> GaussianState:
    """Add zero-mean classical noise with the given covariance.

    ``noise_cov`` must be symmetric positive semidefinite (eigenvalues
    >= -1e-10 to absorb rounding) and match the state dimension.
    """
    noise_cov = np.asarray(noise_cov, dtype=float)
    if noise_cov.shape != state.cov.shape:
        raise ValueError("noise covariance dimension mismatch")
    if _asymmetric(noise_cov):
        raise ValueError("noise covariance is not symmetric")
    if np.linalg.eigvalsh(noise_cov).min() < _NOISE_PSD_TOL:
        raise ValueError("noise covariance is not positive semidefinite")
    return GaussianState(state.mean, state.cov + noise_cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state over the kept modes (ascending mode order)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    for k in keep:
        _check_mode(state, k)
    idx = _quad_indices(keep)
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def quadrature_variance(state: GaussianState, q: Quadrature) -> float:
    """Variance of a single quadrature in natural units."""
    _check_mode(state, q.mode)
    k = q.index()
    return float(state.cov[k, k])


def as_snu(variance: float) -> float:
    """Convert a natural-units variance to shot-noise units (vacuum = 1)."""
    return variance / VACUUM_VARIANCE


def duan_simon(state: GaussianState, pair: tuple[int, int]) -> float:
    """Inseparability number Var(x_i - x_j) + Var(p_i + p_j).

    Second moments are taken about the mean.  Values below 2 certify
    entanglement of the mode pair; any product of single-mode states
    yields at least 2.
    """
    i, j = pair
    if i == j:
        raise ValueError("need two distinct modes")
    _check_mode(state, i)
    _check_mode(state, j)
    return float(duan_number(state.cov, pair))


def duan_number(cov: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """:func:`duan_simon` over a stack of covariances of shape (..., 2N, 2N)."""
    xi, xj = 2 * pair[0], 2 * pair[1]
    pi, pj = xi + 1, xj + 1
    var_x = cov[..., xi, xi] + cov[..., xj, xj] - 2.0 * cov[..., xi, xj]
    var_p = cov[..., pi, pi] + cov[..., pj, pj] + 2.0 * cov[..., pi, pj]
    return var_x + var_p


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum of the covariance matrix, ascending.

    Uses the symmetric Williamson form: with cov = L L^T (Cholesky), the
    Hermitian matrix i L^T Omega L has eigenvalues +-nu_k.  A physical state
    has all nu_k >= 1/2.  Rounding cov to doubles alone moves each nu_k by
    up to about cond(cov) * 2**-52 relative to it.  Raises ValueError if cov
    is not positive definite: such a matrix has no symplectic spectrum.
    """
    n = state.n_modes
    try:
        chol = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is not positive definite") from None
    return np.linalg.eigvalsh(1j * (chol.T @ symplectic_form(n) @ chol))[n:]


def physicality_check(state: GaussianState) -> bool:
    """True if the state is certified to satisfy the uncertainty principle.

    Checks min symplectic eigenvalue >= 1/2 - tol, where tol is 1e-9 or
    half the resolution cond(cov) * 2**-52, whichever is larger.  Returns
    False without computing a spectrum when cov is not positive definite
    (no physical covariance is, though rounding can make a strongly squeezed
    one so) or when its resolution exceeds 1e-6, where doubles cannot
    decide (a two-mode squeezed vacuum beyond r of about 5.6).  Never raises.
    """
    resolution = np.linalg.cond(state.cov) * 2.0**-52
    if not resolution <= _RESOLUTION_LIMIT:
        return False
    try:
        nu = symplectic_eigenvalues(state)
    except ValueError:
        return False
    return bool(nu.min() >= VACUUM_VARIANCE - max(_PHYSICALITY_TOL, 0.5 * resolution))


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")


def _asymmetric(matrix: np.ndarray) -> bool:
    """Asymmetric beyond 1e-12, relative for entries above 1."""
    scale = max(1.0, float(np.max(np.abs(matrix))))
    return bool(np.max(np.abs(matrix - matrix.T)) > _SYMMETRY_TOL * scale)


def _quad_indices(modes) -> list[int]:
    """Positions of the (x, p) quadratures of ``modes`` in the interleaved order."""
    return [2 * int(m) + q for m in modes for q in (0, 1)]
