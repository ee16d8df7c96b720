"""Affine Gaussian maps and the symplectic gates placed by them.

Every stage and protocol of the package is a Gaussian map on a fixed
register of N modes, mean -> X mean, cov -> X cov X^T + Y (Weedbrook et
al., RMP 84, 621 (2012), sec. II), carried whole by :class:`GaussianMap`.
No map displaces the mean: the classical noise is zero-mean, and the
incoherent baseline's feedforward is averaged into X.  A gate (beam
splitter, phase shift, squeezer) is the case Y = 0: each gate function
returns its local 2k x 2k symplectic block, and :meth:`GaussianMap.of`
places that block on k modes of a register.  The beam splitter has the
paper's pi-flip convention, so an encode/decode pair of equal
amplitudes composes to the identity and correlated noise cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _quad_indices, vacuum_state

_MAX_SQUEEZING = 20.0


@dataclass(frozen=True)
class GaussianMap:
    """Gaussian map on a register of N modes.

    Args:
        X: real 2N x 2N matrix acting on the mean and, as X cov X^T, on the
            covariance.
        Y: real symmetric 2N x 2N covariance added after X (default 0).
    """

    X: np.ndarray
    Y: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.X, dtype=float)
        dim = len(x)
        y = np.zeros((dim, dim)) if self.Y is None else np.array(self.Y, dtype=float)
        if dim == 0 or dim % 2 or x.shape != (dim, dim) or y.shape != x.shape:
            raise ValueError("need 2N x 2N matrices X and Y")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("X and Y must be finite")
        for name, a in zip("XY", (x, y)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_modes(self) -> int:
        return len(self.X) // 2

    @classmethod
    def of(cls, block: np.ndarray, modes, n_modes: int) -> GaussianMap:
        """The gate ``block`` acting on ``modes`` of an N-mode register."""
        return cls(embed(block, modes, n_modes))

    def then(self, after: GaussianMap) -> GaussianMap:
        """This map followed by ``after`` on the same register."""
        x = after.X
        return GaussianMap(x @ self.X, x @ self.Y @ x.T + after.Y)

    def apply(self, state: GaussianState) -> GaussianState:
        """Image of a state held in the same register."""
        return GaussianState(self.X @ state.mean, self.X @ state.cov @ self.X.T + self.Y)


def embed(block: np.ndarray, modes, n_modes: int, fill: float = 1.0) -> np.ndarray:
    """Place a 2k x 2k block over ``modes`` into an N-mode register, with
    ``fill`` times the identity elsewhere (1 for gates, 0 for noise).
    The k modes must be distinct."""
    if len(set(modes)) != len(modes):
        raise ValueError("target modes must be distinct")
    if not all(0 <= m < n_modes for m in modes):
        raise ValueError("block targets a mode outside the register")
    if np.shape(block) != (2 * len(modes),) * 2:
        raise ValueError("block shape does not match the number of target modes")
    full = fill * np.eye(2 * n_modes)
    idx = _quad_indices(modes)
    full[np.ix_(idx, idx)] = block
    return full


def beam_splitter_matrix(c: float, s: float) -> np.ndarray:
    """2x2 mode-amplitude matrix ((c, -s), (-s, -c)) of a beam splitter with
    the unit amplitude pair (c, s), transmissivity c^2, and a relative pi
    phase on its second output; it is its own inverse."""
    return np.array([[c, -s], [-s, -c]])


def beam_splitter(t: float) -> np.ndarray:
    """4x4 block of a beam splitter of transmissivity ``t`` on two modes,
    amplitudes (sqrt(t), sqrt(1 - t)).

    Both quadratures transform with the same real amplitude matrix, so the
    symplectic block is the mode matrix tensored with the 2x2 identity.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    return np.kron(beam_splitter_matrix(np.sqrt(t), np.sqrt(1.0 - t)), np.eye(2))


def phase_shift(phi: float) -> np.ndarray:
    """2x2 block of a phase-space rotation by ``phi``; phi = pi flips signs."""
    if not np.isfinite(phi):
        raise ValueError("phase must be finite")
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeeze(r: float, theta: float = 0.0) -> np.ndarray:
    """2x2 block of a single-mode squeezer.

    At theta = 0 the x variance scales by exp(-2r) and the p variance by
    exp(+2r); theta rotates the squeezing axis.  |r| > 20 is rejected to
    avoid overflow, far beyond any regime of interest.
    """
    if not np.isfinite(r) or abs(r) > _MAX_SQUEEZING:
        raise ValueError("squeezing parameter out of supported range")
    if not np.isfinite(theta):
        raise ValueError("squeezing angle must be finite")
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    core = np.diag([np.exp(-r), np.exp(r)])
    return rot @ core @ rot.T


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum.

    Built by squeezing the two vacua along orthogonal quadratures (+r on
    mode 0, -r on mode 1) and interfering them on a balanced beam splitter.
    Its inseparability number is 2 exp(-2r).
    """
    state = GaussianMap.of(squeeze(r), (0,), 2).apply(vacuum_state(2))
    state = GaussianMap.of(squeeze(-r), (1,), 2).apply(state)
    return GaussianMap.of(beam_splitter(0.5), (0, 1), 2).apply(state)
