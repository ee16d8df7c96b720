"""Affine Gaussian maps and the symplectic transforms built on them.

Every stage and protocol of the package is an affine Gaussian map on a
fixed register of N modes, mean -> X mean + d, cov -> X cov X^T + Y
(Weedbrook et al., RMP 84, 621 (2012), sec. II), carried whole by
:class:`GaussianMap`.  A symplectic transform (beam splitter, phase shift,
squeezer) is the case Y = 0, stored over its target modes so it can act on
any state holding them; construction verifies S Omega S^T = Omega to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import GaussianState, _quad_indices, symplectic_form, vacuum_state

_SYMPLECTIC_TOL = 1e-12
_MAX_SQUEEZING = 20.0


class BsConvention(Enum):
    """Sign convention of the beam-splitter amplitudes.

    PI_FLIP places a relative pi phase on the second output, giving the
    mode matrix ((sqrt(T), -sqrt(1-T)), (-sqrt(1-T), -sqrt(T))).  This is
    the convention under which an encode/decode pair with equal
    transmissivity composes to the identity and correlated noise cancels.
    ROTATION is the proper rotation ((sqrt(T), sqrt(1-T)),
    (-sqrt(1-T), sqrt(T))).
    """

    PI_FLIP = "pi_flip"
    ROTATION = "rotation"


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear phase-space map acting on the listed modes.

    Args:
        matrix: 2k x 2k real symplectic matrix over the k target modes,
            quadratures interleaved per mode.
        modes: the k distinct state modes the matrix acts on, in matrix
            block order.
        displacement: optional length-2k shift added after the linear map.
    """

    matrix: np.ndarray
    modes: tuple[int, ...]
    displacement: np.ndarray | None = None

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        modes = tuple(int(m) for m in self.modes)
        if len(set(modes)) != len(modes):
            raise ValueError("target modes must be distinct")
        if any(m < 0 for m in modes):
            raise ValueError("target modes must be nonnegative")
        k = len(modes)
        if matrix.shape != (2 * k, 2 * k):
            raise ValueError("matrix shape does not match number of target modes")
        omega = symplectic_form(k)
        if np.max(np.abs(matrix @ omega @ matrix.T - omega)) > _SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "modes", modes)
        if self.displacement is not None:
            disp = np.array(self.displacement, dtype=float)
            if disp.shape != (2 * k,):
                raise ValueError("displacement length does not match target modes")
            disp.flags.writeable = False
            object.__setattr__(self, "displacement", disp)

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class GaussianMap:
    """Affine Gaussian map on a register of N modes.

    Args:
        X: real 2N x 2N matrix acting on the mean and, as X cov X^T, on the
            covariance.
        Y: real symmetric 2N x 2N covariance added after X (default 0).
        d: length-2N displacement added to the mean after X (default 0).
    """

    X: np.ndarray
    Y: np.ndarray | None = None
    d: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.X, dtype=float)
        dim = len(x)
        y = np.zeros((dim, dim)) if self.Y is None else np.array(self.Y, dtype=float)
        d = np.zeros(dim) if self.d is None else np.array(self.d, dtype=float)
        if dim == 0 or dim % 2 or x.shape != (dim, dim) or y.shape != x.shape or d.shape != (dim,):
            raise ValueError("need 2N x 2N matrices X and Y and a length-2N vector d")
        for name, a in zip("XYd", (x, y, d)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_modes(self) -> int:
        return self.d.size // 2

    @classmethod
    def of(cls, t: SymplecticTransform, n_modes: int) -> GaussianMap:
        """The map of symplectic transform ``t`` inside an N-mode register."""
        d = np.zeros(2 * n_modes)
        if t.displacement is not None:
            d[_quad_indices(t.modes)] = t.displacement
        return cls(expand(t, n_modes), d=d)

    def then(self, after: GaussianMap) -> GaussianMap:
        """This map followed by ``after`` on the same register."""
        x = after.X
        return GaussianMap(x @ self.X, x @ self.Y @ x.T + after.Y, x @ self.d + after.d)

    def apply(self, state: GaussianState) -> GaussianState:
        """Image of a state held in the same register."""
        return GaussianState(self.X @ state.mean + self.d, self.X @ state.cov @ self.X.T + self.Y)


def embed(block: np.ndarray, modes, n_modes: int, fill: float = 1.0) -> np.ndarray:
    """Place a 2k x 2k block over ``modes`` into an N-mode register, with
    ``fill`` times the identity elsewhere (1 for transforms, 0 for noise)."""
    if not all(0 <= m < n_modes for m in modes):
        raise ValueError("block targets a mode outside the register")
    full = fill * np.eye(2 * n_modes)
    idx = _quad_indices(modes)
    full[np.ix_(idx, idx)] = block
    return full


def expand(t: SymplecticTransform, n_modes: int) -> np.ndarray:
    """Full 2N x 2N matrix of ``t`` acting inside an N-mode space."""
    return embed(t.matrix, t.modes, n_modes)


def apply(t: SymplecticTransform, state: GaussianState) -> GaussianState:
    """Evolve a state: mean -> S mean (+ displacement), cov -> S cov S^T."""
    return GaussianMap.of(t, state.n_modes).apply(state)


def compose(second: SymplecticTransform, first: SymplecticTransform) -> SymplecticTransform:
    """The transform equal to ``first`` followed by ``second``."""
    modes = tuple(sorted(set(first.modes) | set(second.modes)))
    n = modes[-1] + 1
    total = GaussianMap.of(first, n).then(GaussianMap.of(second, n))
    idx = _quad_indices(modes)
    has_disp = first.displacement is not None or second.displacement is not None
    return SymplecticTransform(total.X[np.ix_(idx, idx)], modes, total.d[idx] if has_disp else None)


def beam_splitter_matrix(t: float, convention: BsConvention = BsConvention.PI_FLIP) -> np.ndarray:
    """2x2 mode-amplitude matrix of a beam splitter with transmissivity t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    c = np.sqrt(t)
    s = np.sqrt(1.0 - t)
    if convention is BsConvention.PI_FLIP:
        return np.array([[c, -s], [-s, -c]])
    return np.array([[c, s], [-s, c]])


def beam_splitter(
    t: float,
    modes: tuple[int, int],
    convention: BsConvention = BsConvention.PI_FLIP,
) -> SymplecticTransform:
    """Beam splitter of transmissivity ``t`` between two modes.

    Both quadratures transform with the same real amplitude matrix, so the
    symplectic matrix is the mode matrix tensored with the 2x2 identity.
    """
    i, j = modes
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    b = beam_splitter_matrix(t, convention)
    return SymplecticTransform(np.kron(b, np.eye(2)), (i, j))


def phase_shift(phi: float, mode: int) -> SymplecticTransform:
    """Phase-space rotation by ``phi`` on one mode; phi = pi flips signs."""
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticTransform(np.array([[c, s], [-s, c]]), (mode,))


def squeeze(r: float, theta: float = 0.0, mode: int = 0) -> SymplecticTransform:
    """Single-mode squeezer.

    At theta = 0 the x variance scales by exp(-2r) and the p variance by
    exp(+2r); theta rotates the squeezing axis.  |r| > 20 is rejected to
    avoid overflow, far beyond any regime of interest.
    """
    if not np.isfinite(r) or abs(r) > _MAX_SQUEEZING:
        raise ValueError("squeezing parameter out of supported range")
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    core = np.diag([np.exp(-r), np.exp(r)])
    return SymplecticTransform(rot @ core @ rot.T, (mode,))


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum.

    Built by squeezing the two vacua along orthogonal quadratures (+r on
    mode 0, -r on mode 1) and interfering them on a balanced beam splitter.
    Its inseparability number is 2 exp(-2r).
    """
    state = vacuum_state(2)
    state = apply(squeeze(r, 0.0, mode=0), state)
    state = apply(squeeze(-r, 0.0, mode=1), state)
    return apply(beam_splitter(0.5, (0, 1)), state)
