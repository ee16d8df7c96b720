"""Affine Gaussian maps and the symplectic gates placed by them.

Every stage and protocol of the package is a Gaussian map on a fixed
register of N modes, mean -> X mean, cov -> X cov X^T + Y (Weedbrook et
al., RMP 84, 621 (2012), sec. II), carried whole by :class:`GaussianMap`.
The added covariance is held as independent noise inputs, Y = F diag(v) F^T:
column j of F is how input j reaches the register, v[j] its variance, and
labels[j] where it came from.  So composing maps only moves columns and
joins variances and labels, a source's share of any mode is one dot product
squared, never negative, and a variance enters nothing but its own input.
No map displaces the mean: the classical noise is zero-mean, and the
incoherent baseline's feedforward is averaged into X.
A gate (the beam splitter) is the case with no inputs: a gate function
returns its local 2k x 2k symplectic block, and
:meth:`GaussianMap.of` places that block on k modes of a register.  The
beam splitter is the paper's pi-flip splitter, the two-channel mirror, so
an encode/decode pair of equal amplitudes is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import mirror
from .states import VACUUM_VARIANCE, GaussianState, _quad_indices

_MAX_SQUEEZING = 20.0


@dataclass(frozen=True)
class GaussianMap:
    """Gaussian map on a register of N modes.

    Args:
        X: real 2N x 2N matrix acting on the mean and, as X cov X^T, on the
            covariance.
        F: real 2N x k matrix, one column per independent noise input
            (default: no inputs).
        v: the k per-input variances, finite and nonnegative.
        labels: the k origins of the inputs, one string each (required when
            there are inputs).  The package writes ``<origin>.<q>`` for
            quadrature q of x or p, with origin ``loss:<i>`` (channel i's
            loss, its thermal part included), ``own:<i>`` (channel i's
            non-interfering mismatch noise), ``source:<k>:<name>`` (the k-th
            noise source, named ``name`` in the config) or ``carrier:<m>``
            (the vacuum of register mode m, dropped by :meth:`restricted`);
            every index counts from 0.  :func:`quadrature_labels` writes
            them, and :func:`label_origin` reads the origin back.

    The added covariance is the property ``Y = F diag(v) F^T``.
    """

    X: np.ndarray
    F: np.ndarray | None = None
    v: np.ndarray | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        x = np.array(self.X, dtype=float)
        dim = len(x)
        f = np.zeros((dim, 0)) if self.F is None else np.array(self.F, dtype=float)
        v = np.zeros(0) if self.v is None else np.array(self.v, dtype=float)
        if dim == 0 or dim % 2 or x.shape != (dim, dim):
            raise ValueError("need a 2N x 2N matrix X")
        if f.ndim != 2 or len(f) != dim or v.shape != f.shape[1:]:
            raise ValueError("need a 2N x k matrix F and k variances v")
        if not (np.isfinite(x).all() and np.isfinite(f).all()):
            raise ValueError("X and F must be finite")
        if not np.all((v >= 0.0) & (v < np.inf)):
            raise ValueError("noise variances must be finite and nonnegative")
        labels = tuple(self.labels)
        if len(labels) != len(v) or not all(isinstance(s, str) for s in labels):
            raise ValueError(f"need one label per input: {len(v)} inputs, {len(labels)} labels")
        for name, a in zip("XFv", (x, f, v)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "labels", labels)

    @property
    def n_modes(self) -> int:
        return len(self.X) // 2

    @property
    def Y(self) -> np.ndarray:
        """Added covariance F diag(v) F^T."""
        return (self.F * self.v) @ self.F.T

    @classmethod
    def of(cls, block: np.ndarray, modes, n_modes: int) -> GaussianMap:
        """The gate ``block`` acting on ``modes`` of an N-mode register."""
        return cls(embed(block, modes, n_modes))

    def then(self, after: GaussianMap) -> GaussianMap:
        """This map followed by ``after`` on the same register: this map's
        inputs pass through ``after.X``, and ``after``'s join them."""
        f, v = np.hstack([after.X @ self.F, after.F]), np.concatenate([self.v, after.v])
        return GaussianMap(after.X @ self.X, f, v, self.labels + after.labels)

    def apply(self, state: GaussianState) -> GaussianState:
        """Image of a state held in the same register."""
        return GaussianState(self.X @ state.mean, self.X @ state.cov @ self.X.T + self.Y)

    def restricted(self, k: int) -> GaussianMap:
        """The map on the register's first ``k`` modes, every later mode
        entering in vacuum and then dropped: each dropped mode's quadrature
        is one more input, its column of X, of the vacuum variance, labelled
        ``carrier:<m>``."""
        if not 1 <= k <= self.n_modes:
            raise ValueError(f"cannot keep {k} of {self.n_modes} modes")
        x = self.X[: 2 * k]
        tail = x[:, 2 * k :]
        v = np.concatenate([self.v, np.full(tail.shape[1], VACUUM_VARIANCE)])
        labels = self.labels + quadrature_labels("carrier", range(k, self.n_modes))
        return GaussianMap(x[:, : 2 * k], np.hstack([self.F[: 2 * k], tail]), v, labels)


def quadrature_labels(origin: str, indices) -> tuple[str, ...]:
    """``<origin>:<i>.x`` and ``<origin>:<i>.p`` for each index i, in order:
    the labels of one input per quadrature of each channel or mode i."""
    return tuple(f"{origin}:{i}.{q}" for i in indices for q in "xp")


def label_origin(label: str) -> tuple[str, int]:
    """The origin and the index that a label of :func:`quadrature_labels`
    begins with: ``("source", 1)`` for ``source:1:a.x``."""
    origin, index = label.split(":", 2)[:2]
    return origin, int(index.partition(".")[0])


def embed(block: np.ndarray, modes, n_modes: int) -> np.ndarray:
    """Place a 2k x 2k block over ``modes`` into an N-mode register, with
    the identity elsewhere.  The k modes must be distinct."""
    if len(set(modes)) != len(modes):
        raise ValueError("target modes must be distinct")
    if not all(0 <= m < n_modes for m in modes):
        raise ValueError("block targets a mode outside the register")
    if np.shape(block) != (2 * len(modes),) * 2:
        raise ValueError("block shape does not match the number of target modes")
    full = np.eye(2 * n_modes)
    idx = _quad_indices(modes)
    full[np.ix_(idx, idx)] = block
    return full


def beam_splitter(t: float) -> np.ndarray:
    """4x4 block of a beam splitter of transmissivity ``t`` on two modes,
    amplitudes (c, s) = (sqrt(t), sqrt(1 - t)): the mirror of (c, -s),
    ((c, -s), (-s, -c)), a pi phase on its second output.

    Both quadratures transform with the same real amplitude matrix, so the
    symplectic block is the mode matrix tensored with the 2x2 identity.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    return np.kron(mirror((np.sqrt(t), -np.sqrt(1.0 - t))), np.eye(2))


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum, from its closed-form covariance
    (cosh 2r I, sinh 2r Z; sinh 2r Z, cosh 2r I) / 2 with Z = diag(1, -1):
    two vacua squeezed along orthogonal quadratures (+r on mode 0, -r on
    mode 1) and interfered on the balanced pi-flip splitter.  Its
    inseparability number is 2 exp(-2r).  |r| > 20 is rejected to avoid
    overflow, far beyond any regime of interest.
    """
    if not np.isfinite(r) or abs(r) > _MAX_SQUEEZING:
        raise ValueError("squeezing parameter out of supported range")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    cross = sh * np.diag([1.0, -1.0])
    cov = VACUUM_VARIANCE * np.block([[ch * np.eye(2), cross], [cross, ch * np.eye(2)]])
    return GaussianState(np.zeros(4), cov)
