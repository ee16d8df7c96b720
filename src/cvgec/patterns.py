"""Noise coupling patterns and the signal mode they leave unharmed.

Each independent noise source couples to the N channels with an amplitude
vector.  A signal encoded into a direction orthogonal to every pattern
never meets the shared noise; :func:`null_space_encoder` picks that
direction, and :func:`complete_orthonormal` completes it to the mode
matrix that encodes into it.  The module needs only numpy, so ``cvgec
synth`` loads no channel or state code, and the sweeps no mesh code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NULL_TOL = 1e-9


class NoProtectedSubspaceError(ValueError):
    """The noise patterns span every channel mode; no signal mode is safe."""


@dataclass(frozen=True)
class NoisePatternSet:
    """Coupling amplitude vectors of independent noise sources over N channels."""

    patterns: tuple[np.ndarray, ...]

    def __post_init__(self):
        patterns = tuple(np.array(p, dtype=float) for p in self.patterns)
        if not patterns:
            raise ValueError("need at least one pattern")
        n = patterns[0].size
        if any(p.ndim != 1 or p.size != n for p in patterns):
            raise ValueError("all patterns must be vectors of equal length")
        if not all(np.isfinite(p).all() for p in patterns):
            raise ValueError("pattern entries must be finite")
        for p in patterns:
            p.flags.writeable = False
        object.__setattr__(self, "patterns", patterns)

    @property
    def n_channels(self) -> int:
        return self.patterns[0].size


def null_space_encoder(patterns) -> np.ndarray:
    """Unit signal vector orthogonal to every noise coupling pattern.

    Ties (a protected subspace of dimension > 1) are broken
    deterministically: the standard basis vectors are orthonormalized
    against the patterns in order and the first surviving direction wins,
    with the sign fixed so the first nonzero component is positive.  So
    patterns that couple to no channel at all leave e_0.
    """
    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    n = patterns.n_channels
    basis = _orthonormalize(patterns.patterns, n)
    if len(basis) >= n:
        raise NoProtectedSubspaceError(
            "noise patterns span all channels; no protected mode exists"
        )
    q = np.array(basis).reshape(len(basis), n)
    for k in range(n):
        r = np.zeros(n)
        r[k] = 1.0
        for _ in range(2):  # re-orthogonalize for 1e-12 accuracy
            r -= q.T @ (q @ r)
        norm = np.linalg.norm(r)
        if norm > _NULL_TOL:
            s = r / norm
            first = np.flatnonzero(np.abs(s) > _NULL_TOL)[0]
            return s if s[first] > 0 else -s
    raise NoProtectedSubspaceError("no direction survives orthogonalization")


def complete_orthonormal(first_column: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first column is the given unit vector.

    Remaining columns come from orthonormalizing the standard basis, so
    the completion is deterministic.
    """
    s = np.asarray(first_column, dtype=float)
    n = s.size
    if abs(np.linalg.norm(s) - 1.0) > 1e-9:
        raise ValueError("first column must be a unit vector")
    cols = [s]
    for k in range(n):
        if len(cols) == n:
            break
        r = np.zeros(n)
        r[k] = 1.0
        for _ in range(2):
            for q in cols:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm > 1e-9:
            cols.append(r / norm)
    if len(cols) != n:
        raise ValueError("failed to complete the basis")
    return np.column_stack(cols)


def _orthonormalize(vectors, n: int) -> list[np.ndarray]:
    """Modified Gram-Schmidt in input order, dropping dependent vectors."""
    basis: list[np.ndarray] = []
    for v in vectors:
        r = np.array(v, dtype=float)
        scale = np.linalg.norm(r)
        if scale == 0.0:
            continue
        for _ in range(2):
            for q in basis:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm > _NULL_TOL * scale:
            basis.append(r / norm)
    return basis
