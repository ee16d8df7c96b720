"""Noise coupling patterns and the signal mode they leave unharmed.

Each independent noise source couples to the N channels with an amplitude
vector.  A signal encoded into a direction orthogonal to every pattern
never meets the shared noise; :func:`null_space_encoder` picks that
direction, and :func:`mirror` is the mode matrix that encodes into it and,
being its own inverse, decodes out of it.  The module needs only numpy, so
``cvgec synth`` loads no channel or state code, and the sweeps no mesh code.
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
    return protected_mode(patterns)[0]


def protected_mode(patterns) -> tuple[np.ndarray, tuple[bool, ...]]:
    """:func:`null_space_encoder`'s vector u, and for each pattern whether
    u . pattern = 0 by construction: the pattern lies in the span u was
    orthogonalized against, or is zero.  A pattern dropped as dependent,
    its residual against the earlier ones at most 1e-9 of its scale, does
    not: u . pattern is that residual's share along u."""
    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    n = patterns.n_channels
    basis, spanned = _orthonormalize(patterns.patterns)
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
            return (s if s[first] > 0 else -s), spanned
    raise NoProtectedSubspaceError("no direction survives orthogonalization")


def mirror(u) -> np.ndarray:
    """The C x C reflection that swaps e_0 and the unit vector ``u``.

    Its first row and column are u, and its block on the other channels is
    (I - P) - u_0 P, summed as -u_0 P - (P - I) so that a zero there takes
    the pi-flip's sign, with P = d d^T / (d^T d) for d the tail of u over its
    largest |entry| (e_1 if the tail is zero), so no square underflows.  It
    is symmetric and its own inverse, and at C = 2 it is the pi-flip
    splitter ((c, -s), (-s, -c)) of u = (c, -s).
    """
    u = np.array(u, dtype=float)
    if u.ndim != 1 or not abs(np.linalg.norm(u) - 1.0) <= 1e-9:
        raise ValueError("u must be a unit vector")
    top = np.max(np.abs(u[1:]), initial=0.0)
    d = u[1:] / top if top > 0.0 else np.eye(u.size - 1, 1).ravel()
    p = np.outer(d, d) / (d @ d)
    m = np.empty((u.size, u.size))
    m[0], m[:, 0] = u, u
    m[1:, 1:] = -u[0] * p - (p - np.eye(u.size - 1))
    return m


def _orthonormalize(vectors) -> tuple[list[np.ndarray], tuple[bool, ...]]:
    """Modified Gram-Schmidt in input order, dropping dependent vectors,
    and for each vector whether the basis spans it: it was kept, or is zero.
    Each is first scaled exactly by the power of two of its largest entry,
    so its norm neither underflows nor overflows at any finite scale."""
    basis: list[np.ndarray] = []
    spanned = []
    for v in vectors:
        r = np.array(v, dtype=float)
        top = np.max(np.abs(r), initial=0.0)
        if top == 0.0:
            spanned.append(True)
            continue
        r = np.ldexp(r, -np.frexp(top)[1])
        scale = np.linalg.norm(r)
        for _ in range(2):
            for q in basis:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        spanned.append(bool(norm > _NULL_TOL * scale))
        if spanned[-1]:
            basis.append(r / norm)
    return basis, tuple(spanned)
