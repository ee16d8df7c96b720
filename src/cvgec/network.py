"""Passive-network synthesis: orthogonal matrices as beam-splitter meshes.

A real orthogonal N x N mode matrix is factored by triangular elimination
into at most N leading pi phase flips and one beam splitter per Givens
rotation, two where its |s| < 1e-6.  Plans serialize to a line-oriented
text format (one element per line), which the `synth` CLI command writes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-10
_RECOMPOSE_TOL = 1e-10
#: A rotation is stored as t = c^2, and recomposing s = sqrt(1 - t) loses
#: about 2**-54 / |s|: 5.5e-11 at this cut-off, half of _RECOMPOSE_TOL.
#: Below it the rotation is stored as a quarter turn and the rotation by
#: the complementary angle, whose t = s^2 keeps its relative precision.
_SMALL_REFLECTIVITY = 1e-6


@dataclass(frozen=True)
class BeamSplitterElement:
    """Two-mode beam splitter, rotation convention, transmissivity t."""

    mode_a: int
    mode_b: int
    t: float


@dataclass(frozen=True)
class PhaseShiftElement:
    """Single-mode phase shift by ``phi`` radians; plans take only 0 or +-pi (sign flip)."""

    mode: int
    phi: float


@dataclass(frozen=True)
class NetworkPlan:
    """Ordered element list realizing a target orthogonal mode matrix.

    Elements are listed in application order (the first element acts
    first).  Construction verifies that recomposing the elements
    reproduces the target to 1e-10.
    """

    elements: tuple
    target: np.ndarray

    def __post_init__(self):
        target = np.array(self.target, dtype=float)
        target.flags.writeable = False
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "elements", tuple(self.elements))
        if target.ndim != 2 or target.size == 0 or target.shape[0] != target.shape[1]:
            raise ValueError("target must be a nonempty square matrix")
        n = len(target)
        err = np.max(np.abs(_recompose(self.elements, n) - target))
        if not err <= _RECOMPOSE_TOL:
            raise ValueError(f"plan does not recompose its target (error {err:.3e})")

    @property
    def n_modes(self) -> int:
        return self.target.shape[0]


def decompose_network(u: np.ndarray) -> NetworkPlan:
    """Factor a real orthogonal matrix into beam splitters and sign flips.

    Subdiagonal entries are eliminated column by column with two-mode
    rotations whose cosines are >= 0, so every sign stays on the leftover
    diagonal, which becomes at most N leading pi flips.  Each rotation is
    one beam splitter, or two (a quarter turn first) where |s| < 1e-6.
    The returned plan applies its elements in order to realize ``u``.  The
    mirror that ``synth`` plans is its own inverse, so its plan decodes too.
    """
    u = np.array(u, dtype=float)
    n = u.shape[0]
    if n == 0 or u.shape != (n, n) or np.max(np.abs(u.T @ u - np.eye(n))) > _ORTHO_TOL:
        raise ValueError("input must be a real orthogonal matrix")

    work = u.copy()
    givens = []  # (j, i, c, s) with rows (j, i) hit by ((c, s), (-s, c))
    for j in range(n - 1):
        for i in range(j + 1, n):
            if work[i, j] == 0.0:
                continue
            h = math.copysign(math.hypot(work[j, j], work[i, j]), work[j, j])
            c, s = work[j, j] / h, work[i, j] / h
            # Rows j and i, from column j on: the columns before j are
            # eliminated and never read again.
            rows = work[j : i + 1 : i - j, j:]
            rows[...] = np.array([[c, s], [-s, c]]) @ rows
            givens.append((j, i, c, s))

    elements = []
    for k in range(n):  # leftover diagonal of +-1
        if work[k, k] < 0:
            elements.append(PhaseShiftElement(k, np.pi))
    # u = G_1^T ... G_m^T D, so apply D first, then the transposed
    # rotations in reverse recording order.
    for j, i, c, s in reversed(givens):
        elements.extend(_rotation_elements(j, i, c, -s))
    return NetworkPlan(tuple(elements), u)


def target_checksum(target: np.ndarray) -> str:
    """Identity stamp of a target matrix: sha256 over 1e-12-rounded entries."""
    text = " ".join(format(x, ".12f") for x in np.asarray(target, dtype=float).ravel())
    return hashlib.sha256(text.encode()).hexdigest()


def serialize_plan(plan: NetworkPlan) -> str:
    """Line-oriented text form: header (N, target checksum), then elements."""
    lines = [f"N {plan.n_modes}", f"checksum {target_checksum(plan.target)}"]
    for element in plan.elements:
        if isinstance(element, BeamSplitterElement):
            lines.append(
                f"BS {element.mode_a} {element.mode_b} {format(element.t, '.17g')}"
            )
        else:
            lines.append(f"PS {element.mode} {format(element.phi, '.17g')}")
    return "\n".join(lines) + "\n"


def _recompose(elements, n: int) -> np.ndarray:
    """N x N mode matrix of the elements applied in order, by two-row
    updates.  Elements act on x and p alike, so a plan is a real mode
    matrix: a phase other than 0 or +-pi would mix x into p and is refused."""
    total = np.eye(n)
    for k, e in enumerate(elements):
        if isinstance(e, BeamSplitterElement):
            a, b, t = e.mode_a, e.mode_b, e.t
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"element {k}: needs two distinct modes among the plan's {n}")
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"element {k}: transmissivity must lie in [0, 1]")
            c, s = math.sqrt(t), math.sqrt(1.0 - t)
            row_a, row_b = total[a], total[b]
            s_b = s * row_b
            row_b *= c
            row_b -= s * row_a
            row_a *= c
            row_a += s_b
        elif isinstance(e, PhaseShiftElement):
            m, phi = e.mode, e.phi
            if not 0 <= m < n:
                raise ValueError(f"element {k}: mode {m} is outside the plan's {n} modes")
            if not (math.isfinite(phi) and abs(math.sin(phi)) <= _RECOMPOSE_TOL):
                raise ValueError(f"element {k}: phase {phi!r} would mix x and p; only 0 or +-pi")
            total[m] *= math.cos(phi)
        else:
            raise TypeError(f"unknown plan element {e!r}")
    return total


def _rotation_elements(j: int, i: int, c: float, s: float) -> list:
    """Elements realizing the rotation ((c, s), (-s, c)) on modes (j, i), c >= 0.

    The rotation by -s is the same splitter with its modes swapped, so the
    sign of s only picks the orientation (a, b) of one splitter.
    """
    a, b = (j, i) if s >= 0 else (i, j)
    s = abs(s)
    if s < _SMALL_REFLECTIVITY:
        # R(c, s) = R(s, -c) R(0, 1) on (a, b), and R(s, -c) is R(s, c) on (b, a).
        return [BeamSplitterElement(a, b, 0.0), BeamSplitterElement(b, a, s * s)]
    return [BeamSplitterElement(a, b, c * c)]
