"""Full phase-space recomposition of a network plan, kept as an oracle.

Places the symplectic block of every plan element on a 2N x 2N register
and multiplies them in application order, so it shares nothing with the
two-row mode-matrix update in ``cvgec.network`` beyond the element types.
``phase_shift`` is the phase elements' 2 x 2 block, which no command needs.
``read_plan`` reads the text that ``serialize_plan`` writes back into a
plan whose target is the x block of that recomposition.
"""

import numpy as np

from cvgec.network import BeamSplitterElement, NetworkPlan, PhaseShiftElement
from cvgec.transforms import embed


def phase_shift(phi: float) -> np.ndarray:
    """2x2 block of a phase-space rotation by ``phi``; phi = pi flips signs."""
    if not np.isfinite(phi):
        raise ValueError("phase must be finite")
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def element_symplectic(element, n_modes: int) -> np.ndarray:
    """Full 2N x 2N symplectic matrix of a single plan element."""
    if isinstance(element, BeamSplitterElement):
        # rotation convention: ((c, s), (-s, c)) on both quadratures
        c, s = np.sqrt(element.t), np.sqrt(1.0 - element.t)
        block = np.kron(np.array([[c, s], [-s, c]]), np.eye(2))
        modes = (element.mode_a, element.mode_b)
    elif isinstance(element, PhaseShiftElement):
        block, modes = phase_shift(element.phi), (element.mode,)
    else:
        raise TypeError(f"unknown plan element {element!r}")
    return embed(block, modes, n_modes)


def plan_symplectic(elements, n_modes: int) -> np.ndarray:
    """Recomposed 2N x 2N symplectic matrix of plan elements applied in order."""
    total = np.eye(2 * n_modes)
    for element in elements:
        total = element_symplectic(element, n_modes) @ total
    return total


def read_plan(text: str) -> tuple[NetworkPlan, str]:
    """The plan and header checksum of a plan text; '#' lines are skipped."""
    n, checksum, elements = 0, "", []
    for line in text.splitlines():
        kind, *fields = line.split() or ["#"]
        if kind == "N":
            n = int(fields[0])
        elif kind == "checksum":
            checksum = fields[0]
        elif kind == "BS":
            elements.append(BeamSplitterElement(int(fields[0]), int(fields[1]), float(fields[2])))
        elif kind == "PS":
            elements.append(PhaseShiftElement(int(fields[0]), float(fields[1])))
        elif not kind.startswith("#"):
            raise ValueError(f"unknown plan line {line!r}")
    return NetworkPlan(tuple(elements), plan_symplectic(elements, n)[::2, ::2]), checksum
