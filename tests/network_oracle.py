"""Full phase-space recomposition of a network plan, kept as an oracle.

Builds the checked 2N x 2N symplectic matrix of every plan element from
the transforms module and multiplies them in application order, so it
shares nothing with the two-row mode-matrix update in ``cvgec.network``
beyond the element types.
"""

import numpy as np

from cvgec.network import BeamSplitterElement, PhaseShiftElement
from cvgec.transforms import BsConvention, beam_splitter, expand, phase_shift


def element_symplectic(element, n_modes: int) -> np.ndarray:
    """Full 2N x 2N symplectic matrix of a single plan element."""
    if isinstance(element, BeamSplitterElement):
        t = beam_splitter(element.t, (element.mode_a, element.mode_b), BsConvention.ROTATION)
    elif isinstance(element, PhaseShiftElement):
        t = phase_shift(element.phi, element.mode)
    else:
        raise TypeError(f"unknown plan element {element!r}")
    return expand(t, n_modes)


def plan_symplectic(plan) -> np.ndarray:
    """Recomposed 2N x 2N symplectic matrix of the whole plan."""
    n = plan.target.shape[0]
    total = np.eye(2 * n)
    for element in plan.elements:
        total = element_symplectic(element, n) @ total
    return total
