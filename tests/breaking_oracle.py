"""Numeric entanglement breaking-point search, kept as an oracle.

Builds the protocol's map once per noise level and applies it to a
two-mode squeezed vacuum at each trial squeezing, so it shares nothing
with the closed form in ``cvgec.analysis`` beyond the channel model: the
corrected map composes the noise-cancelling splitter pair with the channel
map here, as ``splitting_oracle`` does.
The inseparability infimum over r is a golden-section search; the
breaking point is found by doubling to a bracket (capped at
``eps_limit``) and then bisecting, or by a 101-point scan of the bracket
with linear interpolation.  The noise shifts the inseparability by the
same amount at every r, so each search of one configuration probes the
same trial squeezings; the trial input states are cached by r.
"""

import functools
import math

import numpy as np

from cvgec.channel import channel_map, standard_two_channel
from cvgec.protocol import optimal_splitting_for, uncorrected_map
from cvgec.states import vacuum_state
from cvgec.transforms import GaussianMap, beam_splitter_matrix, two_mode_squeezed

from splitting_oracle import golden_section
from state_oracle import duan_simon, partial_trace, tensor


def infimum(eps, g_ratio, eta, xi, strategy, r_max=10.0):
    """Smallest inseparability over r in [0, r_max], by golden section."""
    model = standard_two_channel(eps, g_ratio, eta, xi)
    if strategy == "corrected":
        # modes (local, signal, auxiliary); the pi-flip splitter decodes too
        splitter = np.kron(beam_splitter_matrix(*optimal_splitting_for(model)), np.eye(2))
        splitter = GaussianMap.of(splitter, (1, 2), 3)
        protocol = splitter.then(channel_map(model, (1, 2), 3)).then(splitter)
    else:
        protocol = uncorrected_map(model, 2, signal_mode=1, channel=0)
    spares = protocol.n_modes - 2

    def insep(r):
        out = protocol.apply(_squeezed_input(r, spares))
        return duan_simon(partial_trace(out, (0, 1)), (0, 1))

    _, value = golden_section(insep, 0.0, r_max, tol=1e-9)
    return min(value, insep(0.0), insep(r_max))


def breaking_point(
    g_ratio, eta, xi, strategy, r_max=10.0, tol=1e-6, eps_limit=1000.0, method="bisect"
):
    """Noise level where the infimum reaches 2; ``math.inf`` above eps_limit."""

    def gap(eps):
        return infimum(eps, g_ratio, eta, xi, strategy, r_max) - 2.0

    if gap(0.0) >= 0.0:
        return 0.0
    lo, hi = 0.0, min(1.0, eps_limit)
    while gap(hi) < 0.0:
        if hi == eps_limit:
            return math.inf
        lo, hi = hi, min(2.0 * hi, eps_limit)
    if method == "scan":
        grid = np.linspace(lo, hi, 101)
        values = np.array([gap(e) for e in grid])
        k = int(np.argmax(values >= 0.0))
        # affine between neighbouring grid points
        e0, e1 = grid[k - 1], grid[k]
        v0, v1 = values[k - 1], values[k]
        return float(e0 - v0 * (e1 - e0) / (v1 - v0))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=4096)
def _squeezed_input(r, spares):
    """Two-mode squeezed vacuum followed by ``spares`` vacuum modes."""
    return tensor(two_mode_squeezed(r), vacuum_state(spares))
