"""Numeric entanglement breaking-point search, kept as an oracle.

The inseparability of a two-mode squeezed vacuum whose mode 1 takes the
protocol is ``mp_oracle.duan_number`` on the 50-digit signal map
``mp_oracle.signal_map``, rounded once to a double, so the oracle shares
nothing with the package: no channel map, no covariance entries of size
cosh(2r) / 2 to difference, no closed form.  The inseparability infimum
over r is a golden-section search; the breaking point is found by
doubling to a bracket (capped at ``eps_limit``) and then bisecting, or by
a 101-point scan of the bracket with linear interpolation.
"""

import math

import numpy as np

import mp_oracle
from splitting_oracle import golden_section


def infimum(eps, g_ratio, eta, xi, strategy, r_max=10.0):
    """Smallest inseparability over r in [0, r_max], by golden section."""
    amplitude, noise = mp_oracle.signal_map(g_ratio, eta, xi, eps, strategy)

    def insep(r):
        return float(mp_oracle.duan_number(amplitude, noise, r))

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
