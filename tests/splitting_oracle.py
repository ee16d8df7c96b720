"""Numeric splitter searches, kept as oracles for the closed-form optimum.

``optimal_splitting`` is the reference transmissivity g2 / (g1 + g2) of
both splitters, ``amplitudes`` the amplitude pair (sqrt T, sqrt(1 - T))
that configures a splitter of transmissivity T, and ``pi_flip`` the mode
matrix of a pair, written out here for every oracle rather than taken from
the package.

``nested_search`` is a golden-section search for the optimum that
``cvgec.analysis.optimize_splitting`` gives in closed form: over T_d alone
for the variance objective, and nested over (T_e, T_d) for the fidelity.
``grid_scan_splitting`` scores a whole n x n grid.  Both score points with
:func:`splitting_objective`, which composes one channel map with splitter
matrices directly, so the oracles share only the channel model with the
package's protocol path.
"""

import math

import numpy as np

from cvgec.channel import ChannelModel, NoiseSource, channel_map
from cvgec.fidelity import coherent_fidelity
from cvgec.states import as_snu, displace, vacuum_state

from state_oracle import tensor


def optimal_splitting(g1: float, g2: float) -> float:
    """Noise-cancelling transmissivity g2 / (g1 + g2) of both splitters."""
    return g2 / (g1 + g2)


def amplitudes(t: float) -> tuple[float, float]:
    """Amplitude pair (sqrt(t), sqrt(1 - t)) of a splitter of transmissivity t."""
    return math.sqrt(t), math.sqrt(1.0 - t)


def pi_flip(c, s) -> np.ndarray:
    """Mode matrix ((c, -s), (-s, -c)) of the splitter with the amplitude pair
    (c, s), its own inverse; c and s may be arrays of pairs, giving a
    2 x 2 x ... stack."""
    return np.array([[c, -s], [-s, -c]])


def golden_section(f, a: float, b: float, tol: float = 1e-7) -> tuple[float, float]:
    """Minimize a unimodal function on [a, b]; returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def nested_search(
    g1: float,
    g2: float,
    xi: float = 0.0,
    eta: float = 1.0,
    objective: str = "variance",
    eps_snu: float = 10.0,
    amplitude: tuple[float, float] = (2.0, 0.0),
    tol: float = 1e-7,
) -> tuple[float, float, float]:
    """Golden-section search for the best (T_e, T_d); returns (T_e, T_d, value).

    ``objective='variance'`` searches T_d alone and reports T_e = T_d;
    ``objective='fidelity'`` nests a T_d search inside a T_e search, whose
    direction is quartically flat near the optimum.
    """
    score = splitting_objective(g1, g2, xi, eta, objective, eps_snu, amplitude)

    def objective_fn(te, td):
        return float(score(np.array([te]), np.array([td]))[0, 0])

    if objective == "variance":
        td, value = golden_section(lambda t: objective_fn(t, t), 0.0, 1.0, tol)
        return td, td, value

    def profile(te):
        _, value = golden_section(lambda td: objective_fn(te, td), 0.0, 1.0, tol)
        return value

    te_opt, _ = golden_section(profile, 0.0, 1.0, tol)
    td_opt, value = golden_section(lambda td: objective_fn(te_opt, td), 0.0, 1.0, tol)
    return te_opt, td_opt, value


def grid_scan_splitting(
    g1: float,
    g2: float,
    xi: float = 0.0,
    eta: float = 1.0,
    objective: str = "fidelity",
    eps_snu: float = 10.0,
    amplitude: tuple[float, float] = (2.0, 0.0),
    n: int = 200,
) -> tuple[float, float, float]:
    """Exhaustive n x n scan of the objective; returns (T_e, T_d, value).

    Ties go to the first minimum with T_e as the outer index.
    """
    grid = np.linspace(0.0, 1.0, n)
    values = splitting_objective(g1, g2, xi, eta, objective, eps_snu, amplitude)(grid, grid)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return grid[i], grid[j], values[i, j]


def splitting_objective(
    g1: float,
    g2: float,
    xi: float = 0.0,
    eta: float = 1.0,
    objective: str = "fidelity",
    eps_snu: float = 10.0,
    amplitude: tuple[float, float] = (2.0, 0.0),
):
    """Objective of ``optimize_splitting`` over the outer product of (T_e, T_d).

    Returns ``score(te, td)`` for 1-D arrays, a (len(te), len(td)) array
    of the negated coherent-probe fidelity or the mean output variance in
    SNU.  The channel is one map on (signal, auxiliary); the encoder and
    decoder are stacks of splitter matrices composed for every pair at once.
    """
    if objective not in ("fidelity", "variance"):
        raise ValueError("objective must be 'fidelity' or 'variance'")
    source = NoiseSource(np.sqrt([g1, g2]), 0.5 * eps_snu / g1)
    channel = channel_map(ChannelModel(2, eta, 0.0, (source,), xi), (0, 1), 2)
    probe = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])
    state = tensor(probe, vacuum_state(1))

    def score(te, td):
        encoders, decoders = _splitters(te), _splitters(td)[:, :2]
        # signal-port rows of decoder[td] @ channel.X @ encoder[te], indexed [te, td]
        rows = np.einsum("jab,bc,icd->ijad", decoders, channel.X, encoders)
        added = np.einsum("jab,bc,jdc->jad", decoders, channel.Y, decoders)
        cov = rows @ state.cov @ np.swapaxes(rows, -1, -2) + added[None]
        if objective == "fidelity":
            return -coherent_fidelity(rows @ state.mean, cov, probe.mean)
        return as_snu(0.5 * (cov[..., 0, 0] + cov[..., 1, 1]) - 0.5)

    return score


def _splitters(ts) -> np.ndarray:
    """Pi-flip splitter matrices on (signal, auxiliary), one per transmissivity:
    amplitudes (sqrt T, -sqrt(1-T); -sqrt(1-T), -sqrt T) on x and p alike."""
    amplitudes = np.moveaxis(pi_flip(np.sqrt(ts), np.sqrt(1.0 - ts)), -1, 0)
    return np.einsum("nab,cd->nacbd", amplitudes, np.eye(2)).reshape(-1, 4, 4)
