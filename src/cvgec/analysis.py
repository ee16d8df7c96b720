"""Sweeps and closed forms over the protocol: variance, fidelity, entanglement.

The noise axis ``eps`` is always channel 1's excess noise in SNU at the
channel output (see :func:`cvgec.channel.standard_two_channel`).  Each
strategy is one affine map whose signal-mode covariance is affine in the
noise, cov -> X cov X^T + Y0 + eps Y1, because the optimal splitting and
the couplings do not depend on eps.  So every map is built once per call,
a sweep is one array operation over the whole grid, the entanglement
breaking point is the root of a linear equation, and the best splitter
setting is the lower eigenvector of a 2 x 2 noise form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseSource, ChannelModel, standard_two_channel
from .fidelity import fidelity, fidelity_moments
from .protocol import (
    ProtocolConfig,
    corrected_channel,
    corrected_map,
    incoherent_map,
    optimal_splitting_for,
    uncorrected_map,
)
from .states import VACUUM_VARIANCE, as_snu, displace, vacuum_state
from .transforms import _MAX_SQUEEZING, GaussianMap, two_mode_squeezed

#: CSV column order shared by both sweep commands.
SWEEP_COLUMNS = (
    "eps_snu",
    "var_x_corr_snu",
    "var_p_corr_snu",
    "var_x_uncorr_snu",
    "var_p_uncorr_snu",
    "fid_corr",
    "fid_uncorr",
    "fid_incoh",
    "insep_corr",
    "insep_uncorr",
)


@dataclass(frozen=True)
class SweepResult:
    """Tabulated curves against the noise axis plus a config echo."""

    axis: np.ndarray
    series: dict
    metadata: dict

    def __post_init__(self):
        axis = np.array(self.axis, dtype=float)
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        series = {k: np.asarray(v, dtype=float) for k, v in self.series.items()}
        for name, values in series.items():
            if values.shape != axis.shape:
                raise ValueError(f"series {name!r} does not match the axis length")
        for name in ("fid_corr", "fid_uncorr", "fid_incoh"):
            if name in series:
                vals = series[name]
                good = vals[~np.isnan(vals)]
                if np.any(good < 0) or np.any(good > 1):
                    raise ValueError("fidelities must lie in [0, 1]")
        for name in ("insep_corr", "insep_uncorr"):
            if name in series:
                good = series[name][~np.isnan(series[name])]
                if np.any(good < 0):
                    raise ValueError("inseparabilities must be nonnegative")
        object.__setattr__(self, "series", series)


def coherent_sweep(
    g_ratio: float,
    eta: float,
    xi: float,
    amplitude: tuple[float, float],
    eps_grid,
) -> SweepResult:
    """Variance and fidelity curves for a coherent input state.

    For each noise level the corrected (optimal splitting), uncorrected
    (direct channel-1 transmission) and incoherent (measure/feedforward)
    outputs are evaluated.  Fidelities compare against the original input
    with no gain rescaling; displacement-corrected values are stashed in
    the metadata alongside the channel-2 uncorrected alternative.
    """
    eps_grid = _noise_values(eps_grid)
    probe = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])
    mean, cov = probe.mean, probe.cov
    (m_corr, v_corr), (m_unc, v_unc), (m_unc2, v_unc2), (m_inc, v_inc) = (
        _outputs(_noise_axis(strategy, g_ratio, eta, xi), mean, cov, eps_grid)
        for strategy in (
            corrected_map,
            uncorrected_map,
            lambda cfg, n_modes: uncorrected_map(cfg, n_modes, channel=1),
            incoherent_map,
        )
    )
    nan = np.full(eps_grid.size, np.nan)
    cols = {
        "var_x_corr_snu": as_snu(v_corr[:, 0, 0]),
        "var_p_corr_snu": as_snu(v_corr[:, 1, 1]),
        "var_x_uncorr_snu": as_snu(v_unc[:, 0, 0]),
        "var_p_uncorr_snu": as_snu(v_unc[:, 1, 1]),
        "fid_corr": fidelity_moments(m_corr, v_corr, mean, cov),
        "fid_uncorr": fidelity_moments(m_unc, v_unc, mean, cov),
        "fid_incoh": fidelity_moments(m_inc, v_inc, mean, cov),
        "insep_corr": nan,
        "insep_uncorr": nan,
    }
    # Channel 2 carries eps / g_ratio, which can exceed the double range
    # at the top of the finite noise axis; its variance is then inf.
    with np.errstate(over="ignore"):
        alt = {
            "var_x": as_snu(v_unc2[:, 0, 0]),
            "var_p": as_snu(v_unc2[:, 1, 1]),
            "fid": fidelity_moments(m_unc2, v_unc2, mean, cov),
        }
    shifted = {
        "fid_corr": fidelity_moments(mean, v_corr, mean, cov),
        "fid_uncorr": fidelity_moments(mean, v_unc, mean, cov),
    }
    metadata = {
        "sweep": "coherent",
        "g_ratio": g_ratio,
        "eta": eta,
        "xi": xi,
        "amplitude": list(amplitude),
        "uncorrected_channel_2": {k: v.tolist() for k, v in alt.items()},
        "displacement_corrected": {k: v.tolist() for k, v in shifted.items()},
    }
    return SweepResult(eps_grid, cols, metadata)


def entanglement_sweep(
    r: float,
    eta: float,
    xi: float,
    eps_grid,
    g_ratio: float = 1.0,
) -> SweepResult:
    """Inseparability of a two-mode squeezed state, one half transmitted.

    Mode 1 of the entangled pair rides the protocol; mode 0 stays local.
    Variance columns report the transmitted mode; the inseparability is
    summed as in :func:`_squeezing_weights`, free of cancellation.
    Fidelity columns are NaN (multimode fidelity is out of scope).
    """
    eps_grid = _noise_values(eps_grid)
    transmitted = two_mode_squeezed(r).cov[2:, 2:]
    cols = {}
    for tag, strategy in (("corr", corrected_map), ("uncorr", uncorrected_map)):
        x, y0, y1 = axis = _noise_axis(strategy, g_ratio, eta, xi)
        _, cov = _outputs(axis, np.zeros(2), transmitted, eps_grid)
        s, d = _squeezing_weights(x)
        cols[f"var_x_{tag}_snu"] = as_snu(cov[:, 0, 0])
        cols[f"var_p_{tag}_snu"] = as_snu(cov[:, 1, 1])
        squeezed = 0.5 * (s * math.exp(2.0 * r) + d * math.exp(-2.0 * r))
        cols[f"insep_{tag}"] = np.trace(y0) + eps_grid * np.trace(y1) + squeezed
    nan = np.full(eps_grid.size, np.nan)
    cols.update(fid_corr=nan, fid_uncorr=nan, fid_incoh=nan)
    metadata = {
        "sweep": "entanglement",
        "r": r,
        "eta": eta,
        "xi": xi,
        "g_ratio": g_ratio,
        "inseparability_threshold": 2.0,
    }
    return SweepResult(eps_grid, cols, metadata)


def inseparability_infimum(
    eps: float,
    g_ratio: float,
    eta: float,
    xi: float,
    strategy: str,
    r_max: float = 10.0,
) -> float:
    """Smallest inseparability over input squeezing r in [0, r_max].

    Sending mode 1 of a two-mode squeezed vacuum through the single-mode
    map cov -> X cov X^T + Y gives the Duan number
    (s e^{2r} + d e^{-2r}) / 2 + tr Y (see :func:`_squeezing_weights`);
    :func:`_squeezing_minimum` gives its minimum.
    """
    at_zero, slope = _infimum_line(g_ratio, eta, xi, strategy, r_max)
    return at_zero + float(_noise_values(eps)) * slope


def entanglement_breaking_point(
    g_ratio: float,
    eta: float,
    xi: float,
    strategy: str,
    r_max: float = 10.0,
    eps_limit: float = 1000.0,
) -> float:
    """Smallest noise level at which no input state stays entangled.

    Only tr Y depends on the noise, and it is affine in it, so the
    infimum of the inseparability reaches 2 at the root of a linear
    equation.  Returns ``math.inf`` if the channel never breaks at or below
    ``eps_limit``, which is the ideal corrected case.
    """
    if not eps_limit >= 0.0:
        raise ValueError("eps_limit must be nonnegative")
    at_zero, slope = _infimum_line(g_ratio, eta, xi, strategy, r_max)
    gap = at_zero - 2.0
    if gap >= 0.0:
        return 0.0
    if slope <= 0.0 or -gap > slope * eps_limit:
        return math.inf
    return -gap / slope


def optimize_splitting(
    g1: float,
    g2: float,
    xi: float = 0.0,
    eta: float = 1.0,
    objective: str = "variance",
    eps_snu: float = 10.0,
    amplitude: tuple[float, float] = (2.0, 0.0),
) -> tuple[float, float, float]:
    """Best encoder/decoder transmissivities, in closed form.

    Returns ``(T, T, value)``, the objective evaluated once on the protocol
    at T_e = T_d = T.  T_e enters only through the mean attenuation
    sqrt(eta) cos(theta_e - theta_d), with T = cos^2 theta, which is best
    at T_e = T_d; T_d alone sets the added noise var Q(T_d) at the signal
    port.  The variance is smallest at the minimum of Q (g2 / (g1 + g2) at
    xi = 0).  The coherent-probe fidelity exp(-D / 2u) / u, with
    u = 1 + var Q and D = (1 - sqrt(eta))^2 |amplitude|^2, peaks at
    u = D / 2; so it shares that optimum unless D / 2 - 1 exceeds the
    minimum noise, which a lossy enough channel allows, and then T is
    where the noise comes closest to D / 2 - 1.
    """
    objective_fn = _objective(g1, g2, xi, eta, objective, eps_snu, amplitude)
    level = -math.inf
    if objective == "fidelity" and eps_snu > 0.0:
        shift = (1.0 - math.sqrt(eta)) ** 2 * (amplitude[0] ** 2 + amplitude[1] ** 2)
        level = (0.5 * shift - 1.0) / (0.5 * eps_snu / g1)
    t = _splitting_for_noise(g1, g2, xi, level)
    return t, t, objective_fn(t, t)


def write_sweep_csv(result: SweepResult, stream, columns=SWEEP_COLUMNS) -> None:
    """Fixed-column CSV, one row per noise level, full double precision.

    The first column is the noise axis; the others name series of ``result``.
    """
    stream.write(",".join(columns) + "\n")
    for k, eps in enumerate(result.axis):
        row = [format(eps, ".17g")]
        row += [format(result.series[name][k], ".17g") for name in columns[1:]]
        stream.write(",".join(row) + "\n")


def _noise_values(eps) -> np.ndarray:
    """A noise level or grid as floats, each finite and nonnegative."""
    eps = np.asarray(eps, dtype=float)
    if eps.size == 0:
        raise ValueError("empty noise grid")
    if not np.all((eps >= 0.0) & (eps < np.inf)):
        raise ValueError("excess noise must be finite and nonnegative")
    return eps


def _infimum_line(g_ratio: float, eta: float, xi: float, strategy: str, r_max: float):
    """Inseparability infimum over r at eps = 0, and its slope in eps."""
    if strategy not in ("corrected", "uncorrected"):
        raise ValueError("strategy must be 'corrected' or 'uncorrected'")
    if not 0.0 <= r_max <= _MAX_SQUEEZING:
        raise ValueError("r_max must lie in [0, 20], the supported squeezing range")
    strategy_map = corrected_map if strategy == "corrected" else uncorrected_map
    x, y0, y1 = _noise_axis(strategy_map, g_ratio, eta, xi)
    return float(np.trace(y0)) + _squeezing_minimum(x, r_max), float(np.trace(y1))


def _noise_axis(strategy, g_ratio: float, eta: float, xi: float):
    """(X, Y0, Y1) of a strategy on its signal mode: cov -> X cov X^T + Y0 + eps Y1.

    ``strategy(cfg, n_modes)`` is one of the protocol's map builders.  The
    optimal splitting and the couplings do not depend on eps, and the
    channel's added covariance is linear in it, so two maps fix the axis.
    """
    x, y0 = _signal_block(strategy(_two_channel_config(0.0, g_ratio, eta, xi), 1))
    _, y_unit = _signal_block(strategy(_two_channel_config(1.0, g_ratio, eta, xi), 1))
    return x, y0, y_unit - y0


def _signal_block(m: GaussianMap) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) of a map restricted to mode 0, every other register mode
    entering in vacuum; the strategies carry no displacement."""
    x = m.X[:2]
    return x[:, :2], m.Y[:2, :2] + VACUUM_VARIANCE * x[:, 2:] @ x[:, 2:].T


def _outputs(axis, mean, cov, eps_grid):
    """Output mean (2,), the same at every eps, and covariance stack
    (K, 2, 2) of one input mode."""
    x, y0, y1 = axis
    return x @ mean, (x @ cov @ x.T + y0) + eps_grid[:, None, None] * y1


def _squeezing_weights(x: np.ndarray) -> tuple[float, float]:
    """(s, d) of the Duan number tr Y + (s e^{2r} + d e^{-2r}) / 2 of a
    two-mode squeezed vacuum whose mode 1 takes cov -> X cov X^T + Y.

    That is a cosh 2r + b sinh 2r + tr Y with a = 1 + |X|_F^2 / 2 and
    b = -(X_xx + X_pp), so s = a + b = |X - I|_F^2 / 2 and
    d = a - b = |X + I|_F^2 / 2: two nonnegative terms, no cancellation.
    """
    eye = np.eye(2)
    return 0.5 * float(np.sum((x - eye) ** 2)), 0.5 * float(np.sum((x + eye) ** 2))


def _squeezing_minimum(x: np.ndarray, r_max: float) -> float:
    """Minimum over r in [0, r_max] of (s e^{2r} + d e^{-2r}) / 2.

    The minimiser is r* = atanh(-b / a) / 2 = ln(d / s) / 4 when b < 0,
    capped at r_max, and 0 otherwise.
    """
    s, d = _squeezing_weights(x)
    if d <= s:
        r = 0.0
    else:
        r = r_max if s == 0.0 else min(0.25 * math.log(d / s), r_max)
    return 0.5 * (s * math.exp(2.0 * r) + d * math.exp(-2.0 * r))


def _two_channel_config(eps: float, g_ratio: float, eta: float, xi: float) -> ProtocolConfig:
    model = standard_two_channel(eps, g_ratio, eta, xi)
    t = optimal_splitting_for(model)
    return ProtocolConfig(t, t, model)


def _splitting_for_noise(g1: float, g2: float, xi: float, level: float) -> float:
    """Transmissivity T at which the noise form Q(T) comes closest to
    ``level`` without going under its minimum.

    Q(T) = (1 - xi)(sqrt(T g1) - sqrt((1 - T) g2))^2 + xi (T g1 + (1 - T) g2)
    is a quadratic form in (sqrt T, sqrt(1 - T)) = (cos psi/2, sin psi/2),
    Q = m - r cos(psi - psi*) with m = (g1 + g2) / 2 and
    2 r = sqrt((g1 - g2)^2 + 4 (1 - xi)^2 g1 g2) > 0 for g1, g2 > 0 and
    xi < 1.  Its minimum m - r, the lower eigenvalue of
    [[g1, -(1 - xi) sqrt(g1 g2)], [-(1 - xi) sqrt(g1 g2), g2]], lies at
    T* = (1 + cos psi*) / 2 = (1 + (g2 - g1) / 2r) / 2.  Above it,
    Q = level at psi = psi* -+ acos((m - level) / r); a tie goes to the
    larger T, and a level past both ends of [0, 1] to the end nearer it.
    """
    root = math.hypot(g1 - g2, 2.0 * (1.0 - xi) * math.sqrt(g1) * math.sqrt(g2))
    spread = 0.5 * (g1 + g2) - level
    if spread >= 0.5 * root:
        return 0.5 * (1.0 + (g2 - g1) / root)
    centre = math.acos((g2 - g1) / root)
    turn = math.acos(max(spread / (0.5 * root), -1.0))
    if centre >= turn:
        psi = centre - turn
    elif centre + turn <= math.pi:
        psi = centre + turn
    else:
        psi = 0.0 if g1 >= g2 else math.pi
    return 0.5 * (1.0 + math.cos(psi))


def _objective(g1, g2, xi, eta, objective, eps_snu, amplitude):
    if objective not in ("fidelity", "variance"):
        raise ValueError("objective must be 'fidelity' or 'variance'")
    if g1 <= 0 or g2 <= 0:
        raise ValueError("noise magnitudes must be positive")
    variance = 0.5 * eps_snu / g1
    source = NoiseSource(np.sqrt([g1, g2]), variance)
    model = ChannelModel(2, eta, 0.0, (source,), xi)
    probe = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])

    def fn(te, td):
        cfg = ProtocolConfig(te, td, model)
        out = corrected_channel(cfg, probe)
        if objective == "fidelity":
            return -fidelity(out, probe)
        return as_snu(0.5 * (out.cov[0, 0] + out.cov[1, 1]) - 0.5)

    return fn
