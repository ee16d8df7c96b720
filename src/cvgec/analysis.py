"""Sweeps and closed forms over the protocol: variance, fidelity, entanglement.

The noise axis ``eps`` scales every source variance of a sweep's channel
model; the CLI scales its models to 1 SNU of channel-1 excess noise at the
channel output (see :func:`cvgec.channel.standard_two_channel`).  Each
strategy is one map built from the model; the corrected one,
:func:`cvgec.protocol.corrected_map`, encodes into the protected mode of
the couplings, so the sweeps take any model that has one.  The signal-mode
covariance is affine in the noise, cov -> X cov X^T + Y0 + eps Y1, because
the encoder and the couplings, and so the maps' noise inputs, do not depend
on eps; Y1 is the part of Y from the inputs labelled as a source or as
mismatch noise, so the corrected one is a squared leak u . c plus the
mismatch noise, never negative.  So every map is built once per call, a
sweep is one array operation over the whole grid, the entanglement
breaking point is the root of a linear equation, and the best
splitter setting is the lower eigenvector of a 2 x 2 noise form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelModel,
    NoiseSource,
    dump_channel_config,
    scales_with_eps,
    standard_two_channel,
)
from .fidelity import coherent_fidelity
from .protocol import corrected_map, incoherent_map
from .states import as_snu, displace, vacuum_state
from .transforms import two_mode_squeezed

#: The breaking point's squeezing range [0, R_MAX] and its noise limit in SNU.
R_MAX = 10.0
EPS_LIMIT = 1000.0
#: Coherent probe amplitude of the fidelity objective.
PROBE_AMPLITUDE = (2.0, 0.0)

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

#: Columns of the ``sweep-coherent`` sidecar ``<out>.aux.csv``: the
#: uncorrected channel-2 alternative and the displacement-corrected fidelities.
AUX_COLUMNS = (
    "eps_snu",
    "var_x_uncorr2_snu",
    "var_p_uncorr2_snu",
    "fid_uncorr2",
    "fid_corr_displaced",
    "fid_uncorr_displaced",
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
        for name in ("insep_corr", "insep_uncorr"):
            if name in series:
                good = series[name][~np.isnan(series[name])]
                if np.any(good < 0):
                    raise ValueError("inseparabilities must be nonnegative")
        object.__setattr__(self, "series", series)


def coherent_sweep(model: ChannelModel, amplitude: tuple[float, float], eps_grid) -> SweepResult:
    """Variance and fidelity curves for a coherent input state.

    For each noise level the corrected (protected-mode), uncorrected
    (direct channel-1 transmission) and incoherent (measure/feedforward)
    outputs are evaluated.  Fidelities compare against the original input
    with no gain rescaling.  Besides the ``SWEEP_COLUMNS``, the series hold
    the ``AUX_COLUMNS``: the channel-2 uncorrected alternative and the
    displacement-corrected fidelities.  A grid whose corrected or
    uncorrected variance in SNU is beyond the double range is refused.
    """
    eps_grid = _noise_values(eps_grid)
    probe = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])
    mean, cov = probe.mean, probe.cov
    (m_corr, v_corr), (m_unc, v_unc), (m_inc, v_inc) = (
        _outputs(_noise_axis(strategy, model), mean, cov, eps_grid)
        for strategy in (corrected_map, _direct(0), incoherent_map)
    )
    for tag, v in (("corrected", v_corr), ("uncorrected", v_unc)):
        if np.max(v.diagonal(axis1=1, axis2=2)) > 0.5 * np.finfo(float).max:
            raise ValueError(f"the {tag} variance in SNU is beyond the float range")
    nan = np.full(eps_grid.size, np.nan)
    cols = {
        "var_x_corr_snu": as_snu(v_corr[:, 0, 0]),
        "var_p_corr_snu": as_snu(v_corr[:, 1, 1]),
        "var_x_uncorr_snu": as_snu(v_unc[:, 0, 0]),
        "var_p_uncorr_snu": as_snu(v_unc[:, 1, 1]),
        "fid_corr": coherent_fidelity(m_corr, v_corr, mean),
        "fid_uncorr": coherent_fidelity(m_unc, v_unc, mean),
        "fid_incoh": coherent_fidelity(m_inc, v_inc, mean),
        "insep_corr": nan,
        "insep_uncorr": nan,
    }
    # Channel 2 can carry more noise than channel 1, which can exceed the
    # double range at the top of the finite noise axis; its variance is then inf.
    with np.errstate(over="ignore"):
        m_unc2, v_unc2 = _outputs(_noise_axis(_direct(1), model), mean, cov, eps_grid)
        cols["var_x_uncorr2_snu"] = as_snu(v_unc2[:, 0, 0])
        cols["var_p_uncorr2_snu"] = as_snu(v_unc2[:, 1, 1])
        cols["fid_uncorr2"] = coherent_fidelity(m_unc2, v_unc2, mean)
    cols["fid_corr_displaced"] = coherent_fidelity(mean, v_corr, mean)
    cols["fid_uncorr_displaced"] = coherent_fidelity(mean, v_unc, mean)
    metadata = {
        "sweep": "coherent",
        "channel": dump_channel_config(model).splitlines(),
        "amplitude": list(amplitude),
    }
    return SweepResult(eps_grid, cols, metadata)


def entanglement_sweep(model: ChannelModel, r: float, eps_grid) -> SweepResult:
    """Inseparability of a two-mode squeezed state, one half transmitted.

    Mode 1 of the entangled pair rides the protocol; mode 0 stays local.
    Variance columns report the transmitted mode; the inseparability is
    summed as in :func:`_squeezing_weights`, free of cancellation.
    Fidelity columns are NaN (multimode fidelity is out of scope); the
    metadata holds the uncorrected breaking point.
    """
    eps_grid = _noise_values(eps_grid)
    transmitted = two_mode_squeezed(r).cov[2:, 2:]
    axes = {
        "corr": _noise_axis(corrected_map, model),
        "uncorr": _noise_axis(_direct(0), model),
    }
    cols = {}
    for tag, axis in axes.items():
        x, y0, y1 = axis
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
        "channel": dump_channel_config(model).splitlines(),
        "r": r,
        "inseparability_threshold": 2.0,
        "uncorrected_breaking_point_snu": _breaking_point(axes["uncorr"]),
    }
    return SweepResult(eps_grid, cols, metadata)


def entanglement_breaking_point(g_ratio: float, eta: float, xi: float, strategy: str) -> float:
    """Smallest noise level at which no two-mode squeezed input with
    r in [0, R_MAX] stays entangled.

    Only tr Y depends on the noise, and it is affine in it, so the
    infimum of the inseparability reaches 2 at the root of a linear
    equation.  Returns ``math.inf`` if the channel never breaks at or below
    EPS_LIMIT SNU, which is the ideal corrected case.
    """
    return _breaking_point(_strategy_axis(g_ratio, eta, xi, strategy))


def optimize_splitting(
    g1: float,
    g2: float,
    xi: float = 0.0,
    eta: float = 1.0,
    objective: str = "variance",
    eps_snu: float = 10.0,
) -> tuple[tuple[float, float], float]:
    """Best encoder/decoder splitters, in closed form.

    Returns ``(pair, value)``: the amplitude pair
    (c, s) = (cos theta, sin theta) of both splitters and the objective
    evaluated once on the protocol's noise axis at that pair.  The encoder enters only
    through the mean attenuation sqrt(eta) cos(theta_e - theta_d), which is
    best at equal pairs; the decoder alone sets the added noise var Q at the
    signal port.  The variance is smallest at the minimum of Q
    (T = c^2 = g2 / (g1 + g2) at xi = 0).  The coherent-probe fidelity
    exp(-D / 2u) / u, with u = 1 + var Q and
    D = (1 - sqrt(eta))^2 |PROBE_AMPLITUDE|^2, peaks at u = D / 2; so it shares
    that optimum unless D / 2 - 1 exceeds the minimum noise, which a lossy
    enough channel allows, and then the pair is where the noise comes
    closest to D / 2 - 1.
    """
    if objective not in ("fidelity", "variance"):
        raise ValueError("objective must be 'fidelity' or 'variance'")
    if g1 <= 0 or g2 <= 0:
        raise ValueError("noise magnitudes must be positive")
    variance = 0.5 * eps_snu / g1
    if not math.isfinite(variance * g2):
        raise ValueError(
            f"channel-2 excess noise eps * g2 / g1 = {eps_snu:g} * {g2:g} / {g1:g} SNU "
            "is beyond the float range"
        )
    model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), variance),), xi)
    level = -math.inf
    if objective == "fidelity" and eps_snu > 0.0:
        shift = (1.0 - math.sqrt(eta)) ** 2 * math.hypot(*PROBE_AMPLITUDE) ** 2
        level = (0.5 * shift - 1.0) / variance
    pair = _splitting_for_noise(g1, g2, xi, level)
    c, s = pair
    x, y0, y1 = _noise_axis(
        lambda model, n_modes: corrected_map(model, n_modes, signal=(c, -s)), model
    )
    probe = displace(vacuum_state(1), 0, *PROBE_AMPLITUDE)
    mean, cov = x @ probe.mean, x @ probe.cov @ x.T + y0 + y1
    if objective == "fidelity":
        return pair, -float(coherent_fidelity(mean, cov, probe.mean))
    return pair, as_snu(0.5 * (cov[0, 0] + cov[1, 1]) - 0.5)


def write_sweep_csv(result: SweepResult, stream, columns=SWEEP_COLUMNS) -> None:
    """Fixed-column CSV, one row per noise level, full double precision.

    The first column is the noise axis; the others name series of ``result``.
    """
    stream.write(",".join(columns) + "\n")
    cells = [result.axis.tolist()] + [result.series[name].tolist() for name in columns[1:]]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    stream.writelines(row % values for values in zip(*cells))


def _noise_values(eps) -> np.ndarray:
    """A noise level or grid as floats, each finite and nonnegative."""
    eps = np.asarray(eps, dtype=float)
    if eps.size == 0:
        raise ValueError("empty noise grid")
    if not np.all((eps >= 0.0) & (eps < np.inf)):
        raise ValueError("excess noise must be finite and nonnegative")
    return eps


def _strategy_axis(g_ratio: float, eta: float, xi: float, strategy: str):
    """Noise axis of a named strategy on the flags' two-channel model."""
    if strategy not in ("corrected", "uncorrected"):
        raise ValueError("strategy must be 'corrected' or 'uncorrected'")
    strategy_map = corrected_map if strategy == "corrected" else _direct(0)
    return _noise_axis(strategy_map, standard_two_channel(1.0, g_ratio, eta, xi))


def _direct(channel: int):
    """Builder of the uncorrected reference, direct transmission through
    ``channel``: the corrected scheme at full transmission, its signal
    along e_channel."""
    return lambda model, n_modes: corrected_map(
        model, n_modes, signal=np.eye(model.n_channels)[channel]
    )


def _breaking_point(axis) -> float:
    """Noise level at which the inseparability infimum over r in [0, R_MAX],
    tr Y0 + eps tr Y1 plus the squeezing minimum, reaches 2 on one axis."""
    x, y0, y1 = axis
    gap = float(np.trace(y0)) + _squeezing_minimum(x) - 2.0
    slope = float(np.trace(y1))
    if gap >= 0.0:
        return 0.0
    if slope <= 0.0 or -gap > slope * EPS_LIMIT:
        return math.inf
    return -gap / slope


def _noise_axis(strategy, model: ChannelModel):
    """(X, Y0, Y1) of a strategy on its signal mode: cov -> X cov X^T + Y0 + eps Y1.

    ``strategy(model, n_modes)`` is one of the protocol's map builders, and
    eps scales the variance of every source of ``model``.  The encoder and
    the couplings do not depend on eps, so neither do the map's inputs F;
    eps scales the variance of each input that
    :func:`cvgec.channel.scales_with_eps` names, and Y1 is their part of Y,
    Y0 the rest's.
    """
    m = strategy(model, 1).restricted(1)
    scaled = np.array([scales_with_eps(label) for label in m.labels])
    y0 = (m.F * np.where(scaled, 0.0, m.v)) @ m.F.T
    return m.X, y0, (m.F * np.where(scaled, m.v, 0.0)) @ m.F.T


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


def _squeezing_minimum(x: np.ndarray) -> float:
    """Minimum over r in [0, R_MAX] of (s e^{2r} + d e^{-2r}) / 2.

    The minimiser is r* = atanh(-b / a) / 2 = ln(d / s) / 4 when b < 0,
    capped at R_MAX, and 0 otherwise.
    """
    s, d = _squeezing_weights(x)
    if d <= s:
        r = 0.0
    else:
        r = R_MAX if s == 0.0 else min(0.25 * math.log(d / s), R_MAX)
    return 0.5 * (s * math.exp(2.0 * r) + d * math.exp(-2.0 * r))


def _splitting_for_noise(g1: float, g2: float, xi: float, level: float) -> tuple[float, float]:
    """Amplitude pair (c, s) = (cos psi/2, sin psi/2), psi in [0, pi], at
    which the noise form Q comes closest to ``level`` without going under
    its minimum.

    Q = (1 - xi)(c sqrt(g1) - s sqrt(g2))^2 + xi (c^2 g1 + s^2 g2)
    = m - r cos(psi - psi*), with m = (g1 + g2) / 2, the cross term
    k = 2 (1 - xi) sqrt(g1 g2) and 2 r = sqrt((g1 - g2)^2 + k^2) > 0 for
    g1, g2 > 0 and xi < 1.  Its minimum m - r, the lower eigenvalue of
    [[g1, -k / 2], [-k / 2, g2]], lies at psi* = atan2(k, g2 - g1), which
    is T = c^2 = g2 / (g1 + g2) at xi = 0.  Above it, Q = level at
    psi = psi* -+ acos((m - level) / r); a tie goes to the larger c, and a
    level past both ends of [0, pi] to the end nearer it.  s is the sine of
    psi / 2 and c that of (pi - psi) / 2, each half-angle taken from its own
    atan2, so both keep their relative precision at any g1 / g2.  From
    2**1021 up, where the sums near overflow, g1, g2 and ``level`` are first
    scaled down by an even power of two, which every term, the square roots
    included, takes exactly.
    """
    k = max(math.frexp(max(g1, g2))[1] - 1020, 0) & ~1
    g1, g2, level = math.ldexp(g1, -k), math.ldexp(g2, -k), math.ldexp(level, -k)
    cross = 2.0 * (1.0 - xi) * math.sqrt(g1) * math.sqrt(g2)
    half_root = 0.5 * math.hypot(g1 - g2, cross)
    spread = 0.5 * (g1 + g2) - level
    turn = math.acos(max(min(spread / half_root, 1.0), -1.0))
    psi, rest = math.atan2(cross, g2 - g1), math.atan2(cross, g1 - g2)
    if psi >= turn:
        psi, rest = psi - turn, rest + turn
    elif rest >= turn:
        psi, rest = psi + turn, rest - turn
    else:
        return (1.0, 0.0) if g1 >= g2 else (0.0, 1.0)
    return math.sin(0.5 * rest), math.sin(0.5 * psi)
