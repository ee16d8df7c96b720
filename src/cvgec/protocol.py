"""Beam-splitter encode/decode error correction for correlated noise.

The two-channel scheme splits the signal and an auxiliary vacuum over the
two noisy channels with an encoding beam splitter (pi-flip convention) and
coherently recombines them with a decoding beam splitter.  At
T_e = T_d = g2 / (g1 + g2) the shared classical noise exits entirely
through the discarded decoder port and the signal port sees a purely lossy
channel, for any noise variance.

Also provided: the direct (unencoded) transmission used as the
"uncorrected" reference, an incoherent measure-and-feedforward baseline,
and the N-channel generalization that encodes the signal into the common
null space of all noise coupling patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, NoiseSource, channel_map
# The pattern names are part of this module's surface as well.
from .patterns import NoProtectedSubspaceError, NoisePatternSet, null_space_encoder
from .states import GaussianState, partial_trace, tensor, vacuum_state
from .transforms import BsConvention, GaussianMap, beam_splitter, beam_splitter_matrix


@dataclass(frozen=True)
class ProtocolConfig:
    """Splitter transmissivities and channel of the two-channel scheme."""

    T_e: float
    T_d: float
    channel: ChannelModel

    def __post_init__(self):
        if not 0.0 <= self.T_e <= 1.0 or not 0.0 <= self.T_d <= 1.0:
            raise ValueError("transmissivities must lie in [0, 1]")
        if self.channel.n_channels < 2:
            raise ValueError("the protocol needs at least two channels")


def optimal_splitting(g1: float, g2: float) -> float:
    """Noise-cancelling transmissivity g2 / (g1 + g2) for both splitters."""
    if g1 <= 0 or g2 <= 0:
        raise ValueError("noise magnitudes must be positive")
    return g2 / (g1 + g2)


def optimal_splitting_for(model: ChannelModel) -> float:
    """Optimal transmissivity read off a two-channel, single-source model."""
    if model.n_channels != 2 or len(model.sources) != 1:
        raise ValueError("need a two-channel model with exactly one source")
    c = model.sources[0].coupling
    return optimal_splitting(c[0] ** 2, c[1] ** 2)


def corrected_map(cfg: ProtocolConfig, n_modes: int, signal_mode: int = 0) -> GaussianMap:
    """Encode, transmit, decode: one map on an N-mode state plus one mode.

    The appended mode is the auxiliary encoder input, which enters as
    vacuum and leaves as the discarded decoder port; the signal slot holds
    the corrected output.  Each channel's non-interfering noise reaches
    both ports with the decoder amplitudes, without interference.  With
    T_e = T_d = optimal_splitting(g1, g2) and no mismatch the signal sees a
    pure-loss channel of transmissivity eta.
    """
    if cfg.channel.n_channels != 2:
        raise ValueError("the corrected scheme is defined for two channels")
    n = n_modes + 1
    ports = (signal_mode, n - 1)
    return (
        _splitter(cfg.T_e, ports, n)
        .then(channel_map(cfg.channel, ports, n))
        .then(_splitter(cfg.T_d, ports, n))
    )


def uncorrected_map(
    cfg: ProtocolConfig,
    n_modes: int,
    signal_mode: int = 0,
    channel: int = 0,
) -> GaussianMap:
    """Direct transmission through a single channel, no encoding.

    The signal mode is assigned to ``channel``; every other channel
    carries a fresh vacuum, appended after the N state modes.  This is the
    reference curve a decoder set to full transmission measures.
    """
    model = cfg.channel
    if not 0 <= channel < model.n_channels:
        raise ValueError("channel index out of range")
    idle = iter(range(n_modes, n_modes + model.n_channels - 1))
    carriers = [signal_mode if i == channel else next(idle) for i in range(model.n_channels)]
    return channel_map(model, carriers, n_modes + model.n_channels - 1)


def incoherent_map(cfg: ProtocolConfig, n_modes: int, signal_mode: int = 0) -> GaussianMap:
    """Measure-and-feedforward baseline on the idle channel.

    The signal travels channel 1 unencoded while channel 2 carries only
    vacuum plus the correlated noise.  Channel 2's output is read out in
    both quadratures (balanced split against a vacuum, then ideal x and p
    readouts) and the outcomes displace the signal output with the
    noise-cancelling gain -sqrt(2 g1 / g2).  The correlated noise cancels
    in the mean square; the measurement leaves an excess-noise penalty of
    g1 / g2 natural units per quadrature, independent of the noise level.
    Averaged over the outcomes, displacing by ``G y`` for measured
    quadratures y is the linear map X = I + G E_y, so the whole strategy is
    one map on the N state modes plus two appended vacua: the idle-channel
    carrier and the heterodyne ancilla.  Each channel carries its own
    non-interfering noise, xi var c_i^2, as in :func:`channel_map`; the
    feedforward copies channel 2's onto the signal with the gain, so the
    signal gains xi var c_1^2 from each channel.
    """
    model = cfg.channel
    if model.n_channels != 2:
        raise ValueError("the incoherent baseline is defined for two channels")
    if len(model.sources) != 1:
        raise ValueError("the incoherent baseline assumes a single correlated source")
    c1, c2 = model.sources[0].coupling
    if c2 == 0:
        raise ValueError("nothing to measure: the idle channel carries no noise")

    n = n_modes + 2
    idle, anc = n_modes, n_modes + 1
    bs = beam_splitter_matrix(0.5, BsConvention.PI_FLIP)
    # Outcomes: x at the first splitter port, p at the second.  The gain
    # cancelling the correlated term follows from the port amplitudes; the
    # two entries below are G E_y of the map X = I + G E_y.
    feedforward = np.eye(2 * n)
    feedforward[2 * signal_mode, 2 * idle] = -c1 / (bs[0, 0] * c2)
    feedforward[2 * signal_mode + 1, 2 * anc + 1] = -c1 / (bs[1, 0] * c2)

    return (
        channel_map(model, (signal_mode, idle), n)
        .then(_splitter(0.5, (idle, anc), n))
        .then(GaussianMap(feedforward))
    )


def n_channel_map(
    patterns,
    eta: float,
    variances,
    n_modes: int,
    signal_mode: int = 0,
    xi: float = 0.0,
) -> GaussianMap:
    """Encode into the protected mode, transmit C channels, decode: one map
    on ``n_modes`` state modes plus C - 1 appended carriers.

    ``variances`` gives the per-quadrature variance of each pattern's
    shared noise variable (natural units).  The encoder is an orthogonal
    completion of the protected vector: the signal mode rides that vector
    and the carriers, entering in vacuum, the rest.  With xi = 0 the signal
    sees the pure-loss channel of transmissivity eta regardless of every
    source variance.
    """
    from .network import complete_orthonormal

    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    variances = np.broadcast_to(
        np.asarray(variances, dtype=float), (len(patterns.patterns),)
    )
    u = complete_orthonormal(null_space_encoder(patterns))
    n = patterns.n_channels
    carriers = (signal_mode,) + tuple(range(n_modes, n_modes + n - 1))
    reg = n_modes + n - 1
    sources = tuple(
        NoiseSource(p, v, label=f"pattern{k}")
        for k, (p, v) in enumerate(zip(patterns.patterns, variances))
    )
    model = ChannelModel(n, eta, 0.0, sources, xi)
    encoder = GaussianMap.of(np.kron(u, np.eye(2)), carriers, reg)
    decoder = GaussianMap.of(np.kron(u.T, np.eye(2)), carriers, reg)
    return encoder.then(channel_map(model, carriers, reg)).then(decoder)


def corrected_channel(cfg: ProtocolConfig, state: GaussianState, signal_mode: int = 0) -> GaussianState:
    """:func:`corrected_map` applied to a state; the discarded port is dropped."""
    return _kept(corrected_map(cfg, state.n_modes, signal_mode), state)


def uncorrected_channel(
    cfg: ProtocolConfig,
    state: GaussianState,
    signal_mode: int = 0,
    channel: int = 0,
) -> GaussianState:
    """:func:`uncorrected_map` applied to a state; the idle carriers are dropped."""
    return _kept(uncorrected_map(cfg, state.n_modes, signal_mode, channel), state)


def incoherent_strategy(cfg: ProtocolConfig, state: GaussianState, signal_mode: int = 0) -> GaussianState:
    """:func:`incoherent_map` applied to a state; the measured modes are dropped."""
    return _kept(incoherent_map(cfg, state.n_modes, signal_mode), state)


def n_channel_protocol(
    patterns,
    eta: float,
    variances,
    state: GaussianState,
    signal_mode: int = 0,
    xi: float = 0.0,
) -> GaussianState:
    """:func:`n_channel_map` applied to a state; the other carriers are dropped."""
    return _kept(n_channel_map(patterns, eta, variances, state.n_modes, signal_mode, xi), state)


def _splitter(t: float, modes: tuple[int, int], n_modes: int) -> GaussianMap:
    """Pi-flip beam splitter of transmissivity t as a map on the register."""
    return GaussianMap.of(beam_splitter(t, BsConvention.PI_FLIP), modes, n_modes)


def _kept(m: GaussianMap, state: GaussianState) -> GaussianState:
    """Image of ``state`` under ``m``, the register's appended modes in
    vacuum, over the state's own modes."""
    full = m.apply(tensor(state, vacuum_state(m.n_modes - state.n_modes)))
    return partial_trace(full, range(state.n_modes))
