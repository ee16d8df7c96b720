"""Encode/transmit/decode error correction for correlated noise.

Both corrected schemes are one composition: a C x C mode matrix spreads
the signal and C - 1 vacuum carriers over the C noisy channels, and a
second one recombines them.  :func:`corrected_map` uses the paper's pi-flip
beam splitters; with both at the amplitude pair of T = g2 / (g1 + g2) the
shared noise exits through the discarded decoder port and the signal sees
pure loss, for any noise variance.  :func:`n_channel_map` encodes into the
protected mode, orthogonal to every coupling vector: its N-channel form.

Also provided: the direct (unencoded) transmission used as the
"uncorrected" reference and the incoherent measure-and-feedforward
baseline, :func:`incoherent_map`, which needs no splitters.  The
``*_channel`` and ``n_channel_protocol`` functions apply a map to a state
and keep its modes, as ``m.restricted(state.n_modes).apply(state)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, NoiseSource, channel_map
# The pattern names are part of this module's surface as well.
from .patterns import NoProtectedSubspaceError, NoisePatternSet, null_space_encoder
from .patterns import complete_orthonormal
from .states import GaussianState
from .transforms import GaussianMap, beam_splitter, beam_splitter_matrix


@dataclass(frozen=True)
class ProtocolConfig:
    """Splitters and channel of the two-channel scheme.  Each splitter is a
    unit amplitude pair (c, s) of either sign, transmissivity T = c^2: the
    pi-flip mode matrix ((c, -s), (-s, -c)), which sends the signal into the
    channels with amplitudes (c, -s)."""

    encoder: tuple[float, float]
    decoder: tuple[float, float]
    channel: ChannelModel

    def __post_init__(self):
        for name in ("encoder", "decoder"):
            c, s = pair = tuple(float(a) for a in getattr(self, name))
            if not abs(c * c + s * s - 1.0) <= 1e-12:
                raise ValueError(f"{name} must be a finite unit amplitude pair (c, s)")
            object.__setattr__(self, name, pair)
        if self.channel.n_channels != 2:
            raise ValueError("the splitter scheme needs two channels")


def optimal_splitting_for(model: ChannelModel) -> tuple[float, float]:
    """Noise-cancelling amplitude pair (c, s) of a two-channel, single-source
    model: (|c2|, sign(c1 c2) |c1|) / |c| for couplings c = (c1, c2), so the
    signal amplitudes (c, -s) are orthogonal to c.  Both come from the
    couplings over the larger one, not from 1 - T, so neither loses relative
    precision or underflows at any g1 / g2.  An uncoupled source gives (1, 0)."""
    if model.n_channels != 2 or len(model.sources) != 1:
        raise ValueError("need a two-channel model with exactly one source")
    c1, c2 = model.sources[0].coupling
    top = max(abs(c1), abs(c2))
    if top == 0.0:
        return 1.0, 0.0
    a, b = abs(c1) / top, abs(c2) / top
    h = a * a + b * b
    return np.sqrt(b) * np.sqrt(b / h), np.copysign(np.sqrt(a) * np.sqrt(a / h), c1 * c2)


def corrected_map(cfg: ProtocolConfig, n_modes: int, signal_mode: int = 0) -> GaussianMap:
    """The two-channel scheme: one map on an N-mode state plus one mode.

    The splitters are the pi-flip matrices of the config's pairs.  The
    appended mode is the auxiliary encoder input, which enters as vacuum
    and leaves as the discarded decoder port; the signal slot holds the
    corrected output.  Each channel's non-interfering noise reaches both
    ports with the decoder amplitudes, without interference.  With both
    pairs at optimal_splitting_for(cfg.channel) and no mismatch the signal
    sees a pure-loss channel of transmissivity eta.
    """
    # pi-flip splitters are symmetric: the decoder's transpose is itself
    encoder, decoder = beam_splitter_matrix(*cfg.encoder), beam_splitter_matrix(*cfg.decoder)
    return _encoded_map(cfg.channel, encoder, decoder, n_modes, signal_mode)


def uncorrected_map(
    model: ChannelModel,
    n_modes: int,
    signal_mode: int = 0,
    channel: int = 0,
) -> GaussianMap:
    """Direct transmission through a single channel, no encoding.

    The signal mode is assigned to ``channel``; every other channel
    carries a fresh vacuum, appended after the N state modes.  This is the
    reference curve a decoder set to full transmission measures.
    """
    if not 0 <= channel < model.n_channels:
        raise ValueError("channel index out of range")
    idle = iter(range(n_modes, n_modes + model.n_channels - 1))
    carriers = [signal_mode if i == channel else next(idle) for i in range(model.n_channels)]
    return channel_map(model, carriers, n_modes + model.n_channels - 1)


def incoherent_map(model: ChannelModel, n_modes: int) -> GaussianMap:
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
    one map on the N state modes, the signal first, plus two appended
    vacua: the idle-channel carrier and the heterodyne ancilla.  Each
    channel carries its own non-interfering noise, xi var c_i^2, as in
    :func:`channel_map`; the feedforward copies channel 2's onto the signal
    with the gain, so the signal gains xi var c_1^2 from each channel.
    """
    if model.n_channels != 2:
        raise ValueError("the incoherent baseline is defined for two channels")
    if len(model.sources) != 1:
        raise ValueError("the incoherent baseline assumes a single correlated source")
    c1, c2 = model.sources[0].coupling
    if c2 == 0:
        raise ValueError("nothing to measure: the idle channel carries no noise")

    n = n_modes + 2
    idle, anc = n_modes, n_modes + 1
    bs = beam_splitter(0.5)
    # Outcomes: x at the first splitter port, p at the second.  The gain
    # cancelling the correlated term follows from the port amplitudes; the
    # two entries below are G E_y of the map X = I + G E_y.
    feedforward = np.eye(2 * n)
    feedforward[0, 2 * idle] = -c1 / (bs[0, 0] * c2)
    feedforward[1, 2 * anc + 1] = -c1 / (bs[2, 0] * c2)

    return (
        channel_map(model, (0, idle), n)
        .then(GaussianMap.of(bs, (idle, anc), n))
        .then(GaussianMap(feedforward))
    )


def n_channel_map(model: ChannelModel, n_modes: int, signal_mode: int = 0) -> GaussianMap:
    """Encode into the protected mode, transmit, decode: one map on
    ``n_modes`` state modes plus C - 1 appended carriers.

    The encoder is an orthogonal completion of the protected vector, the
    unit vector orthogonal to every source coupling of ``model``: the
    signal mode rides that vector and the carriers, entering in vacuum,
    the rest.  With no mismatch, equal loss eta and no thermal noise, the
    signal sees the pure-loss channel of transmissivity eta regardless of
    every source variance; a model without sources encodes into e_0.  Raises
    :class:`NoProtectedSubspaceError` when the couplings span every channel.
    """
    couplings = [src.coupling for src in model.sources]
    signal = null_space_encoder(couplings) if couplings else np.eye(model.n_channels)[0]
    u = complete_orthonormal(signal)
    return _encoded_map(model, u, u, n_modes, signal_mode)


def corrected_channel(cfg: ProtocolConfig, state: GaussianState, signal_mode: int = 0) -> GaussianState:
    """:func:`corrected_map` applied to a state; the discarded port is dropped."""
    return corrected_map(cfg, state.n_modes, signal_mode).restricted(state.n_modes).apply(state)


def uncorrected_channel(
    cfg: ProtocolConfig,
    state: GaussianState,
    signal_mode: int = 0,
    channel: int = 0,
) -> GaussianState:
    """:func:`uncorrected_map` applied to a state; the idle carriers are dropped."""
    m = uncorrected_map(cfg.channel, state.n_modes, signal_mode, channel)
    return m.restricted(state.n_modes).apply(state)


def n_channel_protocol(
    patterns,
    eta: float,
    variances,
    state: GaussianState,
    signal_mode: int = 0,
) -> GaussianState:
    """:func:`n_channel_map` applied to a state; the other carriers are dropped.

    The channels share loss ``eta`` and no thermal noise; pattern k carries
    a shared noise of per-quadrature variance ``variances[k]``, all of it
    interfering.
    """
    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    variances = np.broadcast_to(np.asarray(variances, dtype=float), (len(patterns.patterns),))
    sources = tuple(NoiseSource(p, v) for p, v in zip(patterns.patterns, variances))
    model = ChannelModel(patterns.n_channels, eta, 0.0, sources)
    m = n_channel_map(model, state.n_modes, signal_mode)
    return m.restricted(state.n_modes).apply(state)


def _encoded_map(model: ChannelModel, encoder, decoder, n_modes: int, signal_mode: int) -> GaussianMap:
    """Encode, transmit, decode on ``n_modes`` state modes plus C - 1 carriers.

    The C x C mode matrix ``encoder`` spreads the signal and the carriers,
    entering in vacuum, over the channels of ``model``; the transpose of
    ``decoder`` recombines them, the signal into its own slot.
    """
    n = model.n_channels
    carriers = (signal_mode,) + tuple(range(n_modes, n_modes + n - 1))
    reg = n_modes + n - 1
    encode = GaussianMap.of(np.kron(encoder, np.eye(2)), carriers, reg)
    decode = GaussianMap.of(np.kron(np.transpose(decoder), np.eye(2)), carriers, reg)
    return encode.then(channel_map(model, carriers, reg)).then(decode)

