"""Encode/transmit/decode error correction for correlated noise.

The corrected scheme is one map, :func:`corrected_map`: the mirror of the
signal vector u (:func:`cvgec.patterns.mirror`) spreads the signal and
C - 1 vacuum carriers over the C noisy channels, and, its own inverse,
recombines them.  u is the protected mode, orthogonal to every noise
coupling, unless given; :func:`protected_signal` chooses it for the sweeps
and the trace alike.  For two channels its mirror is the paper's pi-flip
splitter at T = g2 / (g1 + g2): the shared noise exits the discarded port
and the signal sees pure loss at any noise variance, each source reaching
it as an exact 0.  What all channels share passes the mirror pair as it
is, so at equal loss and thermal noise the signal's amplitude and loss are
exact, bit for bit.

The "uncorrected" reference, direct transmission through channel k, is
the same map with the signal along e_k, the scheme at full transmission:
the signal rides channel k alone and fresh vacua the others.  The other
baseline is the incoherent measure-and-feedforward one,
:func:`incoherent_map`, which needs no splitters.  The ``*_channel`` and
``n_channel_protocol`` functions apply a map to a state and keep its modes,
as ``m.restricted(state.n_modes).apply(state)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .channel import LOSS, SOURCE, ChannelModel, NoiseSource, channel_map
# The pattern names are part of this module's surface as well.
from .patterns import NoProtectedSubspaceError, NoisePatternSet, mirror, protected_mode
from .states import GaussianState
from .transforms import GaussianMap, beam_splitter, label_origin


@dataclass(frozen=True)
class ProtocolConfig:
    """Splitter pair and channel of the two-channel scheme: a unit amplitude
    pair (c, s) of either sign, T = c^2, the pi-flip mode matrix
    ((c, -s), (-s, -c)) that sends the signal along (c, -s).  Encoder and
    decoder are one pair; ``decoder`` stays, and must equal ``encoder``,
    only because ``perfbench/child.py`` builds ``ProtocolConfig(t, t, model)``."""

    encoder: tuple[float, float]
    decoder: tuple[float, float]
    channel: ChannelModel

    def __post_init__(self):
        for name in ("encoder", "decoder"):
            c, s = pair = tuple(float(a) for a in getattr(self, name))
            if not abs(c * c + s * s - 1.0) <= 1e-12:
                raise ValueError(f"{name} must be a finite unit amplitude pair (c, s)")
            object.__setattr__(self, name, pair)
        if self.encoder != self.decoder:
            raise ValueError("the encoder and the decoder must be one amplitude pair")
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


def corrected_map(
    model: ChannelModel, n_modes: int, signal_mode: int = 0, signal=None
) -> GaussianMap:
    """Encode, transmit, decode: M D M for the mirror M and the channel D
    (:func:`decoded`).  With no ``signal``, the signal is the protected mode
    of the couplings, each spanned source an exact 0 on it, so with no
    mismatch and equal loss and thermal noise it sees that lossy channel
    bit for bit at any noise variance.  The smallest loss variance l enters
    each carrier quadrature directly, and l_i - l via M."""
    spanned = (False,) * len(model.sources)
    if signal is None:
        signal, spanned = protected_signal(model)
    mirrored, channel = encoded_maps(model, n_modes, signal_mode, signal=signal)
    x, f = decoded(mirrored, channel, spanned, signal_mode)
    loss = np.array([label_origin(label)[0] == LOSS for label in channel.labels])
    floor = np.min(channel.v[loss])  # l
    v = np.concatenate([np.full(np.sum(loss), floor), np.where(loss, channel.v - floor, channel.v)])
    labels = (*compress(channel.labels, loss), *channel.labels)
    return GaussianMap(x, np.hstack([channel.F[:, loss], f]), v, labels)


def protected_signal(model: ChannelModel) -> tuple[np.ndarray, tuple[bool, ...]]:
    """The corrected scheme's signal: the protected mode u of the couplings
    (e_0 without sources) and, per source, whether u . c = 0 by
    construction (:func:`cvgec.patterns.protected_mode`)."""
    couplings = [src.coupling for src in model.sources]
    if not couplings:
        return np.eye(model.n_channels)[0], ()
    return protected_mode(couplings)


def decoded(mirrored: GaussianMap, channel: GaussianMap, spanned, signal_mode: int):
    """The decoder's rows on the register, M D M, and on the channel's
    inputs, M F, for the mirror M and the channel D of :func:`encoded_maps`.

    As M M = I, what every channel shares passes as it is: M D M is summed
    as A + M (D - A) M, A = a I on the carriers and a the smallest
    amplitude.  Each source k with ``spanned[k]`` reaches the signal mode as
    an exact 0, not as its rounding fl(u . c); a nearly dependent one keeps
    u . c, its residual."""
    m, carriers = mirrored.X, channel.F.any(axis=1)
    shared = np.diag(np.where(carriers, np.diag(channel.X)[carriers].min(), 1.0))  # A
    f = m @ channel.F
    exact = [o == SOURCE and spanned[k] for o, k in map(label_origin, channel.labels)]
    f[2 * signal_mode : 2 * signal_mode + 2, exact] = 0.0
    return shared + m @ (channel.X - shared) @ m, f


def encoded_maps(
    model: ChannelModel, n_modes: int, signal_mode: int = 0, *, signal
) -> tuple[GaussianMap, GaussianMap]:
    """The two maps the corrected scheme composes: the mirror of ``signal``,
    a unit vector of channel amplitudes, on the signal mode and C - 1
    carriers that enter in vacuum after the ``n_modes`` state modes, and the
    channel stage on those carriers."""
    n = model.n_channels
    carriers = (signal_mode,) + tuple(range(n_modes, n_modes + n - 1))
    reg = n_modes + n - 1
    mirrored = GaussianMap.of(np.kron(mirror(signal), np.eye(2)), carriers, reg)
    return mirrored, channel_map(model, carriers, reg)


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
    if (refusal := incoherent_refusal(model)) is not None:
        raise ValueError(refusal)
    c1, c2 = model.sources[0].coupling
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


def incoherent_refusal(model: ChannelModel) -> str | None:
    """Why :func:`incoherent_map` is undefined on ``model``, or None."""
    if model.n_channels != 2:
        return "the incoherent baseline is defined for two channels"
    if len(model.sources) != 1:
        return "the incoherent baseline assumes a single correlated source"
    if model.sources[0].coupling[1] == 0:
        return "nothing to measure: the idle channel carries no noise"
    return None


def corrected_channel(cfg: ProtocolConfig, state: GaussianState, signal_mode: int = 0) -> GaussianState:
    """:func:`corrected_map` with the signal column (c, -s) of the config's
    pair, applied to a state; the discarded port is dropped."""
    c, s = cfg.encoder
    m = corrected_map(cfg.channel, state.n_modes, signal_mode, signal=(c, -s))
    return m.restricted(state.n_modes).apply(state)


def uncorrected_channel(
    cfg: ProtocolConfig,
    state: GaussianState,
    signal_mode: int = 0,
    channel: int = 0,
) -> GaussianState:
    """Direct transmission through ``channel``, no encoding, applied to a
    state: :func:`corrected_map` with the signal along e_channel, the scheme
    at full transmission; the idle carriers are dropped."""
    if not 0 <= channel < cfg.channel.n_channels:
        raise ValueError("channel index out of range")
    signal = np.eye(cfg.channel.n_channels)[channel]
    m = corrected_map(cfg.channel, state.n_modes, signal_mode, signal=signal)
    return m.restricted(state.n_modes).apply(state)


def n_channel_protocol(
    patterns,
    eta: float,
    variances,
    state: GaussianState,
    signal_mode: int = 0,
) -> GaussianState:
    """:func:`corrected_map` into the protected mode of ``patterns``, applied
    to a state; the other carriers are dropped.

    The channels share loss ``eta`` and no thermal noise; pattern k carries
    a shared noise of per-quadrature variance ``variances[k]``, all of it
    interfering.
    """
    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    variances = np.broadcast_to(np.asarray(variances, dtype=float), (len(patterns.patterns),))
    sources = tuple(NoiseSource(p, v) for p, v in zip(patterns.patterns, variances))
    model = ChannelModel(patterns.n_channels, eta, 0.0, sources)
    m = corrected_map(model, state.n_modes, signal_mode)
    return m.restricted(state.n_modes).apply(state)

