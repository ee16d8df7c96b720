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
from .network import complete_orthonormal
from .states import GaussianState, partial_trace, tensor, vacuum_state
from .transforms import (
    BsConvention,
    GaussianMap,
    SymplecticTransform,
    apply,
    beam_splitter,
    beam_splitter_matrix,
)

_NULL_TOL = 1e-9


class NoProtectedSubspaceError(ValueError):
    """The noise patterns span every channel mode; no signal mode is safe."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings for one run of the two-channel scheme.

    ``signal_mode`` names the input mode of the state that enters the
    encoder; the auxiliary encoder input is always a fresh vacuum appended
    by the protocol.
    """

    T_e: float
    T_d: float
    channel: ChannelModel
    signal_mode: int = 0

    def __post_init__(self):
        if not 0.0 <= self.T_e <= 1.0 or not 0.0 <= self.T_d <= 1.0:
            raise ValueError("transmissivities must lie in [0, 1]")
        if self.channel.n_channels < 2:
            raise ValueError("the protocol needs at least two channels")


@dataclass(frozen=True)
class NoisePatternSet:
    """Coupling amplitude vectors of independent noise sources over N channels."""

    patterns: tuple[np.ndarray, ...]

    def __post_init__(self):
        patterns = tuple(np.array(p, dtype=float) for p in self.patterns)
        if not patterns:
            raise ValueError("need at least one pattern")
        n = patterns[0].size
        if any(p.ndim != 1 or p.size != n for p in patterns):
            raise ValueError("all patterns must be vectors of equal length")
        for p in patterns:
            p.flags.writeable = False
        object.__setattr__(self, "patterns", patterns)

    @property
    def n_channels(self) -> int:
        return self.patterns[0].size


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


def encode(state: GaussianState, t_e: float, modes: tuple[int, int] = (0, 1)) -> GaussianState:
    """Split the signal over the two channel inputs (pi-flip convention)."""
    return apply(beam_splitter(t_e, modes, BsConvention.PI_FLIP), state)


def decode(state: GaussianState, t_d: float, modes: tuple[int, int] = (0, 1)) -> GaussianState:
    """Recombine the channel outputs; the first mode is the signal port,
    the second the discarded noise port."""
    return apply(beam_splitter(t_d, modes, BsConvention.PI_FLIP), state)


def corrected_map(cfg: ProtocolConfig, n_modes: int, signal_mode: int | None = None) -> GaussianMap:
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
    sig = cfg.signal_mode if signal_mode is None else signal_mode
    n = n_modes + 1
    ports = (sig, n - 1)
    return (
        _splitter(cfg.T_e, ports, n)
        .then(channel_map(cfg.channel, ports, n))
        .then(_splitter(cfg.T_d, ports, n))
    )


def uncorrected_map(
    cfg: ProtocolConfig,
    n_modes: int,
    signal_mode: int | None = None,
    channel: int = 0,
) -> GaussianMap:
    """Direct transmission through a single channel, no encoding.

    The signal mode is assigned to ``channel``; every other channel
    carries a fresh vacuum, appended after the N state modes.  This is the
    reference curve a decoder set to full transmission measures.
    """
    sig = cfg.signal_mode if signal_mode is None else signal_mode
    model = cfg.channel
    if not 0 <= channel < model.n_channels:
        raise ValueError("channel index out of range")
    idle = iter(range(n_modes, n_modes + model.n_channels - 1))
    carriers = [sig if i == channel else next(idle) for i in range(model.n_channels)]
    return channel_map(model, carriers, n_modes + model.n_channels - 1)


def incoherent_map(cfg: ProtocolConfig, n_modes: int, signal_mode: int | None = None) -> GaussianMap:
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
    carrier and the heterodyne ancilla.
    """
    model = cfg.channel
    if model.n_channels != 2:
        raise ValueError("the incoherent baseline is defined for two channels")
    if len(model.sources) != 1:
        raise ValueError("the incoherent baseline assumes a single correlated source")
    c1, c2 = model.sources[0].coupling
    if c2 == 0:
        raise ValueError("nothing to measure: the idle channel carries no noise")
    sig = cfg.signal_mode if signal_mode is None else signal_mode

    n = n_modes + 2
    idle, anc = n_modes, n_modes + 1
    bs = beam_splitter_matrix(0.5, BsConvention.PI_FLIP)
    # Outcomes: x at the first splitter port, p at the second.  The gain
    # cancelling the correlated term follows from the port amplitudes; the
    # two entries below are G E_y of the map X = I + G E_y.
    feedforward = np.eye(2 * n)
    feedforward[2 * sig, 2 * idle] = -c1 / (bs[0, 0] * c2)
    feedforward[2 * sig + 1, 2 * anc + 1] = -c1 / (bs[1, 0] * c2)

    # The heterodyned idle channel does not see its own non-interfering
    # noise; the signal does see channel 1's.
    return (
        channel_map(model, (sig, idle), n, own_noise=(0,))
        .then(_splitter(0.5, (idle, anc), n))
        .then(GaussianMap(feedforward))
    )


def run_protocol(cfg: ProtocolConfig, state: GaussianState, signal_mode: int | None = None) -> GaussianState:
    """:func:`corrected_map` applied to a state, keeping both decoder ports:
    the original modes plus the discarded port as the final mode."""
    return _through(corrected_map(cfg, state.n_modes, signal_mode), state)


def corrected_channel(cfg: ProtocolConfig, state: GaussianState, signal_mode: int | None = None) -> GaussianState:
    """:func:`corrected_map` applied to a state; the discarded port is dropped."""
    return _kept(corrected_map(cfg, state.n_modes, signal_mode), state)


def uncorrected_channel(
    cfg: ProtocolConfig,
    state: GaussianState,
    signal_mode: int | None = None,
    channel: int = 0,
) -> GaussianState:
    """:func:`uncorrected_map` applied to a state; the idle carriers are dropped."""
    return _kept(uncorrected_map(cfg, state.n_modes, signal_mode, channel), state)


def incoherent_strategy(cfg: ProtocolConfig, state: GaussianState, signal_mode: int | None = None) -> GaussianState:
    """:func:`incoherent_map` applied to a state; the measured modes are dropped."""
    return _kept(incoherent_map(cfg, state.n_modes, signal_mode), state)


def null_space_encoder(patterns) -> np.ndarray:
    """Unit signal vector orthogonal to every noise coupling pattern.

    Ties (a protected subspace of dimension > 1) are broken
    deterministically: the standard basis vectors are orthonormalized
    against the patterns in order and the first surviving direction wins,
    with the sign fixed so the first nonzero component is positive.
    """
    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    n = patterns.n_channels
    basis = _orthonormalize(patterns.patterns, n)
    if len(basis) >= n:
        raise NoProtectedSubspaceError(
            "noise patterns span all channels; no protected mode exists"
        )
    q = np.array(basis)
    for k in range(n):
        r = np.zeros(n)
        r[k] = 1.0
        for _ in range(2):  # re-orthogonalize for 1e-12 accuracy
            r -= q.T @ (q @ r)
        norm = np.linalg.norm(r)
        if norm > _NULL_TOL:
            s = r / norm
            first = np.flatnonzero(np.abs(s) > _NULL_TOL)[0]
            return s if s[first] > 0 else -s
    raise NoProtectedSubspaceError("no direction survives orthogonalization")


def n_channel_protocol(
    patterns,
    eta: float,
    variances,
    state: GaussianState,
    signal_mode: int = 0,
    xi: float = 0.0,
) -> GaussianState:
    """Encode into the protected mode, transmit N channels, decode.

    ``variances`` gives the per-quadrature variance of each pattern's
    shared noise variable (natural units).  With xi = 0 the output equals
    the pure-loss channel of transmissivity eta regardless of every source
    variance.
    """
    if not isinstance(patterns, NoisePatternSet):
        patterns = NoisePatternSet(tuple(patterns))
    variances = np.broadcast_to(
        np.asarray(variances, dtype=float), (len(patterns.patterns),)
    )
    s = null_space_encoder(patterns)
    n = patterns.n_channels
    u = complete_orthonormal(s)

    n0 = state.n_modes
    carriers = (signal_mode,) + tuple(range(n0, n0 + n - 1))
    reg = n0 + n - 1
    sources = tuple(
        NoiseSource(p, v, label=f"pattern{k}")
        for k, (p, v) in enumerate(zip(patterns.patterns, variances))
    )
    model = ChannelModel(n, eta, 0.0, sources, xi)
    encoder = GaussianMap.of(SymplecticTransform(np.kron(u, np.eye(2)), carriers), reg)
    decoder = GaussianMap.of(SymplecticTransform(np.kron(u.T, np.eye(2)), carriers), reg)
    scheme = encoder.then(channel_map(model, carriers, reg)).then(decoder)
    return _kept(scheme, state)


def _orthonormalize(vectors, n: int) -> list[np.ndarray]:
    """Modified Gram-Schmidt in input order, dropping dependent vectors."""
    basis: list[np.ndarray] = []
    for v in vectors:
        r = np.array(v, dtype=float)
        scale = np.linalg.norm(r)
        if scale == 0.0:
            continue
        for _ in range(2):
            for q in basis:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm > _NULL_TOL * scale:
            basis.append(r / norm)
    return basis


def _splitter(t: float, modes: tuple[int, int], n_modes: int) -> GaussianMap:
    """Pi-flip beam splitter of transmissivity t as a map on the register."""
    return GaussianMap.of(beam_splitter(t, modes, BsConvention.PI_FLIP), n_modes)


def _through(m: GaussianMap, state: GaussianState) -> GaussianState:
    """Image of ``state`` under ``m``, the register's appended modes in vacuum."""
    return m.apply(tensor(state, vacuum_state(m.n_modes - state.n_modes)))


def _kept(m: GaussianMap, state: GaussianState) -> GaussianState:
    """Image of ``state`` under ``m`` over the state's own modes."""
    return partial_trace(_through(m, state), range(state.n_modes))
