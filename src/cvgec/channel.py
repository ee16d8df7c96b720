"""Lossy channels carrying classical noise correlated across channels.

Each of the C channels applies loss eta and couples to a thermal
environment; on top of that, a set of classical noise sources injects a
shared zero-mean random displacement into several channels at once.
Source s has a coupling amplitude vector c_s (one real entry per channel,
so the noise power landing on channel i is c_s[i]^2 * variance_s) and acts
identically and independently on x and p (circularly symmetric noise).

Mode mismatch: a fraction ``mismatch`` (xi) of each source's power is
carried by spatial modes orthogonal to the signal, which do not interfere
at any downstream beam splitter: independent noise
xi * sum_s variance_s c_s[i]^2 on each channel.  :func:`channel_map` is
the whole stage as one affine Gaussian map whose added noise is three kinds
of independent input per quadrature: per channel, the loss and thermal
noise (1 - eta_i)(1/2 + n_i) and the non-interfering noise; per source, the
column c_s of interfering variance (1 - xi) variance_s.  The columns depend
on the couplings alone, and every variance enters only its own input.  The
total per-channel excess is independent of xi, only its split between the
two parts changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import VACUUM_VARIANCE, _quad_indices
from .transforms import GaussianMap, embed


@dataclass(frozen=True)
class NoiseSource:
    """One classical noise source shared across channels.

    Args:
        coupling: real amplitude per channel; channel i picks up
            coupling[i] * v for the shared random variable v.
        variance: per-quadrature variance of v in natural units.
        label: optional name carried through configs; it may hold no
            whitespace and no '#', which the config format cannot carry.
    """

    coupling: np.ndarray
    variance: float
    label: str = ""

    def __post_init__(self):
        coupling = np.array(self.coupling, dtype=float)
        if coupling.ndim != 1 or coupling.size == 0:
            raise ValueError("coupling must be a nonempty vector")
        if not np.all(np.isfinite(coupling)):
            raise ValueError("coupling must be finite")
        if not 0.0 <= self.variance < np.inf:
            raise ValueError("source variance must be finite and nonnegative")
        if "#" in self.label or any(ch.isspace() for ch in self.label):
            raise ValueError(f"source label {self.label!r} may hold no whitespace and no '#'")
        coupling.flags.writeable = False
        object.__setattr__(self, "coupling", coupling)


@dataclass(frozen=True)
class ChannelModel:
    """Per-channel loss and thermal noise plus shared classical sources.

    ``eta`` and ``thermal`` broadcast from scalars; the default is an
    ideal (lossless, zero-temperature) channel.
    """

    n_channels: int
    eta: np.ndarray = 1.0
    thermal: np.ndarray = 0.0
    sources: tuple[NoiseSource, ...] = ()
    mismatch: float = 0.0

    def __post_init__(self):
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        eta, thermal = self._per_channel("eta"), self._per_channel("thermal")
        if not np.all((eta > 0) & (eta <= 1)):
            raise ValueError("transmissivities must lie in (0, 1]")
        if not np.all((thermal >= 0) & (thermal < np.inf)):
            raise ValueError("thermal occupations must be finite and nonnegative")
        if not 0.0 <= self.mismatch < 1.0:
            raise ValueError("mismatch fraction must lie in [0, 1)")
        sources = tuple(self.sources)
        for src in sources:
            if src.coupling.size != self.n_channels:
                raise ValueError("source coupling length must equal n_channels")
        eta.flags.writeable = False
        thermal.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "thermal", thermal)
        object.__setattr__(self, "sources", sources)

    def _per_channel(self, key: str) -> np.ndarray:
        """Field ``key`` broadcast to one value per channel."""
        values = np.asarray(getattr(self, key), dtype=float)
        if values.ndim > 1:
            raise ValueError(f"{key} must be a scalar or a vector")
        if values.size not in (1, self.n_channels):
            raise ValueError(
                f"{key} has {values.size} values; need 1 or n_channels = {self.n_channels}"
            )
        return np.broadcast_to(values, (self.n_channels,)).copy()


def excess_noise_snu(model: ChannelModel, channel: int) -> float:
    """Total classical excess noise of one channel, relative to shot noise."""
    if not 0 <= channel < model.n_channels:
        raise ValueError("channel index out of range")
    total = sum(src.variance * src.coupling[channel] ** 2 for src in model.sources)
    return float(total / VACUUM_VARIANCE)


def channel_map(model: ChannelModel, modes, n_modes: int) -> GaussianMap:
    """The channel stage as one map on an N-mode register.

    ``modes[i]`` is the register mode carried by channel i.
    """
    if len(modes) != model.n_channels:
        raise ValueError("mode assignment length must equal n_channels")

    x = embed(np.diag(np.repeat(np.sqrt(model.eta), 2)), modes, n_modes)
    xi = model.mismatch
    # non-interfering variance per channel
    own = sum((xi * src.variance * src.coupling**2 for src in model.sources), np.zeros(len(modes)))
    eye = np.eye(model.n_channels)
    columns = np.column_stack([eye, eye, *(src.coupling for src in model.sources)])
    loss = (1.0 - model.eta) * (VACUUM_VARIANCE + model.thermal)
    variances = np.concatenate([loss, own, [(1.0 - xi) * src.variance for src in model.sources]])
    f = np.zeros((2 * n_modes, 2 * len(variances)))
    f[_quad_indices(modes)] = np.kron(columns, np.eye(2))
    return GaussianMap(x, f, np.repeat(variances, 2))


def standard_two_channel(
    eps_snu: float,
    g_ratio: float,
    eta: float = 1.0,
    xi: float = 0.0,
) -> ChannelModel:
    """Two-channel model from the sweep parameterization.

    ``eps_snu`` is the excess noise of channel 1 at the channel output in
    shot-noise units (the noise axis used throughout); channel 2 carries
    eps_snu / g_ratio where g_ratio = g1 / g2.  A single correlated source
    with couplings (sqrt(g1), sqrt(g2)) realizes both.  Neither channel
    has thermal noise; a :class:`ChannelModel` or a config carries it.
    """
    if not 0.0 < g_ratio < np.inf:
        raise ValueError("g ratio must be finite and positive")
    if not 0.0 <= eps_snu < np.inf:
        raise ValueError("excess noise must be finite and nonnegative")
    g1, g2 = g_ratio, 1.0
    variance = VACUUM_VARIANCE * eps_snu / g1
    source = NoiseSource(np.sqrt([g1, g2]), variance, label="correlated")
    return ChannelModel(2, eta, 0.0, (source,), xi)


# Plain-text key/value configuration.  Lines:
#   n_channels <int>
#   eta <float per channel>
#   thermal <float per channel>
#   mismatch <float>
#   source <label> <variance> <coupling per channel>
# Blank lines and '#' comments are ignored; labels hold no whitespace or '#'.


def dump_channel_config(model: ChannelModel) -> str:
    """Serialize a channel model to the key/value text format."""
    fmt = lambda x: format(float(x), ".17g")
    lines = [
        f"n_channels {model.n_channels}",
        "eta " + " ".join(fmt(e) for e in model.eta),
        "thermal " + " ".join(fmt(t) for t in model.thermal),
        f"mismatch {fmt(model.mismatch)}",
    ]
    for k, src in enumerate(model.sources):
        label = src.label or f"source{k}"
        coup = " ".join(fmt(c) for c in src.coupling)
        lines.append(f"source {label} {fmt(src.variance)} {coup}")
    return "\n".join(lines) + "\n"


def parse_channel_config(text: str) -> ChannelModel:
    """Parse the key/value text format produced by :func:`dump_channel_config`."""
    n_channels = None
    eta = thermal = None
    mismatch = 0.0
    raw_sources = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        try:
            if key == "n_channels":
                n_channels = int(rest[0])
            elif key == "eta":
                eta = np.array([float(x) for x in rest])
            elif key == "thermal":
                thermal = np.array([float(x) for x in rest])
            elif key == "mismatch":
                mismatch = float(rest[0])
            elif key == "source":
                label, variance, coupling = rest[0], float(rest[1]), rest[2:]
                raw_sources.append((label, variance, np.array([float(x) for x in coupling])))
            else:
                raise ValueError(f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"bad channel config line {lineno}: {raw!r}") from exc
    if n_channels is None:
        raise ValueError("channel config is missing n_channels")
    if eta is None:
        eta = np.ones(n_channels)
    if thermal is None:
        thermal = np.zeros(n_channels)
    sources = tuple(
        NoiseSource(coupling, variance, label) for label, variance, coupling in raw_sources
    )
    return ChannelModel(n_channels, eta, thermal, sources, mismatch)
