"""Seeded sampling of explicit noise realizations through the protocol.

This module regenerates quadrature time traces stage by stage and serves
as an independent check of the analytic covariance pipeline: it propagates
the linear amplitude relations of encode, channel and decode directly on
sampled variables rather than reusing the covariance engine.

Sampling draws every elementary variable per quadrature as an independent
stream (vacuum terms with variance 1/2, classical noise with the
configured variance), so only second moments are validated; no claim of
Heisenberg-exact joint sampling is made.

Randomness comes from numpy's counter-based Philox generator.  Stream k of
a run is seeded with SeedSequence((master_seed, k)), with streams assigned
in a fixed documented order, so traces are reproducible and independent of
any evaluation schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import apply_channel
from .protocol import ProtocolConfig, encode, run_protocol
from .states import displace, partial_trace, tensor, vacuum_state

#: Stage names in record order.
STAGES = ("input", "channel_1", "channel_2", "corrected", "discarded")

_DISTRIBUTIONS = ("gaussian", "uniform", "two-point")


@dataclass(frozen=True)
class TraceRecord:
    """Quadrature outcomes of one stage: homodyne samples in natural units."""

    stage: str
    quadrature: str
    samples: np.ndarray
    seed: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


def sample_run(
    cfg: ProtocolConfig,
    n: int,
    seed: int,
    amplitude: tuple[float, float] = (2.0, 0.0),
    noise_dist: str = "gaussian",
    modulation_period: int = 0,
) -> list[TraceRecord]:
    """Draw ``n`` shots through the two-channel protocol.

    Returns one record per (stage, quadrature).  ``noise_dist`` picks the
    distribution of the classical source variables (matched variance in
    every case); the corrected-stage statistics do not depend on it.  A
    positive ``modulation_period`` applies a sinusoidal displacement to
    the input mean, for trace rendering only.
    """
    if n < 1:
        raise ValueError("need at least one shot")
    if noise_dist not in _DISTRIBUTIONS:
        raise ValueError(f"noise_dist must be one of {_DISTRIBUTIONS}")
    model = cfg.channel
    if model.n_channels != 2:
        raise ValueError("trace sampling drives the two-channel scheme")

    streams = _StreamPool(seed, n)
    vac = 0.5
    # Input coherent state, both quadratures.
    mean_x = np.full(n, amplitude[0])
    mean_p = np.full(n, amplitude[1])
    if modulation_period > 0:
        phase = np.sin(2.0 * np.pi * np.arange(n) / modulation_period)
        mean_x = amplitude[0] * phase
        mean_p = amplitude[1] * phase
    b_in = [mean_x + streams.normal(vac), mean_p + streams.normal(vac)]
    b_aux = [streams.normal(vac), streams.normal(vac)]

    te, td = cfg.T_e, cfg.T_d
    ste, cte = np.sqrt(te), np.sqrt(1.0 - te)
    std, ctd = np.sqrt(td), np.sqrt(1.0 - td)
    xi = model.mismatch

    # Shared classical variables and per-channel non-interfering parts.
    v_c = [
        [streams.classical(src.variance, noise_dist) for _ in (0, 1)]
        for src in model.sources
    ]
    own = [
        [
            [streams.normal(xi * src.variance * src.coupling[i] ** 2) for _ in (0, 1)]
            for i in (0, 1)
        ]
        for src in model.sources
    ]

    records = []
    for q in (0, 1):
        a1 = ste * b_in[q] - cte * b_aux[q]
        a2 = -cte * b_in[q] - ste * b_aux[q]
        outs = []
        for i, a in enumerate((a1, a2)):
            env = streams.normal(vac + model.thermal[i])
            out = np.sqrt(model.eta[i]) * a + np.sqrt(1.0 - model.eta[i]) * env
            for s, src in enumerate(model.sources):
                out = out + np.sqrt(1.0 - xi) * src.coupling[i] * v_c[s][q]
            outs.append(out)
        b_out = std * outs[0] - ctd * outs[1]
        disc = -ctd * outs[0] - std * outs[1]
        # Detectors see their own port's non-interfering noise; the decoder
        # routes it with its row amplitudes, without interference.
        ch1 = outs[0].copy()
        ch2 = outs[1].copy()
        for s in range(len(model.sources)):
            ch1 += own[s][0][q]
            ch2 += own[s][1][q]
            b_out = b_out + std * own[s][0][q] - ctd * own[s][1][q]
            disc = disc - ctd * own[s][0][q] - std * own[s][1][q]
        quad = "X" if q == 0 else "P"
        records.append(TraceRecord("input", quad, b_in[q], seed))
        records.append(TraceRecord("channel_1", quad, ch1, seed))
        records.append(TraceRecord("channel_2", quad, ch2, seed))
        records.append(TraceRecord("corrected", quad, b_out, seed))
        records.append(TraceRecord("discarded", quad, disc, seed))
    order = {name: k for k, name in enumerate(STAGES)}
    records.sort(key=lambda r: (order[r.stage], r.quadrature != "X"))
    return records


def empirical_covariance(records) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased sample covariance of the stacked records, with standard errors.

    Rows follow the record order.  The standard error of entry (i, j) is
    estimated as sqrt((C_ii C_jj + C_ij^2) / (n - 1)).
    """
    records = list(records)
    if not records:
        raise ValueError("no records given")
    n = records[0].samples.size
    if n < 2:
        raise ValueError("need at least two samples")
    data = np.vstack([r.samples for r in records])
    cov = np.cov(data, ddof=1)
    cov = np.atleast_2d(cov)
    diag = np.diag(cov)
    se = np.sqrt((np.outer(diag, diag) + cov**2) / (n - 1))
    return cov, se


def analytic_stage_moments(
    cfg: ProtocolConfig, amplitude: tuple[float, float] = (2.0, 0.0)
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-stage (mean, covariance) predicted by the covariance engine.

    Channel stages include the port's own non-interfering noise, matching
    what a detector parked at that point records; the corrected and
    discarded entries are the two decoder ports.
    """
    inp = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])
    out = {}
    out["input"] = (inp.mean, inp.cov)

    st = apply_channel(encode(tensor(inp, vacuum_state(1)), cfg.T_e), (0, 1), cfg.channel)
    for i, stage in enumerate(("channel_1", "channel_2")):
        reduced = partial_trace(st, [i])
        out[stage] = (reduced.mean, reduced.cov)

    joint = run_protocol(cfg, inp)  # modes: (corrected, discarded)
    for i, stage in enumerate(("corrected", "discarded")):
        reduced = partial_trace(joint, [i])
        out[stage] = (reduced.mean, reduced.cov)
    out["corrected+discarded"] = (joint.mean, joint.cov)
    return out


def write_trace_csv(records, stream) -> None:
    """CSV rows (stage, quadrature, index, value) with full precision,
    each record formatted as one block from a row template."""
    stream.write("stage,quadrature,index,value\n")
    templates = {}
    for r in records:
        n = r.samples.size
        if n not in templates:
            templates[n] = "".join("\0%d,%%.17g\n" % k for k in range(n))
        prefix = f"{r.stage},{r.quadrature},".replace("%", "%%")
        stream.write(templates[n].replace("\0", prefix) % tuple(r.samples.tolist()))


class _StreamPool:
    """Independent Philox streams keyed by allocation order."""

    def __init__(self, seed: int, n: int):
        self.seed = int(seed)
        self.n = int(n)
        self.next_stream = 0

    def _generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence((self.seed, self.next_stream))
        self.next_stream += 1
        return np.random.Generator(np.random.Philox(seq))

    def normal(self, variance: float) -> np.ndarray:
        gen = self._generator()
        if variance == 0.0:
            return np.zeros(self.n)
        return gen.normal(0.0, np.sqrt(variance), self.n)

    def classical(self, variance: float, dist: str) -> np.ndarray:
        gen = self._generator()
        if variance == 0.0:
            return np.zeros(self.n)
        if dist == "gaussian":
            return gen.normal(0.0, np.sqrt(variance), self.n)
        if dist == "uniform":
            half = np.sqrt(3.0 * variance)
            return gen.uniform(-half, half, self.n)
        return np.sqrt(variance) * (2.0 * gen.integers(0, 2, self.n) - 1.0)
