"""The trace written out by hand, and sampled and predicted stage moments,
kept as an oracle.

``sample_by_hand`` regenerates the trace of ``cvgec.montecarlo.sample_run``
from the amplitude relations of encode, channel and decode, written out
here on the same Philox streams rather than read off the package's maps,
so the two must agree sample by sample.  ``empirical_covariance``
estimates the covariance of sampled records with standard errors;
``analytic_stage_moments`` predicts each stage's moments with the
covariance engine, composing the splitters with the channel map itself,
as ``splitting_oracle`` does.
"""

import numpy as np

from cvgec.channel import ChannelModel, channel_map
from cvgec.montecarlo import STAGES
from cvgec.states import displace, vacuum_state
from cvgec.transforms import GaussianMap, beam_splitter_matrix

from state_oracle import partial_trace, tensor


def sample_by_hand(model, pair, n, seed, amplitude=(2.0, 0.0), modulation_period=0):
    """{(stage, quadrature): samples} of the two-channel protocol, in CSV
    order, from the amplitude relations on ``sample_run``'s streams.

    Stream j is seeded with SeedSequence((seed, j)).  Per quadrature q:
    streams q and 2 + q are the input's and the auxiliary carrier's vacuum;
    4 + 2i + q is channel i's loss input, of variance (1 - eta_i)(1/2 + n_i);
    8 + 2i + q its non-interfering noise, xi sum_k var_k c_k[i]^2; and
    12 + 2k + q source k's shared variable, of variance (1 - xi) var_k.
    """

    def stream(k, variance):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        return rng.normal(0.0, np.sqrt(variance), n)

    phase = np.ones(n)
    if modulation_period > 0:
        phase = np.sin(2.0 * np.pi * np.arange(n) / modulation_period)
    c, s = pair
    xi, sources = model.mismatch, model.sources
    out = {}
    for q, quad in enumerate("XP"):
        b_in = amplitude[q] * phase + stream(q, 0.5)
        b_aux = stream(2 + q, 0.5)
        # encoder: the pi-flip splitter ((c, -s), (-s, -c))
        a = (c * b_in - s * b_aux, -s * b_in - c * b_aux)
        outs = []
        for i in (0, 1):
            loss = stream(4 + 2 * i + q, (1.0 - model.eta[i]) * (0.5 + model.thermal[i]))
            own = xi * sum(src.variance * src.coupling[i] ** 2 for src in sources)
            own = stream(8 + 2 * i + q, own)
            shared = sum(
                src.coupling[i] * stream(12 + 2 * k + q, (1.0 - xi) * src.variance)
                for k, src in enumerate(sources)
            )
            outs.append(np.sqrt(model.eta[i]) * a[i] + loss + own + shared)
        out["input", quad] = b_in
        out["channel_1", quad], out["channel_2", quad] = outs
        # decoder: the same splitter, its own inverse
        out["corrected", quad] = c * outs[0] - s * outs[1]
        out["discarded", quad] = -s * outs[0] - c * outs[1]
    return {(stage, quad): out[stage, quad] for stage in STAGES for quad in "XP"}


def empirical_covariance(records) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased sample covariance of the stacked records, with standard errors.

    Rows follow the record order.  The standard error of entry (i, j) is
    estimated as sqrt((C_ii C_jj + C_ij^2) / (n - 1)).
    """
    records = list(records)
    if not records:
        raise ValueError("no records given")
    n = records[0].samples.size
    if any(r.samples.size != n for r in records):
        raise ValueError("records must all have the same number of samples")
    if n < 2:
        raise ValueError("need at least two samples")
    data = np.vstack([r.samples for r in records])
    cov = np.cov(data, ddof=1)
    cov = np.atleast_2d(cov)
    diag = np.diag(cov)
    se = np.sqrt((np.outer(diag, diag) + cov**2) / (n - 1))
    return cov, se


def analytic_stage_moments(
    model: ChannelModel, pair: tuple[float, float], amplitude: tuple[float, float] = (2.0, 0.0)
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-stage (mean, covariance) predicted by the covariance engine, with
    both splitters at the amplitude pair ``pair``.

    Channel stages include the port's own non-interfering noise, matching
    what a detector parked at that point records; the corrected and
    discarded entries are the two decoder ports.
    """
    inp = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])
    ports = tensor(inp, vacuum_state(1))  # modes: (signal, auxiliary)
    out = {}
    out["input"] = (inp.mean, inp.cov)

    # the pi-flip splitter is its own inverse, so it also decodes
    splitter = GaussianMap.of(np.kron(beam_splitter_matrix(*pair), np.eye(2)), (0, 1), 2)
    channel = splitter.then(channel_map(model, (0, 1), 2))
    st = channel.apply(ports)
    for i, stage in enumerate(("channel_1", "channel_2")):
        reduced = partial_trace(st, [i])
        out[stage] = (reduced.mean, reduced.cov)

    joint = channel.then(splitter).apply(ports)  # modes: (corrected, discarded)
    for i, stage in enumerate(("corrected", "discarded")):
        reduced = partial_trace(joint, [i])
        out[stage] = (reduced.mean, reduced.cov)
    out["corrected+discarded"] = (joint.mean, joint.cov)
    return out
