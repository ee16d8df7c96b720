"""The trace written out by hand, and sampled and predicted stage moments,
kept as an oracle.

``stage_relations`` writes the amplitude relations of encode, channel and
decode out as each stage's coefficients on the independent inputs of a
shot, one list per quadrature, rather than reading them off the package's
maps.  ``sample_by_hand`` evaluates those coefficients on the Philox
streams of ``cvgec.montecarlo.sample_run``, so the two must agree sample by
sample; it seeds each input by ``stream_order``, which writes the draw
order out by hand, and which the trace manifest's ``extras.streams`` must
equal; ``analytic_stage_moments`` predicts each stage's mean and
covariance from the same coefficients and the inputs' variances.
``empirical_covariance`` estimates the covariance of sampled records with
standard errors.
"""

import numpy as np

from cvgec.montecarlo import STAGES

from splitting_oracle import pi_flip


def noise_cancelling_pair(model) -> tuple[float, float]:
    """The splitter pair (c, s) of a two-channel, one-source ``model`` whose
    signal column (c, -s) is orthogonal to the couplings (c1, c2): the row
    (c2, -c1) over its norm, signed as the trace's is, c > 0 unless
    c <= 1e-9, and then s < 0."""
    (source,) = model.sources
    c1, c2 = source.coupling
    norm = np.hypot(c1, c2)
    c, s = c2 / norm, c1 / norm
    first = c if abs(c) > 1e-9 else -s
    return (c, s) if first > 0 else (-c, -s)


def stage_relations(model) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Variances of a quadrature's independent inputs, and each stage's
    coefficients on them, with both splitters at the noise-cancelling pair
    (:func:`noise_cancelling_pair`).

    Inputs, the same list for x and for p: 0 the input's vacuum, 1 the
    auxiliary carrier's; 2 + i channel i's loss input, of variance
    (1 - eta_i)(1/2 + n_i); 4 + i its non-interfering noise,
    xi sum_k var_k c_k[i]^2; and 6 the source's shared variable, of
    variance (1 - xi) var.  The input's mean rides input 0.  The decoder is
    the encoder splitter, its own inverse, on the channel stages; on the
    corrected port the source's coefficient is the row (c2, -c1) on the
    couplings (c1, c2) before normalising, an exact 0.
    """
    xi, (source,) = model.mismatch, model.sources
    variances = [0.5, 0.5]
    variances += [(1.0 - model.eta[i]) * (0.5 + model.thermal[i]) for i in (0, 1)]
    variances += [xi * source.variance * source.coupling[i] ** 2 for i in (0, 1)]
    variances += [(1.0 - xi) * source.variance]
    splitter = pi_flip(*noise_cancelling_pair(model))
    weights = {"input": np.eye(len(variances))[0]}
    for i, stage in enumerate(("channel_1", "channel_2")):
        # encoder row i, attenuated, plus the channel's own inputs
        w = np.zeros(len(variances))
        w[:2] = np.sqrt(model.eta[i]) * splitter[i]
        w[2 + i] = w[4 + i] = 1.0
        w[6] = source.coupling[i]
        weights[stage] = w
    # decoder: the same splitter, its own inverse
    for row, stage in zip(splitter, ("corrected", "discarded")):
        weights[stage] = row[0] * weights["channel_1"] + row[1] * weights["channel_2"]
    c1, c2 = source.coupling
    weights["corrected"][6] = (c2 * c1 - c1 * c2) / np.hypot(c1, c2)
    return np.array(variances), weights


def input_names(model) -> list[str]:
    """The origin of each input of :func:`stage_relations`, in its order."""
    names = ["input:0", "carrier:1", "loss:0", "loss:1", "own:0", "own:1"]
    return names + [f"source:{k}:{src.label}" for k, src in enumerate(model.sources)]


def stream_order(model) -> list[str]:
    """Label of each stream of ``sample_run``, stream j at position j: input
    k of :func:`stage_relations`, quadrature q, is stream 2k + q."""
    return [f"{name}.{q}" for name in input_names(model) for q in "xp"]


def sample_by_hand(model, n, seed, amplitude=(2.0, 0.0), modulation_period=0):
    """{(stage, quadrature): samples} of the two-channel protocol, in CSV
    order: the coefficients of :func:`stage_relations` on ``sample_run``'s
    streams.  Stream j is seeded with SeedSequence((seed, j)), and it is the
    one :func:`stream_order` lists at position j.
    """
    order = stream_order(model)

    def stream(k, variance):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        return rng.normal(0.0, np.sqrt(variance), n)

    phase = np.ones(n)
    if modulation_period > 0:
        phase = np.sin(2.0 * np.pi * np.arange(n) / modulation_period)
    variances, weights = stage_relations(model)
    out = {}
    for q, quad in enumerate("XP"):
        streams = [order.index(f"{name}.{quad.lower()}") for name in input_names(model)]
        inputs = np.array([stream(j, v) for j, v in zip(streams, variances)])
        inputs[0] += amplitude[q] * phase
        for stage in STAGES:
            out[stage, quad] = weights[stage] @ inputs
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
    model, amplitude: tuple[float, float] = (2.0, 0.0)
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-stage (mean, covariance) of the coefficients of
    :func:`stage_relations`: a stage's mean is its input coefficient times
    the amplitude, and two stages covary, quadrature by quadrature, by the
    variance-weighted sum of their coefficient products.

    Channel stages include the port's own non-interfering noise, matching
    what a detector parked at that point records; the corrected and
    discarded entries are the two decoder ports, and "corrected+discarded"
    their joint moments, in the order (corrected x, p, discarded x, p).
    """
    variances, weights = stage_relations(model)

    def moments(*stages):
        w = np.array([weights[stage] for stage in stages])
        mean = np.outer(w[:, 0], amplitude).ravel()
        return mean, np.kron((w * variances) @ w.T, np.eye(2))

    out = {stage: moments(stage) for stage in STAGES}
    out["corrected+discarded"] = moments("corrected", "discarded")
    return out
