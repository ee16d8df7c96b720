"""Sampled and predicted stage moments of a trace, kept as an oracle.

``empirical_covariance`` estimates the covariance of sampled records with
standard errors; ``analytic_stage_moments`` predicts each stage's moments
with the covariance engine.  ``cvgec.montecarlo`` samples the stages from
amplitude relations alone, so agreement checks one against the other.
"""

import numpy as np

from cvgec.channel import channel_map
from cvgec.protocol import ProtocolConfig, corrected_map
from cvgec.states import displace, vacuum_state
from cvgec.transforms import GaussianMap, beam_splitter_matrix

from state_oracle import partial_trace, tensor


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
    cfg: ProtocolConfig, amplitude: tuple[float, float] = (2.0, 0.0)
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-stage (mean, covariance) predicted by the covariance engine.

    Channel stages include the port's own non-interfering noise, matching
    what a detector parked at that point records; the corrected and
    discarded entries are the two decoder ports.
    """
    inp = displace(vacuum_state(1), 0, amplitude[0], amplitude[1])
    pair = tensor(inp, vacuum_state(1))  # modes: (signal, auxiliary)
    out = {}
    out["input"] = (inp.mean, inp.cov)

    encoder = GaussianMap.of(np.kron(beam_splitter_matrix(*cfg.encoder), np.eye(2)), (0, 1), 2)
    st = encoder.then(channel_map(cfg.channel, (0, 1), 2)).apply(pair)
    for i, stage in enumerate(("channel_1", "channel_2")):
        reduced = partial_trace(st, [i])
        out[stage] = (reduced.mean, reduced.cov)

    joint = corrected_map(cfg, 1).apply(pair)  # modes: (corrected, discarded)
    for i, stage in enumerate(("corrected", "discarded")):
        reduced = partial_trace(joint, [i])
        out[stage] = (reduced.mean, reduced.cov)
    out["corrected+discarded"] = (joint.mean, joint.cov)
    return out
