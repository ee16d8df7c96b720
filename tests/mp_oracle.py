"""The two-channel protocol at 50 significant digits, kept as an oracle.

The signal mode's output is written from the amplitude relations, as
``montecarlo_oracle.stage_relations`` writes them, not from the package's
maps: each channel carries the encoder splitter's row, attenuated by
sqrt(eta), its loss input (1 - eta)/2, its non-interfering noise and the
shared source; the decoder's signal row adds the two channels.  For a
single-mode input of covariance V this gives cov -> a^2 V + N I, with the
input amplitude a and the added noise N as 50-digit mpmath numbers.  The
corrected splitter is the exact noise-cancelling one of the couplings
(sqrt(g), 1); the uncorrected reference is channel 1 alone.
``coherent_overlap`` is <alpha| rho |alpha>, and ``duan_number`` is the
inseparability number of a two-mode squeezed vacuum whose mode 1 takes
the map.  Every argument is read as the exact binary value it holds.
"""

import mpmath

MP = mpmath.MPContext()
MP.dps = 50


def signal_map(g_ratio, eta, xi, eps, strategy):
    """(a, N) of the signal mode of the standard two-channel model: channel
    1 carries eps SNU of excess noise, channel 2 eps / g_ratio, a fraction
    ``xi`` of it non-interfering; both channels have loss ``eta``."""
    g, eta, xi, eps = (MP.mpf(x) for x in (g_ratio, eta, xi, eps))
    coupling = (MP.sqrt(g), MP.mpf(1))
    variance = eps / (2 * g)  # per quadrature, natural units
    loss = (1 - eta) / 2
    own = [xi * variance * c * c for c in coupling]
    if strategy == "uncorrected":
        # direct transmission through channel 1: the carrier's amplitude is 0
        return MP.sqrt(eta), loss + own[0] + coupling[0] ** 2 * (1 - xi) * variance
    if strategy != "corrected":
        raise ValueError(strategy)
    # pi-flip splitter (c, -s; -s, -c) whose signal column (c, -s) is orthogonal to the couplings
    norm = MP.sqrt(1 + g)
    c, s = 1 / norm, MP.sqrt(g) / norm
    splitter = ((c, -s), (-s, -c))
    decoder = splitter[0]
    amplitude = sum(d * MP.sqrt(eta) * row[0] for d, row in zip(decoder, splitter))
    carrier = sum(d * MP.sqrt(eta) * row[1] for d, row in zip(decoder, splitter))
    # the decoder row is (1, -sqrt(g)) / norm: the shared term is exactly 0
    shared = (coupling[0] - MP.sqrt(g) * coupling[1]) / norm
    noise = carrier**2 / 2
    noise += sum(d * d * (loss + own_i) for d, own_i in zip(decoder, own))
    noise += shared**2 * (1 - xi) * variance
    return amplitude, noise


def coherent_overlap(mean, cov, alpha):
    """<alpha| rho |alpha> = exp(-d^T H^{-1} d / 2) / sqrt(det H), H = cov + I / 2."""
    h = [[MP.mpf(cov[i][j]) + (MP.mpf(1) / 2 if i == j else 0) for j in range(2)] for i in range(2)]
    d = [MP.mpf(mean[i]) - MP.mpf(alpha[i]) for i in range(2)]
    det = h[0][0] * h[1][1] - h[0][1] * h[1][0]
    quad = (d[0] ** 2 * h[1][1] - d[0] * d[1] * (h[0][1] + h[1][0]) + d[1] ** 2 * h[0][0]) / det
    return MP.exp(-quad / 2) / MP.sqrt(det)


def coherent_cells(g_ratio, eta, xi, eps, amplitude):
    """The ``sweep-coherent`` cells of the corrected and uncorrected
    strategies at one noise level, for a coherent input of ``amplitude``."""
    alpha = [MP.mpf(a) for a in amplitude]
    cells = {}
    for strategy, tag in (("corrected", "corr"), ("uncorrected", "uncorr")):
        a, noise = signal_map(g_ratio, eta, xi, eps, strategy)
        var = a * a / 2 + noise
        cells[f"var_x_{tag}_snu"] = cells[f"var_p_{tag}_snu"] = 2 * var
        cov = [[var, 0], [0, var]]
        cells[f"fid_{tag}"] = coherent_overlap([a * x for x in alpha], cov, alpha)
    return cells


def duan_number(amplitude, noise, r):
    """Var(x0 - x1) + Var(p0 + p1) of a two-mode squeezed vacuum of
    squeezing r whose mode 1 takes cov -> a^2 cov + N I:
    (1 + a^2) cosh 2r - 2 a sinh 2r + 2 N."""
    a, noise, r = MP.mpf(amplitude), MP.mpf(noise), MP.mpf(r)
    return (1 + a * a) * MP.cosh(2 * r) - 2 * a * MP.sinh(2 * r) + 2 * noise
