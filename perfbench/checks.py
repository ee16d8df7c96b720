"""Output checks for the benchmark, computed apart from the program.

Nothing here imports cvgec.  Every expected value comes from a closed
form for the two-channel scheme (thermal occupation 0, ``g = g1/g2``,
``eps`` in shot-noise units) or from a property the output must have.
Each checker returns a list of error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

SWEEP_COLUMNS = (
    "eps_snu",
    "var_x_corr_snu",
    "var_p_corr_snu",
    "var_x_uncorr_snu",
    "var_p_uncorr_snu",
    "fid_corr",
    "fid_uncorr",
    "fid_incoh",
    "insep_corr",
    "insep_uncorr",
)

#: Closed forms against 17-digit CSV values: a few hundred ulps of slack.
RTOL = 1e-9
ATOL = 1e-12
#: Bisection tolerance of entanglement_breaking_point.
BREAKING_TOL = 1e-6
#: Golden-section tolerance of optimize, and the slack its docstring
#: allows on the quartically flat T_e coordinate.
OPT_TD_TOL = 1e-6
OPT_TE_TOL = 5e-4
#: Sample statistics may sit this many standard errors from the truth.
N_SIGMA = 5.0
PHYSICALITY_TOL = 1e-9


def symplectic_spectrum(cov) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    Uses the Hermitian form ``i L^T Omega L`` with ``cov = L L^T``, whose
    eigenvalues are the pairs +-nu; a matrix that is not positive
    definite has no Cholesky factor and is reported as nu = 0.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    try:
        low = np.linalg.cholesky(0.5 * (cov + cov.T))
    except np.linalg.LinAlgError:
        return np.zeros(n)
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.linalg.eigvalsh(1j * (low.T @ omega @ low))
    return np.sort(np.abs(ev))[::2]


def check_physical(name: str, cov) -> list[str]:
    nu = float(symplectic_spectrum(cov).min())
    if nu < 0.5 - PHYSICALITY_TOL:
        return [f"{name}: unphysical, min symplectic eigenvalue {nu!r}"]
    return []


def coherent_fidelity(v_snu, shift_sq):
    """Fidelity of a coherent probe with a displaced thermal output.

    ``v_snu`` is the output variance in SNU (both quadratures) and
    ``shift_sq`` the squared mean offset in natural units.
    """
    v_snu = np.asarray(v_snu, dtype=float)
    return 2.0 / (1.0 + v_snu) * np.exp(-shift_sq / (1.0 + v_snu))


def _compare(name: str, got, want, rtol: float = RTOL, atol: float = ATOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if np.any(bad):
        k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return [f"{name}: {int(bad.sum())} value(s) off, first at {k}: {got[k]!r} != {want[k]!r}"]
    return []


def _all_nan(name: str, values) -> list[str]:
    if not np.all(np.isnan(values)):
        return [f"{name}: expected nan in every row"]
    return []


def parse_sweep_csv(text: str) -> dict:
    lines = text.strip().split("\n")
    header = tuple(lines[0].split(","))
    if header != SWEEP_COLUMNS:
        raise ValueError(f"unexpected sweep header {header}")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: rows[:, k] for k, name in enumerate(SWEEP_COLUMNS)}


def check_sweep_coherent(text: str, p: dict) -> list[str]:
    """One ``sweep-coherent`` CSV against the closed forms."""
    try:
        cols = parse_sweep_csv(text)
    except ValueError as exc:
        return [f"sweep-coherent: {exc}"]
    eps = np.linspace(0.0, p["eps_max"], p["eps_steps"])
    errors = _compare("eps_snu", cols["eps_snu"], eps)
    if errors:
        return errors
    g, eta, xi = p["g_ratio"], p["eta"], p["xi"]
    ax, ap = p["amplitude"]
    shift_sq = (1.0 - math.sqrt(eta)) ** 2 * (ax * ax + ap * ap)
    v_corr = 1.0 + 2.0 * xi * eps / (1.0 + g)
    v_unc = 1.0 + eps
    for q in ("x", "p"):
        errors += _compare(f"var_{q}_corr_snu", cols[f"var_{q}_corr_snu"], v_corr)
        errors += _compare(f"var_{q}_uncorr_snu", cols[f"var_{q}_uncorr_snu"], v_unc)
    errors += _compare("fid_corr", cols["fid_corr"], coherent_fidelity(v_corr, shift_sq))
    errors += _compare("fid_uncorr", cols["fid_uncorr"], coherent_fidelity(v_unc, shift_sq))
    # The incoherent baseline pays g1/g2 natural units per quadrature.
    # With xi > 0 its leftover non-interfering noise is xi*eps SNU from the
    # signal channel, plus up to as much again from the measured channel,
    # depending on whether the readout sees that channel's own share.
    v_low = 1.0 + 2.0 * g + xi * eps
    v_high = 1.0 + 2.0 * g + 2.0 * xi * eps
    fid_incoh = cols["fid_incoh"]
    if xi == 0.0:
        errors += _compare("fid_incoh", fid_incoh, coherent_fidelity(v_low, shift_sq))
    else:
        hi = coherent_fidelity(v_low, shift_sq) * (1.0 + RTOL) + ATOL
        lo = coherent_fidelity(v_high, shift_sq) * (1.0 - RTOL) - ATOL
        if np.any((fid_incoh > hi) | (fid_incoh < lo) | np.isnan(fid_incoh)):
            errors.append("fid_incoh: outside the closed-form bracket")
    errors += _all_nan("insep_corr", cols["insep_corr"])
    errors += _all_nan("insep_uncorr", cols["insep_uncorr"])
    for label in ("corr", "uncorr"):
        vx, vp = cols[f"var_x_{label}_snu"], cols[f"var_p_{label}_snu"]
        for k in (0, len(vx) - 1):
            cov = 0.5 * np.diag([vx[k], vp[k]])
            errors += check_physical(f"{label} output row {k}", cov)
    return errors


def tmsv_pair_after(r: float, eta: float, noise_snu: float) -> np.ndarray:
    """Two-mode squeezed vacuum with mode 1 sent through loss eta plus
    ``noise_snu`` of excess noise; natural units, (x0, p0, x1, p1)."""
    a = 0.5 * math.cosh(2.0 * r)
    c = 0.5 * math.sinh(2.0 * r)
    b = eta * a + 0.5 * (1.0 - eta) + 0.5 * noise_snu
    k = math.sqrt(eta) * c
    return np.array(
        [[a, 0.0, k, 0.0], [0.0, a, 0.0, -k], [k, 0.0, b, 0.0], [0.0, -k, 0.0, b]]
    )


def duan_number(r: float, eta: float, noise_snu):
    """Var(x0 - x1) + Var(p0 + p1) of :func:`tmsv_pair_after`, natural units."""
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return (1.0 + eta) * ch - 2.0 * math.sqrt(eta) * sh + (1.0 - eta) + noise_snu


def check_sweep_entangle(text: str, stdout: str, p: dict) -> list[str]:
    """One ``sweep-entangle`` CSV and its printed breaking point."""
    try:
        cols = parse_sweep_csv(text)
    except ValueError as exc:
        return [f"sweep-entangle: {exc}"]
    eps = np.linspace(0.0, p["eps_max"], p["eps_steps"])
    errors = _compare("eps_snu", cols["eps_snu"], eps)
    if errors:
        return errors
    r, g, eta, xi = p["r"], p["g_ratio"], p["eta"], p["xi"]
    residual = 2.0 * xi * eps / (1.0 + g)
    base = eta * math.cosh(2.0 * r) + 1.0 - eta
    for q in ("x", "p"):
        errors += _compare(f"var_{q}_corr_snu", cols[f"var_{q}_corr_snu"], base + residual)
        errors += _compare(f"var_{q}_uncorr_snu", cols[f"var_{q}_uncorr_snu"], base + eps)
    errors += _compare("insep_corr", cols["insep_corr"], duan_number(r, eta, residual))
    errors += _compare("insep_uncorr", cols["insep_uncorr"], duan_number(r, eta, eps))
    for name in ("fid_corr", "fid_uncorr", "fid_incoh"):
        errors += _all_nan(name, cols[name])
    prefix = "uncorrected breaking point:"
    found = [line for line in stdout.splitlines() if line.startswith(prefix)]
    if len(found) != 1:
        errors.append("sweep-entangle: no breaking point printed")
    else:
        value = float(found[0][len(prefix):].split()[0])
        errors += check_breaking_value(value, "uncorrected", g, eta, xi)
    return errors


def breaking_point(strategy: str, g: float, eta: float, xi: float) -> float:
    """Noise at which the infimum of the Duan number over r reaches 2.

    The infimum of (1+eta)cosh2r - 2 sqrt(eta) sinh2r is 1 - eta, so the
    pair breaks when the excess noise on the transmitted mode is 2 eta.
    """
    if strategy == "uncorrected":
        return 2.0 * eta
    return eta * (1.0 + g) / xi


def check_breaking_value(value: float, strategy: str, g: float, eta: float, xi: float) -> list[str]:
    want = breaking_point(strategy, g, eta, xi)
    if not abs(value - want) <= BREAKING_TOL:
        return [f"{strategy} breaking point {value!r} != {want!r}"]
    return []


def check_breaking_task(result: dict, task: dict) -> list[str]:
    """API breaking-point solve plus the program's output pair at it."""
    g, eta, xi, r = task["g_ratio"], task["eta"], task["xi"], task["r"]
    strategy = task["strategy"]
    errors = check_breaking_value(result["value"], strategy, g, eta, xi)
    eps = result["value"]
    noise = eps if strategy == "uncorrected" else 2.0 * xi * eps / (1.0 + g)
    cov = np.array(result["cov"])
    errors += _compare(f"{strategy} pair at breaking point", cov, tmsv_pair_after(r, eta, noise))
    errors += check_physical(f"{strategy} pair at breaking point", cov)
    return errors


def splitter_fidelity(te, td, g1, g2, xi, eta, eps_snu, amplitude=(2.0, 0.0)):
    """Coherent-probe fidelity of encode(te), channel, decode(td).

    Amplitudes per quadrature: the signal reaches the first decoder port
    with kappa = sqrt(td te) + sqrt((1-td)(1-te)); loss and vacuum terms
    add 1/2 in total; the matched noise adds (1-xi) var (sqrt(td g1) -
    sqrt((1-td) g2))^2 and the mismatched noise xi var (td g1 + (1-td) g2),
    with var = eps / (2 g1) natural units.
    """
    te = np.asarray(te, dtype=float)
    td = np.asarray(td, dtype=float)
    var = 0.5 * eps_snu / g1
    kappa = np.sqrt(td * te) + np.sqrt((1.0 - td) * (1.0 - te))
    matched = (np.sqrt(td * g1) - np.sqrt((1.0 - td) * g2)) ** 2
    unmatched = td * g1 + (1.0 - td) * g2
    v_nat = 0.5 + var * ((1.0 - xi) * matched + xi * unmatched)
    shift_sq = (1.0 - math.sqrt(eta) * kappa) ** 2 * (amplitude[0] ** 2 + amplitude[1] ** 2)
    return coherent_fidelity(2.0 * v_nat, shift_sq)


def check_optimize(stdout: str, p: dict) -> list[str]:
    """``optimize --objective fidelity`` against the closed form."""
    try:
        out = json.loads(stdout)
        te, td, value = float(out["T_e"]), float(out["T_d"]), float(out["objective_value"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"optimize: unreadable output ({exc})"]
    g1, g2, xi, eta, eps = p["g1"], p["g2"], p["xi"], p["eta"], p["eps"]
    args = (g1, g2, xi, eta, eps)
    errors = _compare("optimize objective", -value, splitter_fidelity(te, td, *args))
    if xi == 0.0:
        t_opt = g2 / (g1 + g2)
        if not abs(td - t_opt) <= OPT_TD_TOL:
            errors.append(f"optimize: T_d {td!r} != {t_opt!r}")
        if not abs(te - t_opt) <= OPT_TE_TOL:
            errors.append(f"optimize: T_e {te!r} too far from {t_opt!r}")
    grid = np.linspace(0.0, 1.0, 201)
    best = float(np.max(splitter_fidelity(grid[:, None], grid[None, :], *args)))
    if -value < best - 1e-7:
        errors.append(f"optimize: fidelity {-value!r} below the grid maximum {best!r}")
    return errors


def check_trace(text: str, p: dict) -> list[str]:
    """``trace`` CSV: the corrected stage is pure loss within sampling error.

    With xi = 0 the corrected port carries mean sqrt(eta) * amplitude and
    vacuum variance 1/2 per quadrature, whatever the noise.
    """
    n = p["n"]
    lines = text.split("\n")
    if lines[0] != "stage,quadrature,index,value":
        return ["trace: unexpected header"]
    body = [line for line in lines[1:] if line]
    if len(body) != 10 * n:
        return [f"trace: {len(body)} rows, expected {10 * n}"]
    errors = []
    for q, quad in enumerate(("X", "P")):
        prefix = f"corrected,{quad},"
        rows = [line[len(prefix):] for line in body if line.startswith(prefix)]
        if len(rows) != n:
            errors.append(f"trace: {len(rows)} corrected {quad} samples, expected {n}")
            continue
        if rows[0].split(",")[0] != "0" or rows[-1].split(",")[0] != str(n - 1):
            errors.append(f"trace: corrected {quad} indices do not run 0..{n - 1}")
        samples = np.array([row.split(",")[1] for row in rows], dtype=float)
        mean_want = math.sqrt(p["eta"]) * p["amplitude"][q]
        mean_se = math.sqrt(0.5 / n)
        var_se = 0.5 * math.sqrt(2.0 / (n - 1))
        mean, var = float(samples.mean()), float(samples.var(ddof=1))
        if not abs(mean - mean_want) <= N_SIGMA * mean_se:
            errors.append(f"trace: corrected {quad} mean {mean!r}, expected {mean_want!r}")
        if not abs(var - 0.5) <= N_SIGMA * var_se:
            errors.append(f"trace: corrected {quad} variance {var!r}, expected 0.5")
    return errors


def recompose_plan(text: str) -> tuple[int, np.ndarray, list[float]]:
    """Mode matrix of a plan, from its ``BS``/``PS`` lines in order.

    ``BS a b T`` is the rotation ((sqrt T, sqrt(1-T)), (-sqrt(1-T), sqrt T))
    on modes (a, b); ``PS m phi`` must be real on the mode amplitudes
    (phi a multiple of pi) and multiplies mode m by cos(phi).  Returns N,
    the matrix and the vector of the ``# signal`` comment.
    """
    n = None
    signal = []
    elements = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "#":
            if len(parts) > 1 and parts[1] == "signal":
                signal = [float(x) for x in parts[2:]]
        elif parts[0] == "N":
            n = int(parts[1])
        elif parts[0] in ("BS", "PS"):
            elements.append(parts)
        elif parts[0] != "checksum":
            raise ValueError(f"unknown plan line {raw!r}")
    if n is None:
        raise ValueError("plan has no N line")
    u = np.eye(n)
    for parts in elements:
        if parts[0] == "BS":
            a, b, t = int(parts[1]), int(parts[2]), float(parts[3])
            c, s = math.sqrt(t), math.sqrt(1.0 - t)
            u[[a, b], :] = np.array([[c, s], [-s, c]]) @ u[[a, b], :]
        else:
            m, phi = int(parts[1]), float(parts[2])
            if abs(math.sin(phi)) > 1e-12:
                raise ValueError(f"phase {phi!r} does not act as a real sign")
            u[m, :] *= math.cos(phi)
    return n, u, signal


def check_synth(plan_text: str, stdout: str, manifest_text: str, patterns) -> list[str]:
    """``synth``: a protected signal and a plan that realizes it."""
    patterns = np.asarray(patterns, dtype=float)
    n_ch = patterns.shape[1]
    try:
        n, u, signal = recompose_plan(plan_text)
        manifest = json.loads(manifest_text)["extras"]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"synth: unreadable output ({exc})"]
    errors = []
    signal = np.array(signal)
    if n != n_ch or signal.shape != (n_ch,):
        return [f"synth: plan for {n} modes, signal of {signal.size}, expected {n_ch}"]
    printed = [line for line in stdout.splitlines() if line.startswith("signal ")]
    if len(printed) != 1 or not np.array_equal(
        np.array([float(x) for x in printed[0].split()[1:]]), signal
    ):
        errors.append("synth: printed signal differs from the plan's")
    if abs(float(np.linalg.norm(signal)) - 1.0) > 1e-12:
        errors.append("synth: signal is not a unit vector")
    overlap = np.abs(patterns @ signal) / np.linalg.norm(patterns, axis=1)
    if float(overlap.max()) > 1e-9:
        errors.append(f"synth: signal overlaps a pattern by {float(overlap.max())!r}")
    n_elements = sum(1 for line in plan_text.splitlines() if line.split()[:1] in (["BS"], ["PS"]))
    if manifest.get("n_elements") != n_elements or manifest.get("n_channels") != n_ch:
        errors.append(f"synth: plan has {n_elements} elements, manifest says {manifest.get('n_elements')}")
    errors += _compare("synth orthogonality", u.T @ u, np.eye(n), rtol=0.0, atol=1e-10)
    errors += _compare("synth first column", u[:, 0], signal, rtol=0.0, atol=1e-9)
    return errors


def check_n_channel(result: dict, task: dict) -> list[str]:
    """``n_channel_protocol`` at xi = 0 equals pure loss on the signal mode."""
    eta, mode = task["eta"], task["signal_mode"]
    mean_in = np.array(task["mean"])
    cov_in = np.array(task["cov"])
    scale = np.ones(mean_in.size)
    scale[2 * mode : 2 * mode + 2] = math.sqrt(eta)
    cov_want = np.outer(scale, scale) * cov_in
    cov_want[2 * mode, 2 * mode] += 0.5 * (1.0 - eta)
    cov_want[2 * mode + 1, 2 * mode + 1] += 0.5 * (1.0 - eta)
    cov = np.array(result["cov"])
    errors = _compare("n_channel mean", result["mean"], scale * mean_in, rtol=0.0, atol=1e-9)
    errors += _compare("n_channel cov", cov, cov_want, rtol=0.0, atol=1e-9)
    errors += check_physical("n_channel output", cov)
    return errors
