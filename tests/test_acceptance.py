"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and not configurable.
"""

import math
import time

import numpy as np
import pytest

from cvgec.analysis import (
    coherent_sweep,
    entanglement_breaking_point,
    entanglement_sweep,
)
from cvgec.channel import ChannelModel, NoiseSource, channel_map, standard_two_channel
from cvgec.fidelity import fidelity
from cvgec.montecarlo import STAGES, sample_run
from cvgec.network import decompose_network
from cvgec.protocol import (
    NoisePatternSet,
    ProtocolConfig,
    corrected_channel,
    n_channel_protocol,
    optimal_splitting_for,
)
from cvgec.states import displace, vacuum_state
from cvgec.transforms import GaussianMap, beam_splitter, squeeze

import breaking_oracle
from fock_oracle import fidelity_fock_states
from map_reference import pure_loss_reference
from montecarlo_oracle import analytic_stage_moments, empirical_covariance
from network_oracle import phase_shift, plan_symplectic
from splitting_oracle import amplitudes, grid_scan_splitting, optimal_splitting
from state_oracle import channel_margin, duan_simon, preparation, rotated_squeeze
from test_analysis import optimized, unit_model
from test_states import random_physical_state


def report(number, label, started):
    print(f"criterion {number} ({label}): PASS ({time.perf_counter() - started:.2f} s)")


def test_criterion_1_pure_loss_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        eta = rng.uniform(0.05, 1.0)
        g1, g2 = rng.uniform(0.01, 10.0, 2)
        variance = rng.uniform(0.0, 50.0)  # up to 100 SNU
        model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), variance),))
        t = amplitudes(optimal_splitting(g1, g2))
        cfg = ProtocolConfig(t, t, model)
        state = random_physical_state(rng)
        out = corrected_channel(cfg, state)
        ref = pure_loss_reference(state, eta)
        worst = max(
            worst,
            np.abs(out.mean - ref.mean).max(),
            np.abs(out.cov - ref.cov).max(),
        )
    elapsed = time.perf_counter() - started
    assert worst < 1e-10, f"corrected map deviates from pure loss by {worst:.2e}"
    assert elapsed < 5.0
    report(1, "pure-loss equivalence", started)


def test_criterion_2_noise_cancellation_flatness():
    started = time.perf_counter()
    grid = np.linspace(0.0, 40.0, 41)
    res = coherent_sweep(unit_model(0.61, 1.0, 0.0), (2.0, 0.0), grid)
    for name in ("var_x_corr_snu", "var_p_corr_snu"):
        assert np.ptp(res.series[name]) < 1e-12, f"{name} varies with the noise level"
    for name in ("var_x_uncorr_snu", "var_p_uncorr_snu"):
        series = res.series[name]
        slope, intercept = np.polyfit(grid, series, 1)
        residual = np.abs(series - (slope * grid + intercept)).max()
        assert residual < 1e-9, f"{name} is not affine in the noise level"
        assert slope > 0.1
    report(2, "noise-cancellation flatness", started)


def test_criterion_3_dominance_over_incoherent_baseline():
    started = time.perf_counter()
    grid = np.linspace(0.0, 40.0, 41)
    for ratio in (0.25, 0.5, 0.61, 1.0, 2.0):
        res = coherent_sweep(unit_model(ratio, 1.0, 0.01), (2.0, 0.0), grid)
        corr, incoh = res.series["fid_corr"], res.series["fid_incoh"]
        assert np.all(corr >= incoh)
        # the feedforward penalty g1/g2 is far above 1e-9 on this grid,
        # so dominance must be strict everywhere
        assert np.all(corr > incoh)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, "dominance over incoherent baseline", started)


def test_criterion_4_entanglement_survival():
    started = time.perf_counter()
    r = 0.5 * np.log(4.0)  # corrected inseparability 2 e^{-2r} = 0.5 at eps = 0
    res = entanglement_sweep(unit_model(1.0, 1.0, 0.01), r, np.array([0.0, 35.0]))
    assert res.series["insep_corr"][0] == pytest.approx(0.5, abs=1e-9)
    assert res.series["insep_corr"][1] < 2.0, "entanglement lost at 35 SNU"

    closed = entanglement_breaking_point(1.0, 1.0, 0.0, "uncorrected")
    bisect = breaking_oracle.breaking_point(1.0, 1.0, 0.0, "uncorrected")
    scan = breaking_oracle.breaking_point(1.0, 1.0, 0.0, "uncorrected", method="scan")
    assert abs(closed - bisect) < 1e-4, "closed form and bisection disagree"
    assert abs(closed - scan) < 1e-4, "closed form and scan disagree"
    assert closed < 35.0 / 3.0, "uncorrected channel should break far below 35 SNU"
    assert entanglement_breaking_point(1.0, 1.0, 0.0, "corrected") == math.inf
    report(4, "entanglement survival", started)


def test_criterion_5_four_channel_separation():
    started = time.perf_counter()
    patterns = NoisePatternSet(
        (
            np.array([1.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0, 1.0]),
            np.array([1.0, 0.0, 1.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 1.0]),
        )
    )
    state = displace(vacuum_state(1), 0, 1.4, -0.6)
    base = n_channel_protocol(patterns, 0.9, 0.0, state)
    rng = np.random.default_rng(1005)
    for _ in range(10):
        variances = rng.uniform(0.0, 25.0, 4)  # up to 50 SNU each
        out = n_channel_protocol(patterns, 0.9, variances, state)
        assert np.abs(out.cov - base.cov).max() < 1e-10
        assert np.abs(out.mean - base.mean).max() < 1e-10

    count = 0
    while count < 50:
        n = 2 + count % 7
        q, rmat = np.linalg.qr(rng.normal(size=(n, n)))
        q = q * np.sign(np.diag(rmat))
        plan = decompose_network(q)
        full = plan_symplectic(plan.elements, plan.n_modes)
        err = np.abs(full - np.kron(q, np.eye(2))).max()
        assert err < 1e-10
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(5, "four-channel separation", started)


def test_criterion_6_monte_carlo_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    n = 100_000

    def run(cfg, amplitude, seed):
        records = {(r.stage, r.quadrature): r for r in sample_run(cfg, n, seed, amplitude)}
        predicted = analytic_stage_moments(cfg, amplitude)
        for stage in STAGES:
            pair = [records[(stage, "X")], records[(stage, "P")]]
            cov, se = empirical_covariance(pair)
            if np.any(np.abs(cov - predicted[stage][1]) > 5 * se + 1e-12):
                return False
        return True

    for k in range(20):
        eps = rng.uniform(0.0, 40.0)
        ratio = rng.uniform(0.3, 2.5)
        eta = rng.uniform(0.4, 1.0)
        xi = rng.choice([0.0, 0.01, 0.05])
        model = standard_two_channel(eps, ratio, eta, xi)
        split = optimal_splitting_for(model)
        cfg = ProtocolConfig(split, split, model)
        amplitude = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        # one seeded retry before failing
        ok = run(cfg, amplitude, seed=2000 + k) or run(cfg, amplitude, seed=9000 + k)
        assert ok, f"config {k} disagrees with the analytic covariance"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, "Monte Carlo / analytic agreement", started)


def test_criterion_7_invariant_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1007)

    # symplectic identity of every gate block: a noiseless channel, whose
    # margin is minus half the spectral norm of X Omega X^T - Omega
    for _ in range(50):
        for s in (
            beam_splitter(rng.uniform(0, 1)),
            phase_shift(rng.uniform(0, 2 * np.pi)),
            rotated_squeeze(rng.uniform(-1.5, 1.5), rng.uniform(0, np.pi)),
        ):
            assert channel_margin(GaussianMap(s)) > -0.5e-12

    # every channel application is a channel, and so is preparing its output
    for _ in range(100):
        model = standard_two_channel(
            rng.uniform(0, 60.0), rng.uniform(0.2, 3.0), rng.uniform(0.05, 1.0),
            rng.choice([0.0, 0.1]),
        )
        state = random_physical_state(rng, 2)
        m = channel_map(model, (0, 1), 2)
        assert channel_margin(m) >= -1e-9
        assert channel_margin(preparation(state).then(m)) >= -1e-9

    # fidelity oracles
    state = random_physical_state(rng)
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-9)
    vac = vacuum_state(1)
    for d in (0.5, 1.0, 2.0):
        shifted = displace(vac, 0, d, 0.0)
        assert fidelity(shifted, vac) == pytest.approx(np.exp(-d * d / 2), abs=1e-9)
    low_energy = displace(
        vacuum_state(1), 0, rng.uniform(-1, 1), rng.uniform(-1, 1)
    )
    low_energy = GaussianMap.of(rotated_squeeze(0.5, 0.7), (0,), 1).apply(low_energy)
    assert fidelity(low_energy, vac) == pytest.approx(
        fidelity_fock_states(low_energy, vac, dim=40), abs=1e-6
    )

    # Duan boundary
    assert duan_simon(vacuum_state(2), (0, 1)) == 2.0
    report(7, "invariant suite", started)


def test_criterion_8_optimizer_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(1008)
    for _ in range(20):
        g1, g2 = rng.uniform(0.05, 5.0, 2)
        t, _ = optimized(g1, g2, xi=0.0, eta=rng.uniform(0.5, 1.0))
        assert abs(t - optimal_splitting(g1, g2)) < 1e-4

    n = 200
    t, _ = optimized(1.6, 0.9, xi=0.05, objective="fidelity")
    ge, gd, _ = grid_scan_splitting(1.6, 0.9, xi=0.05, objective="fidelity", n=n)
    step = 1.0 / (n - 1)
    assert abs(t - ge) <= step
    assert abs(t - gd) <= step
    report(8, "optimizer recovery", started)
