"""Sweeps, closed-form breaking point and splitter optimum."""

import io
import math
from collections import Counter
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvgec.analysis
from cvgec.analysis import (
    AUX_COLUMNS,
    SWEEP_COLUMNS,
    SweepResult,
    _direct,
    _noise_axis,
    _splitting_for_noise,
    coherent_sweep,
    entanglement_breaking_point,
    entanglement_sweep,
    optimize_splitting,
    write_sweep_csv,
)
from cvgec.channel import SOURCE, ChannelModel, NoiseSource, channel_map, standard_two_channel
from cvgec.montecarlo import sample_run, trace_map
from cvgec.fidelity import coherent_fidelity
from cvgec.protocol import (
    ProtocolConfig,
    corrected_channel,
    corrected_map,
    incoherent_map,
    optimal_splitting_for,
    protected_mode,
    uncorrected_channel,
)
from cvgec.states import GaussianState, as_snu, displace, vacuum_state
from cvgec.transforms import label_origin, two_mode_squeezed

import breaking_oracle
import mp_oracle
from map_reference import two_build_noise_axis
from splitting_oracle import (
    amplitudes,
    golden_section,
    grid_scan_splitting,
    nested_search,
    optimal_splitting,
)
from state_oracle import channel_margin, duan_number, duan_simon, fidelity
from test_states import random_physical_state


GRID = np.linspace(0.0, 40.0, 21)


def protocol_objective(pair, g1, g2, xi, eta, objective, eps_snu):
    """The value ``optimize_splitting`` reports, on the corrected protocol with
    both splitters at the amplitude pair ``pair``: the negated fidelity of
    the coherent probe of amplitude (2, 0), or the mean added variance in SNU."""
    model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), 0.5 * eps_snu / g1),), xi)
    probe = displace(vacuum_state(1), 0, 2.0, 0.0)
    out = corrected_channel(ProtocolConfig(pair, pair, model), probe)
    if objective == "fidelity":
        return -fidelity(out, probe)
    return as_snu(0.5 * (out.cov[0, 0] + out.cov[1, 1]) - 0.5)


def optimized(*args, **kwargs):
    """``optimize_splitting`` with its splitter pair as the transmissivity
    T = c^2 that ``cvgec optimize`` prints for both splitters."""
    pair, value = optimize_splitting(*args, **kwargs)
    return pair[0] ** 2, value


def unit_model(g_ratio, eta, xi):
    """The CLI's flag model: 1 SNU of channel-1 excess noise per unit eps."""
    return standard_two_channel(1.0, g_ratio, eta, xi)


class TestCoherentSweep:
    def test_ideal_correction_is_flat(self):
        res = coherent_sweep(unit_model(0.61, 1.0, 0.0), (2.0, 0.0), GRID)
        assert np.ptp(res.series["var_x_corr_snu"]) < 1e-12
        assert np.ptp(res.series["var_p_corr_snu"]) < 1e-12
        assert np.allclose(res.series["fid_corr"], 1.0, atol=1e-10)

    def test_uncorrected_grows_affinely_with_unit_slope(self):
        # noise axis is channel 1's excess, so the direct channel-1 curve
        # has slope exactly 1
        res = coherent_sweep(unit_model(0.61, 1.0, 0.0), (2.0, 0.0), GRID)
        fit = np.polyfit(res.axis, res.series["var_x_uncorr_snu"], 1)
        assert fit[0] == pytest.approx(1.0, abs=1e-10)
        assert fit[1] == pytest.approx(1.0, abs=1e-9)
        residual = res.series["var_x_uncorr_snu"] - np.polyval(fit, res.axis)
        assert np.abs(residual).max() < 1e-9
        # the channel-2 alternative has slope 1/ratio
        alt = res.series["var_x_uncorr2_snu"]
        assert np.polyfit(res.axis, alt, 1)[0] == pytest.approx(1 / 0.61, abs=1e-9)

    def test_zero_noise_degenerate_point(self):
        res = coherent_sweep(unit_model(0.8, 0.85, 0.0), (2.0, 0.0), np.array([0.0]))
        assert res.series["fid_corr"][0] == pytest.approx(
            res.series["fid_uncorr"][0], abs=1e-12
        )

    def test_mismatch_prediction_matches_monte_carlo(self):
        # dual-oracle agreement at xi = 0.01, eps = 30 SNU
        xi, eps, n = 0.01, 30.0, 200_000
        res = coherent_sweep(unit_model(1.0, 1.0, xi), (2.0, 0.0), np.array([eps]))
        predicted = res.series["var_x_corr_snu"][0]
        model = standard_two_channel(eps, 1.0, 1.0, xi)
        records = sample_run(trace_map(model)[1], n, seed=11)
        samples = next(
            r.samples for r in records if r.stage == "corrected" and r.quadrature == "X"
        )
        var = samples.var(ddof=1) / 0.5
        se = var * np.sqrt(2.0 / (n - 1))
        assert abs(var - predicted) < 5 * se
        assert predicted - 1.0 == pytest.approx(xi * eps, rel=1e-9)

    def test_incoherent_pays_both_channels_mismatch(self):
        # penalty 2 g SNU plus xi eps SNU of non-interfering noise from each
        # channel: the signal's own and the measured channel's, fed forward
        g, eta, xi = 0.61, 0.9, 0.02
        res = coherent_sweep(unit_model(g, eta, xi), (2.0, 0.0), GRID)
        probe = displace(vacuum_state(1), 0, 2.0, 0.0)
        var_snu = 1.0 + 2.0 * g + 2.0 * xi * GRID
        covs = 0.5 * var_snu[:, None, None] * np.eye(2)
        expected = coherent_fidelity(np.sqrt(eta) * probe.mean, covs, probe.mean)
        assert np.allclose(res.series["fid_incoh"], expected, rtol=1e-12, atol=0.0)

    def test_dominance_over_incoherent(self):
        for ratio in (0.25, 0.61, 1.0, 2.0):
            res = coherent_sweep(unit_model(ratio, 1.0, 0.01), (2.0, 0.0), GRID)
            assert np.all(res.series["fid_corr"] >= res.series["fid_incoh"])

    def test_insep_columns_are_nan(self):
        res = coherent_sweep(unit_model(1.0, 1.0, 0.0), (2.0, 0.0), np.array([1.0]))
        assert np.isnan(res.series["insep_corr"][0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            coherent_sweep(unit_model(1.0, 1.0, 0.0), (2.0, 0.0), np.array([]))

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            coherent_sweep(unit_model(1.0, 1.0, 0.0), (np.nan, 0.0), GRID)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_invalid_noise_rejected(self, bad):
        with pytest.raises(ValueError, match="nonnegative"):
            coherent_sweep(unit_model(1.0, 1.0, 0.0), (2.0, 0.0), np.array([0.0, bad]))
        with pytest.raises(ValueError, match="nonnegative"):
            entanglement_sweep(unit_model(1.0, 1.0, 0.0), 0.5, np.array([bad]))

    # hypothesis's failure report warns on import; see pyproject.toml
    @pytest.mark.filterwarnings(
        "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-300.0, 300.0),
        st.floats(0.0, 1.7e308),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
        st.integers(1, 4),
    )
    def test_accepted_range_gives_valid_columns(self, log_g, eps_max, eta, xi, amplitude, steps):
        g = 10.0**log_g
        try:
            series = coherent_sweep(
                unit_model(g, eta, xi), amplitude, np.linspace(0.0, eps_max, steps)
            ).series
        except ValueError as exc:
            # refused only where the corrected mode's 1 + 2 xi eps / (1 + g)
            # SNU is beyond the double range
            assert str(exc) == "the corrected variance in SNU is beyond the float range"
            assert xi * eps_max / (1.0 + g) * 2.0 > 0.999 * np.finfo(float).max
            return
        for name in SWEEP_COLUMNS[1:]:
            check = np.isnan if name.startswith("insep") else np.isfinite
            assert np.all(check(series[name])), name
        for name in ("var_x_uncorr2_snu", "var_p_uncorr2_snu"):
            assert np.all(np.isfinite(series[name]) | (series[name] == np.inf)), name
        for name in SWEEP_COLUMNS[5:8] + AUX_COLUMNS[3:]:
            assert np.all((series[name] >= 0.0) & (series[name] <= 1.0)), name


class TestAgainstTheMpOracle:
    """``coherent_sweep`` cells against the 50-digit amplitude relations of
    ``mp_oracle``, for the channel built: its amplitude is x = fl(sqrt(eta)),
    so the oracle's transmissivity is x^2, taken exactly.  A variance is
    within VAR_ULPS ulp of the oracle.  A fidelity F is within
    FID_ULPS (1 + |ln F|) ulp: F = exp(-q / 2) / sqrt(det H) turns the few
    ulp of q and det H into |ln F| times as many."""

    VAR_ULPS = 8.0
    FID_ULPS = 8.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-12.0, 12.0),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1e300),
        st.tuples(*[st.floats(-10.0, 10.0)] * 2),
        st.integers(1, 3),
    )
    def test_cells_match_the_oracle(self, log_g, eta, xi, eps_max, amplitude, steps):
        g, ulp = 10.0**log_g, np.finfo(float).eps
        grid = np.linspace(0.0, eps_max, steps)
        series = coherent_sweep(unit_model(g, eta, xi), amplitude, grid).series
        built = mp_oracle.MP.mpf(np.sqrt(eta)) ** 2
        for k, eps in enumerate(grid):
            for name, want in mp_oracle.coherent_cells(g, built, xi, eps, amplitude).items():
                got = series[name][k]
                error = abs(mp_oracle.MP.mpf(got) / want - 1)
                if name.startswith("fid"):
                    bound = self.FID_ULPS * (1 + abs(float(mp_oracle.MP.log(want))))
                else:
                    bound = self.VAR_ULPS
                assert error <= bound * ulp, (name, eps, got, want)


class TestEntanglementSweep:
    def test_ideal_correction_constant(self):
        res = entanglement_sweep(unit_model(1.0, 1.0, 0.0), 0.5, GRID)
        assert np.ptp(res.series["insep_corr"]) < 1e-12
        assert res.series["insep_corr"][0] == pytest.approx(
            2 * np.exp(-1.0), abs=1e-12
        )
        assert res.series["insep_corr"][0] == pytest.approx(0.7357588823428847, abs=1e-12)

    def test_vacuum_input_sits_on_boundary(self):
        res = entanglement_sweep(unit_model(1.0, 1.0, 0.0), 0.0, np.linspace(0, 10, 5))
        assert np.allclose(res.series["insep_corr"], 2.0, atol=1e-12)

    def test_uncorrected_crosses_threshold(self):
        res = entanglement_sweep(unit_model(1.0, 1.0, 0.0), 0.5, GRID)
        insep = res.series["insep_uncorr"]
        assert insep[0] < 2.0 < insep[-1]
        # affine growth in the noise level
        slopes = np.diff(insep) / np.diff(res.axis)
        assert np.ptp(slopes) < 1e-9

    def test_mismatch_makes_correction_grow(self):
        res = entanglement_sweep(unit_model(1.0, 1.0, 0.01), 0.5, GRID)
        assert np.all(np.diff(res.series["insep_corr"]) > 0)
        assert res.series["insep_corr"][-1] < 2.0  # still entangled at 40 SNU

    def test_fidelity_columns_are_nan(self):
        res = entanglement_sweep(unit_model(1.0, 1.0, 0.0), 0.5, np.array([1.0]))
        assert np.isnan(res.series["fid_corr"][0])


class TestVectorisedSweeps:
    """Each sweep column against the per-point protocol calls it replaces."""

    CONFIGS = [(0.61, 1.0, 0.0), (1.7, 0.8, 0.02), (0.4, 0.65, 0.3)]

    @staticmethod
    def close(a, b):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("g, eta, xi", CONFIGS)
    def test_coherent_matches_per_point(self, g, eta, xi):
        grid = np.linspace(0.0, 50.0, 7)
        probe = displace(vacuum_state(1), 0, 1.3, -0.7)
        res = coherent_sweep(unit_model(g, eta, xi), (1.3, -0.7), grid)
        series = res.series
        for k, eps in enumerate(grid):
            model = standard_two_channel(eps, g, eta, xi)
            split = optimal_splitting_for(model)
            cfg = ProtocolConfig(split, split, model)
            corr = corrected_channel(cfg, probe)
            unc = uncorrected_channel(cfg, probe, channel=0)
            unc2 = uncorrected_channel(cfg, probe, channel=1)
            inc = incoherent_map(model, 1).restricted(1).apply(probe)
            self.close(res.series["var_x_corr_snu"][k], 2 * corr.cov[0, 0])
            self.close(res.series["var_p_corr_snu"][k], 2 * corr.cov[1, 1])
            self.close(res.series["var_x_uncorr_snu"][k], 2 * unc.cov[0, 0])
            self.close(res.series["var_p_uncorr_snu"][k], 2 * unc.cov[1, 1])
            self.close(res.series["fid_corr"][k], fidelity(corr, probe))
            self.close(res.series["fid_uncorr"][k], fidelity(unc, probe))
            self.close(res.series["fid_incoh"][k], fidelity(inc, probe))
            self.close(series["var_x_uncorr2_snu"][k], 2 * unc2.cov[0, 0])
            self.close(series["var_p_uncorr2_snu"][k], 2 * unc2.cov[1, 1])
            self.close(series["fid_uncorr2"][k], fidelity(unc2, probe))
            for name, out in (("fid_corr_displaced", corr), ("fid_uncorr_displaced", unc)):
                moved = GaussianState(probe.mean, out.cov)
                self.close(series[name][k], fidelity(moved, probe))

    @pytest.mark.parametrize("g, eta, xi", CONFIGS)
    def test_entanglement_matches_per_point(self, g, eta, xi):
        grid = np.linspace(0.0, 50.0, 7)
        pair = two_mode_squeezed(0.8)
        res = entanglement_sweep(unit_model(g, eta, xi), 0.8, grid)
        for k, eps in enumerate(grid):
            model = standard_two_channel(eps, g, eta, xi)
            split = optimal_splitting_for(model)
            cfg = ProtocolConfig(split, split, model)
            corr = corrected_channel(cfg, pair, signal_mode=1)
            unc = uncorrected_channel(cfg, pair, signal_mode=1, channel=0)
            self.close(res.series["var_x_corr_snu"][k], 2 * corr.cov[2, 2])
            self.close(res.series["var_p_corr_snu"][k], 2 * corr.cov[3, 3])
            self.close(res.series["var_x_uncorr_snu"][k], 2 * unc.cov[2, 2])
            self.close(res.series["var_p_uncorr_snu"][k], 2 * unc.cov[3, 3])
            self.close(res.series["insep_corr"][k], duan_simon(corr, (0, 1)))
            self.close(res.series["insep_uncorr"][k], duan_simon(unc, (0, 1)))

    @pytest.mark.parametrize("g, eta, xi", CONFIGS)
    @pytest.mark.parametrize("r", [0.0, 0.4, 1.5, 3.0])
    def test_inseparability_matches_duan_number_on_covariance_stack(self, g, eta, xi, r):
        grid = np.linspace(0.0, 50.0, 7)
        pair = two_mode_squeezed(r)
        res = entanglement_sweep(unit_model(g, eta, xi), r, grid)
        stacks = {"insep_corr": [], "insep_uncorr": []}
        for eps in grid:
            model = standard_two_channel(eps, g, eta, xi)
            split = optimal_splitting_for(model)
            cfg = ProtocolConfig(split, split, model)
            stacks["insep_corr"].append(corrected_channel(cfg, pair, signal_mode=1).cov)
            stacks["insep_uncorr"].append(
                uncorrected_channel(cfg, pair, signal_mode=1, channel=0).cov
            )
        # The stack forms V11 + V22 - 2 V12 from entries of size cosh(2r) / 2,
        # so it carries an absolute rounding error of a few ulp of cosh 2r.
        slack = 8.0 * np.finfo(float).eps * np.cosh(2.0 * r)
        for name, covs in stacks.items():
            expected = duan_number(np.array(covs), (0, 1))
            assert np.allclose(res.series[name], expected, rtol=1e-12, atol=slack)
        if (g, eta, xi) == (0.61, 1.0, 0.0):  # noiseless identity channel at eps = 0
            ideal = 2.0 * np.exp(-2.0 * r)
            assert res.series["insep_corr"][0] == pytest.approx(ideal, rel=1e-14, abs=0.0)

    def test_fidelity_stack_matches_scalar_calls(self):
        rng = np.random.default_rng(61)
        states = [random_physical_state(rng) for _ in range(6)]
        means = np.array([s.mean for s in states])
        covs = np.array([s.cov for s in states])
        probe = displace(vacuum_state(1), 0, 0.7, -1.1)
        stacked = coherent_fidelity(means, covs, probe.mean)
        assert stacked.shape == (6,)
        for k, s in enumerate(states):
            assert stacked[k] == coherent_fidelity(s.mean, s.cov, probe.mean)
            assert stacked[k] == pytest.approx(fidelity(s, probe), rel=1e-12)


class TestBreakingPoint:
    def test_ideal_corrected_never_breaks(self):
        assert entanglement_breaking_point(1.0, 1.0, 0.0, "corrected") == math.inf

    @pytest.mark.parametrize("g_ratio", [1e-12, 1e-300])
    def test_corrected_never_breaks_at_extreme_noise_asymmetry(self, g_ratio):
        # the protected mode is read off the couplings, so no transmissivity
        # 1 - T rounds away the weak channel's share of the noise; a pair
        # still entangled at 1e12 SNU, far beyond EPS_LIMIT, puts the root
        # past that
        assert entanglement_breaking_point(g_ratio, 0.9, 0.0, "corrected") == math.inf
        res = entanglement_sweep(unit_model(g_ratio, 0.9, 0.0), 1.0, np.array([1e12]))
        assert res.series["insep_corr"][0] < 2.0

    def test_uncorrected_two_methods_agree(self):
        # the closed form against both numeric searches of the oracle
        closed = entanglement_breaking_point(1.0, 1.0, 0.0, "uncorrected")
        bisect = breaking_oracle.breaking_point(1.0, 1.0, 0.0, "uncorrected")
        scan = breaking_oracle.breaking_point(1.0, 1.0, 0.0, "uncorrected", method="scan")
        assert abs(closed - bisect) < 1e-4
        assert abs(closed - scan) < 1e-4
        # the gap 2 e^{-20} + eps - 2 at r = 10 is affine in eps, so the
        # scan finds the infimum's root 2 - 2 e^{-20}, not 2
        assert scan == pytest.approx(2.0 - 2.0 * math.exp(-20.0), abs=1e-9)
        assert scan == pytest.approx(closed, abs=1e-9)
        # analytic oracle: the direct channel breaks at eps = 2 eta SNU
        assert closed == pytest.approx(2.0, abs=1e-5)

    def test_root_above_largest_power_of_two_below_limit(self):
        # the corrected pair breaks at eta (1 + g) / xi = 600 SNU, inside
        # (512, 1000]; a root at or below EPS_LIMIT is returned as it is
        bp = entanglement_breaking_point(1.0, 0.9, 0.003, "corrected")
        assert bp == pytest.approx(600.0, rel=1e-12)
        below = entanglement_breaking_point(1.0, 0.9, 1.8 / 999.5, "corrected")
        assert below == pytest.approx(999.5, rel=1e-12)
        assert entanglement_breaking_point(1.0, 0.9, 1.8 / 1000.5, "corrected") == math.inf

    def test_matches_numeric_oracle_on_random_configs(self):
        # The oracle's gap (golden-section infimum minus 2) is increasing in
        # eps, so a sign change across [bp - 1e-6, bp + 1e-6] puts the
        # oracle's root within 1e-6 of the closed form.
        rng = np.random.default_rng(73)
        for _ in range(20):
            g = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
            eta = float(rng.uniform(0.6, 0.98))
            xi = float(rng.uniform(0.005, 0.5))
            for strategy in ("corrected", "uncorrected"):
                bp = entanglement_breaking_point(g, eta, xi, strategy)
                assert 0.0 < bp < 1000.0
                at = lambda eps: breaking_oracle.infimum(eps, g, eta, xi, strategy)
                assert at(bp - 1e-6) < 2.0 <= at(bp + 1e-6), (g, eta, xi, strategy)
                assert at(bp) == pytest.approx(2.0, abs=1e-9)

    def test_lossy_uncorrected_oracle(self):
        eta = 0.9
        bp = entanglement_breaking_point(1.0, eta, 0.0, "uncorrected")
        assert bp == pytest.approx(2.0 * eta, abs=1e-5)

    def test_full_mismatch_approaches_uncorrected(self):
        uncorr = entanglement_breaking_point(1.0, 1.0, 0.0, "uncorrected")
        nearly = entanglement_breaking_point(1.0, 1.0, 0.999, "corrected")
        assert nearly == pytest.approx(uncorr, rel=0.01)

    def test_breaking_point_independent_of_r_ceiling(self):
        # the oracle's search over r in [0, 5] finds the root of [0, R_MAX]
        a = breaking_oracle.breaking_point(1.0, 0.9, 0.0, "uncorrected", r_max=5.0)
        b = entanglement_breaking_point(1.0, 0.9, 0.0, "uncorrected")
        assert a == pytest.approx(b, abs=1e-5)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            entanglement_breaking_point(1.0, 1.0, 0.0, "sideways")


class TestOptimizer:
    def test_symmetric(self):
        t, _ = optimized(1.0, 1.0, 0.0)
        assert t == pytest.approx(0.5, abs=1e-4)

    def test_asymmetric_recovers_analytic_optimum(self):
        t, _ = optimized(0.61, 1.0, 0.0)
        assert t == pytest.approx(optimal_splitting(0.61, 1.0), abs=1e-4)

    def test_fidelity_objective_decoder_coordinate(self):
        t, _ = optimized(0.7, 1.4, 0.0, objective="fidelity")
        assert t == pytest.approx(optimal_splitting(0.7, 1.4), abs=1e-4)

    def test_objective_value_not_worse_than_analytic_point(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            g1, g2 = rng.uniform(0.1, 5.0, 2)
            _, value = optimized(g1, g2, 0.0)
            t = amplitudes(optimal_splitting(g1, g2))
            assert value <= protocol_objective(t, g1, g2, 0.0, 1.0, "variance", 10.0) + 1e-9

    def test_mismatched_matches_grid_scan(self):
        n = 200
        t, _ = optimized(1.6, 0.9, xi=0.05, objective="fidelity")
        ge, gd, _ = grid_scan_splitting(1.6, 0.9, xi=0.05, objective="fidelity", n=n)
        step = 1.0 / (n - 1)
        assert abs(t - ge) <= step
        assert abs(t - gd) <= step

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            optimize_splitting(1.0, 1.0, objective="entropy")

    def test_golden_section_quadratic(self):
        x, fx = golden_section(lambda t: (t - 0.37) ** 2, 0.0, 1.0, tol=1e-9)
        assert x == pytest.approx(0.37, abs=1e-8)

    def test_matches_nested_search_on_random_configs(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            g1, g2 = rng.uniform(0.05, 5.0, 2)
            xi, eta = rng.uniform(0.0, 0.9), rng.uniform(0.5, 1.0)
            for objective in ("variance", "fidelity"):
                t, value = optimized(g1, g2, xi, eta, objective)
                _, search_td, search_value = nested_search(g1, g2, xi, eta, objective)
                assert abs(t - search_td) <= 1e-6
                assert value <= search_value + 1e-12

    def test_fidelity_trades_noise_for_mean_error_at_low_eta(self):
        rng = np.random.default_rng(57)
        traded = 0
        for _ in range(10):
            g1, g2 = rng.uniform(0.05, 5.0, 2)
            xi, eta, eps = rng.uniform(0.0, 0.9), rng.uniform(0.001, 0.08), rng.uniform(0.1, 2.0)
            _, value = optimized(g1, g2, xi, eta, "fidelity", eps)
            _, _, search_value = nested_search(g1, g2, xi, eta, "fidelity", eps)
            _, _, grid_value = grid_scan_splitting(g1, g2, xi, eta, "fidelity", eps)
            assert value <= min(search_value, grid_value) + 1e-12
            t_min, _ = optimize_splitting(g1, g2, xi, eta, "variance", eps)
            traded += value < protocol_objective(t_min, g1, g2, xi, eta, "fidelity", eps) - 1e-6
        assert traded >= 5

    def test_zero_mismatch_is_analytic_optimum(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            g1, g2 = rng.uniform(0.05, 5.0, 2)
            t, _ = optimized(g1, g2, 0.0)
            assert abs(t - optimal_splitting(g1, g2)) <= 1e-15

    def test_value_is_the_protocol_at_the_optimum(self):
        pair, value = optimize_splitting(1.6, 0.9, 0.3, 0.8, "fidelity", 7.0)
        assert value == protocol_objective(pair, 1.6, 0.9, 0.3, 0.8, "fidelity", 7.0)

    def test_zero_noise(self):
        for objective in ("variance", "fidelity"):
            t, value = optimized(1.6, 0.9, 0.05, 0.8, objective, eps_snu=0.0)
            assert 0.0 <= t <= 1.0
            assert math.isfinite(value)
        assert value == pytest.approx(-math.exp(-4.0 * (1.0 - math.sqrt(0.8)) ** 2 / 2.0), abs=1e-12)

    def test_pair_matches_the_coupling_pair_at_any_asymmetry(self):
        # at xi = 0 the closed form is the protected pair of the couplings
        # (sqrt g1, sqrt g2); each amplitude comes from its own angle, so
        # neither loses its relative precision when the other is near 1
        for exponent in np.linspace(-300.0, 300.0, 121):
            half = 10.0 ** (exponent / 2)
            for g1, g2 in ((10.0**exponent, 1.0), (half, 1.0 / half)):
                model = ChannelModel(2, 1.0, 0.0, (NoiseSource(np.sqrt([g1, g2]), 1.0),))
                want = optimal_splitting_for(model)
                got = _splitting_for_noise(g1, g2, 0.0, -math.inf)
                assert np.all(np.abs(np.subtract(got, want)) <= 1e-15 * np.abs(want)), (g1, g2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective", ["variance", "fidelity"])
    @pytest.mark.parametrize("g", [1e308, 1.7e308])
    def test_top_of_the_float_range_matches_1e300(self, g, objective):
        # only g1 / g2 sets the pair, also where g1 + g2 overflows
        got = optimize_splitting(g, g, eps_snu=1.0, objective=objective)
        assert got == optimize_splitting(1e300, 1e300, eps_snu=1.0, objective=objective)
        assert got[0][0] ** 2 == pytest.approx(0.5, rel=1e-15)

    def test_pair_is_unchanged_by_an_even_power_of_two_up_to_the_float_range(self):
        # the pair depends on g1, g2 and the level only through their ratios;
        # these reach 2**1024, past where g1 + g2 and the hypot overflow
        rng = np.random.default_rng(58)
        for _ in range(200):
            g1, g2 = (float(g) for g in np.exp2(rng.uniform(0.0, 8.0, 2)))
            xi = float(rng.choice([0.0, rng.uniform(0.0, 0.99)]))
            level = float(rng.choice([-math.inf, rng.uniform(-1.0, 1.0) * max(g1, g2)]))
            want = _splitting_for_noise(g1, g2, xi, level)
            up = [math.ldexp(v, 1016) for v in (g1, g2, level)]
            assert _splitting_for_noise(up[0], up[1], xi, up[2]) == want

    @pytest.mark.parametrize("g1, g2, xi", [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, 1.0)])
    def test_bad_channel(self, g1, g2, xi):
        with pytest.raises(ValueError):
            optimize_splitting(g1, g2, xi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g1, g2, eps", [(1e-200, 1e200, 1.0), (1.0, 1e308, 1e9), (1e-300, 1.0, 1e9)])
    def test_channel_2_noise_past_the_float_range(self, g1, g2, eps):
        # eps g2 / g1 SNU of channel-2 noise has no float; it is named, not
        # left to fail inside numpy
        with pytest.raises(ValueError, match="^channel-2 excess noise eps \\* g2 / g1 = "):
            optimize_splitting(g1, g2, eps_snu=eps)


class TestChannelMargin:
    """The sweeps' signal maps (X, Y0 + eps Y1) are channels with the
    paper's margins, in natural units: none for the corrected one at no
    mismatch, the eps / 2 excess of the direct channel, and the g1 / g2
    feedforward penalty of the incoherent one at any noise level."""

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_closed_forms_on_the_noise_axis(self, eta):
        model = unit_model(0.61, eta, 0.0)
        strategies = (corrected_map, _direct(0), incoherent_map)
        corr, unc, inc = (_noise_axis(strategy, model) for strategy in strategies)
        for eps in GRID:
            margin = lambda axis: channel_margin(axis[0], axis[1] + eps * axis[2])
            assert abs(margin(corr)) <= 1e-12 * (1.0 + eps)
            assert margin(unc) == pytest.approx(0.5 * eps, rel=1e-12, abs=1e-12)
            assert margin(inc) == pytest.approx(0.61, rel=1e-12)


class TestExactCancellation:
    """The corrected channel is pure loss at any noise level: each source
    reaches the signal mode as one dot product u . c, squared, so the noise
    axis is read off the source variances and nothing cancels by
    subtraction."""

    GRID = np.concatenate([[0.0], np.logspace(-3.0, 15.0, 19)])
    G_RATIOS = (0.05, 0.3, 0.61, 1.0, 2.7, 17.0)

    @staticmethod
    def pure_loss_duan(r, eta):
        """Duan number of a two-mode squeezed vacuum whose mode 1 passes pure
        loss eta, (1 + eta) cosh 2r - 2 sqrt(eta) sinh 2r + 1 - eta, in
        40-digit decimals."""
        with localcontext() as ctx:
            ctx.prec = 40
            e, eta = Decimal(2.0 * r).exp(), Decimal(eta)
            cosh, sinh = (e + 1 / e) / 2, (e - 1 / e) / 2
            return float((1 + eta) * cosh - 2 * eta.sqrt() * sinh + 1 - eta)

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    @pytest.mark.parametrize("g_ratio", G_RATIOS)
    def test_coherent_variance_stays_pure_loss(self, g_ratio, eta):
        series = coherent_sweep(unit_model(g_ratio, eta, 0.0), (2.0, 0.0), self.GRID).series
        for name in ("var_x_corr_snu", "var_p_corr_snu"):
            assert np.all(series[name] == 1.0), name

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    @pytest.mark.parametrize("g_ratio", G_RATIOS)
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_inseparability_stays_pure_loss(self, g_ratio, eta, r):
        res = entanglement_sweep(unit_model(g_ratio, eta, 0.0), r, self.GRID)
        insep = res.series["insep_corr"]
        assert np.all(np.diff(insep) >= 0.0)
        # the noise adds nothing beyond 1e-15 SNU; the noiseless value rounds
        # a few ulp of cosh 2r in the squeezing weights
        assert np.all(np.abs(insep - insep[0]) <= 1e-15 * max(insep[0], 1.0))
        assert insep[0] == pytest.approx(self.pure_loss_duan(r, eta), rel=1e-15, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-300.0, 300.0),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 1e15),
        st.tuples(*[st.floats(-1e3, 1e3)] * 2),
    )
    def test_corrected_channel_is_exactly_pure_loss(self, log_g, eta, eps_max, amplitude):
        # the mirror passes the shared amplitude and loss as they are, and a
        # loss input is the complement of the amplitude applied: at eps = 0
        # the corrected signal map is the one-channel loss map bit for bit,
        # and no corrected variance falls below the vacuum at any noise level
        model = unit_model(10.0**log_g, eta, 0.0)
        x, y0, _ = _noise_axis(corrected_map, model)
        loss = channel_map(ChannelModel(1, eta), (0,), 1)
        assert np.array_equal(x, loss.X)
        assert np.array_equal(y0, loss.Y)
        series = coherent_sweep(model, amplitude, np.linspace(0.0, eps_max, 4)).series
        for name in ("var_x_corr_snu", "var_p_corr_snu", "var_x_uncorr_snu", "var_p_uncorr_snu"):
            assert np.all(series[name] >= 1.0), name

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300.0, 300.0), st.floats(0.01, 1.0), st.floats(0.0, 0.99))
    def test_corrected_slope_has_a_nonnegative_diagonal(self, log_g, eta, xi):
        _, _, y1 = _noise_axis(corrected_map, unit_model(10.0**log_g, eta, xi))
        assert np.all(np.diag(y1) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300.0, 300.0), st.floats(0.0, 1.0, exclude_min=True))
    def test_corrected_slope_is_zero_without_mismatch(self, log_g, eta):
        # each source reaches the protected mode as an exact 0, not fl(u . c)
        _, _, y1 = _noise_axis(corrected_map, unit_model(10.0**log_g, eta, 0.0))
        assert np.array_equal(y1, np.zeros((2, 2)))

    def test_a_given_signal_keeps_its_rounding(self):
        # only the model's own protected vector has u . c = 0 by construction
        model = unit_model(10.0, 1.0, 0.0)
        u, _ = protected_mode([model.sources[0].coupling])
        for signal, leak in ((None, 0.0), (u, float(u @ model.sources[0].coupling))):
            m = corrected_map(model, 1, signal=signal)
            source = [label_origin(label)[0] == SOURCE for label in m.labels]
            assert np.array_equal(m.F[0, source], [leak, 0.0])
        assert leak != 0.0

    def test_a_nearly_dependent_source_keeps_its_residual(self):
        # source b lies within 1e-10 of source a, so the protected vector u is
        # orthogonalized against a alone: a reaches the signal mode as an
        # exact 0, b as u . b, about 7e-11, whose share grows with eps
        near = 1.0000000001
        sources = (NoiseSource((1.0, 1.0), 0.5, "a"), NoiseSource((1.0, near), 0.5, "b"))
        model = ChannelModel(2, 1.0, 0.0, sources)
        m = corrected_map(model, 1)
        source = [label_origin(label)[0] == SOURCE for label in m.labels]
        assert m.F[0, source].tolist()[:2] == [0.0, 0.0]
        residual = (1.0 - near) / np.sqrt(2.0)
        assert m.F[0, source] == pytest.approx([0.0, 0.0, residual, 0.0], rel=1e-6, abs=0.0)
        _, _, y1 = _noise_axis(corrected_map, model)
        assert y1[0, 0] == pytest.approx(0.5 * residual**2, rel=1e-6)

    @pytest.mark.parametrize(
        "strategy",
        [corrected_map, _direct(0), incoherent_map],
        ids=["corrected", "uncorrected", "incoherent"],
    )
    @pytest.mark.parametrize(
        "g_ratio, eta, xi", [(0.61, 1.0, 0.0), (1e-12, 0.8, 0.05), (17.0, 0.3, 0.4)]
    )
    def test_silent_and_loud_maps_share_their_noise_inputs(self, strategy, g_ratio, eta, xi):
        # the noise axis reads Y1 off the variances alone, so the inputs F
        # must not depend on them
        model = unit_model(g_ratio, eta, xi)
        silent = replace(model, sources=tuple(replace(s, variance=0.0) for s in model.sources))
        loud, quiet = (strategy(m, 1).restricted(1) for m in (model, silent))
        assert np.array_equal(loud.F, quiet.F)
        assert np.array_equal(loud.X, quiet.X)
        assert loud.labels == quiet.labels


def random_models(seed, count):
    """Channel models of two or three channels: unequal or equal loss,
    thermal noise or none, mismatch or none, and one source or, at three
    channels, two sources of one name; each has a protected mode."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = int(rng.integers(2, 4))
        eta = rng.uniform(0.05, 1.0, c) if rng.random() < 0.7 else np.full(c, rng.uniform(0.05, 1.0))
        thermal = rng.uniform(0.0, 2.0, c) * (rng.random() < 0.6)
        n_sources = 1 if c == 2 else int(rng.integers(1, c))
        sources = tuple(
            NoiseSource(rng.normal(size=c), 10.0 ** rng.uniform(-3.0, 6.0), "shared")
            for _ in range(n_sources)
        )
        xi = rng.uniform(0.0, 0.9) * (rng.random() < 0.6)
        yield ChannelModel(c, eta, thermal, sources, xi)


def strategies_of(model):
    """The corrected map, direct transmission through each channel and, on
    two channels, the incoherent baseline."""
    direct = [_direct(k) for k in range(model.n_channels)]
    return [corrected_map, *direct] + ([incoherent_map] if model.n_channels == 2 else [])


class TestNoiseAxisByLabel:
    """``_noise_axis`` builds each strategy once and splits Y by the labels
    of the inputs: those of a source or of the mismatch noise scale with
    eps."""

    def test_matches_the_two_build_reference_bit_for_bit(self):
        kinds = Counter()
        for model in random_models(31, 150):
            for strategy in strategies_of(model):
                one, two = _noise_axis(strategy, model), two_build_noise_axis(strategy, model)
                for got, want in zip(one, two):
                    assert np.array_equal(got, want), (model, strategy)
                kinds[model.n_channels, strategy is incoherent_map] += 1
        assert kinds[3, False] >= 200 and kinds[2, True] >= 50

    @pytest.mark.parametrize(
        "strategy", [corrected_map, _direct(0), _direct(1), incoherent_map],
        ids=["corrected", "uncorrected", "uncorrected2", "incoherent"],
    )
    def test_matches_the_reference_on_the_flag_models(self, strategy):
        for g_ratio, eta, xi in [(0.61, 1.0, 0.0), (1e-12, 0.8, 0.05), (17.0, 0.3, 0.4)]:
            model = standard_two_channel(10.0, g_ratio, eta, xi)
            for got, want in zip(_noise_axis(strategy, model), two_build_noise_axis(strategy, model)):
                assert np.array_equal(got, want)

    def test_builds_each_strategy_once(self, monkeypatch):
        model = unit_model(0.61, 0.9, 0.05)
        builds = Counter()

        def counted(build):
            def wrapper(*args, **kwargs):
                builds[build.__name__] += 1
                return build(*args, **kwargs)

            return wrapper

        _noise_axis(counted(corrected_map), model)
        assert builds == {"corrected_map": 1}
        for build in (corrected_map, incoherent_map):
            monkeypatch.setattr(cvgec.analysis, build.__name__, counted(build))
        builds.clear()
        coherent_sweep(model, (1.0, 0.5), GRID)  # corrected, both channels direct, incoherent
        assert builds == {"corrected_map": 3, "incoherent_map": 1}
        builds.clear()
        entanglement_sweep(model, 0.7, GRID)
        assert builds == {"corrected_map": 2}

    def test_labelled_parts_sum_to_y(self):
        origins = Counter()
        for model in random_models(37, 60):
            for strategy in strategies_of(model):
                for m in (strategy(model, 1), strategy(model, 1).restricted(1)):
                    parts = {}
                    for j, label in enumerate(m.labels):
                        origin, quadrature = label.rsplit(".", 1)
                        assert quadrature in ("x", "p")
                        origins[origin.split(":")[0]] += 1
                        f = m.F[:, j]
                        parts[origin] = parts.get(origin, 0.0) + m.v[j] * np.outer(f, f)
                    y = m.Y
                    assert np.max(np.abs(sum(parts.values()) - y)) <= 1e-12 * np.max(np.diag(y))
        assert set(origins) == {"loss", "own", "source", "carrier"}

    def test_sources_of_one_name_stay_distinct(self):
        model = next(m for m in random_models(41, 100) if len(m.sources) == 2)
        labels = corrected_map(model, 1).labels
        assert {"source:0:shared.x", "source:1:shared.x"} <= set(labels)


class TestSweepCsv:
    def test_columns_and_precision(self):
        res = coherent_sweep(unit_model(1.0, 1.0, 0.0), (2.0, 0.0), np.array([0.0, 1.0]))
        buf = io.StringIO()
        write_sweep_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert len(cells) == len(SWEEP_COLUMNS)
        assert cells[-1] == "nan"

    @pytest.mark.parametrize("columns", [SWEEP_COLUMNS, AUX_COLUMNS], ids=["main", "aux"])
    def test_cells_match_per_cell_format(self, columns):
        # every cell as format(x, ".17g") writes it, the extremes included
        odd = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-310]
        # fidelities in [0, 1] and inseparabilities nonnegative, NaN aside
        bounded = [np.nan, 1.0, 0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, 0.999999]
        positive = [np.nan, np.inf, 1e300, -0.0, 5e-324, 0.1, 2.0 / 3.0, 7.0]
        names = set(SWEEP_COLUMNS + AUX_COLUMNS) - {"eps_snu"}
        pools = {"fid": bounded, "insep": positive}
        series = {}
        for k, name in enumerate(sorted(names)):
            series[name] = np.roll(pools.get(name.split("_")[0], odd), k)
        res = SweepResult(np.array(odd), series, {})
        buf = io.StringIO()
        write_sweep_csv(res, buf, columns)
        rows = [",".join(columns)] + [
            ",".join(format(x, ".17g") for x in [eps] + [res.series[c][k] for c in columns[1:]])
            for k, eps in enumerate(res.axis)
        ]
        assert buf.getvalue() == "\n".join(rows) + "\n"
        assert "-0," in buf.getvalue() and "4.9406564584124654e-324" in buf.getvalue()

    def test_series_validation(self):
        with pytest.raises(ValueError, match="axis length"):
            SweepResult(np.array([1.0, 2.0]), {"fid_corr": np.array([0.5])}, {})
        with pytest.raises(ValueError, match="inseparabilities must be nonnegative"):
            SweepResult(np.array([1.0]), {"insep_corr": np.array([-0.5])}, {})
