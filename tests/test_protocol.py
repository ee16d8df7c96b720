"""Encode/decode protocol, its optimum, baselines and N-channel form."""

import numpy as np
import pytest

from cvgec.channel import ChannelModel, NoiseSource, standard_two_channel
from cvgec.fidelity import fidelity
from cvgec.protocol import (
    NoProtectedSubspaceError,
    NoisePatternSet,
    ProtocolConfig,
    corrected_channel,
    decode,
    encode,
    incoherent_strategy,
    n_channel_protocol,
    null_space_encoder,
    optimal_splitting,
    optimal_splitting_for,
    run_protocol,
    uncorrected_channel,
)
from cvgec.states import as_snu, displace, duan_simon, vacuum_state

from map_reference import characterize_single_mode_map, pure_loss_reference
from test_states import random_physical_state


def config(eps_snu, g_ratio=1.0, eta=1.0, xi=0.0):
    model = standard_two_channel(eps_snu, g_ratio, eta, xi)
    t = optimal_splitting_for(model)
    return ProtocolConfig(t, t, model)


class TestOptimalSplitting:
    def test_symmetric(self):
        assert optimal_splitting(1.0, 1.0) == 0.5

    def test_asymmetric_ratio(self):
        # the complementary port convention would give g1/(g1+g2) = 0.3789...
        t = optimal_splitting(0.61, 1.0)
        assert t == pytest.approx(0.6211180124223602, abs=1e-12)
        assert 1.0 - t == pytest.approx(0.37888198757763975, abs=1e-12)

    def test_vanishing_g2_limit(self):
        assert optimal_splitting(1.0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            optimal_splitting(0.0, 1.0)
        with pytest.raises(ValueError):
            optimal_splitting(1.0, -2.0)


class TestEncodeDecode:
    def test_full_transmission_flips_aux(self):
        state = displace(displace(vacuum_state(2), 0, 1.0, 0.5), 1, 2.0, -1.0)
        out = encode(state, 1.0)
        assert np.allclose(out.mean, [1.0, 0.5, -2.0, 1.0], atol=1e-15)

    def test_encode_then_decode_is_identity(self):
        # matrix composition oracle: same-transmissivity pair cancels
        from cvgec.transforms import beam_splitter, expand

        for t in (0.0, 0.38, 0.5, 0.62, 1.0):
            s = expand(beam_splitter(t, (0, 1)), 2)
            assert np.abs(s @ s - np.eye(4)).max() < 1e-12
        rng = np.random.default_rng(12)
        state = random_physical_state(rng, 2)
        out = decode(encode(state, 0.38), 0.38)
        assert np.abs(out.cov - state.cov).max() < 1e-12
        assert np.abs(out.mean - state.mean).max() < 1e-12


class TestCorrectedChannel:
    def test_identity_at_unit_transmission(self):
        rng = np.random.default_rng(13)
        for g1, g2, var in [(1.0, 1.0, 10.0), (0.2, 3.0, 40.0), (5.0, 0.5, 0.0)]:
            model = ChannelModel(2, 1.0, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),))
            t = optimal_splitting(g1, g2)
            cfg = ProtocolConfig(t, t, model)
            state = random_physical_state(rng)
            out = corrected_channel(cfg, state)
            assert np.abs(out.cov - state.cov).max() < 1e-10
            assert np.abs(out.mean - state.mean).max() < 1e-10

    def test_lossy_coherent_example(self):
        cfg = config(12.0, g_ratio=0.7, eta=0.8)
        out = corrected_channel(cfg, displace(vacuum_state(1), 0, 2.0, 0.0))
        assert out.mean[0] == pytest.approx(np.sqrt(0.8) * 2.0, abs=1e-12)
        assert out.mean[0] == pytest.approx(1.7888543819998317, abs=1e-12)
        assert np.allclose(out.cov, 0.5 * np.eye(2), atol=1e-12)

    def test_equals_pure_loss_map(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            eta = rng.uniform(0.05, 1.0)
            g1, g2 = rng.uniform(0.01, 10.0, 2)
            var = rng.uniform(0.0, 50.0)
            model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),))
            t = optimal_splitting(g1, g2)
            cfg = ProtocolConfig(t, t, model)
            state = random_physical_state(rng)
            out = corrected_channel(cfg, state)
            ref = pure_loss_reference(state, eta)
            assert np.abs(out.cov - ref.cov).max() < 1e-10
            assert np.abs(out.mean - ref.mean).max() < 1e-10

    def test_output_independent_of_source_variance(self):
        cfg0 = config(0.0, g_ratio=0.61, eta=0.9)
        base = corrected_channel(cfg0, vacuum_state(1))
        for eps in (1.0, 10.0, 100.0):
            out = corrected_channel(config(eps, g_ratio=0.61, eta=0.9), vacuum_state(1))
            assert np.abs(out.cov - base.cov).max() < 1e-12

    def test_decoder_set_to_full_transmission_keeps_channel_noise(self):
        # suboptimal T_d = 1 passes channel 1's 20 SNU straight through
        model = standard_two_channel(20.0, 1.0)
        cfg = ProtocolConfig(optimal_splitting_for(model), 1.0, model)
        out = corrected_channel(cfg, vacuum_state(1))
        assert as_snu(out.cov[0, 0]) - 1.0 == pytest.approx(20.0, abs=1e-12)

    def test_noise_separation_at_optimum(self):
        for eps in (5.0, 20.0):
            joint = run_protocol(config(eps, g_ratio=0.7, eta=0.85), vacuum_state(1))
            cross = joint.cov[:2, 2:]
            assert np.abs(cross).max() < 1e-10
        # discarded-port variance grows affinely with the source variance
        v1 = run_protocol(config(10.0), vacuum_state(1)).cov[2, 2]
        v2 = run_protocol(config(20.0), vacuum_state(1)).cov[2, 2]
        v3 = run_protocol(config(30.0), vacuum_state(1)).cov[2, 2]
        assert v2 - v1 == pytest.approx(v3 - v2, abs=1e-10)
        assert v2 > v1

    def test_uncorrelated_noise_not_amplified(self):
        # a channel-local source passes attenuated by the decoder split
        for pattern, channel in ([(1.0, 0.0), 0], [(0.0, 1.0), 1]):
            sources = (
                NoiseSource(np.sqrt([1.0, 1.0]), 4.0),
                NoiseSource(np.array(pattern), 2.0),
            )
            model = ChannelModel(2, 1.0, 0.0, sources)
            cfg = ProtocolConfig(0.5, 0.5, model)
            out = corrected_channel(cfg, vacuum_state(1))
            single = ChannelModel(2, 1.0, 0.0, (sources[1],))
            alone = uncorrected_channel(
                ProtocolConfig(0.5, 0.5, single), vacuum_state(1), channel=channel
            )
            excess_corr = out.cov[0, 0] - 0.5
            excess_single = alone.cov[0, 0] - 0.5
            assert excess_corr <= excess_single + 1e-12
            assert excess_corr > 0.0

    def test_closed_form_vacuum_variance(self):
        # vacuum in, no thermal noise: the signal port keeps the interfering
        # amplitude sqrt(T_d g1) - sqrt((1-T_d) g2) and the incoherent sum
        # of each channel's non-interfering power, for any T_e and eta
        rng = np.random.default_rng(23)
        for _ in range(40):
            g1, g2 = rng.uniform(0.05, 4.0, 2)
            var, xi = rng.uniform(0.0, 20.0), rng.uniform(0.0, 0.5)
            te, td, eta = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0)
            model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),), xi)
            out = corrected_channel(ProtocolConfig(te, td, model), vacuum_state(1))
            coherent = (np.sqrt(td * g1) - np.sqrt((1.0 - td) * g2)) ** 2
            incoherent = td * g1 + (1.0 - td) * g2
            expected = 0.5 + var * ((1.0 - xi) * coherent + xi * incoherent)
            assert np.allclose(out.cov, expected * np.eye(2), rtol=1e-12, atol=1e-12)

    def test_map_characterization(self):
        cfg = config(15.0, g_ratio=0.61, eta=0.75)
        x, d, y = characterize_single_mode_map(lambda s: corrected_channel(cfg, s))
        assert np.allclose(x, np.sqrt(0.75) * np.eye(2), atol=1e-10)
        assert np.allclose(d, 0.0, atol=1e-12)
        assert np.allclose(y, 0.25 * 0.5 * np.eye(2), atol=1e-10)


class TestUncorrectedChannel:
    def test_excess_is_channel_noise(self):
        cfg = config(20.0)
        out = uncorrected_channel(cfg, vacuum_state(1))
        assert as_snu(out.cov[0, 0]) == pytest.approx(21.0, abs=1e-12)

    def test_alternative_channel_slope(self):
        cfg = config(10.0, g_ratio=0.5)
        out2 = uncorrected_channel(cfg, vacuum_state(1), channel=1)
        assert as_snu(out2.cov[0, 0]) - 1.0 == pytest.approx(20.0, abs=1e-12)

    def test_mean_is_pure_loss(self):
        cfg = config(10.0, eta=0.64)
        out = uncorrected_channel(cfg, displace(vacuum_state(1), 0, 2.0, 1.0))
        assert np.allclose(out.mean, [1.6, 0.8], atol=1e-13)


class TestIncoherentStrategy:
    def test_penalty_at_zero_noise(self):
        # output is the pure-loss channel plus a noise-independent penalty
        rng = np.random.default_rng(15)
        for g1, g2, eta in [(1.0, 1.0, 1.0), (2.0, 1.0, 0.7), (0.61, 1.0, 0.9)]:
            model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), 0.0),))
            t = optimal_splitting(g1, g2)
            cfg = ProtocolConfig(t, t, model)
            state = random_physical_state(rng)
            out = incoherent_strategy(cfg, state)
            ref = pure_loss_reference(state, eta)
            penalty = out.cov - ref.cov
            assert np.allclose(penalty, (g1 / g2) * np.eye(2), atol=1e-10)
            assert np.allclose(out.mean, ref.mean, atol=1e-12)

    def test_penalty_independent_of_noise_level(self):
        for eps in (0.0, 5.0, 50.0):
            out = incoherent_strategy(config(eps, g_ratio=0.8), vacuum_state(1))
            assert out.cov[0, 0] == pytest.approx(0.5 + 0.8, abs=1e-10)

    def test_penalty_scales_with_gain_squared(self):
        base = incoherent_strategy(config(3.0, g_ratio=1.0), vacuum_state(1))
        doubled = incoherent_strategy(config(3.0, g_ratio=2.0), vacuum_state(1))
        assert doubled.cov[0, 0] - 0.5 == pytest.approx(
            2.0 * (base.cov[0, 0] - 0.5), abs=1e-10
        )

    def test_monte_carlo_cross_check(self):
        # sample the measure-and-feedforward loop explicitly
        g1, g2, eta, var = 1.3, 0.9, 0.8, 6.0
        model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),))
        t = optimal_splitting(g1, g2)
        out = incoherent_strategy(ProtocolConfig(t, t, model), vacuum_state(1))

        rng = np.random.default_rng(99)
        n = 200_000
        root = np.sqrt
        half = root(0.5)
        for quad, port_sign in ((0, half), (1, -half)):
            sig = rng.normal(0, half, n)
            idle = rng.normal(0, half, n)
            env1 = rng.normal(0, half, n)
            env2 = rng.normal(0, half, n)
            v = rng.normal(0, root(var), n)
            anc = rng.normal(0, half, n)
            ch1 = root(eta) * sig + root(1 - eta) * env1 + root(g1) * v
            ch2 = root(eta) * idle + root(1 - eta) * env2 + root(g2) * v
            measured = port_sign * ch2 - (half if quad == 0 else half) * anc
            gain = -root(g1 / g2) / port_sign * 1.0
            outcome = ch1 + gain * measured
            sample_var = outcome.var(ddof=1)
            se = sample_var * np.sqrt(2.0 / (n - 1))
            assert abs(sample_var - out.cov[quad, quad]) < 5 * se

    def test_dominated_by_corrected_fidelity(self):
        probe = displace(vacuum_state(1), 0, 2.0, 0.0)
        for eps in (0.0, 10.0, 40.0):
            for ratio in (0.25, 0.61, 1.0, 2.0):
                cfg = config(eps, g_ratio=ratio, eta=0.9)
                f_corr = fidelity(corrected_channel(cfg, probe), probe)
                f_incoh = fidelity(incoherent_strategy(cfg, probe), probe)
                assert f_corr > f_incoh

    def test_mismatch_rule(self):
        # the signal carries channel 1's non-interfering noise xi var g1; the
        # heterodyned idle channel carries none of its own, so the penalty
        # stays g1/g2 on top of it
        g1, g2, eta, var, xi = 1.3, 0.9, 0.8, 6.0, 0.05
        model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),), xi)
        t = optimal_splitting(g1, g2)
        state = displace(vacuum_state(1), 0, 1.0, -0.5)
        out = incoherent_strategy(ProtocolConfig(t, t, model), state)
        ref = pure_loss_reference(state, eta)
        assert np.allclose(out.cov - ref.cov, (g1 / g2 + xi * var * g1) * np.eye(2), atol=1e-12)
        assert np.allclose(out.mean, ref.mean, atol=1e-12)

    def test_idle_channel_without_noise_rejected(self):
        model = ChannelModel(2, 1.0, 0.0, (NoiseSource([1.0, 0.0], 1.0),))
        with pytest.raises(ValueError, match="measure"):
            incoherent_strategy(ProtocolConfig(0.5, 0.5, model), vacuum_state(1))


class TestNullSpaceEncoder:
    def test_two_channel_pattern(self):
        g1, g2 = 0.61, 1.0
        s = null_space_encoder(NoisePatternSet((np.sqrt([g1, g2]),)))
        expected = np.array([np.sqrt(g2 / (g1 + g2)), -np.sqrt(g1 / (g1 + g2))])
        assert np.allclose(s, expected, atol=1e-12)

    def test_four_channel_pairwise_patterns(self):
        patterns = NoisePatternSet(
            (
                np.array([1.0, 1.0, 0.0, 0.0]),
                np.array([0.0, 0.0, 1.0, 1.0]),
                np.array([1.0, 0.0, 1.0, 0.0]),
                np.array([0.0, 1.0, 0.0, 1.0]),
            )
        )
        s = null_space_encoder(patterns)
        assert np.allclose(s, [0.5, -0.5, -0.5, 0.5], atol=1e-12)
        for p in patterns.patterns:
            assert abs(p @ s) < 1e-12
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_rejected(self):
        with pytest.raises(NoProtectedSubspaceError):
            null_space_encoder(NoisePatternSet(tuple(np.eye(3))))

    def test_orthogonality_on_random_patterns(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = rng.integers(2, 8)
            k = rng.integers(1, n)
            patterns = NoisePatternSet(tuple(rng.normal(size=(k, n))))
            s = null_space_encoder(patterns)
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
            for p in patterns.patterns:
                assert abs(p @ s) < 1e-12

    def test_degenerate_subspace_deterministic(self):
        patterns = NoisePatternSet((np.array([1.0, 0.0, 0.0]),))
        s = null_space_encoder(patterns)
        assert np.allclose(s, [0.0, 1.0, 0.0], atol=1e-12)


class TestNChannelProtocol:
    FIG_PATTERNS = NoisePatternSet(
        (
            np.array([1.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0, 1.0]),
            np.array([1.0, 0.0, 1.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 1.0]),
        )
    )

    def test_four_channel_separation(self):
        state = displace(vacuum_state(1), 0, 1.7, -0.9)
        out = n_channel_protocol(self.FIG_PATTERNS, 1.0, 25.0, state)
        assert np.abs(out.cov - state.cov).max() < 1e-10
        assert np.abs(out.mean - state.mean).max() < 1e-10

    def test_output_independent_of_variances(self):
        state = vacuum_state(1)
        base = n_channel_protocol(self.FIG_PATTERNS, 0.9, 0.0, state)
        for variances in (5.0, [1.0, 2.0, 3.0, 4.0], 50.0):
            out = n_channel_protocol(self.FIG_PATTERNS, 0.9, variances, state)
            assert np.abs(out.cov - base.cov).max() < 1e-10

    def test_reduces_to_two_channel_scheme(self):
        rng = np.random.default_rng(21)
        g1, g2, eta, var = 0.7, 1.3, 0.85, 12.0
        model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),))
        t = optimal_splitting(g1, g2)
        state = random_physical_state(rng)
        a = corrected_channel(ProtocolConfig(t, t, model), state)
        b = n_channel_protocol(NoisePatternSet((np.sqrt([g1, g2]),)), eta, var, state)
        assert np.abs(a.cov - b.cov).max() < 1e-12
        assert np.abs(a.mean - b.mean).max() < 1e-12

    def test_no_noise_is_pure_loss(self):
        state = displace(vacuum_state(1), 0, 1.0, 1.0)
        out = n_channel_protocol(self.FIG_PATTERNS, 0.7, 0.0, state)
        ref = pure_loss_reference(state, 0.7)
        assert np.abs(out.cov - ref.cov).max() < 1e-12
        assert np.abs(out.mean - ref.mean).max() < 1e-12

    def test_mismatch_residual(self):
        # xi > 0: each channel's non-interfering noise reaches the signal
        # port with weight s_i^2, so the excess is xi sum_s var_s sum_i s_i^2 c_si^2
        rng = np.random.default_rng(24)
        for n, k in ((4, 2), (6, 3), (8, 5)):
            patterns = NoisePatternSet(tuple(rng.normal(size=(k, n))))
            variances = rng.uniform(0.5, 10.0, k)
            xi, eta = 0.03, 0.8
            signal = null_space_encoder(patterns)
            state = displace(vacuum_state(1), 0, 0.7, 1.1)
            out = n_channel_protocol(patterns, eta, variances, state, xi=xi)
            residual = xi * sum(
                v * np.sum(signal**2 * p**2) for p, v in zip(patterns.patterns, variances)
            )
            ref = pure_loss_reference(state, eta)
            assert np.allclose(out.cov - ref.cov, residual * np.eye(2), rtol=1e-12, atol=1e-12)
            assert np.allclose(out.mean, ref.mean, atol=1e-12)

    def test_entangled_input_supported(self):
        from cvgec.transforms import two_mode_squeezed

        pair = two_mode_squeezed(0.6)
        out = n_channel_protocol(self.FIG_PATTERNS, 1.0, 30.0, pair, signal_mode=1)
        assert duan_simon(out, (0, 1)) == pytest.approx(2 * np.exp(-1.2), abs=1e-10)


class TestProtocolConfig:
    def test_transmissivity_range(self):
        model = standard_two_channel(1.0, 1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(1.2, 0.5, model)

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            ProtocolConfig(0.5, 0.5, ChannelModel(1, 1.0, 0.0))
