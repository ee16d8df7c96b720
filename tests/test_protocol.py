"""Encode/decode protocol, its optimum, baselines and N-channel form."""

import hashlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgec.channel import ChannelModel, NoiseSource, standard_two_channel
from cvgec.protocol import (
    NoProtectedSubspaceError,
    NoisePatternSet,
    ProtocolConfig,
    corrected_channel,
    corrected_map,
    incoherent_map,
    n_channel_protocol,
    optimal_splitting_for,
    protected_mode,
    uncorrected_channel,
)
from cvgec.states import GaussianState, as_snu, displace, vacuum_state
from cvgec.transforms import GaussianMap, beam_splitter, two_mode_squeezed

from map_reference import (
    characterize_single_mode_map,
    direct_transmission_map,
    pure_loss_reference,
)
from splitting_oracle import amplitudes, optimal_splitting, splitting_objective
from state_oracle import duan_simon, fidelity, tensor
from test_states import random_physical_state

HALF = amplitudes(0.5)  # a balanced splitter

#: Coupling magnitudes log-uniform over 300 decades.
log_uniform = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)

def both_ports(cfg, state):
    """The corrected map's image of ``state`` through the config's pair, the
    discarded port kept as the final mode."""
    c, s = cfg.encoder
    m = corrected_map(cfg.channel, state.n_modes, signal=(c, -s))
    return m.apply(tensor(state, vacuum_state(1)))


def config(eps_snu, g_ratio=1.0, eta=1.0, xi=0.0):
    model = standard_two_channel(eps_snu, g_ratio, eta, xi)
    pair = optimal_splitting_for(model)
    return ProtocolConfig(pair, pair, model)


def incoherent(model, state):
    """The incoherent baseline's image of ``state``, the measured modes dropped."""
    return incoherent_map(model, state.n_modes).restricted(state.n_modes).apply(state)


class TestOptimalSplitting:
    def test_symmetric(self):
        half = np.sqrt(0.5)
        assert optimal_splitting_for(standard_two_channel(1.0, 1.0)) == (half, half)

    def test_asymmetric_ratio(self):
        # the complementary port convention would give T = g1/(g1+g2) = 0.3789...
        c, s = optimal_splitting_for(standard_two_channel(1.0, 0.61))
        assert c**2 == pytest.approx(0.6211180124223602, abs=1e-12)
        assert s**2 == pytest.approx(0.37888198757763975, abs=1e-12)
        assert c == np.sqrt(optimal_splitting(0.61, 1.0))

    def test_vanishing_g2_limit(self):
        c, s = optimal_splitting_for(standard_two_channel(1.0, 1e12))
        assert c == pytest.approx(1e-6, rel=1e-15)
        assert s == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "coupling, pair",
        [((0.0, 2.0), (1.0, 0.0)), ((3.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (1.0, 0.0))],
    )
    def test_uncoupled_channel_carries_the_signal(self, coupling, pair):
        # the signal amplitudes (c, -s) go wholly to a channel the source
        # misses; a source that reaches neither leaves them on channel 1
        model = ChannelModel(2, 0.8, 0.0, (NoiseSource(coupling, 1.0),))
        assert optimal_splitting_for(model) == pair

    def test_opposite_sign_couplings_give_negative_s(self):
        # the pair keeps the sign of c1 c2: (0.7, -1) / |c| for (1, -0.7)
        norm = np.hypot(1.0, 0.7)
        for coupling in ([1.0, -0.7], [-1.0, 0.7]):
            model = ChannelModel(2, 0.8, 0.0, (NoiseSource(coupling, 1.0),))
            c, s = optimal_splitting_for(model)
            assert c == pytest.approx(0.7 / norm, rel=1e-15)
            assert s == pytest.approx(-1.0 / norm, rel=1e-15)
        flipped = ChannelModel(2, 0.8, 0.0, (NoiseSource([-1.0, -0.7], 1.0),))
        c, s = optimal_splitting_for(flipped)
        assert (c, s) == pytest.approx((0.7 / norm, 1.0 / norm), rel=1e-15)

    def test_anticorrelated_source_is_cancelled(self):
        rng = np.random.default_rng(25)
        model = ChannelModel(2, 0.8, 0.0, (NoiseSource([1.0, -0.7], 1000.0),))
        pair = optimal_splitting_for(model)
        state = random_physical_state(rng)
        out = corrected_channel(ProtocolConfig(pair, pair, model), state)
        ref = pure_loss_reference(state, 0.8)
        assert np.abs(out.cov - ref.cov).max() < 1e-10
        assert np.abs(out.mean - ref.mean).max() < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(log_uniform, log_uniform), st.tuples(st.booleans(), st.booleans()))
    def test_pair_keeps_its_precision_at_any_asymmetry(self, magnitudes, negative):
        c1, c2 = (-m if flip else m for m, flip in zip(magnitudes, negative))
        model = ChannelModel(2, 1.0, 0.0, (NoiseSource([c1, c2], 1.0),))
        c, s = optimal_splitting_for(model)
        assert abs(c * c + s * s - 1.0) <= 1e-15
        top = max(abs(c1), abs(c2))
        assert abs(c1 * c - c2 * s) <= 1e-15 * top
        # each amplitude against (|c2|, sign(c1 c2) |c1|) / |c| in 28-digit decimals
        norm = (Decimal(c1) ** 2 + Decimal(c2) ** 2).sqrt()
        sign = Decimal(c1 * c2)
        for got, want in ((c, abs(Decimal(c2))), (s, abs(Decimal(c1)).copy_sign(sign))):
            assert abs(Decimal(got) - want / norm) <= Decimal(1e-15) * abs(want / norm)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.booleans(), st.floats(0.05, 1.0),
        st.floats(0.0, 0.5), st.floats(0.0, 50.0),
    )
    def test_pair_map_agrees_with_the_protected_mode_map(self, g1, g2, negative, eta, xi, var):
        coupling = [np.sqrt(g1), -np.sqrt(g2) if negative else np.sqrt(g2)]
        model = ChannelModel(2, eta, 0.0, (NoiseSource(coupling, var),), xi)
        c, s = optimal_splitting_for(model)
        a = corrected_map(model, 1, signal=(c, -s))
        b = corrected_map(model, 1)
        # the carrier's sign is free, so compare the signal rows of X and the
        # signal block of Y, whose cancellation leaves rounding of the order
        # of the channel noise
        scale = 1.0 + var * (g1 + g2)
        assert np.abs(a.X[:2] - b.X[:2]).max() <= 1e-15
        assert np.abs(a.Y[:2, :2] - b.Y[:2, :2]).max() <= 1e-15 * scale


class TestEncodeDecode:
    """The protocol's splitter map, used both to encode and to decode."""

    def test_full_transmission_flips_aux(self):
        state = displace(displace(vacuum_state(2), 0, 1.0, 0.5), 1, 2.0, -1.0)
        out = GaussianMap.of(beam_splitter(1.0), (0, 1), 2).apply(state)
        assert np.allclose(out.mean, [1.0, 0.5, -2.0, 1.0], atol=1e-15)

    def test_encode_then_decode_is_identity(self):
        # matrix composition oracle: same-transmissivity pair cancels
        for t in (0.0, 0.38, 0.5, 0.62, 1.0):
            s = beam_splitter(t)
            assert np.abs(s @ s - np.eye(4)).max() < 1e-12
        rng = np.random.default_rng(12)
        state = random_physical_state(rng, 2)
        splitter = GaussianMap.of(beam_splitter(0.38), (0, 1), 2)
        out = splitter.then(splitter).apply(state)
        assert np.abs(out.cov - state.cov).max() < 1e-12
        assert np.abs(out.mean - state.mean).max() < 1e-12


class TestCorrectedChannel:
    def test_identity_at_unit_transmission(self):
        rng = np.random.default_rng(13)
        for g1, g2, var in [(1.0, 1.0, 10.0), (0.2, 3.0, 40.0), (5.0, 0.5, 0.0)]:
            model = ChannelModel(2, 1.0, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),))
            t = amplitudes(optimal_splitting(g1, g2))
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
            t = amplitudes(optimal_splitting(g1, g2))
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
        # suboptimal T_d = 1 passes channel 1's 20 SNU straight through, for
        # the optimal T_e as for T_e = T_d = 1
        score = splitting_objective(1.0, 1.0, objective="variance", eps_snu=20.0)
        added = score(np.array([optimal_splitting(1.0, 1.0), 1.0]), np.array([1.0]))
        assert added[:, 0] == pytest.approx([20.0, 20.0], abs=1e-12)
        model = standard_two_channel(20.0, 1.0)
        cfg = ProtocolConfig(amplitudes(1.0), amplitudes(1.0), model)
        out = corrected_channel(cfg, vacuum_state(1))
        assert as_snu(out.cov[0, 0]) - 1.0 == pytest.approx(20.0, abs=1e-12)

    def test_noise_separation_at_optimum(self):
        for eps in (5.0, 20.0):
            joint = both_ports(config(eps, g_ratio=0.7, eta=0.85), vacuum_state(1))
            cross = joint.cov[:2, 2:]
            assert np.abs(cross).max() < 1e-10
        # discarded-port variance grows affinely with the source variance
        v1 = both_ports(config(10.0), vacuum_state(1)).cov[2, 2]
        v2 = both_ports(config(20.0), vacuum_state(1)).cov[2, 2]
        v3 = both_ports(config(30.0), vacuum_state(1)).cov[2, 2]
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
            cfg = ProtocolConfig(HALF, HALF, model)
            out = corrected_channel(cfg, vacuum_state(1))
            single = ChannelModel(2, 1.0, 0.0, (sources[1],))
            alone = uncorrected_channel(
                ProtocolConfig(HALF, HALF, single), vacuum_state(1), channel=channel
            )
            excess_corr = out.cov[0, 0] - 0.5
            excess_single = alone.cov[0, 0] - 0.5
            assert excess_corr <= excess_single + 1e-12
            assert excess_corr > 0.0

    def test_closed_form_vacuum_variance(self):
        # vacuum in, no thermal noise: the signal port keeps the interfering
        # amplitude sqrt(T_d g1) - sqrt((1-T_d) g2) and the incoherent sum
        # of each channel's non-interfering power, for any T_e and eta.  The
        # oracle composes the unequal pair; the package runs T_e = T_d.
        rng = np.random.default_rng(23)
        for _ in range(40):
            g1, g2 = rng.uniform(0.05, 4.0, 2)
            var, xi = rng.uniform(0.0, 20.0), rng.uniform(0.0, 0.5)
            te, td, eta = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0)
            coherent = (np.sqrt(td * g1) - np.sqrt((1.0 - td) * g2)) ** 2
            incoherent = td * g1 + (1.0 - td) * g2
            expected = 0.5 + var * ((1.0 - xi) * coherent + xi * incoherent)
            score = splitting_objective(g1, g2, xi, eta, "variance", 2.0 * var * g1)
            added = score(np.array([te, td]), np.array([td]))[:, 0]
            assert np.allclose(0.5 + 0.5 * added, expected, rtol=1e-12, atol=1e-12)
            model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),), xi)
            cfg = ProtocolConfig(amplitudes(td), amplitudes(td), model)
            out = corrected_channel(cfg, vacuum_state(1))
            assert np.allclose(out.cov, expected * np.eye(2), rtol=1e-12, atol=1e-12)

    def test_map_characterization(self):
        cfg = config(15.0, g_ratio=0.61, eta=0.75)
        x, d, y = characterize_single_mode_map(lambda s: corrected_channel(cfg, s))
        assert np.allclose(x, np.sqrt(0.75) * np.eye(2), atol=1e-10)
        assert np.allclose(d, 0.0, atol=1e-12)
        assert np.allclose(y, 0.25 * 0.5 * np.eye(2), atol=1e-10)

    def test_signal_mode_must_be_an_integer(self):
        cfg = config(15.0, g_ratio=0.61, eta=0.75)
        pair = two_mode_squeezed(0.6)
        with pytest.raises(ValueError, match="integers"):
            corrected_channel(cfg, pair, signal_mode=1.7)
        wide = corrected_channel(cfg, pair, signal_mode=np.int64(1))
        assert np.array_equal(wide.cov, corrected_channel(cfg, pair, signal_mode=1).cov)


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

    @pytest.mark.parametrize("channel", [-1, 2])
    def test_channel_index_out_of_range(self, channel):
        with pytest.raises(ValueError, match="^channel index out of range$"):
            uncorrected_channel(config(10.0), vacuum_state(1), channel=channel)

    def test_is_the_corrected_map_at_full_transmission(self):
        # the scheme with its signal along e_k is direct transmission
        # through channel k once the carriers are dropped.  The shared
        # amplitude a and loss l pass the mirror apart from each channel's
        # rest, so X_kk = a + (x_k - a) and the loss l + (l_k - l), and Y sums
        # up to four inputs in another order: each entry is within 4 ulp
        rng = np.random.default_rng(29)
        for _ in range(30):
            c = int(rng.integers(2, 6))
            sources = tuple(
                NoiseSource(rng.normal(size=c), rng.uniform(0.0, 5.0))
                for _ in range(int(rng.integers(0, 3)))
            )
            eta, thermal = rng.uniform(0.2, 1.0, c), rng.choice([0.0, 0.4]) * rng.random(c)
            model = ChannelModel(c, eta, thermal, sources, rng.choice([0.0, 0.1]))
            n, mode, channel = 2, int(rng.integers(0, 2)), int(rng.integers(0, c))
            got = corrected_map(model, n, mode, signal=np.eye(c)[channel]).restricted(n)
            want = direct_transmission_map(model, n, mode, channel).restricted(n)
            for name in "XY":
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a == 0.0, b == 0.0), name
                assert np.allclose(a, b, rtol=4 * np.finfo(float).eps, atol=0.0), name

    @pytest.mark.parametrize("thermal", [0.0, 0.4])
    def test_is_direct_transmission_bit_for_bit_at_equal_loss(self, thermal):
        # at equal loss and thermal noise, with silent sources and no
        # mismatch, the signal meets only the shared part: the same bits
        rng = np.random.default_rng(30)
        for _ in range(30):
            c = int(rng.integers(2, 6))
            sources = tuple(NoiseSource(rng.normal(size=c), 0.0) for _ in range(2))
            model = ChannelModel(c, rng.uniform(0.01, 1.0), thermal, sources)
            n, mode, channel = 2, int(rng.integers(0, 2)), int(rng.integers(0, c))
            got = corrected_map(model, n, mode, signal=np.eye(c)[channel]).restricted(n)
            want = direct_transmission_map(model, n, mode, channel).restricted(n)
            assert np.array_equal(got.X, want.X)
            assert np.array_equal(got.Y, want.Y)


class TestIncoherentStrategy:
    def test_penalty_at_zero_noise(self):
        # output is the pure-loss channel plus a noise-independent penalty
        rng = np.random.default_rng(15)
        for g1, g2, eta in [(1.0, 1.0, 1.0), (2.0, 1.0, 0.7), (0.61, 1.0, 0.9)]:
            model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), 0.0),))
            state = random_physical_state(rng)
            out = incoherent(model, state)
            ref = pure_loss_reference(state, eta)
            penalty = out.cov - ref.cov
            assert np.allclose(penalty, (g1 / g2) * np.eye(2), atol=1e-10)
            assert np.allclose(out.mean, ref.mean, atol=1e-12)

    def test_penalty_independent_of_noise_level(self):
        for eps in (0.0, 5.0, 50.0):
            out = incoherent(standard_two_channel(eps, 0.8), vacuum_state(1))
            assert out.cov[0, 0] == pytest.approx(0.5 + 0.8, abs=1e-10)

    def test_penalty_scales_with_gain_squared(self):
        base = incoherent(standard_two_channel(3.0, 1.0), vacuum_state(1))
        doubled = incoherent(standard_two_channel(3.0, 2.0), vacuum_state(1))
        assert doubled.cov[0, 0] - 0.5 == pytest.approx(
            2.0 * (base.cov[0, 0] - 0.5), abs=1e-10
        )

    def test_monte_carlo_cross_check(self):
        # sample the measure-and-feedforward loop explicitly
        g1, g2, eta, var = 1.3, 0.9, 0.8, 6.0
        model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),))
        out = incoherent(model, vacuum_state(1))

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
                f_incoh = fidelity(incoherent(cfg.channel, probe), probe)
                assert f_corr > f_incoh

    def test_mismatch_rule(self):
        # each channel carries its own non-interfering noise: channel 1's
        # xi var g1 reaches the signal directly, and channel 2's xi var g2
        # reaches it through the feedforward gain g1/g2, on top of the
        # penalty g1/g2
        g1, g2, eta, var, xi = 1.3, 0.9, 0.8, 6.0, 0.05
        model = ChannelModel(2, eta, 0.0, (NoiseSource(np.sqrt([g1, g2]), var),), xi)
        state = displace(vacuum_state(1), 0, 1.0, -0.5)
        out = incoherent(model, state)
        ref = pure_loss_reference(state, eta)
        assert np.allclose(out.cov - ref.cov, (g1 / g2 + 2 * xi * var * g1) * np.eye(2), atol=1e-12)
        assert np.allclose(out.mean, ref.mean, atol=1e-12)

    def test_idle_channel_without_noise_rejected(self):
        model = ChannelModel(2, 1.0, 0.0, (NoiseSource([1.0, 0.0], 1.0),))
        with pytest.raises(ValueError, match="measure"):
            incoherent(model, vacuum_state(1))


class TestProtectedMode:
    def test_two_channel_pattern(self):
        g1, g2 = 0.61, 1.0
        s = protected_mode(NoisePatternSet((np.sqrt([g1, g2]),)))[0]
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
        s = protected_mode(patterns)[0]
        assert np.allclose(s, [0.5, -0.5, -0.5, 0.5], atol=1e-12)
        for p in patterns.patterns:
            assert abs(p @ s) < 1e-12
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_rejected(self):
        with pytest.raises(NoProtectedSubspaceError):
            protected_mode(NoisePatternSet(tuple(np.eye(3))))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "pattern, expected",
        [
            ([1e-200, 1e-200], [HALF[0], -HALF[0]]),
            ([1e200, 1e200], [HALF[0], -HALF[0]]),
            ([1e308, 1e308], [HALF[0], -HALF[0]]),
            ([3e-162, 3e-162, 0.0], [HALF[0], -HALF[0], 0.0]),
            ([5e-324, -5e-324], [HALF[0], HALF[0]]),
            ([1.7e308, -1e-300, 0.0], [0.0, 1.0, 0.0]),
        ],
    )
    def test_protected_at_any_pattern_scale(self, pattern, expected):
        # a pattern's norm under- or overflows past about 1e-154 and 1e154;
        # the encoder must still avoid it rather than fall back to e_0
        s = protected_mode([pattern])[0]
        assert np.allclose(s, expected, rtol=0.0, atol=1e-15)
        assert abs(s @ (np.array(pattern) / np.abs(pattern).max())) <= 1e-15

    def test_orthogonality_on_random_patterns(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = rng.integers(2, 8)
            k = rng.integers(1, n)
            patterns = NoisePatternSet(tuple(rng.normal(size=(k, n))))
            s = protected_mode(patterns)[0]
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
            for p in patterns.patterns:
                assert abs(p @ s) < 1e-12
            assert protected_mode(patterns)[1] == (True,) * k

    def test_protected_mode_flags_the_patterns_it_spans(self):
        # b lies within 1e-10 of a, so the pass drops it as dependent: u is
        # orthogonalized against a, the zero pattern and c, not against b
        near = [1.0, 1.0000000001, 0.0]
        patterns = ([1.0, 1.0, 0.0], near, np.zeros(3), [0.0, 0.0, 1.0])
        u, spanned = protected_mode(patterns)
        assert spanned == (True, False, True, True)
        assert u @ near == pytest.approx(-1e-10 / np.sqrt(2), rel=1e-6)

    def test_degenerate_subspace_deterministic(self):
        patterns = NoisePatternSet((np.array([1.0, 0.0, 0.0]),))
        s = protected_mode(patterns)[0]
        assert np.allclose(s, [0.0, 1.0, 0.0], atol=1e-12)

    def test_uncoupled_patterns_leave_the_first_mode(self):
        # No source reaches any channel: every mode is protected, and the
        # tie rule picks e_0.
        patterns = NoisePatternSet((np.zeros(3), np.zeros(3)))
        assert np.array_equal(protected_mode(patterns)[0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            NoisePatternSet((np.array([1.0, bad, 0.0]), np.array([1.0, 1.0, 0.0])))


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
        t = amplitudes(optimal_splitting(g1, g2))
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
            signal = protected_mode(patterns)[0]
            state = displace(vacuum_state(1), 0, 0.7, 1.1)
            sources = tuple(NoiseSource(p, v) for p, v in zip(patterns.patterns, variances))
            m = corrected_map(ChannelModel(n, eta, 0.0, sources, xi), 1)
            out = m.restricted(1).apply(state)
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

    def test_map_signal_rows_are_pure_loss(self):
        # at xi = 0 the signal mode's rows of X and Y are those of pure loss:
        # no coupling to the other state modes or to the channel carriers
        rng = np.random.default_rng(33)
        for n, k in ((2, 1), (4, 2), (7, 3), (12, 8)):
            patterns = rng.normal(size=(k, n))
            variances = rng.uniform(0.1, 50.0, k)
            eta = rng.uniform(0.05, 1.0)
            n_modes, signal = 3, int(rng.integers(3))
            sources = tuple(NoiseSource(p, v) for p, v in zip(patterns, variances))
            m = corrected_map(ChannelModel(n, eta, 0.0, sources), n_modes, signal)
            assert m.n_modes == n_modes + n - 1
            rows = slice(2 * signal, 2 * signal + 2)
            x_ref = np.zeros((2, 2 * m.n_modes))
            x_ref[:, rows] = np.sqrt(eta) * np.eye(2)
            y_ref = np.zeros((2, 2 * m.n_modes))
            y_ref[:, rows] = 0.5 * (1.0 - eta) * np.eye(2)
            assert np.abs(m.X[rows] - x_ref).max() < 1e-12
            assert np.abs(m.Y[rows] - y_ref).max() < 1e-12

    @pytest.mark.parametrize(
        "eta, thermal", [([0.7, 0.4], [0.3, 2.0]), ([0.55, 0.9, 0.2], [1.5, 0.0, 4.0])]
    )
    def test_model_without_sources_keeps_the_signal_on_channel_0(self, eta, thermal):
        # every mode is protected: the signal rides e_0, so it sees channel 0
        # alone, X = x_0 I and Y = (1 - x_0^2)(1/2 + n_0) I for x_0 = sqrt(eta_0)
        m = corrected_map(ChannelModel(len(eta), eta, thermal), 1)
        assert m.n_modes == len(eta)
        x0 = np.sqrt(eta[0])
        x_ref = np.zeros((2, 2 * m.n_modes))
        x_ref[:, :2] = x0 * np.eye(2)
        y_ref = np.zeros((2, 2 * m.n_modes))
        y_ref[:, :2] = (1.0 - x0 * x0) * (0.5 + thermal[0]) * np.eye(2)
        assert np.array_equal(m.X[:2], x_ref)
        assert np.array_equal(m.Y[:2], y_ref)

    def test_pinned_bytes(self):
        # sha256 of one seeded 32-channel run, recorded once the added noise
        # became a list of independent inputs (F, v), and again once the
        # mirror stopped conjugating the shared loss and the loss input became
        # the complement of the applied amplitude
        rng = np.random.default_rng(32)
        patterns = rng.standard_normal((12, 32))
        variances = rng.uniform(0.5, 10.0, 12)
        a = rng.standard_normal((4, 4))
        state = GaussianState(rng.standard_normal(4), a @ a.T + 0.5 * np.eye(4))
        sources = tuple(NoiseSource(p, v) for p, v in zip(patterns, variances))
        m = corrected_map(ChannelModel(32, 0.8, 0.0, sources, 0.02), 2, signal_mode=1)
        out = m.restricted(2).apply(state)
        data = np.concatenate([out.mean, out.cov.ravel()]).astype("<f8")
        digest = hashlib.sha256(data.tobytes()).hexdigest()
        assert digest == "8bdccaef8873ce58115a737dc3cd2621ad411a5ff68e7c9cd613d4450fddc920"


class TestProtocolConfig:
    @pytest.mark.parametrize(
        "pair", [(1.2, 0.5), (0.5, 0.5), (np.nan, 0.0), (np.inf, 0.0), (1.0, 1e-5)]
    )
    def test_amplitudes_must_be_a_unit_pair(self, pair):
        model = standard_two_channel(1.0, 1.0)
        with pytest.raises(ValueError, match="encoder must be a finite unit amplitude pair"):
            ProtocolConfig(pair, HALF, model)
        with pytest.raises(ValueError, match="decoder must be a finite unit amplitude pair"):
            ProtocolConfig(HALF, pair, model)

    def test_pairs_of_either_sign_accepted(self):
        model = standard_two_channel(1.0, 1.0)
        for pair in ((0.6, -0.8), (-0.8, 0.6)):
            cfg = ProtocolConfig(np.array(pair), pair, model)
            assert cfg.encoder == cfg.decoder == pair

    @pytest.mark.parametrize(
        "encoder, decoder", [(HALF, amplitudes(1.0)), ((0.6, -0.8), (-0.6, 0.8))]
    )
    def test_unequal_pairs_refused(self, encoder, decoder):
        # the encoder and the decoder are one splitter pair; unequal pairs
        # are scored by tests/splitting_oracle.py alone
        model = standard_two_channel(1.0, 1.0)
        with pytest.raises(ValueError, match="^the encoder and the decoder must be one"):
            ProtocolConfig(encoder, decoder, model)

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            ProtocolConfig(HALF, HALF, ChannelModel(1, 1.0, 0.0))
