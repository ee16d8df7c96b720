"""Channel model: loss, thermal noise, correlated sources, mismatch."""

import re
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgec.channel import (
    ChannelModel,
    NoiseSource,
    channel_map,
    dump_channel_config,
    excess_noise_snu,
    parse_channel_config,
    standard_two_channel,
)
from cvgec.states import as_snu, vacuum_state

from test_states import random_physical_state


def through_channel(state, modes, model):
    """``state`` after the channel stage, placed on its own register."""
    return channel_map(model, modes, state.n_modes).apply(state)


def single_source(g1, g2, variance, xi=0.0, eta=1.0, thermal=0.0):
    src = NoiseSource(np.sqrt([g1, g2]), variance)
    return ChannelModel(2, eta, thermal, (src,), xi)


class TestApplyChannel:
    def test_unit_transmission_no_sources_is_identity(self):
        rng = np.random.default_rng(4)
        state = random_physical_state(rng, 2)
        out = through_channel(state, (0, 1), ChannelModel(2, 1.0, 0.0))
        assert np.allclose(out.cov, state.cov, atol=1e-15)
        assert np.allclose(out.mean, state.mean, atol=1e-15)

    def test_single_channel_variance(self):
        # eta = 0.8, g = (1, 0), 5 natural units of source variance:
        # 0.8 * 0.5 + 0.2 * 0.5 + 5 = 5.5 natural (11 SNU)
        model = single_source(1.0, 0.0, 5.0, eta=0.8)
        out = through_channel(vacuum_state(2), (0, 1), model)
        assert out.cov[0, 0] == pytest.approx(5.5, abs=1e-12)
        assert as_snu(out.cov[0, 0]) == pytest.approx(11.0, abs=1e-12)

    def test_cross_covariance_from_shared_source(self):
        # couplings (0.78, 1.0), variance v: cross covariance 0.78 * v
        v = 2.5
        model = ChannelModel(2, 1.0, 0.0, (NoiseSource([0.78, 1.0], v),))
        out = through_channel(vacuum_state(2), (0, 1), model)
        assert out.cov[0, 2] == pytest.approx(0.78 * v, abs=1e-12)
        assert out.cov[1, 3] == pytest.approx(0.78 * v, abs=1e-12)

    def test_pure_loss_equals_vacuum_on_vacuum(self):
        model = ChannelModel(2, [0.3, 0.9], 0.0)
        out = through_channel(vacuum_state(2), (0, 1), model)
        assert np.array_equal(out.cov, vacuum_state(2).cov)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True))
    def test_loss_is_a_beam_splitter_with_a_vacuum_port(self, eta):
        # the loss input is the complement (1 - x^2) / 2 of the amplitude x
        # the stage applies, not (1 - eta) / 2: a vacuum stays the vacuum, bit
        # for bit, where x^2 / 2 + (1 - eta) / 2 falls an ulp short
        m = channel_map(ChannelModel(1, eta), (0,), 1)
        x = np.sqrt(eta)
        assert np.array_equal(m.X, x * np.eye(2))
        assert np.array_equal(m.v[:2], np.full(2, (1.0 - x * x) * 0.5))
        assert np.array_equal(m.apply(vacuum_state(1)).cov, vacuum_state(1).cov)

    def test_thermal_environment(self):
        model = ChannelModel(1, 0.6, 2.0)
        out = through_channel(vacuum_state(1), (0,), model)
        assert out.cov[0, 0] == pytest.approx(0.6 * 0.5 + 0.4 * 2.5, abs=1e-14)

    def test_mean_attenuation(self):
        from cvgec.states import displace

        state = displace(vacuum_state(1), 0, 2.0, -1.0)
        out = through_channel(state, (0,), ChannelModel(1, 0.49, 0.0))
        assert np.allclose(out.mean, [1.4, -0.7], atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            through_channel(vacuum_state(1), (0, 1), ChannelModel(2, 1.0, 0.0))

    def test_monotone_in_source_variance(self):
        # Loewner order: more source variance never decreases the covariance
        rng = np.random.default_rng(8)
        for _ in range(20):
            g1, g2 = rng.uniform(0.1, 3.0, 2)
            lo, hi = np.sort(rng.uniform(0.0, 10.0, 2))
            xi = rng.uniform(0.0, 0.5)
            state = random_physical_state(rng, 2)
            out_lo = through_channel(state, (0, 1), single_source(g1, g2, lo, xi))
            out_hi = through_channel(state, (0, 1), single_source(g1, g2, hi, xi))
            diff = out_hi.cov - out_lo.cov
            assert np.linalg.eigvalsh(diff).min() >= -1e-12


class TestMismatchBookkeeping:
    def test_channel_keeps_mode_count(self):
        # the non-interfering power sits on each channel's own diagonal:
        # xi * var * g_i on top of vacuum, and no mode is appended
        model = single_source(1.0, 2.0, 3.0, xi=0.25)
        out = through_channel(vacuum_state(3), (0, 2), model)
        assert out.n_modes == 3
        assert out.cov[0, 0] == pytest.approx(0.5 + 3.0, abs=1e-14)
        assert out.cov[4, 4] == pytest.approx(0.5 + 2.0 * 3.0, abs=1e-14)
        assert out.cov[0, 4] == pytest.approx(0.75 * np.sqrt(2.0) * 3.0, abs=1e-14)
        assert np.allclose(out.cov[2:4, :], vacuum_state(3).cov[2:4, :], atol=0)

    def test_total_excess_invariant_in_xi(self):
        # only the split between interfering and non-interfering power
        # changes: the diagonal excess stays g_i * var, the cross term
        # carries the interfering fraction alone
        for xi in (0.0, 0.3, 0.9):
            model = single_source(1.5, 0.7, 4.0, xi=xi)
            out = through_channel(vacuum_state(2), (0, 1), model)
            assert out.cov[0, 0] - 0.5 == pytest.approx(1.5 * 4.0, abs=1e-12)
            assert out.cov[2, 2] - 0.5 == pytest.approx(0.7 * 4.0, abs=1e-12)
            cross = (1.0 - xi) * np.sqrt(1.5 * 0.7) * 4.0
            assert out.cov[0, 2] == pytest.approx(cross, abs=1e-12)

    def test_half_mismatch_halves_interfering_power(self):
        base = through_channel(vacuum_state(2), (0, 1), single_source(1.0, 1.0, 6.0, xi=0.0))
        half = through_channel(vacuum_state(2), (0, 1), single_source(1.0, 1.0, 6.0, xi=0.5))
        assert half.cov[0, 2] == pytest.approx(0.5 * base.cov[0, 2], abs=1e-12)

    def test_with_mismatch(self):
        model = single_source(1.0, 1.0, 1.0)
        assert replace(model, mismatch=0.01).mismatch == 0.01
        assert model.mismatch == 0.0  # original untouched
        with pytest.raises(ValueError):
            replace(model, mismatch=1.0)

    def test_zero_xi_adds_no_noninterfering_noise(self):
        # at xi = 0 the added covariance is exactly the rank-1 source term
        model = single_source(1.0, 1.0, 5.0, xi=0.0)
        out = through_channel(vacuum_state(2), (0, 1), model)
        assert out.n_modes == 2
        expected = 0.5 * np.eye(4) + 5.0 * np.kron(np.ones((2, 2)), np.eye(2))
        assert np.allclose(out.cov, expected, atol=1e-15)


class TestExcessNoise:
    def test_no_sources(self):
        assert excess_noise_snu(ChannelModel(2, 1.0, 0.0), 0) == 0.0

    def test_unit_conversion(self):
        model = ChannelModel(1, 1.0, 0.0, (NoiseSource([1.0], 0.5),))
        assert excess_noise_snu(model, 0) == pytest.approx(1.0)

    def test_ratio_between_channels(self):
        # channel-2 excess 10 SNU with g1/g2 = 0.61 puts 6.1 SNU on channel 1
        model = standard_two_channel(6.1, 0.61)
        assert excess_noise_snu(model, 0) == pytest.approx(6.1, abs=1e-12)
        assert excess_noise_snu(model, 1) == pytest.approx(10.0, abs=1e-12)

    def test_independent_of_mismatch(self):
        model = single_source(1.0, 2.0, 3.0, xi=0.4)
        assert excess_noise_snu(model, 1) == pytest.approx(
            excess_noise_snu(replace(model, mismatch=0.0), 1)
        )


class TestValidation:
    def test_eta_range(self):
        with pytest.raises(ValueError):
            ChannelModel(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            ChannelModel(1, 1.1, 0.0)

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"eta": [0.9, 0.8, 0.7]}, "eta has 3 values; need 1 or n_channels = 2"),
            ({"thermal": []}, "thermal has 0 values; need 1 or n_channels = 2"),
            ({"eta": [[0.9, 0.8]]}, "eta must be a scalar or a vector"),
        ],
    )
    def test_per_channel_count(self, kwargs, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            ChannelModel(2, **kwargs)

    def test_coupling_length(self):
        with pytest.raises(ValueError):
            ChannelModel(2, 1.0, 0.0, (NoiseSource([1.0], 1.0),))

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            NoiseSource([1.0, 1.0], -0.1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NoiseSource([1.0, 1.0], np.nan),
            lambda: NoiseSource([1.0, 1.0], np.inf),
            lambda: NoiseSource([1.0, np.nan], 1.0),
            lambda: NoiseSource([np.inf, 1.0], 1.0),
            lambda: ChannelModel(2, eta=np.nan),
            lambda: ChannelModel(2, eta=[0.9, np.nan]),
            lambda: ChannelModel(2, thermal=np.nan),
            lambda: ChannelModel(2, thermal=np.inf),
            lambda: ChannelModel(2, mismatch=np.nan),
            lambda: standard_two_channel(np.nan, 1.0),
            lambda: standard_two_channel(np.inf, 1.0),
            lambda: standard_two_channel(1.0, np.nan),
            lambda: standard_two_channel(1.0, np.inf),
        ],
    )
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("label", ["my src", "tab\there", "end\n", "a#b", "#"])
    def test_label_the_config_cannot_carry_refused(self, label):
        # dump_channel_config would write a source line that
        # parse_channel_config splits or cuts at the comment
        with pytest.raises(ValueError, match=f"^source label {re.escape(repr(label))} may hold"):
            NoiseSource([1.0, 1.0], 1.0, label)


class TestConfigRoundTrip:
    def test_round_trip(self):
        model = ChannelModel(
            2,
            [0.9, 0.8],
            [0.0, 0.1],
            (
                NoiseSource([0.78102, 1.0], 12.5, "gawbs"),
                NoiseSource([1.0, 0.0], 0.25),
            ),
            mismatch=0.009975,
        )
        back = parse_channel_config(dump_channel_config(model))
        assert back.n_channels == model.n_channels
        assert np.array_equal(back.eta, model.eta)
        assert np.array_equal(back.thermal, model.thermal)
        assert back.mismatch == model.mismatch
        assert len(back.sources) == 2
        for a, b in zip(back.sources, model.sources):
            assert np.array_equal(a.coupling, b.coupling)
            assert a.variance == b.variance

    def test_comments_and_defaults(self):
        text = "# a comment\nn_channels 2\nsource s0 1.5 1 1\n"
        model = parse_channel_config(text)
        assert np.array_equal(model.eta, [1.0, 1.0])
        assert model.mismatch == 0.0
        assert model.sources[0].variance == 1.5

    def test_bad_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_channel_config("n_channels 2\nbogus 1\n")

    @pytest.mark.parametrize(
        "text, repeat",
        [
            ("n_channels 2\nn_channels 2\n", "line 2 repeats n_channels of line 1"),
            ("n_channels 2\neta 0.5 0.5\n# later\neta 0.9 0.9\n", "line 4 repeats eta of line 2"),
            ("n_channels 2\nthermal 0\nthermal 0\n", "line 3 repeats thermal of line 2"),
            ("n_channels 2\nmismatch 0.3\nmismatch 0\n", "line 3 repeats mismatch of line 2"),
        ],
    )
    def test_repeated_key_refused(self, text, repeat):
        # the last line used to win silently
        with pytest.raises(ValueError, match=repeat):
            parse_channel_config(text)

    def test_sources_may_repeat(self):
        model = parse_channel_config("n_channels 2\nsource a 1 1 0\nsource a 1 0 1\n")
        assert len(model.sources) == 2


@st.composite
def channel_models(draw):
    """Models the constructors accept, over the whole range of each field."""
    n = draw(st.integers(1, 4))
    per_channel = lambda values: st.lists(values, min_size=n, max_size=n)
    eta = draw(per_channel(st.floats(0.0, 1.0, exclude_min=True)))
    thermal = draw(per_channel(st.floats(0.0, 1e3)))
    mismatch = draw(st.floats(0.0, 1.0, exclude_max=True))
    source = st.builds(
        NoiseSource,
        per_channel(st.floats(allow_nan=False, allow_infinity=False)),
        st.floats(0.0, 1e300),
        st.text(string.ascii_letters + string.digits + "_.-"),
    )
    sources = draw(st.lists(source, max_size=3))
    return ChannelModel(n, eta, thermal, tuple(sources), mismatch)


@settings(max_examples=150, deadline=None)
@given(channel_models())
def test_config_round_trips_every_accepted_model(model):
    text = dump_channel_config(model)
    back = parse_channel_config(text)
    assert dump_channel_config(back) == text
    assert back.n_channels == model.n_channels
    assert np.array_equal(back.eta, model.eta)
    assert np.array_equal(back.thermal, model.thermal)
    assert back.mismatch == model.mismatch
    assert len(back.sources) == len(model.sources)
    for a, b in zip(back.sources, model.sources):
        assert np.array_equal(a.coupling, b.coupling)
        assert a.variance == b.variance
