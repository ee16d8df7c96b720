"""Gaussian state construction, reduction and criteria."""

import numpy as np
import pytest

from cvgec.states import (
    GaussianState,
    as_snu,
    displace,
    vacuum_state,
)
from cvgec.transforms import GaussianMap, quadrature_labels, two_mode_squeezed

from network_oracle import phase_shift
from state_oracle import (
    add_noise,
    channel_margin,
    duan_simon,
    partial_trace,
    preparation,
    rotated_squeeze,
    squeeze,
    tensor,
)


def random_physical_state(rng, n_modes=1):
    """Random squeezed, rotated, displaced, classically noisy state."""
    state = vacuum_state(n_modes)
    for mode in range(n_modes):
        sq = rotated_squeeze(rng.uniform(-1.2, 1.2), rng.uniform(0, np.pi))
        state = GaussianMap.of(sq, (mode,), n_modes).apply(state)
        ps = phase_shift(rng.uniform(0, 2 * np.pi))
        state = GaussianMap.of(ps, (mode,), n_modes).apply(state)
        state = displace(state, mode, rng.normal(scale=2), rng.normal(scale=2))
    extra = rng.uniform(0, 1.5)
    return add_noise(state, extra * np.eye(2 * n_modes))


class TestVacuum:
    def test_single_mode(self):
        vac = vacuum_state(1)
        assert np.array_equal(vac.mean, np.zeros(2))
        assert np.array_equal(vac.cov, np.diag([0.5, 0.5]))

    def test_three_modes_are_pure(self):
        vac = vacuum_state(3)
        assert vac.cov.shape == (6, 6)
        assert channel_margin(*preparation(vac)) == 0.0

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)

    def test_vacuum_pair_sits_on_duan_boundary(self):
        assert duan_simon(vacuum_state(2), (0, 1)) == 2.0


class TestConstruction:
    def test_asymmetric_cov_rejected(self):
        cov = np.array([[0.5, 1e-6], [0.0, 0.5]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), cov)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), 0.5 * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        mean = np.zeros(2)
        mean[1] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianState(mean, 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            GaussianState(np.zeros(2), np.full((2, 2), bad))
        cov = 0.5 * np.eye(2)
        cov[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianState(np.zeros(2), cov)

    def test_states_are_immutable(self):
        vac = vacuum_state(1)
        with pytest.raises(ValueError):
            vac.cov[0, 0] = 3.0


class TestDisplace:
    def test_mean_shift_only(self):
        out = displace(vacuum_state(2), 0, 1.0, 0.0)
        assert np.array_equal(out.mean, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out.cov, vacuum_state(2).cov)

    def test_inverse_round_trip(self):
        state = displace(vacuum_state(1), 0, 0.7, -1.3)
        back = displace(displace(state, 0, 2.1, 0.4), 0, -2.1, -0.4)
        assert np.allclose(back.mean, state.mean, atol=1e-15)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            displace(vacuum_state(1), 1, 1.0, 0.0)


class TestAddNoise:
    def test_zero_noise_is_identity(self):
        vac = vacuum_state(2)
        out = add_noise(vac, np.zeros((4, 4)))
        assert np.array_equal(out.cov, vac.cov)

    def test_rank_one_correlated_block(self):
        # hand expansion: cov(x1, x2) of sqrt(g1) v and sqrt(g2) v is
        # sqrt(g1 g2) * Var(v)
        g1, g2, var = 0.5, 1.2, 3.0
        c = np.sqrt([g1, g2])
        vec_x = np.array([c[0], 0.0, c[1], 0.0])
        vec_p = np.array([0.0, c[0], 0.0, c[1]])
        noise = var * (np.outer(vec_x, vec_x) + np.outer(vec_p, vec_p))
        out = add_noise(vacuum_state(2), noise)
        assert out.cov[0, 2] == pytest.approx(np.sqrt(g1 * g2) * var, abs=1e-14)
        assert out.cov[1, 3] == pytest.approx(np.sqrt(g1 * g2) * var, abs=1e-14)
        assert out.cov[0, 1] == 0.0  # x and p noise independent

    def test_snu_bookkeeping(self):
        # 3 SNU = 1.5 natural units on one quadrature: 1 SNU -> 4 SNU
        noise = np.zeros((2, 2))
        noise[0, 0] = 1.5
        out = add_noise(vacuum_state(1), noise)
        assert as_snu(out.cov[0, 0]) == pytest.approx(4.0)



class TestPartialTrace:
    def test_keep_all_is_identity(self):
        state = two_mode_squeezed(0.4)
        out = partial_trace(state, [0, 1])
        assert np.array_equal(out.cov, state.cov)

    def test_two_mode_squeezed_marginal_is_thermal(self):
        # covariance-block oracle: build the 4x4 matrix by hand
        r = 0.5
        s = np.sqrt(0.5)
        bs = np.kron(np.array([[s, -s], [-s, -s]]), np.eye(2))
        cov_in = np.diag([np.exp(-2 * r), np.exp(2 * r), np.exp(2 * r), np.exp(-2 * r)]) / 2
        cov = bs @ cov_in @ bs.T
        expected = cov[:2, :2]
        assert np.allclose(expected, 0.5 * np.cosh(2 * r) * np.eye(2), atol=1e-12)

        reduced = partial_trace(two_mode_squeezed(r), {0})
        assert np.allclose(reduced.cov, expected, atol=1e-12)
        assert reduced.cov[0, 0] == pytest.approx(0.7715403174076218, abs=1e-9)

    def test_vacuum_marginal(self):
        out = partial_trace(vacuum_state(3), {1})
        assert np.array_equal(out.cov, vacuum_state(1).cov)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(vacuum_state(2), [])

    def test_non_integer_mode_refused(self):
        with pytest.raises(ValueError, match="integers"):
            partial_trace(vacuum_state(3), [1.7])
        with pytest.raises(ValueError, match="integers"):
            partial_trace(vacuum_state(3), [np.float64(1.0)])
        state = displace(vacuum_state(3), 1, 0.3, -0.2)
        kept = partial_trace(state, [np.int64(1)])
        assert np.array_equal(kept.mean, partial_trace(state, [1]).mean)

    def test_retensor_idempotent_on_kept_block(self):
        rng = np.random.default_rng(11)
        state = random_physical_state(rng, 2)
        kept = partial_trace(state, [0])
        again = partial_trace(tensor(kept, vacuum_state(1)), [0])
        assert np.allclose(again.cov, kept.cov, atol=1e-14)
        assert np.allclose(again.mean, kept.mean, atol=1e-14)


class TestShotNoiseUnits:
    def test_vacuum(self):
        v = vacuum_state(1).cov[0, 0]
        assert v == 0.5
        assert as_snu(v) == 1.0

    def test_squeezed(self):
        state = GaussianMap.of(squeeze(0.5), (0,), 1).apply(vacuum_state(1))
        assert as_snu(state.cov[0, 0]) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_loss_on_noisy_input(self):
        # 10 SNU input through eta = 0.8 loss: 0.8 * 10 + 0.2 * 1 = 8.2 SNU
        from cvgec.channel import ChannelModel, channel_map

        noisy = add_noise(vacuum_state(1), np.diag([4.5, 4.5]))
        assert as_snu(noisy.cov[0, 0]) == 10.0
        out = channel_map(ChannelModel(1, 0.8, 0.0), (0,), 1).apply(noisy)
        assert as_snu(out.cov[0, 0]) == pytest.approx(8.2, abs=1e-12)


class TestDuanSimon:
    def test_thermal_product(self):
        thermal = add_noise(vacuum_state(2), 0.5 * np.eye(4))  # V = 1 per quadrature
        assert duan_simon(thermal, (0, 1)) == pytest.approx(4.0)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            duan_simon(vacuum_state(2), (1, 1))

    def test_product_states_never_below_two(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            state = tensor(random_physical_state(rng), random_physical_state(rng))
            assert duan_simon(state, (0, 1)) >= 2.0 - 1e-9


class TestChannelMargin:
    """The oracle's margin against closed forms, on maps and preparations."""

    def test_two_mode_squeezed_is_pure(self):
        state = two_mode_squeezed(0.8)
        # purity oracle: det(2 cov) = 1 for pure states
        assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, abs=1e-10)
        assert channel_margin(*preparation(state)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("r", np.linspace(0.0, 5.0, 11))
    def test_two_mode_squeezed_is_certified_up_to_r5(self, r):
        assert abs(channel_margin(*preparation(two_mode_squeezed(r)))) <= 1e-9

    def test_indefinite_covariance_is_not_a_state(self):
        # [[1, i/2], [-i/2, -1]] has eigenvalues -+ sqrt(1 + 1/4)
        state = GaussianState(np.zeros(2), np.diag([1.0, -1.0]))
        assert channel_margin(*preparation(state)) == pytest.approx(-np.sqrt(1.25), rel=1e-15)

    def test_subvacuum_isotropic_fails(self):
        state = GaussianState(np.zeros(2), 0.4 * np.eye(2))
        assert channel_margin(*preparation(state)) == pytest.approx(-0.1, abs=1e-15)

    def test_vacuum_passes(self):
        assert channel_margin(*preparation(vacuum_state(2))) == 0.0

    @pytest.mark.parametrize("eta", [0.05, 0.5, 1.0])
    def test_pure_loss_is_quantum_limited(self, eta):
        # X = sqrt(eta) I, Y = (1 - eta) / 2 I: eigenvalues (1 - eta)(1 -+ 1) / 2
        loss = quadrature_labels("loss", range(2))
        m = GaussianMap(np.sqrt(eta) * np.eye(4), np.eye(4), np.full(4, 0.5 * (1.0 - eta)), loss)
        assert channel_margin(m.X, m.Y) == pytest.approx(0.0, abs=1e-15)
        noisy = GaussianMap(m.X, m.F, m.v + 0.3, m.labels)
        assert channel_margin(noisy.X, noisy.Y) == pytest.approx(0.3, abs=1e-15)

    def test_noiseless_amplifier_is_not_a_channel(self):
        # an amplifier of gain 2 must add at least (2 - 1) / 2 per quadrature
        gain = np.sqrt(2.0) * np.eye(2)
        noiseless = GaussianMap(gain)
        assert channel_margin(noiseless.X, noiseless.Y) == pytest.approx(-0.5)
        noisy = GaussianMap(gain, np.eye(2), np.full(2, 0.5), quadrature_labels("loss", [0]))
        assert channel_margin(noisy.X, noisy.Y) == pytest.approx(0.0, abs=1e-15)
