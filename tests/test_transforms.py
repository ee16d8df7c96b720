"""Symplectic transform constructors and their algebra."""

import numpy as np
import pytest

from cvgec.states import symplectic_form, vacuum_state
from cvgec.transforms import (
    BsConvention,
    SymplecticTransform,
    apply,
    beam_splitter,
    beam_splitter_matrix,
    compose,
    embed,
    expand,
    phase_shift,
    squeeze,
    two_mode_squeezed,
)
from test_states import random_physical_state


def symplectic_defect(matrix, n_modes):
    omega = symplectic_form(n_modes)
    return np.abs(matrix @ omega @ matrix.T - omega).max()


class TestBeamSplitter:
    def test_full_transmission_rotation_is_identity(self):
        bs = beam_splitter(1.0, (0, 1), BsConvention.ROTATION)
        assert np.allclose(bs.matrix, np.eye(4), atol=0)

    def test_full_transmission_pi_flip_flips_second_port(self):
        bs = beam_splitter(1.0, (0, 1), BsConvention.PI_FLIP)
        assert np.allclose(bs.matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=0)

    def test_balanced_pi_flip_is_an_involution(self):
        # 4x4 matrix product oracle
        s = expand(beam_splitter(0.5, (0, 1)), 2)
        assert np.allclose(s @ s, np.eye(4), atol=1e-15)

    def test_vacuum_preserved(self):
        out = apply(beam_splitter(0.38, (0, 1)), vacuum_state(2))
        assert np.allclose(out.cov, vacuum_state(2).cov, atol=1e-15)

    def test_out_of_range_transmissivity(self):
        with pytest.raises(ValueError):
            beam_splitter(1.2, (0, 1))
        with pytest.raises(ValueError):
            beam_splitter(-0.1, (0, 1))

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(0.5, (1, 1))

    @pytest.mark.parametrize("t", [0.0, 0.17, 0.5, 0.62, 1.0])
    @pytest.mark.parametrize("convention", list(BsConvention))
    def test_symplectic_identity(self, t, convention):
        bs = beam_splitter(t, (0, 1), convention)
        assert symplectic_defect(bs.matrix, 2) < 1e-12

    def test_mode_matrix_orthogonal(self):
        b = beam_splitter_matrix(0.3)
        assert np.allclose(b @ b.T, np.eye(2), atol=1e-15)


class TestPhaseShift:
    def test_zero_is_identity(self):
        assert np.allclose(phase_shift(0.0, 0).matrix, np.eye(2), atol=0)

    def test_pi_flips_mean(self):
        from cvgec.states import displace

        state = displace(vacuum_state(1), 0, 1.0, 2.0)
        out = apply(phase_shift(np.pi, 0), state)
        assert np.allclose(out.mean, [-1.0, -2.0], atol=1e-15)

    def test_quarter_turn_swaps_variances(self):
        state = apply(squeeze(0.5), vacuum_state(1))
        out = apply(phase_shift(np.pi / 2, 0), state)
        assert out.cov[0, 0] == pytest.approx(state.cov[1, 1], abs=1e-12)
        assert out.cov[1, 1] == pytest.approx(state.cov[0, 0], abs=1e-12)


class TestSqueeze:
    def test_zero_is_identity(self):
        assert np.allclose(squeeze(0.0).matrix, np.eye(2), atol=0)

    def test_variances_at_theta_zero(self):
        out = apply(squeeze(0.5), vacuum_state(1))
        assert out.cov[0, 0] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-14)
        assert out.cov[1, 1] == pytest.approx(0.5 * np.exp(1.0), abs=1e-14)

    def test_inverse(self):
        s = expand(compose(squeeze(-0.7, 0.3), squeeze(0.7, 0.3)), 1)
        assert np.abs(s - np.eye(2)).max() < 1e-12

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            squeeze(25.0)

    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2, 2.0])
    def test_symplectic_identity(self, theta):
        assert symplectic_defect(squeeze(0.9, theta).matrix, 1) < 1e-12


class TestTwoModeSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        state = two_mode_squeezed(0.0)
        assert np.allclose(state.cov, vacuum_state(2).cov, atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_inseparability_matches_hand_built_covariance(self, r):
        # independent oracle: explicit 4x4 covariance algebra
        from cvgec.states import duan_simon

        s = np.sqrt(0.5)
        bs = np.kron(np.array([[s, -s], [-s, -s]]), np.eye(2))
        cov_in = np.diag([np.exp(-2 * r), np.exp(2 * r), np.exp(2 * r), np.exp(-2 * r)]) / 2
        cov = bs @ cov_in @ bs.T
        var_x = cov[0, 0] + cov[2, 2] - 2 * cov[0, 2]
        var_p = cov[1, 1] + cov[3, 3] + 2 * cov[1, 3]
        expected = var_x + var_p
        assert expected == pytest.approx(2 * np.exp(-2 * r), abs=1e-12)
        assert duan_simon(two_mode_squeezed(r), (0, 1)) == pytest.approx(expected, abs=1e-12)

    def test_frozen_values(self):
        from cvgec.states import duan_simon

        assert duan_simon(two_mode_squeezed(0.3), (0, 1)) == pytest.approx(
            1.0976232721880528, abs=1e-12
        )
        assert duan_simon(two_mode_squeezed(1.0), (0, 1)) == pytest.approx(
            0.2706705664732254, abs=1e-12
        )


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(2)
        state = random_physical_state(rng, 2)
        ident = SymplecticTransform(np.eye(4), (0, 1))
        out = apply(ident, state)
        assert np.allclose(out.cov, state.cov, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(beam_splitter(0.5, (0, 2)), vacuum_state(2))

    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_physical_state(rng, 3)
            s1 = beam_splitter(rng.uniform(0, 1), (0, 2))
            s2 = squeeze(rng.uniform(-1, 1), rng.uniform(0, np.pi), 1)
            seq = apply(s2, apply(s1, state))
            merged = apply(compose(s2, s1), state)
            assert np.abs(seq.cov - merged.cov).max() < 1e-12
            assert np.abs(seq.mean - merged.mean).max() < 1e-12

    def test_displacement_field(self):
        t = SymplecticTransform(np.eye(2), (0,), displacement=np.array([1.5, -0.5]))
        out = apply(t, vacuum_state(1))
        assert np.allclose(out.mean, [1.5, -0.5], atol=0)

    def test_passive_transforms_preserve_mean_energy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = random_physical_state(rng, 2)
            t = rng.uniform(0, 1)
            convention = rng.choice(list(BsConvention))
            out = apply(beam_splitter(t, (0, 1), convention), state)
            assert np.linalg.norm(out.mean) == pytest.approx(
                np.linalg.norm(state.mean), abs=1e-10
            )

    def test_physicality_preserved(self):
        from cvgec.states import physicality_check

        rng = np.random.default_rng(17)
        for _ in range(200):
            state = random_physical_state(rng, 2)
            t = compose(
                beam_splitter(rng.uniform(0, 1), (0, 1)),
                squeeze(rng.uniform(-1, 1), rng.uniform(0, np.pi), 0),
            )
            assert physicality_check(apply(t, state))

    def test_negative_modes_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            beam_splitter(1.0, (-1, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            SymplecticTransform(np.eye(2), (-2,))

    def test_embed_rejects_negative_modes(self):
        with pytest.raises(ValueError, match="outside the register"):
            embed(np.eye(2), (-1,), 2)
        assert np.array_equal(embed(2.0 * np.eye(2), (1,), 2), np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticTransform(2.0 * np.eye(2), (0,))
