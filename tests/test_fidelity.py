"""Single-mode fidelity against three independent oracles."""

import math

import numpy as np
import pytest

from cvgec.fidelity import _fidelity_logs, fidelity, fidelity_moments
from cvgec.states import displace, vacuum_state
from cvgec.transforms import GaussianMap, squeeze

from fock_oracle import fidelity_fock_states
from network_oracle import phase_shift
from state_oracle import add_noise, rotated_squeeze
from test_states import random_physical_state


def wigner_overlap(pure, mixed, half_width=12.0, points=801):
    """Quadrature oracle: F(pure, rho) = 2 pi * integral W1 W2 dx dp."""
    xs = np.linspace(-half_width, half_width, points)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)

    def wigner(state):
        inv = np.linalg.inv(state.cov)
        det = np.linalg.det(state.cov)
        d = grid - state.mean
        arg = np.einsum("...i,ij,...j->...", d, inv, d)
        return np.exp(-0.5 * arg) / (2 * np.pi * np.sqrt(det))

    product = wigner(pure) * wigner(mixed)
    step = xs[1] - xs[0]
    return 2 * np.pi * np.trapezoid(np.trapezoid(product, dx=step), dx=step)


class TestOracleValues:
    def test_identity_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = random_physical_state(rng)
            assert fidelity(state, state) == pytest.approx(1.0, abs=1e-9)

    def test_coherent_overlap(self):
        # analytic overlap exp(-d^2 / 2); d = 1 in x
        vac = vacuum_state(1)
        shifted = displace(vac, 0, 1.0, 0.0)
        assert fidelity(shifted, vac) == pytest.approx(np.exp(-0.5), abs=1e-9)
        assert fidelity(shifted, vac) == pytest.approx(0.6065306597126334, abs=1e-9)
        # Fock-truncation cross-check
        assert fidelity_fock_states(shifted, vac) == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_vacuum_vs_thermal(self):
        # overlap of a pure state with a thermal state of variance V: 1 / (0.5 + V)
        v = 1.5
        vac = vacuum_state(1)
        thermal = add_noise(vac, (v - 0.5) * np.eye(2))
        assert fidelity(vac, thermal) == pytest.approx(0.5, abs=1e-12)
        # Gaussian-overlap integral oracle
        assert wigner_overlap(vac, thermal) == pytest.approx(0.5, abs=1e-9)
        # Fock-truncation oracle
        assert fidelity_fock_states(vac, thermal) == pytest.approx(0.5, abs=1e-6)


class TestProperties:
    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a = random_physical_state(rng)
            b = random_physical_state(rng)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_unity_only_on_equal_states(self):
        vac = vacuum_state(1)
        nudged = displace(vac, 0, 1e-4, 0.0)
        assert fidelity(vac, nudged) < 1.0
        widened = add_noise(vac, 1e-4 * np.eye(2))
        assert fidelity(vac, widened) < 1.0

    def test_multimode_rejected(self):
        with pytest.raises(ValueError, match="single-mode"):
            fidelity(vacuum_state(2), vacuum_state(2))


@pytest.mark.filterwarnings("error")
class TestWideRange:
    """Moments whose determinants or mean term overflow in double precision,
    or whose Lambda dwarfs Delta."""

    PROBE = 0.5 * np.eye(2)
    ZERO = np.zeros(2)

    def test_huge_thermal_against_pure_probe(self):
        # F = 1 / (V + 1/2) for a thermal state of variance V and the vacuum
        for v in (1e160, 1e200, 1e300):
            f = fidelity_moments(self.ZERO, v * np.eye(2), self.ZERO, self.PROBE)
            assert f == pytest.approx(1.0 / (v + 0.5), rel=1e-12)

    def test_huge_equal_states(self):
        cov = np.array([[1e300, 3e299], [3e299, 2e300]])
        mean = np.array([1e200, -1e250])
        assert fidelity_moments(mean, cov, mean, cov) == pytest.approx(1.0, abs=1e-12)

    def test_huge_thermal_pair(self):
        # thermal variances V and 2V: F -> 4 V 2V / (3V)^2 = 8/9 for large V
        v = 1e250
        f = fidelity_moments(self.ZERO, v * np.eye(2), self.ZERO, 2.0 * v * np.eye(2))
        assert f == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_mean_term_overflow(self):
        # d^T (A + B)^{-1} d = (1.5e154)^2 / 2e308 = 1.125, while d_x^2 overflows
        cov = np.diag([1e308, 1e-300])
        mean = np.array([1.5e154, 0.0])
        delta, lam = 4e8, 4.0 * (1e8 - 0.25) ** 2
        expected = math.exp(-0.5625) * (math.sqrt(delta + lam) + math.sqrt(lam)) / delta
        assert fidelity_moments(mean, cov, self.ZERO, cov) == pytest.approx(expected, rel=1e-12)

    def test_cancelling_roots(self):
        # thermal variances V1, V2 with Lambda / Delta ~ 1e40: F = 4 V1 V2 / (V1 + V2)^2
        v1, v2 = 1e20, 1e40
        f = fidelity_moments(self.ZERO, v1 * np.eye(2), self.ZERO, v2 * np.eye(2))
        assert f == pytest.approx(4.0 * v1 * v2 / (v1 + v2) ** 2, rel=1e-12)

    def test_opposite_huge_means(self):
        far = np.array([1e308, -1e308])
        assert fidelity_moments(far, self.PROBE, -far, self.PROBE) == 0.0

    def test_random_scales_stay_bounded_and_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a, b = random_physical_state(rng), random_physical_state(rng)
            sa, sb = 10.0 ** rng.uniform(0, 300, 2)
            ma, mb = a.mean * 10.0 ** rng.uniform(0, 300), b.mean * 10.0 ** rng.uniform(0, 300)
            f = fidelity_moments(ma, sa * a.cov, mb, sb * b.cov)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity_moments(mb, sb * b.cov, ma, sa * a.cov), rel=1e-9)

    def test_logarithmic_form_matches_direct_form(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            a, b = random_physical_state(rng), random_physical_state(rng)
            direct = fidelity_moments(a.mean, a.cov, b.mean, b.cov)
            assert _fidelity_logs(a.mean, a.cov, b.mean, b.cov) == pytest.approx(direct, rel=1e-9)


class TestFockTruncationAgreement:
    def test_low_energy_random_states(self):
        # mixed squeezed displaced states with < 4 photons per mode
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 8:
            state_a = _low_energy_state(rng)
            state_b = _low_energy_state(rng)
            engine = fidelity(state_a, state_b)
            oracle = fidelity_fock_states(state_a, state_b, dim=40)
            assert engine == pytest.approx(oracle, abs=1e-6)
            checked += 1

    def test_pure_squeezed_pair(self):
        a = GaussianMap.of(squeeze(0.4), (0,), 1).apply(vacuum_state(1))
        shifted = displace(vacuum_state(1), 0, 0.5, -0.3)
        b = GaussianMap.of(rotated_squeeze(0.6, 0.9), (0,), 1).apply(shifted)
        assert fidelity(a, b) == pytest.approx(fidelity_fock_states(a, b), abs=1e-6)


def _low_energy_state(rng):
    state = vacuum_state(1)
    sq = rotated_squeeze(rng.uniform(-0.6, 0.6), rng.uniform(0, np.pi))
    state = GaussianMap.of(sq, (0,), 1).apply(state)
    state = GaussianMap.of(phase_shift(rng.uniform(0, 2 * np.pi)), (0,), 1).apply(state)
    state = displace(state, 0, rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
    return add_noise(state, rng.uniform(0.0, 0.4) * np.eye(2))
