"""The coherent-probe fidelity against independent oracles: the two-state
Uhlmann closed form, a Wigner overlap integral and Fock truncation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvgec.fidelity import coherent_fidelity
from cvgec.states import displace, vacuum_state
from cvgec.transforms import GaussianMap

import mp_oracle
from fock_oracle import fidelity_fock_states
from network_oracle import phase_shift
from state_oracle import add_noise, direct_overlap, fidelity, rotated_squeeze, squeeze
from test_states import random_physical_state

VAC = 0.5 * np.eye(2)
ZERO = np.zeros(2)


def rotated_covariances(v_major, v_minor, theta):
    """R diag(v_major, v_minor) R^T for stacks of variances and angles."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    diag = np.zeros(rot.shape)
    diag[..., 0, 0], diag[..., 1, 1] = v_major, v_minor
    return rot @ diag @ np.swapaxes(rot, -1, -2)


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
    def test_identity_on_coherent_states(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            alpha = rng.normal(scale=3.0, size=2)
            assert coherent_fidelity(alpha, VAC, alpha) == 1.0

    def test_oracle_identity_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = random_physical_state(rng)
            assert fidelity(state, state) == pytest.approx(1.0, abs=1e-9)

    def test_coherent_overlap(self):
        # analytic overlap exp(-d^2 / 2); d = 1 in x
        vac = vacuum_state(1)
        shifted = displace(vac, 0, 1.0, 0.0)
        assert coherent_fidelity(shifted.mean, shifted.cov, vac.mean) == pytest.approx(
            0.6065306597126334, rel=1e-15
        )
        assert fidelity(shifted, vac) == pytest.approx(np.exp(-0.5), abs=1e-9)
        # Fock-truncation cross-check
        assert fidelity_fock_states(shifted, vac) == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_vacuum_vs_thermal(self):
        # overlap of a pure state with a thermal state of variance V: 1 / (0.5 + V)
        v = 1.5
        vac = vacuum_state(1)
        thermal = add_noise(vac, (v - 0.5) * np.eye(2))
        assert coherent_fidelity(thermal.mean, thermal.cov, vac.mean) == 0.5
        assert fidelity(vac, thermal) == pytest.approx(0.5, abs=1e-12)
        # Gaussian-overlap integral oracle
        assert wigner_overlap(vac, thermal) == pytest.approx(0.5, abs=1e-9)
        # Fock-truncation oracle
        assert fidelity_fock_states(vac, thermal) == pytest.approx(0.5, abs=1e-6)

    def test_matches_the_two_state_oracle_on_random_states(self):
        rng = np.random.default_rng(38)
        for k in range(50):
            state = random_physical_state(rng)
            probe = displace(vacuum_state(1), 0, *rng.normal(scale=2.0, size=2))
            f = coherent_fidelity(state.mean, state.cov, probe.mean)
            assert f == pytest.approx(fidelity(state, probe), rel=1e-12)
            if k < 5:
                assert f == pytest.approx(wigner_overlap(probe, state), rel=1e-7, abs=1e-12)


class TestProperties:
    def test_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            state = random_physical_state(rng)
            alpha = rng.normal(scale=2.0, size=2)
            assert 0.0 <= coherent_fidelity(state.mean, state.cov, alpha) <= 1.0

    def test_oracle_symmetric(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a = random_physical_state(rng)
            b = random_physical_state(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_unity_only_on_the_probe(self):
        assert coherent_fidelity(np.array([1e-4, 0.0]), VAC, ZERO) < 1.0
        assert coherent_fidelity(ZERO, VAC + 1e-4 * np.eye(2), ZERO) < 1.0

    def test_multimode_rejected_by_the_oracle(self):
        with pytest.raises(ValueError, match="single-mode"):
            fidelity(vacuum_state(2), vacuum_state(2))


@pytest.mark.filterwarnings("error")
class TestWideRange:
    """Moments whose determinant or mean term overflows in double precision."""

    def test_huge_thermal_against_pure_probe(self):
        # F = 1 / (V + 1/2) for a thermal state of variance V and the vacuum
        for v in (1e160, 1e200, 1e300):
            f = coherent_fidelity(ZERO, v * np.eye(2), ZERO)
            assert f == pytest.approx(1.0 / (v + 0.5), rel=1e-12)

    def test_huge_equal_means(self):
        for mean in (np.array([1e200, -1e250]), np.array([1e308, -1e308])):
            assert coherent_fidelity(mean, VAC, mean) == 1.0

    def test_mean_term_overflow(self):
        # d^T H^{-1} d = (1.5e154)^2 / 1e308 = 2.25, while d_x^2 overflows;
        # det H = 1e308 * 1/2
        cov = np.diag([1e308, 1e-300])
        mean = np.array([1.5e154, 0.0])
        expected = math.exp(-1.125 - 0.5 * math.log(0.5e308))
        assert coherent_fidelity(mean, cov, ZERO) == pytest.approx(expected, rel=1e-12)

    def test_opposite_huge_means(self):
        far = np.array([1e308, -1e308])
        assert coherent_fidelity(far, VAC, -far) == 0.0

    @pytest.mark.parametrize("variances", [(np.inf, np.inf), (np.inf, 0.5), (2.0, np.inf)])
    def test_infinite_variance_has_fidelity_zero(self, variances):
        # det H is infinite, so 1 / sqrt(det H) is 0 whatever the mean term
        spread = np.diag(variances)
        for mean in (ZERO, np.array([1e300, -2.0])):
            assert coherent_fidelity(ZERO, spread, mean) == 0.0
            assert coherent_fidelity(mean, spread, ZERO) == 0.0

    def test_random_scales_stay_bounded(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = random_physical_state(rng)
            scale = 10.0 ** rng.uniform(0, 300)
            mean = a.mean * 10.0 ** rng.uniform(0, 300)
            alpha = rng.normal(size=2) * 10.0 ** rng.uniform(0, 300)
            assert 0.0 <= coherent_fidelity(mean, scale * a.cov, alpha) <= 1.0

    def test_scaled_form_is_the_direct_form_bit_for_bit(self):
        # thermal squeezed states with variances up to 1e158, probes up to
        # 1e200: wherever the unscaled form stays in the normal double
        # range, the power-of-two scaling changes no bit
        rng = np.random.default_rng(45)
        n = 20000
        r = rng.uniform(0.0, 10.0, n)
        thermal = 10.0 ** rng.uniform(0.0, 150.0, n)
        cov = rotated_covariances(
            thermal * np.exp(2 * r) / 2, thermal * np.exp(-2 * r) / 2, rng.uniform(0, np.pi, n)
        )
        alpha = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-2.0, 200.0, (n, 1))
        spread = np.sqrt(np.diagonal(cov, axis1=1, axis2=2)) * 10.0 ** rng.uniform(-3, 1.5, (n, 1))
        mean = alpha + rng.normal(size=(n, 2)) * spread
        with np.errstate(all="ignore"):
            want = direct_overlap(mean, cov, alpha)
        normal = (want >= np.finfo(float).tiny) & (want < np.inf)
        assert normal.sum() > n // 2
        got = coherent_fidelity(mean, cov, alpha)
        assert np.array_equal(got[normal], np.minimum(want[normal], 1.0))

    def test_near_singular_squeezed_states_stay_near_zero(self):
        # rotated squeezed vacua whose correlation rounds to +-1, so that det H
        # rounds to 0, below it or to noise; H >= I / 2 for any state, so
        # F <= sqrt(2 / max(h_xx, h_pp)), below 1e-8 for all of them (the
        # rounded entries themselves may hold no state, and pass it a little)
        rng = np.random.default_rng(46)
        r = rng.uniform(20.0, 350.0, 20000)
        cov = rotated_covariances(np.exp(2 * r) / 2, np.exp(-2 * r) / 2, rng.uniform(0, np.pi, r.size))
        f = coherent_fidelity(rng.uniform(-3.0, 3.0, (r.size, 2)), cov, ZERO)
        h = cov + VAC
        bound = np.sqrt(2.0 / np.maximum(h[:, 0, 0], h[:, 1, 1]))
        assert bound.max() < 1e-8
        assert np.all(f <= 1e-8)

    def test_determinant_near_the_double_maximum_stays_direct(self):
        # det cov = 1e308: 4 det cov overflows, det H = (1e154 + 1/2)^2 does not,
        # so the direct form holds
        cov = 1e154 * np.eye(2)
        h = 1e154 + 0.5
        assert coherent_fidelity(ZERO, cov, ZERO) == 1.0 / math.sqrt(h * h)
        mean = np.array([3e76, -4e76])  # d^T H^{-1} d = 2.5e153 / 1e154 = 0.25
        expected = math.exp(-0.125) / h
        assert coherent_fidelity(mean, cov, ZERO) == pytest.approx(expected, rel=4e-16)


class TestAgainstTheMpOracle:
    """The overlap against ``mp_oracle.coherent_overlap`` at 50 digits, over
    variances up to 1e308 and means far beyond them.  Up to |rho| = 0.9 the
    bound is ULPS (1 + |ln F|) ulp, since a few ulp of the mean term and of
    log det H become |ln F| times as many in F; a value below the double
    range may round to 0.  From |rho| = 0.9 to 1 - |rho| = 10^-15.5, det H
    cancels, and the bound takes its condition number
    kappa = h_xx h_pp / det H as a further factor."""

    ULPS = 8.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-0.5, 307.0),
        st.floats(0.0, 1.0),
        st.floats(-0.9, 0.9),
        st.tuples(*[st.floats(-40.0, 40.0)] * 2),
        st.tuples(*[st.floats(-1e300, 1e300)] * 2),
    )
    def test_matches_the_oracle(self, log_vx, spread, rho, z, alpha):
        self.check(log_vx, spread, rho, z, alpha, conditioned=False)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-0.5, 307.0),
        st.floats(0.0, 1.0),
        st.floats(-15.5, -1.0),
        st.sampled_from([-1.0, 1.0]),
        st.tuples(*[st.floats(-40.0, 40.0)] * 2),
        st.tuples(*[st.floats(-1e300, 1e300)] * 2),
    )
    def test_matches_the_oracle_near_singular(self, log_vx, spread, log_gap, sign, z, alpha):
        rho = sign * (1.0 - 10.0**log_gap)
        self.check(log_vx, spread, rho, z, alpha, conditioned=True)

    def check(self, log_vx, spread, rho, z, alpha, conditioned):
        mp = mp_oracle.MP
        vx = 10.0**log_vx
        # the p variance makes det cov = vx vp (1 - rho^2) at least 1/4
        low = math.log10(0.25 / (vx * (1.0 - rho * rho)))
        log_vp = low + spread * (307.0 - low)
        assume(log_vp <= 307.0)
        vp = 10.0**log_vp
        off = rho * math.sqrt(vx) * math.sqrt(vp)
        cov = np.array([[vx, off], [off, vp]])
        alpha = np.array(alpha)
        mean = alpha + np.array(z) * np.sqrt([vx, vp])
        want = mp_oracle.coherent_overlap(mean, cov, alpha)
        got = coherent_fidelity(mean, cov, alpha)
        bound = self.ULPS * (1 + abs(float(mp.log(want)))) * np.finfo(float).eps
        if conditioned:
            # the rounded entries may leave no state at all; skip those
            det_cov = mp.mpf(vx) * mp.mpf(vp) - mp.mpf(off) ** 2
            assume(det_cov >= mp.mpf(1) / 4)
            hx, hp = mp.mpf(vx) + mp.mpf(1) / 2, mp.mpf(vp) + mp.mpf(1) / 2
            bound *= float(hx * hp / (hx * hp - mp.mpf(off) ** 2))
        assert abs(mp.mpf(got) - want) <= bound * want + np.finfo(float).tiny


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

    def test_coherent_probe_on_low_energy_states(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            state = _low_energy_state(rng)
            probe = displace(vacuum_state(1), 0, *rng.uniform(-1.0, 1.0, 2))
            engine = coherent_fidelity(state.mean, state.cov, probe.mean)
            assert engine == pytest.approx(fidelity_fock_states(state, probe, dim=40), abs=1e-6)

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
