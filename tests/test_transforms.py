"""Gate blocks, their placement on a register, and map composition."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgec.states import displace, vacuum_state
from cvgec.transforms import (
    GaussianMap,
    beam_splitter,
    embed,
    quadrature_labels,
    two_mode_squeezed,
)
from network_oracle import phase_shift
from splitting_oracle import pi_flip
from state_oracle import (
    channel_margin,
    duan_simon,
    partial_trace,
    preparation,
    rotated_squeeze,
    squeeze,
    tensor,
)
from test_states import random_physical_state


def symplectic_defect(block):
    """Spectral norm of X Omega X^T - Omega, no less than its largest entry:
    twice minus the channel margin of the gate as a noiseless map."""
    return -2.0 * channel_margin(block, np.zeros_like(block))


def on(block, modes, state):
    """Image of ``state`` under ``block`` placed on ``modes``."""
    return GaussianMap.of(block, modes, state.n_modes).apply(state)


#: Labels of one loss input per quadrature of a single mode.
LOSS = quadrature_labels("loss", [0])

GATE_GRID = [
    *((beam_splitter, (t,)) for t in (0.0, 0.17, 0.5, 0.62, 1.0)),
    *(
        (rotated_squeeze, (r, theta))
        for r in (-1.5, -0.3, 0.0, 0.9, 1.5)
        for theta in (0.0, 0.4, np.pi / 2, 2.0)
    ),
    *((phase_shift, (phi,)) for phi in (0.0, 0.3, np.pi / 2, np.pi, 4.0, -2.5)),
]


def gate_id(gate, args):
    return "-".join([gate.__name__, *(f"{a:.4g}" for a in args)])


@pytest.mark.parametrize("gate, args", GATE_GRID, ids=[gate_id(g, a) for g, a in GATE_GRID])
def test_symplectic_identity(gate, args):
    block = gate(*args)
    assert symplectic_defect(block) < 1e-12


@pytest.mark.parametrize("r", [-20.0, -8.0, 8.0, 20.0])
@pytest.mark.parametrize("theta", [0.4, 2.0, 3.0])
def test_strong_rotated_squeezer_is_symplectic_to_rounding(r, theta):
    # entries of order exp(|r|) cancel to Omega; the defect is rounding of
    # products of order exp(2|r|)
    block = rotated_squeeze(r, theta)
    assert symplectic_defect(block) < 1e-12 * np.abs(block).max() ** 2


class TestBeamSplitter:
    def test_full_transmission_pi_flip_flips_second_port(self):
        bs = beam_splitter(1.0)
        assert np.allclose(bs, np.diag([1.0, 1.0, -1.0, -1.0]), atol=0)

    def test_balanced_pi_flip_is_an_involution(self):
        # 4x4 matrix product oracle
        s = beam_splitter(0.5)
        assert np.allclose(s @ s, np.eye(4), atol=1e-15)

    def test_vacuum_preserved(self):
        out = on(beam_splitter(0.38), (0, 1), vacuum_state(2))
        assert np.allclose(out.cov, vacuum_state(2).cov, atol=1e-15)

    def test_out_of_range_transmissivity(self):
        with pytest.raises(ValueError):
            beam_splitter(1.2)
        with pytest.raises(ValueError):
            beam_splitter(-0.1)
        with pytest.raises(ValueError):
            beam_splitter(np.nan)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            GaussianMap.of(beam_splitter(0.5), (1, 1), 2)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
    def test_block_is_the_pi_flip_on_both_quadratures(self, t):
        c, s = np.sqrt(t), np.sqrt(1.0 - t)
        block = beam_splitter(t)
        assert block.tobytes() == np.kron(pi_flip(c, s), np.eye(2)).tobytes()
        assert np.allclose(block @ block.T, np.eye(4), atol=1e-15)
        assert np.allclose(block @ block, np.eye(4), atol=1e-15)


class TestPhaseShift:
    def test_zero_is_identity(self):
        assert np.allclose(phase_shift(0.0), np.eye(2), atol=0)

    def test_pi_flips_mean(self):
        state = displace(vacuum_state(1), 0, 1.0, 2.0)
        out = on(phase_shift(np.pi), (0,), state)
        assert np.allclose(out.mean, [-1.0, -2.0], atol=1e-15)

    def test_quarter_turn_swaps_variances(self):
        state = on(squeeze(0.5), (0,), vacuum_state(1))
        out = on(phase_shift(np.pi / 2), (0,), state)
        assert out.cov[0, 0] == pytest.approx(state.cov[1, 1], abs=1e-12)
        assert out.cov[1, 1] == pytest.approx(state.cov[0, 0], abs=1e-12)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ValueError, match="finite"):
            phase_shift(phi)


class TestSqueeze:
    def test_zero_is_identity(self):
        assert np.allclose(squeeze(0.0), np.eye(2), atol=0)

    def test_variances_at_theta_zero(self):
        out = on(squeeze(0.5), (0,), vacuum_state(1))
        assert out.cov[0, 0] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-14)
        assert out.cov[1, 1] == pytest.approx(0.5 * np.exp(1.0), abs=1e-14)

    def test_inverse(self):
        forward = GaussianMap.of(rotated_squeeze(0.7, 0.3), (0,), 1)
        back = GaussianMap.of(rotated_squeeze(-0.7, 0.3), (0,), 1)
        assert np.abs(forward.then(back).X - np.eye(2)).max() < 1e-12

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            squeeze(25.0)


class TestTwoModeSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        state = two_mode_squeezed(0.0)
        assert np.allclose(state.cov, vacuum_state(2).cov, atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_inseparability_matches_hand_built_covariance(self, r):
        # independent oracle: explicit 4x4 covariance algebra
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
        assert duan_simon(two_mode_squeezed(0.3), (0, 1)) == pytest.approx(
            1.0976232721880528, abs=1e-12
        )
        assert duan_simon(two_mode_squeezed(1.0), (0, 1)) == pytest.approx(
            0.2706705664732254, abs=1e-12
        )

    @pytest.mark.parametrize("r", np.linspace(-20.0, 20.0, 81))
    def test_closed_form_matches_squeezers_and_a_splitter(self, r):
        # the construction the closed form replaced: vacua squeezed by +r and
        # -r, interfered on the balanced pi-flip splitter
        squeezers = GaussianMap.of(squeeze(r), (0,), 2).then(GaussianMap.of(squeeze(-r), (1,), 2))
        built = squeezers.then(GaussianMap.of(beam_splitter(0.5), (0, 1), 2)).apply(vacuum_state(2))
        assert max_relative_error(two_mode_squeezed(r).cov, built.cov) <= 1e-15

    @pytest.mark.parametrize("r", [20.5, -21.0, np.nan, np.inf, -np.inf])
    def test_out_of_range_squeezing_refused(self, r):
        with pytest.raises(ValueError, match="squeezing parameter out of supported range"):
            two_mode_squeezed(r)

    def test_pinned_bytes(self):
        # sha256 of the covariances over the whole supported range of r,
        # recorded once the state came from its closed-form covariance
        covs = np.stack([two_mode_squeezed(r).cov for r in np.linspace(0.0, 20.0, 41)])
        digest = hashlib.sha256(covs.astype("<f8").tobytes()).hexdigest()
        assert digest == "b93d3e7c693741f64309f0f2e8a1d90fd9ff685b026fb6387fe1017506d9d685"


class TestGaussianMap:
    def test_identity(self):
        rng = np.random.default_rng(2)
        state = random_physical_state(rng, 2)
        out = on(np.eye(4), (0, 1), state)
        assert np.allclose(out.cov, state.cov, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="outside the register"):
            GaussianMap.of(beam_splitter(0.5), (0, 2), 2)

    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_physical_state(rng, 3)
            s1 = GaussianMap.of(beam_splitter(rng.uniform(0, 1)), (0, 2), 3)
            s2 = GaussianMap.of(rotated_squeeze(rng.uniform(-1, 1), rng.uniform(0, np.pi)), (1,), 3)
            seq = s2.apply(s1.apply(state))
            merged = s1.then(s2).apply(state)
            assert np.abs(seq.cov - merged.cov).max() < 1e-12
            assert np.abs(seq.mean - merged.mean).max() < 1e-12

    def test_passive_transforms_preserve_mean_energy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = random_physical_state(rng, 2)
            t = rng.uniform(0, 1)
            out = on(beam_splitter(t), (0, 1), state)
            assert np.linalg.norm(out.mean) == pytest.approx(
                np.linalg.norm(state.mean), abs=1e-10
            )

    def test_physicality_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            state = random_physical_state(rng, 2)
            bs = GaussianMap.of(beam_splitter(rng.uniform(0, 1)), (0, 1), 2)
            sq = GaussianMap.of(rotated_squeeze(rng.uniform(-1, 1), rng.uniform(0, np.pi)), (0,), 2)
            gates = sq.then(bs)
            assert channel_margin(gates.X, gates.Y) >= -1e-9
            assert channel_margin(*preparation(gates.apply(state))) >= -1e-9

    def test_negative_modes_rejected(self):
        with pytest.raises(ValueError, match="outside the register"):
            GaussianMap.of(beam_splitter(1.0), (-1, 0), 2)
        with pytest.raises(ValueError, match="outside the register"):
            GaussianMap.of(np.eye(2), (-2,), 2)

    def test_embed_rejects_negative_modes(self):
        with pytest.raises(ValueError, match="outside the register"):
            embed(np.eye(2), (-1,), 2)
        assert np.array_equal(embed(2.0 * np.eye(2), (1,), 2), np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_embed_rejects_non_integer_modes(self):
        with pytest.raises(ValueError, match="integers"):
            embed(np.eye(2), (1.7,), 2)
        assert np.array_equal(embed(np.eye(2), (np.int64(1),), 2), embed(np.eye(2), (1,), 2))

    @pytest.mark.parametrize("field", ["X", "F", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        parts = {"X": np.eye(2), "F": np.eye(2), "v": np.ones(2)}
        parts[field] = np.full_like(parts[field], bad)
        with pytest.raises(ValueError, match="finite"):
            GaussianMap(**parts, labels=LOSS)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GaussianMap(np.eye(2), np.eye(2), np.array([1.0, -1e-300]), LOSS)

    @pytest.mark.parametrize(
        "f, v",
        [
            (np.eye(4), np.ones(4)),
            (np.ones(2), np.ones(1)),
            (np.eye(2), np.ones(3)),
            (None, np.ones(1)),
        ],
        ids=["rows", "vector", "variances", "no inputs"],
    )
    def test_wrong_input_shapes_rejected(self, f, v):
        with pytest.raises(ValueError, match="2N x k matrix F and k variances"):
            GaussianMap(np.eye(2), f, v)

    @pytest.mark.parametrize(
        "labels",
        [None, (), ("loss:0.x",), ("loss:0.x", "loss:0.p", "own:0.x"), ("loss:0.x", 0)],
        ids=["missing", "empty", "too few", "too many", "not a string"],
    )
    def test_inputs_without_one_label_each_rejected(self, labels):
        kwargs = {} if labels is None else {"labels": labels}
        with pytest.raises(ValueError, match="one label per input"):
            GaussianMap(np.eye(2), np.eye(2), np.ones(2), **kwargs)
        assert GaussianMap(np.eye(2), np.eye(2), np.ones(2), LOSS).labels == ("loss:0.x", "loss:0.p")
        assert GaussianMap(np.eye(2)).labels == ()

    def test_y_is_the_weighted_sum_of_input_outer_products(self):
        f = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
        m = GaussianMap(np.eye(2), f, [0.5, 2.0, 0.0], ("a", "b", "c"))
        want = 0.5 * np.outer(f[:, 0], f[:, 0]) + 2.0 * np.outer(f[:, 1], f[:, 1])
        assert np.array_equal(m.Y, want)
        assert np.array_equal(GaussianMap(np.eye(4)).Y, np.zeros((4, 4)))

    def test_noisy_composition_matches_the_dense_rule(self):
        # (X2 X1, X2 Y1 X2^T + Y2), the rule of a dense added covariance
        rng = np.random.default_rng(5)
        for _ in range(20):
            first, second = (
                GaussianMap(
                    rng.normal(size=(4, 4)), rng.normal(size=(4, k)), rng.uniform(0, 2, k),
                    tuple(f"{name}{j}" for j in range(k)),
                )
                for name, k in zip("ab", rng.integers(1, 6, 2))
            )
            both = first.then(second)
            assert np.array_equal(both.X, second.X @ first.X)
            assert both.labels == first.labels + second.labels
            dense = second.X @ first.Y @ second.X.T + second.Y
            assert max_relative_error(both.Y, dense) <= 1e-12

    def test_embed_rejects_repeated_modes(self):
        # a second placement on the same mode would overwrite the first
        with pytest.raises(ValueError, match="distinct"):
            embed(np.eye(4), (0, 0), 2)

    @pytest.mark.parametrize("shape, modes", [((2, 2), (0, 1)), ((4, 4), (0,)), ((2, 4), (0,))])
    def test_embed_rejects_wrong_block_shape(self, shape, modes):
        with pytest.raises(ValueError, match="shape"):
            embed(np.ones(shape), modes, 2)


def max_relative_error(value, reference):
    """Largest entry error over the largest reference entry."""
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


class TestRestricted:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_tensoring_with_vacua_and_tracing_out(self, sizes, seed):
        # a random real X, random noise inputs and a random state
        n, k = sizes
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=(2 * n, 2 * n))
        labels = quadrature_labels("loss", range(n))
        m = GaussianMap(rng.normal(size=(2 * n, 2 * n)), noise, rng.uniform(0.0, 2.0, 2 * n), labels)
        state = random_physical_state(rng, k)
        fast = m.restricted(k).apply(state)
        register = tensor(state, vacuum_state(n - k)) if k < n else state
        slow = partial_trace(m.apply(register), range(k))
        assert fast.n_modes == k
        assert m.restricted(k).labels == labels + quadrature_labels("carrier", range(k, n))
        assert max_relative_error(fast.mean, slow.mean) <= 1e-12
        assert max_relative_error(fast.cov, slow.cov) <= 1e-12

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_keeps_between_one_and_every_mode(self, k):
        with pytest.raises(ValueError, match="keep"):
            GaussianMap(np.eye(4)).restricted(k)
