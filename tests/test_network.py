"""Orthogonal-matrix decomposition into beam-splitter meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvgec.network import (
    BeamSplitterElement,
    NetworkPlan,
    PhaseShiftElement,
    decompose_network,
    _recompose,
    serialize_plan,
    target_checksum,
)

from cvgec.patterns import NoisePatternSet, mirror, null_space_encoder

from network_oracle import plan_symplectic, read_plan
from splitting_oracle import pi_flip


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def recompose_error(plan):
    full = plan_symplectic(plan.elements, plan.n_modes)
    return np.abs(full - np.kron(plan.target, np.eye(2))).max()


class TestDecompose:
    def test_two_mode_rotation_is_one_beam_splitter(self):
        theta = 0.7
        u = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        plan = decompose_network(u)
        splitters = [e for e in plan.elements if isinstance(e, BeamSplitterElement)]
        assert len(splitters) == 1
        assert splitters[0].t == pytest.approx(np.cos(theta) ** 2, abs=1e-12)
        assert recompose_error(plan) < 1e-10

    def test_identity_gives_empty_plan(self):
        assert decompose_network(np.eye(5)).elements == ()

    def test_sign_flips_only(self):
        plan = decompose_network(np.diag([1.0, -1.0, -1.0]))
        assert all(isinstance(e, PhaseShiftElement) for e in plan.elements)
        assert recompose_error(plan) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_round_trips(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            u = random_orthogonal(rng, n)
            plan = decompose_network(u)
            assert recompose_error(plan) < 1e-10
            splitters = [e for e in plan.elements if isinstance(e, BeamSplitterElement)]
            assert len(splitters) <= n * (n - 1) // 2

    @pytest.mark.parametrize("s", [1.2e-7, 1e-8, 1e-12])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_small_reflectivity_recomposes(self, s, signs):
        # Stored as t = c^2, s = sqrt(1 - t) would be off by about 1e-16 / 2s;
        # the plan holds a quarter turn and the complementary rotation instead.
        c = signs[0] * np.sqrt(1.0 - s * s)
        u = np.array([[c, signs[1] * s], [-signs[1] * s, c]])
        plan = decompose_network(u)
        assert np.abs(_recompose(plan.elements, 2) - u).max() < 1e-15
        assert np.abs(read_plan(serialize_plan(plan))[0].target - u).max() < 1e-15
        assert recompose_error(plan) < 1e-10

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            decompose_network(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="input must be a real orthogonal matrix"):
            decompose_network(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [*range(2, 9), 24, 48])
    def test_two_row_updates_match_full_recomposition(self, n):
        rng = np.random.default_rng(200 + n)
        u = random_orthogonal(rng, n)
        plan = decompose_network(u)
        full = plan_symplectic(plan.elements, plan.n_modes)
        assert np.abs(_recompose(plan.elements, n) - full[::2, ::2]).max() < 1e-12
        assert np.abs(full[::2, ::2] - full[1::2, 1::2]).max() < 1e-12
        # pi flips leave sin(pi) ~ 1e-16 in the oracle's x-p blocks
        assert np.abs(full[::2, 1::2]).max() < 1e-12
        assert np.abs(full[1::2, ::2]).max() < 1e-12


def assert_mesh_shape(u, n_rotations):
    """Plan of ``u``: recomposes to 1e-10, flips only ahead of the splitters
    and at most N of them, one splitter per rotation or two where |s| < 1e-6."""
    n = u.shape[0]
    plan = decompose_network(u)
    assert np.abs(_recompose(plan.elements, n) - u).max() <= 1e-10
    full = plan_symplectic(plan.elements, n)
    assert np.abs(full - np.kron(u, np.eye(2))).max() <= 1e-10
    kinds = [type(e) for e in plan.elements]
    n_flips = kinds.count(PhaseShiftElement)
    assert kinds == [PhaseShiftElement] * n_flips + [BeamSplitterElement] * (len(kinds) - n_flips)
    assert n_flips <= n
    splitters = plan.elements[n_flips:]
    # a quarter turn (t = 0) is followed by the swapped splitter with t = s^2 < 1e-12
    quarter_turns = [k for k, e in enumerate(splitters) if e.t == 0.0]
    for k in quarter_turns:
        first, second = splitters[k], splitters[k + 1]
        assert (second.mode_a, second.mode_b) == (first.mode_b, first.mode_a)
        assert second.t < 1e-12
    assert len(splitters) == n_rotations + len(quarter_turns)
    return plan


@st.composite
def orthogonal_matrices(draw):
    """Haar-like Q from QR (sign of R's diagonal fixed), times a random sign
    diagonal and a random column permutation."""
    n = draw(st.integers(1, 10))
    q = random_orthogonal(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    return (q * signs)[:, draw(st.permutations(range(n)))]


class TestMeshShape:
    @settings(max_examples=150, deadline=None)
    @given(orthogonal_matrices())
    def test_orthogonal_matrices(self, u):
        n = u.shape[0]
        # every subdiagonal entry of a dense matrix takes one rotation
        assert_mesh_shape(u, n * (n - 1) // 2)

    @pytest.mark.parametrize("s", [1e-12, 1.2e-7, 0.3])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_two_mode_rotations(self, s, signs):
        c, s = signs[0] * np.sqrt(1.0 - s * s), signs[1] * s
        assert_mesh_shape(np.array([[c, s], [-s, c]]), 1)

    def test_anti_correlated_pattern_is_one_splitter(self):
        signal = null_space_encoder(NoisePatternSet(((0.78, -1.0),)))
        plan = assert_mesh_shape(mirror(signal), 1)
        kinds = [type(e) for e in plan.elements]
        assert kinds.count(BeamSplitterElement) == 1
        assert kinds.count(PhaseShiftElement) <= 1


class TestPlanValidation:
    def test_mismatched_target_rejected(self):
        with pytest.raises(ValueError, match="recompose"):
            NetworkPlan((BeamSplitterElement(0, 1, 0.5),), np.eye(2))

    @pytest.mark.parametrize("phi", [0.5, np.pi / 2, -1e-9, np.nan, np.inf])
    def test_phase_a_mode_matrix_cannot_hold_rejected(self, phi):
        with pytest.raises(ValueError, match=r"element 1: phase .* 0 or \+-pi"):
            NetworkPlan(
                (PhaseShiftElement(0, np.pi), PhaseShiftElement(1, phi)), np.diag([-1.0, 1.0])
            )

    def test_mode_outside_the_plan_named(self):
        with pytest.raises(ValueError, match=r"^element 0: mode 5 is outside the plan's 2 modes$"):
            NetworkPlan((PhaseShiftElement(5, np.pi),), np.eye(2))

    @pytest.mark.parametrize("phi", [0.0, np.pi, -np.pi])
    def test_real_phases_accepted(self, phi):
        plan = NetworkPlan((PhaseShiftElement(1, phi),), np.diag([1.0, np.cos(phi)]))
        assert plan.n_modes == 2

    @pytest.mark.parametrize(
        "element",
        [
            BeamSplitterElement(0, 0, 0.5),
            BeamSplitterElement(0, 2, 0.5),
            BeamSplitterElement(-1, 0, 0.5),
            BeamSplitterElement(0, 1, 1.5),
            BeamSplitterElement(0, 1, np.nan),
            PhaseShiftElement(2, 0.0),
        ],
    )
    def test_bad_elements_rejected(self, element):
        with pytest.raises(ValueError, match="element 0"):
            NetworkPlan((element,), np.eye(2))

    @pytest.mark.parametrize(
        "target", [np.zeros((0, 0)), np.eye(3)[:2], np.ones(2), np.array(1.0)]
    )
    def test_target_must_be_a_nonempty_square_matrix(self, target):
        with pytest.raises(ValueError, match="target must be a nonempty square matrix"):
            NetworkPlan((), target)

    def test_non_finite_target_rejected(self):
        with pytest.raises(ValueError, match="recompose"):
            NetworkPlan((), np.array([[1.0, np.nan], [0.0, 1.0]]))


@st.composite
def unit_vectors(draw):
    """Unit vectors of 1 to 48 entries, tails scaled down to 1e-300."""
    n = draw(st.integers(1, 48))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    v[1:] *= 10.0 ** draw(st.floats(-300.0, 0.0))
    if not v.any():
        v[0] = 1.0
    v /= np.abs(v).max()
    return v / np.linalg.norm(v)


class TestMirror:
    @settings(max_examples=300, deadline=None)
    @given(unit_vectors())
    def test_symmetric_involution_with_first_column_u(self, u):
        m = mirror(u)
        n = u.size
        assert np.array_equal(m, m.T)
        assert m[:, 0].tobytes() == u.tobytes()
        assert np.abs(m @ m - np.eye(n)).max() <= 1e-15 * n

    def test_two_channels_is_the_pi_flip_bit_for_bit(self):
        rng = np.random.default_rng(30)
        angles = rng.uniform(0.0, 2.0 * np.pi, 10_000)
        axes = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        for c, s in [*zip(np.cos(angles), np.sin(angles)), *axes]:
            assert mirror((c, -s)).tobytes() == pi_flip(c, s).tobytes(), (c, s)

    @pytest.mark.parametrize("u", [[1.0, 1.0], [0.0, 0.0], [np.nan, 0.0], [2.0], np.eye(2)])
    def test_non_unit_rejected(self, u):
        with pytest.raises(ValueError, match="^u must be a unit vector$"):
            mirror(u)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        u = random_orthogonal(rng, 4)
        plan = decompose_network(u)
        text = serialize_plan(plan)
        parsed, checksum = read_plan(text)
        assert checksum == target_checksum(u)
        assert np.abs(parsed.target - u).max() < 1e-10
        assert len(parsed.elements) == len(plan.elements)

    def test_header_and_format(self):
        plan = decompose_network(np.eye(3))
        lines = serialize_plan(plan).splitlines()
        assert lines[0] == "N 3"
        assert lines[1].startswith("checksum ")
