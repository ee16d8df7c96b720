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
    parse_plan,
    _recompose,
    serialize_plan,
    target_checksum,
)

from cvgec.patterns import NoisePatternSet, complete_orthonormal, null_space_encoder

from network_oracle import plan_symplectic


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def recompose_error(plan):
    return np.abs(plan_symplectic(plan) - np.kron(plan.target, np.eye(2))).max()


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
        assert np.abs(parse_plan(serialize_plan(plan))[0].target - u).max() < 1e-15
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
        full = plan_symplectic(plan)
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
    assert np.abs(plan_symplectic(plan) - np.kron(u, np.eye(2))).max() <= 1e-10
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
        plan = assert_mesh_shape(complete_orthonormal(signal), 1)
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

    def test_non_finite_target_rejected(self):
        with pytest.raises(ValueError, match="recompose"):
            NetworkPlan((), np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestCompletion:
    def test_first_column_and_orthogonality(self):
        s = np.array([0.5, -0.5, -0.5, 0.5])
        u = complete_orthonormal(s)
        assert np.allclose(u[:, 0], s, atol=0)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            complete_orthonormal(np.array([1.0, 1.0]))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        u = random_orthogonal(rng, 4)
        plan = decompose_network(u)
        text = serialize_plan(plan)
        parsed, checksum = parse_plan(text)
        assert checksum == target_checksum(u)
        assert np.abs(parsed.target - u).max() < 1e-10
        assert len(parsed.elements) == len(plan.elements)

    def test_header_and_format(self):
        plan = decompose_network(np.eye(3))
        lines = serialize_plan(plan).splitlines()
        assert lines[0] == "N 3"
        assert lines[1].startswith("checksum ")

    def test_comment_lines_ignored(self):
        text = "N 2\nchecksum abc\n# a note\nBS 0 1 0.25\n"
        plan, _ = parse_plan(text)
        assert len(plan.elements) == 1

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line"):
            parse_plan("N 2\nXX 0 1\n")

    def test_phase_a_mode_matrix_cannot_hold_names_its_line(self):
        text = "N 2\nchecksum abc\n# a note\nBS 0 1 0.25\nPS 1 1.5707963267948966\n"
        with pytest.raises(ValueError, match=r"plan line 5: phase 1.5707963267948966"):
            parse_plan(text)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_plan_without_modes_names_its_header(self, n):
        with pytest.raises(ValueError, match=f"bad plan line 2: 'N {n}'"):
            parse_plan(f"# empty\nN {n}\n")

    def test_mode_outside_the_plan_named(self):
        with pytest.raises(ValueError, match=r"plan line 2: mode 5 is outside the plan's 2 modes"):
            parse_plan("N 2\nPS 5 3.1415926535897931\n")

    def test_pi_flips_parse(self):
        plan, _ = parse_plan("N 2\nPS 0 3.1415926535897931\nPS 1 -3.1415926535897931\n")
        assert np.array_equal(plan.target, -np.eye(2))
