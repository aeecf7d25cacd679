"""Register layout, statevector primitives, and measurement."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.errors import (
    ImpossibleOutcomeError,
    ResourceError,
    StructuralError,
    ValidationError,
)
from gridprep.basis import IntegrationSpec, tabulated, uniform
from gridprep.loader import load_orbital
from gridprep.statevec import (
    DensityMatrix,
    QuantumState,
    RegisterLayout,
    apply_unitary_on_segment,
    extract_segment_vector,
    measure_segment,
    partial_trace,
    permute_basis,
    qft,
    qft_matrix,
    qubit_cap,
    segment_probabilities,
    swap_segments,
)


CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def small_layout():
    return RegisterLayout([("a", "particle", 2), ("b", "scratch", 3)])


class TestRegisterLayout:
    def test_offsets_are_contiguous(self):
        layout = small_layout()
        assert layout.segment("a").offset == 0
        assert layout.segment("b").offset == 2
        assert layout.n_total == 5
        assert layout.dim == 32

    def test_segment_value_extraction(self):
        layout = small_layout()
        idx = np.array([0b10111])  # a = 3, b = 5
        assert layout.values("a", idx)[0] == 3
        assert layout.values("b", idx)[0] == 5

    def test_unknown_role_rejected(self):
        with pytest.raises(StructuralError):
            RegisterLayout([("a", "banana", 2)])

    def test_duplicate_name_rejected(self):
        with pytest.raises(StructuralError):
            RegisterLayout([("a", "particle", 2), ("a", "scratch", 1)])

    def test_missing_segment_raises(self):
        with pytest.raises(StructuralError):
            small_layout().segment("zzz")

    def test_qubit_cap_enforced(self):
        with pytest.raises(ResourceError):
            RegisterLayout([("big", "particle", qubit_cap() + 1)])

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GRIDPREP_QUBIT_CAP", "4")
        assert qubit_cap() == 4
        with pytest.raises(ResourceError):
            RegisterLayout([("a", "particle", 5)])
        RegisterLayout([("a", "particle", 4)])  # exactly at the cap


class TestQuantumState:
    def test_zero_state(self):
        state = QuantumState.zero(small_layout())
        assert state.amplitudes[0] == 1.0
        assert state.norm == pytest.approx(1.0)
        state.check_norm()

    def test_basis_index_bounds(self):
        with pytest.raises(StructuralError):
            QuantumState.from_basis_index(small_layout(), 32)

    def test_segment_blankness(self):
        layout = small_layout()
        state = QuantumState.from_basis_index(layout, 0b00100)  # b=1
        assert state.segment_is_blank("a")
        assert not state.segment_is_blank("b")

    def test_segment_blankness_on_branch(self):
        layout = RegisterLayout([("lo", "scratch", 1), ("a", "particle", 2),
                                 ("hi", "scratch", 1)])
        state = QuantumState.from_basis_index(layout, 0b0101)  # lo=1, a=2
        assert not state.segment_is_blank("a")
        assert not state.segment_is_blank("a", controls=[(0, 1)])
        assert state.segment_is_blank("a", controls=[(0, 0)])
        assert state.segment_is_blank("a", controls=[(3, 1)])
        assert not state.segment_is_blank("a", controls=[(3, 0)])


class TestRotation:
    """The loader's rotations, evaluated as a product of cos/sin splits."""

    def test_rotation_action(self):
        # one qubit: split ratio cos^2(pi/6) rotates |0> by pi/6
        layout = RegisterLayout([("a", "particle", 1)])
        orb = tabulated([np.cos(np.pi / 6), np.sin(np.pi / 6)], length=1.0)
        out, _ = load_orbital(QuantumState.zero(layout), "a", orb, CDF)
        assert out.amplitudes[0] == pytest.approx(np.cos(np.pi / 6))
        assert out.amplitudes[1] == pytest.approx(np.sin(np.pi / 6))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, 10), st.integers(1, 3))
    def test_rotation_preserves_norm(self, angle, level):
        # arbitrary split ratios at one level keep the spectators' norm
        layout = small_layout()
        rng = np.random.default_rng(1)
        amps = np.zeros(32, dtype=complex)
        amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)  # b = 0
        amps /= np.linalg.norm(amps)
        perturb = lambda i, k, r: \
            np.cos(angle * (k // 2 + 1)) ** 2 if i == level else r
        out, _ = load_orbital(QuantumState(layout, amps), "b", uniform(), CDF,
                              ratio_perturb=perturb)
        assert out.norm == pytest.approx(1.0)

    def test_controlled_rotation_only_touches_branch(self):
        layout = RegisterLayout([("a", "particle", 1), ("c", "scratch", 1)])
        state = QuantumState(layout, np.array([1, 0, 1, 0]) / np.sqrt(2))
        out, _ = load_orbital(state, "a", tabulated([0, 1], length=1.0), CDF,
                              controls=[("c", 1)])
        # c=0 branch untouched, c=1 branch fully rotated
        assert out.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
        assert out.amplitudes[3] == pytest.approx(1 / np.sqrt(2))

    def test_control_on_target_rejected(self):
        state = QuantumState.zero(small_layout())
        with pytest.raises(StructuralError):
            load_orbital(state, "a", uniform(), CDF, controls=[("a", 1)])


class TestSegmentUnitary:
    def test_matches_kron_oracle(self):
        layout = RegisterLayout([("lo", "scratch", 1), ("mid", "particle", 2),
                                 ("hi", "scratch", 1)])
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(h)
        out = apply_unitary_on_segment(QuantumState(layout, amps), "mid", u)
        # bit 0 = lo (least significant), kron order is hi (x) mid (x) lo
        full = np.kron(np.eye(2), np.kron(u, np.eye(2)))
        np.testing.assert_allclose(out.amplitudes, full @ amps, atol=1e-12)

    def test_non_unitary_rejected(self):
        state = QuantumState.zero(RegisterLayout([("a", "particle", 1)]))
        with pytest.raises(ValidationError):
            apply_unitary_on_segment(state, "a", np.array([[1, 0], [0, 2]]))

    def test_controlled_unitary(self):
        layout = RegisterLayout([("t", "particle", 1), ("c", "scratch", 1)])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        state = QuantumState(layout, np.array([1, 0, 1, 0]) / np.sqrt(2))
        out = apply_unitary_on_segment(state, "t", x, controls=[(1, 1)])
        # c=1 branch flipped: |10> -> |11>
        np.testing.assert_allclose(
            out.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestQft:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matrix_unitary(self, width):
        f = qft_matrix(width)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(1 << width),
                                   atol=1e-12)

    def test_forward_kernel_sign(self):
        # |1> -> sum_k e^{+2 pi i k/4} |k> / 2
        f = qft_matrix(2)
        col = f[:, 1]
        expected = np.exp(2j * np.pi * np.arange(4) / 4) / 2
        np.testing.assert_allclose(col, expected, atol=1e-12)

    def test_inverse_round_trip(self):
        layout = RegisterLayout([("a", "readout", 3)])
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = QuantumState(layout, amps)
        back = qft(qft(state, "a"), "a", inverse=True)
        np.testing.assert_allclose(back.amplitudes, amps, atol=1e-12)


class TestPermuteBasis:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
        lambda widths: st.tuples(
            st.just(widths), st.permutations(range(1 << sum(widths))),
            st.integers(0, 2**31 - 1))))
    def test_matches_gather_reference(self, case):
        widths, perm, seed = case
        layout = RegisterLayout([(f"s{i}", "scratch", w)
                                 for i, w in enumerate(widths)])
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        dest = np.array(perm)
        out = permute_basis(QuantumState(layout, amps), dest)
        # gather: the amplitude landing on j comes from the preimage of j
        np.testing.assert_array_equal(out.amplitudes, amps[np.argsort(dest)])

    def test_rejects_non_permutation(self):
        state = QuantumState.zero(small_layout())
        dest = np.arange(state.layout.dim)
        dest[1] = 0  # not injective
        with pytest.raises(StructuralError):
            permute_basis(state, dest)
        with pytest.raises(StructuralError):
            permute_basis(state, np.arange(state.layout.dim) + 1)


class TestSwapAndMeasure:
    def test_swap_segments(self):
        layout = RegisterLayout([("a", "particle", 2), ("b", "particle", 2)])
        state = QuantumState.from_basis_index(layout, 0b0111)  # a=3, b=1
        out = swap_segments(state, "a", "b")
        assert out.amplitudes[0b1101] == 1.0

    def test_swap_width_mismatch(self):
        state = QuantumState.zero(small_layout())
        with pytest.raises(StructuralError):
            swap_segments(state, "a", "b")

    def test_measurement_collapse_and_determinism(self):
        layout = RegisterLayout([("a", "particle", 2)])
        amps = np.array([0.6, 0.0, 0.8, 0.0])
        state = QuantumState(layout, amps)
        o1, s1 = measure_segment(state, "a", 123)
        o2, s2 = measure_segment(state, "a", 123)
        assert o1 == o2
        assert s1.norm == pytest.approx(1.0)
        assert abs(s1.amplitudes[o1]) == pytest.approx(1.0)

    def test_measurement_statistics(self):
        layout = RegisterLayout([("a", "particle", 1)])
        state = QuantumState(layout, np.array([0.6, 0.8]))
        rng = np.random.default_rng(7)
        outcomes = [measure_segment(state, "a", rng)[0] for _ in range(500)]
        assert np.mean(outcomes) == pytest.approx(0.64, abs=0.06)

    def test_zero_mass_impossible(self):
        layout = RegisterLayout([("a", "particle", 1)])
        state = QuantumState(layout, np.array([1.0, 0.0]))
        probs = segment_probabilities(state, "a")
        assert probs[1] == 0.0


class TestDensityOps:
    def test_partial_trace_of_product_is_pure(self):
        layout = RegisterLayout([("a", "particle", 2), ("b", "scratch", 2)])
        va = np.array([0.5, 0.5, 0.5, 0.5])
        vb = np.array([1.0, 0.0, 0.0, 0.0])
        state = QuantumState(layout, np.kron(vb, va))
        rho = partial_trace(state, ["a"])
        assert rho.purity() == pytest.approx(1.0)
        np.testing.assert_allclose(rho.matrix, np.outer(va, va), atol=1e-12)

    def test_partial_trace_of_bell_pair_is_mixed(self):
        layout = RegisterLayout([("a", "particle", 1), ("b", "scratch", 1)])
        state = QuantumState(layout,
                             np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(state, ["a"])
        assert rho.purity() == pytest.approx(0.5)

    def test_partial_trace_cap(self):
        layout = RegisterLayout([("a", "particle", 13), ("b", "scratch", 1)])
        state = QuantumState.zero(layout)
        with pytest.raises(ResourceError):
            partial_trace(state, ["a"])

    def test_extract_segment_vector(self):
        layout = RegisterLayout([("a", "particle", 2), ("b", "scratch", 2)])
        amps = np.zeros(16, dtype=complex)
        amps[0b0001] = 0.6
        amps[0b0010] = 0.8
        state = QuantumState(layout, amps)
        vec = extract_segment_vector(state, ["a"])
        np.testing.assert_allclose(vec, [0, 0.6, 0.8, 0], atol=1e-12)

    def test_extract_raises_on_leakage(self):
        layout = RegisterLayout([("a", "particle", 2), ("b", "scratch", 2)])
        amps = np.zeros(16, dtype=complex)
        amps[0b0001] = 0.6
        amps[0b0110] = 0.8  # b = 1: leakage
        with pytest.raises(ValidationError):
            extract_segment_vector(QuantumState(layout, amps), ["a"])

    def test_extract_rejects_zero_state(self):
        layout = RegisterLayout([("a", "particle", 2), ("b", "scratch", 2)])
        state = QuantumState(layout, np.zeros(16, dtype=complex))
        with pytest.raises(ValidationError):
            extract_segment_vector(state, ["a"])

    def test_density_matrix_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.6]]))  # trace != 1
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.eigenvalues() == pytest.approx([0.5, 0.5])
