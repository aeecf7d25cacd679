"""Register layout, statevector primitives, and measurement."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.errors import (
    ResourceError,
    StructuralError,
    ValidationError,
)
from gridprep.assemble import OccupationVector, slater_oracle
from gridprep.basis import BasisSet, IntegrationSpec, box_sine, tabulated, \
    uniform
from gridprep.compose import MixedSpec, mixed_oracle, prepare_mixed
from gridprep.loader import load_orbital
from gridprep.statevec import (
    DensityMatrix,
    QuantumState,
    RegisterLayout,
    SparseState,
    apply_unitary_on_segment,
    extract_segment_vector,
    measure_segment,
    partial_trace,
    permute_basis,
    qft,
    qubit_cap,
)
from helpers import controlled_unitary, from_basis_index, purity, \
    qft_matrix, segment_probabilities


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_field_write_round_trips(self, data):
        widths = data.draw(st.lists(st.integers(0, 5), min_size=1,
                                    max_size=5))
        layout = RegisterLayout([(f"s{i}", "scratch", w)
                                 for i, w in enumerate(widths)])
        idx = np.array(data.draw(st.lists(
            st.integers(0, layout.dim - 1), min_size=1, max_size=8)))
        name = data.draw(st.sampled_from([s.name for s in layout]))
        v = np.array(data.draw(st.lists(
            st.integers(0, layout.segment(name).dim - 1),
            min_size=idx.size, max_size=idx.size)))
        out = layout.with_values(idx, {name: v})
        for seg in layout:
            expected = v if seg.name == name else layout.values(seg.name, idx)
            np.testing.assert_array_equal(layout.values(seg.name, out),
                                          expected)

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
            from_basis_index(small_layout(), 32)

    def test_segment_blankness(self):
        layout = small_layout()
        state = from_basis_index(layout, 0b00100)  # b=1
        assert state.segment_is_blank("a")
        assert not state.segment_is_blank("b")

    def test_segment_blankness_on_branch(self):
        layout = RegisterLayout([("lo", "scratch", 1), ("a", "particle", 2),
                                 ("hi", "scratch", 1)])
        state = from_basis_index(layout, 0b0101)  # lo=1, a=2
        assert not state.segment_is_blank("a")
        assert not state.segment_is_blank("a", controls=[(0, 1)])
        assert state.segment_is_blank("a", controls=[(0, 0)])
        assert state.segment_is_blank("a", controls=[(3, 1)])
        assert not state.segment_is_blank("a", controls=[(3, 0)])


class TestSparseState:
    def test_round_trip_keeps_signed_zeros(self):
        layout = small_layout()
        parts = np.array([0.0, -0.0, 1.0, -0.5, 5e-324])
        rng = np.random.default_rng(0)
        amps = np.empty(layout.dim, dtype=np.complex128)
        amps.real = rng.choice(parts, layout.dim)
        amps.imag = rng.choice(parts, layout.dim)
        amps[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0), 0.0]
        sparse = SparseState.from_state(QuantumState(layout, amps))
        # only +0.0 + 0.0j is left out
        assert sparse.index.tolist() == np.flatnonzero(
            amps.view(np.uint64).reshape(-1, 2).any(axis=1)).tolist()
        assert 3 not in sparse.index and {0, 1, 2} <= set(sparse.index)
        assert sparse.to_state().amplitudes.tobytes() == amps.tobytes()


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
        # the controlled apply of the gate-level phase-estimation reference
        layout = RegisterLayout([("t", "particle", 1), ("c", "scratch", 1)])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        state = QuantumState(layout, np.array([1, 0, 1, 0]) / np.sqrt(2))
        out = controlled_unitary(state, "t", x, controls=[(1, 1)])
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
        expected = np.exp(2j * np.pi * np.arange(4) / 4) / 2
        np.testing.assert_allclose(qft_matrix(2)[:, 1], expected, atol=1e-12)
        one = from_basis_index(RegisterLayout([("a", "readout", 2)]), 1)
        np.testing.assert_allclose(qft(one, "a").amplitudes, expected,
                                   atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.data(), st.booleans(), st.integers(0, 2**31 - 1))
    def test_matches_dense_reference(self, widths, data, inverse, seed):
        layout = RegisterLayout([(f"s{i}", "readout", w)
                                 for i, w in enumerate(widths)])
        name = f"s{data.draw(st.integers(0, len(widths) - 1))}"
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = QuantumState(layout, amps / np.linalg.norm(amps))
        f = qft_matrix(layout.segment(name).width, inverse)
        np.testing.assert_allclose(
            qft(state, name, inverse).amplitudes,
            controlled_unitary(state, name, f).amplitudes, rtol=0, atol=1e-12)

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
    def test_measurement_collapse_and_determinism(self):
        layout = RegisterLayout([("a", "particle", 2)])
        amps = np.array([0.6, 0.0, 0.8, 0.0])
        state = QuantumState(layout, amps)
        o1, s1 = measure_segment(state, "a", np.random.default_rng(123))
        o2, s2 = measure_segment(state, "a", np.random.default_rng(123))
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


# -- dense reference for the extraction ----------------------------------------
# These index the whole basis with np.arange; the library indexes only the
# populated entries.

def _dense_packed(idx, segments):
    packed = np.zeros(idx.size, dtype=np.int64)
    shift = 0
    for s in segments:
        packed |= (((idx >> s.offset) & s.mask).astype(np.int64)) << shift
        shift += s.width
    return packed, shift


def dense_partial_trace(state, keep_segments):
    kept = [state.layout.segment(name) for name in keep_segments]
    idx = np.arange(state.layout.dim)
    kvals, k_width = _dense_packed(idx, kept)
    rvals, r_width = _dense_packed(
        idx, [s for s in state.layout if s.name not in keep_segments])
    table = np.zeros((1 << k_width, 1 << r_width), dtype=np.complex128)
    table[kvals, rvals] = state.amplitudes
    return DensityMatrix.from_factor(table)


def dense_extract(state, keep_segments, tol=1e-8):
    kept = [state.layout.segment(name) for name in keep_segments]
    idx = np.arange(state.layout.dim)
    rest_zero = np.ones(idx.size, dtype=bool)
    for s in state.layout:
        if s.name not in keep_segments:
            rest_zero &= ((idx >> s.offset) & s.mask) == 0
    if np.linalg.norm(state.amplitudes[~rest_zero]) > tol:
        raise ValidationError("segments outside the kept ones are not blank")
    kvals, width = _dense_packed(idx, kept)
    vec = np.zeros(1 << width, dtype=np.complex128)
    vec[kvals[rest_zero]] = state.amplitudes[rest_zero]
    n = np.linalg.norm(vec)
    if n == 0:
        raise ValidationError("the kept segments carry no amplitude")
    return vec / n


@st.composite
def extraction_cases(draw):
    """A layout of up to four segments, a nonempty subset of them kept in
    any order, and a normalized state with signed zeros whose traced
    segments are blank, blank up to sub-tolerance junk, or leaking.
    """
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    layout = RegisterLayout([(f"s{i}", "scratch", w)
                             for i, w in enumerate(widths)])
    names = [s.name for s in layout]
    keep = draw(st.lists(st.sampled_from(names), min_size=1,
                         max_size=len(names), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    parts = rng.choice([0.0, -0.0, 1.0, -0.5], size=(layout.dim, 2))
    amps = np.empty(layout.dim, dtype=np.complex128)
    amps.real, amps.imag = parts[:, 0], parts[:, 1]
    index = np.arange(layout.dim)
    traced = np.zeros(layout.dim, dtype=bool)
    for name in names:
        if name not in keep:
            traced |= layout.values(name, index) != 0
    off = draw(st.sampled_from(["blank", "junk", "leak"]))
    if off != "leak":
        amps[traced] = rng.choice([0.0, complex(0.0, -0.0),
                                   complex(-0.0, -0.0)],
                                  size=np.count_nonzero(traced))
    if off == "junk" and traced.any():
        amps[rng.choice(np.flatnonzero(traced))] = 1e-12
    if np.any(amps):
        amps /= np.linalg.norm(amps)
    return QuantumState(layout, amps), keep


def _result(fn, *args):
    try:
        out = fn(*args)
    except ValidationError:
        return "ValidationError"
    return getattr(out, "matrix", out).tobytes()


class TestAgainstDenseExtraction:
    @settings(max_examples=200, deadline=None)
    @given(extraction_cases())
    def test_bitwise_equal_to_dense_indexing(self, case):
        # Leaks are 0, 1e-12 or order 1, so the leak check, which sums the
        # same entries in another order, decides alike.
        state, keep = case
        assert _result(extract_segment_vector, state, keep) == \
            _result(dense_extract, state, keep)
        assert _result(partial_trace, state, keep) == \
            _result(dense_partial_trace, state, keep)


class TestDensityOps:
    def test_partial_trace_of_product_is_pure(self):
        layout = RegisterLayout([("a", "particle", 2), ("b", "scratch", 2)])
        va = np.array([0.5, 0.5, 0.5, 0.5])
        vb = np.array([1.0, 0.0, 0.0, 0.0])
        state = QuantumState(layout, np.kron(vb, va))
        rho = partial_trace(state, ["a"])
        assert purity(rho) == pytest.approx(1.0)
        np.testing.assert_allclose(rho.matrix, np.outer(va, va), atol=1e-12)

    def test_partial_trace_of_bell_pair_is_mixed(self):
        layout = RegisterLayout([("a", "particle", 1), ("b", "scratch", 1)])
        state = QuantumState(layout,
                             np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(state, ["a"])
        assert purity(rho) == pytest.approx(0.5)

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

    @pytest.mark.parametrize("entry,value", [
        ((0, 0), np.nan), ((0, 1), np.nan), ((1, 0), 1j * np.inf)])
    def test_density_matrix_rejects_non_finite(self, entry, value):
        rho = np.eye(2, dtype=complex) / 2
        rho[entry] = value
        with pytest.raises(ValidationError):
            DensityMatrix(rho)

    def test_diagonal_restored_bytewise(self):
        # -0.0 + s - s is +0.0: validation must leave ρ's bytes alone.
        rho = np.diag([1.0, -0.0]).astype(complex)
        before = rho.tobytes()
        validated = DensityMatrix(rho)
        assert rho.tobytes() == before
        assert validated.matrix.tobytes() == before

    def test_density_matrix_copies_its_input(self):
        a = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(a)
        a[0, 0] = 5
        assert rho.matrix is not a
        assert np.trace(rho.matrix).real == 1.0

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), k=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.9))
    def test_from_factor_matches_dense_product(self, n, k, seed,
                                               zero_share):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        zero = rng.random(k) < zero_share
        zero[rng.integers(k)] = False
        t[:, zero] = 0
        t /= np.linalg.norm(t)
        rho = DensityMatrix.from_factor(t)
        assert rho.matrix.tobytes() == (t @ t.conj().T).tobytes()
        DensityMatrix(rho.matrix)

    @pytest.mark.parametrize("entry,value", [
        ((0, 0), np.nan), ((1, 1), 1j * np.nan), ((1, 0), np.inf)])
    def test_from_factor_rejects_non_finite(self, entry, value):
        t = np.full((2, 2), 0.5, dtype=complex)
        t[entry] = value
        with pytest.raises(ValidationError):
            DensityMatrix.from_factor(t)

    @pytest.mark.parametrize("factor", [1 - 2e-8, 1 + 2e-8, 0.0])
    def test_from_factor_rejects_wrong_norm(self, factor):
        t = np.full((2, 2), 0.5, dtype=complex) * np.sqrt(factor)
        with pytest.raises(ValidationError):
            DensityMatrix.from_factor(t)

    def test_from_factor_rejects_non_matrix(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_factor(np.array([0.6, 0.8]))

    def test_mixed_oracle_matches_dense_mixture(self, monkeypatch):
        # the golden mixed-l4-m2 ensemble; the factor form must agree with
        # the dense sum of outer products and never take the dense checks
        bas = BasisSet([box_sine(n) for n in (1, 2, 3)])
        mix = MixedSpec.thermal(0.7, [
            (1.0, OccupationVector.parse("110")),
            (2.0, OccupationVector.parse("101")),
            (3.0, OccupationVector.parse("011"))])
        dense = 0
        for p, occ in mix.components:
            v = slater_oracle(occ, bas, 4)
            dense = dense + p * np.outer(v, v.conj())

        def refuse(self):
            raise AssertionError("dense density-matrix validation ran")

        monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
        rho = mixed_oracle(mix, bas, 4)
        assert np.max(np.abs(rho.matrix - dense)) <= 1e-14
        prep = prepare_mixed(mix, bas, 4, CDF)
        assert np.max(np.abs(prep.rho.matrix - dense)) <= 1e-8

    def test_read_only_density_matrix_validates(self):
        good = np.diag([0.25, 0.75]).astype(complex)
        bad = np.diag([1.5, -0.5]).astype(complex)
        for rho in (good, bad):
            rho.flags.writeable = False
        assert purity(DensityMatrix(good)) == pytest.approx(0.625)
        with pytest.raises(ValidationError):
            DensityMatrix(bad)
        assert good.tobytes() == np.diag([0.25, 0.75]).astype(complex).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           rank_share=st.floats(0.0, 1.0), margin=st.sampled_from([-1, 1]))
    def test_psd_check_matches_eigensolve(self, n, seed, rank_share, margin):
        # Hermitian, unit trace, λ_min = -1e-8 ± 1e-11, and any number of
        # zero eigenvalues: the shifted Cholesky must decide exactly as
        # the eigensolve does, and leave the input bytes alone.
        rng = np.random.default_rng(seed)
        positive = 1 + int(rank_share * (n - 2))
        lam = np.zeros(n)
        lam[0] = -1e-8 + margin * 1e-11
        weights = rng.random(positive) + 1e-3
        lam[1:1 + positive] = weights / weights.sum() * (1 - lam[0])
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v, _ = np.linalg.qr(z)
        rho = (v * lam) @ v.conj().T
        rho = (rho + rho.conj().T) / 2
        before = rho.tobytes()
        expect_ok = np.linalg.eigvalsh(rho).min() >= -1e-8
        try:
            DensityMatrix(rho)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == expect_ok
        assert rho.tobytes() == before

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 5, 300, 700]), seed=st.integers(0, 2**32 - 1),
           excess=st.sampled_from([-1e-12, 1e-12]),
           direction=st.sampled_from([1.0, 1j, -1j]))
    def test_blockwise_hermiticity_matches_dense(self, d, seed, excess,
                                                 direction):
        # One off-diagonal entry off Hermitian by 1e-8 ± 1e-12, in small and
        # large matrices: the Hermiticity check must decide exactly as the
        # whole-matrix expression at 1e-8 does.
        rng = np.random.default_rng(seed)
        noise = 1e-6 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        noise = noise + noise.conj().T
        np.fill_diagonal(noise, 0.0)
        rho = np.eye(d, dtype=complex) / d + noise
        i, j = rng.choice(d, size=2, replace=False)
        rho[i, j] += direction * (1e-8 + excess)
        dense_rejects = np.max(np.abs(rho - rho.conj().T)) > 1e-8
        try:
            DensityMatrix(rho)
            rejected = False
        except ValidationError as err:
            assert "Hermitian" in str(err)
            rejected = True
        assert rejected == dense_rejects

    def test_purity_matches_trace_of_square(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        expected = np.trace(rho @ rho).real
        assert purity(DensityMatrix(rho)) == pytest.approx(expected, rel=1e-12)
