"""Occupation vectors, permutation machinery, (anti)symmetrization."""
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprep.assemble import (
    OccupationVector,
    antisymmetrize,
    odd_even_network,
    particle_segments,
    permutation_segments,
    prepare_hartree_product,
    quword_width,
    rank_to_permutation,
    slater_oracle,
    sort_and_entangle,
)
from gridprep.basis import BasisSet, IntegrationSpec, box_sine
from gridprep.errors import StructuralError, ValidationError
from gridprep.statevec import (
    QuantumState,
    RegisterLayout,
    SparseState,
    permute_basis,
)
from helpers import delta_at_site

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def swap_segments(state, seg_a, seg_b):
    """Exchange the values of two equally wide segments."""
    layout = state.layout
    idx = np.arange(layout.dim)
    return permute_basis(state, layout.with_values(
        idx, {seg_a: layout.values(seg_b, idx),
              seg_b: layout.values(seg_a, idx)}))


class TestOccupationVector:
    def test_parse_bitstring(self):
        occ = OccupationVector.parse("1100")
        assert occ.n == (1, 1, 0, 0)
        assert occ.m == 2
        assert occ.occupied_indices() == [0, 1]

    def test_parse_count_list(self):
        occ = OccupationVector.parse("2,0,1", "bosonic")
        assert occ.n == (2, 0, 1)
        assert occ.m == 3
        assert occ.occupied_indices() == [0, 0, 2]
        assert occ.multiplicity_factor() == 2

    def test_pauli_exclusion(self):
        with pytest.raises(ValidationError):
            OccupationVector((2, 0), "fermionic")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            OccupationVector((-1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            OccupationVector((0, 0))


class TestPermutationMachinery:
    def test_quword_width(self):
        assert quword_width(1) == 0
        assert quword_width(2) == 1
        assert quword_width(3) == 2
        assert quword_width(4) == 2
        assert quword_width(5) == 3

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rank_mapping_is_bijective(self, m):
        tuples = list(product(*[range(1, m - i + 1) for i in range(m)]))
        perms = {rank_to_permutation(t) for t in tuples}
        assert len(perms) == math.factorial(m)
        assert perms == set(permutations(range(1, m + 1)))

    def test_rank_selection_rule(self):
        # digit d picks the d-th smallest unused value
        assert rank_to_permutation((1, 1, 1)) == (1, 2, 3)
        assert rank_to_permutation((3, 2, 1)) == (3, 2, 1)
        assert rank_to_permutation((2, 1, 1)) == (2, 1, 3)

    def test_rank_digit_validation(self):
        with pytest.raises(ValidationError):
            rank_to_permutation((4, 1, 1))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_network_sorts_everything(self, m):
        layers = odd_even_network(m)
        assert len(layers) == m
        for perm in permutations(range(m)):
            lanes = list(perm)
            for layer in layers:
                for a, b in layer:
                    if lanes[a] > lanes[b]:
                        lanes[a], lanes[b] = lanes[b], lanes[a]
            assert lanes == sorted(lanes)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(2, 6),
           statistics=st.sampled_from(["fermionic", "bosonic"]))
    def test_sort_and_entangle_on_a_permutation(self, data, m, statistics):
        # the widest particle registers that keep the layout at 24 qubits;
        # the dense output is zero but for one entry
        l = min(3, (24 - m * quword_width(m)) // m)
        perm = data.draw(st.permutations(range(m)))
        xs = data.draw(st.lists(st.integers(0, (1 << l) - 1),
                                min_size=m, max_size=m))
        layout = RegisterLayout(particle_segments(m, l)
                                + permutation_segments(m))
        p_names = [f"particle{i}" for i in range(m)]
        b_names = [f"perm{i}" for i in range(m)]
        index = layout.with_values(0, {**dict(zip(b_names, perm)),
                                       **dict(zip(p_names, xs))})
        out, counters = sort_and_entangle(
            SparseState(layout, np.array([index]), np.array([1.0 + 0j])),
            b_names, p_names, statistics)

        # lane perm[i] ends up holding particle i, and the quwords are clear
        lanes = [0] * m
        for lane, x in zip(perm, xs):
            lanes[lane] = x
        target = layout.with_values(0, dict(zip(p_names, lanes)))
        inversions = sum(perm[i] > perm[j]
                         for i, j in combinations(range(m), 2))
        sign = -1 if statistics == "fermionic" and inversions % 2 else 1
        assert np.flatnonzero(out.amplitudes).tolist() == [target]
        assert out.amplitudes[target] == sign
        assert counters["comparators"] == m * (m - 1) // 2
        assert counters["swapped_qubits"] == counters["comparators"] * l


def _pipeline(occ, basis, l):
    m = occ.m
    layout = RegisterLayout(particle_segments(m, l)
                            + permutation_segments(m))
    state = QuantumState.zero(layout)
    p_names = [f"particle{i}" for i in range(m)]
    b_names = [f"perm{i}" for i in range(m)]
    state, _ = prepare_hartree_product(state, occ, basis, CDF, p_names)
    state, counters = antisymmetrize(SparseState.from_state(state), b_names,
                                     p_names, occ.statistics)
    return state, counters, p_names


class TestAntisymmetrization:
    def test_two_fermions_match_determinant(self):
        bas = BasisSet([box_sine(1), box_sine(2)])
        occ = OccupationVector((1, 1))
        state, counters, p_names = _pipeline(occ, bas, 3)
        vec = state.amplitudes[: 1 << 6]
        oracle = slater_oracle(occ, bas, 3)
        assert abs(np.vdot(vec, oracle)) == pytest.approx(1.0, abs=1e-10)
        assert counters["comparators"] == 1

    def test_fermion_swap_antisymmetry(self):
        bas = BasisSet([box_sine(1), box_sine(2)])
        occ = OccupationVector((1, 1))
        state, _, p_names = _pipeline(occ, bas, 3)
        swapped = swap_segments(state, p_names[0], p_names[1])
        overlap = np.vdot(state.amplitudes, swapped.amplitudes)
        assert overlap.real == pytest.approx(-1.0, abs=1e-10)

    def test_boson_swap_symmetry(self):
        bas = BasisSet([box_sine(1), box_sine(2)])
        occ = OccupationVector((1, 1), "bosonic")
        state, _, p_names = _pipeline(occ, bas, 3)
        swapped = swap_segments(state, p_names[0], p_names[1])
        overlap = np.vdot(state.amplitudes, swapped.amplitudes)
        assert overlap.real == pytest.approx(1.0, abs=1e-10)

    def test_three_fermions(self):
        bas = BasisSet([box_sine(1), box_sine(2), box_sine(3)])
        occ = OccupationVector((1, 1, 1))
        state, counters, _ = _pipeline(occ, bas, 2)
        vec = state.amplitudes[: 1 << 6]
        oracle = slater_oracle(occ, bas, 2)
        assert abs(np.vdot(vec, oracle)) == pytest.approx(1.0, abs=1e-10)
        assert counters["comparators"] == 3

    def test_boson_with_multiplicity(self):
        bas = BasisSet([box_sine(1), box_sine(2)])
        occ = OccupationVector((2, 1), "bosonic")
        state, _, _ = _pipeline(occ, bas, 2)
        vec = state.amplitudes[: 1 << 6]
        oracle = slater_oracle(occ, bas, 2)
        assert abs(np.vdot(vec, oracle)) == pytest.approx(1.0, abs=1e-10)

    def test_repeated_fermionic_orbital_annihilates(self):
        bas = BasisSet([delta_at_site(0, 2), delta_at_site(1, 2)])
        m = 2
        layout = RegisterLayout(particle_segments(m, 2)
                                + permutation_segments(m))
        state = QuantumState.zero(layout)
        # both registers hold the SAME orbital: determinant must vanish
        from gridprep.loader import load_orbital
        for name in ("particle0", "particle1"):
            state, _ = load_orbital(state, name, bas.orbitals[0], CDF)
        with pytest.raises(ValidationError):
            antisymmetrize(SparseState.from_state(state), ["perm0", "perm1"],
                           ["particle0", "particle1"], "fermionic")

    def test_single_particle_passthrough(self):
        bas = BasisSet([box_sine(1)])
        occ = OccupationVector((1,))
        state, counters, _ = _pipeline(occ, bas, 3)
        np.testing.assert_allclose(state.amplitudes[:8],
                                   bas.orbitals[0].grid_values(3), atol=1e-10)
        assert counters["comparators"] == 0


# -- dense reference --------------------------------------------------------
# The three-pass dense pipeline the sparse stages replace: each pass scans
# the whole vector for its support and writes a fresh dense vector.

def dense_generate(
    state: QuantumState, b_segments: list[str], m: int
) -> QuantumState:
    if len(b_segments) != m:
        raise StructuralError("one quword per particle is required")
    for name in b_segments:
        if not state.segment_is_blank(name):
            raise ValidationError(f"quword {name!r} must be blank")
    if m == 1:
        return state
    segs = [state.layout.segment(name) for name in b_segments]
    tuples = list(product(*[range(m - i) for i in range(m)]))
    amps = np.zeros_like(state.amplitudes)
    support = np.flatnonzero(np.abs(state.amplitudes) > 0)
    base = state.amplitudes[support] / math.sqrt(math.factorial(m))
    for digits in tuples:
        shift = sum(d << seg.offset for d, seg in zip(digits, segs))
        amps[support | shift] += base
    return QuantumState(state.layout, amps)


def dense_rank(
    state: QuantumState, b_segments: list[str]
) -> QuantumState:
    m = len(b_segments)
    if m == 1:
        return state
    segs = [state.layout.segment(name) for name in b_segments]
    # only the populated amplitudes matter; everything else stays zero
    idx = np.flatnonzero(np.abs(state.amplitudes) > 0)
    vals = [(idx >> seg.offset) & seg.mask for seg in segs]
    valid = np.ones(idx.size, dtype=bool)
    for i, v in enumerate(vals):
        valid &= v < (m - i)
    stray = np.linalg.norm(state.amplitudes[idx[~valid]])
    if stray > 1e-10:
        raise ValidationError(
            f"quword register holds amplitude outside the tuple range ({stray:.3g})"
        )
    strip = idx.copy()
    for seg in segs:
        strip &= ~(seg.mask << seg.offset)
    # combined-quword lookup: tuple code -> permutation code (0-based entries)
    w = segs[0].width
    table = np.full(1 << (m * w), -1, dtype=np.int64)
    for digits in product(*[range(m - i) for i in range(m)]):
        code = sum(d << (i * w) for i, d in enumerate(digits))
        perm = rank_to_permutation(tuple(d + 1 for d in digits))
        table[code] = sum((p - 1) << (i * w) for i, p in enumerate(perm))
    combined = np.zeros(idx.size, dtype=np.int64)
    for i, v in enumerate(vals):
        combined |= v.astype(np.int64) << (i * w)
    mapped = table[combined]
    dest = strip.copy()
    for i, seg in enumerate(segs):
        dest |= ((mapped >> (i * w)) & seg.mask) << seg.offset
    amps = np.zeros_like(state.amplitudes)
    amps[dest[valid]] = state.amplitudes[idx[valid]]
    return QuantumState(state.layout, amps)


def dense_sort(
    state: QuantumState,
    b_segments: list[str],
    p_segments: list[str],
    statistics: str = "fermionic",
) -> tuple[QuantumState, dict]:
    if statistics not in ("fermionic", "bosonic"):
        raise ValidationError(f"unknown statistics {statistics!r}")
    m = len(b_segments)
    if len(p_segments) != m:
        raise StructuralError("need one quword per particle register")
    if m == 1:
        return state, {"comparators": 0, "swapped_qubits": 0}
    b_segs = [state.layout.segment(n) for n in b_segments]
    p_segs = [state.layout.segment(n) for n in p_segments]
    l = p_segs[0].width

    idx = np.flatnonzero(np.abs(state.amplitudes) > 0)
    bvals = [state.layout.values(n, idx).copy() for n in b_segments]
    pvals = [state.layout.values(n, idx).copy() for n in p_segments]

    valid = np.ones(idx.size, dtype=bool)
    seen = np.zeros((idx.size, m), dtype=bool)
    for v in bvals:
        valid &= v < m
        inrange = v < m
        seen[np.arange(idx.size)[inrange], v[inrange]] = True
    valid &= seen.all(axis=1)
    stray = np.linalg.norm(state.amplitudes[idx[~valid]])
    if stray > 1e-10:
        raise ValidationError(
            f"quword register is not a permutation on the support ({stray:.3g})"
        )

    parity = np.zeros(idx.size, dtype=bool)
    comparators = 0
    for layer in odd_even_network(m):
        for a, b in layer:
            comparators += 1
            fire = bvals[a] > bvals[b]
            for arr_pair in ((bvals, a, b), (pvals, a, b)):
                arrs, i, j = arr_pair
                tmp = arrs[i][fire].copy()
                arrs[i][fire] = arrs[j][fire]
                arrs[j][fire] = tmp
            parity ^= fire

    strip = idx.copy()
    for seg in (*b_segs, *p_segs):
        strip &= ~(seg.mask << seg.offset)
    dest = strip  # quwords land on the constant identity and are cleared
    for v, seg in zip(pvals, p_segs):
        dest = dest | (v << seg.offset)
    sign = np.ones(idx.size)
    if statistics == "fermionic":
        sign[parity] = -1.0
    amps = np.zeros_like(state.amplitudes)
    np.add.at(amps, dest[valid], (sign * state.amplitudes[idx])[valid])
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValidationError("symmetrization annihilated the state "
                              "(repeated fermionic orbital?)")
    counters = {
        "comparators": comparators,
        "swapped_qubits": comparators * l,
        "symmetrization_norm": float(norm),
    }
    return QuantumState(state.layout, amps / norm), counters


def dense_antisymmetrize(state, b_segments, p_segments, statistics):
    m = len(p_segments)
    state = dense_generate(state, b_segments, m)
    state = dense_rank(state, b_segments)
    return dense_sort(state, b_segments, p_segments, statistics)


AMPLITUDE_PARTS = np.array([0.0, -0.0, 1.0, -0.5, 0.3, 5e-324])


@st.composite
def symmetrization_cases(draw):
    """A particle bank and its quwords between spectator registers, with
    amplitudes drawn from signed zeros, ordinary values and the smallest
    subnormal (which 1/sqrt(m!) rounds to zero), and sometimes
    sub-tolerance junk or -0.0 where the quwords are not blank.
    """
    m = draw(st.integers(1, 4))
    l = draw(st.integers(1, 2))
    below, above = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if m == 4 and l == 2:
        below = above = min(below, 1)
    layout = RegisterLayout([("below", "fock", below)]
                            + particle_segments(m, l)
                            + permutation_segments(m)
                            + [("above", "readout", above)])
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    index = np.arange(layout.dim)
    blank = np.ones(layout.dim, dtype=bool)
    for i in range(m):
        blank &= layout.values(f"perm{i}", index) == 0
    parts = rng.choice(AMPLITUDE_PARTS, size=(layout.dim, 2),
                       p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    amps = parts[:, 0] + 1j * parts[:, 1]
    amps.real, amps.imag = parts[:, 0], parts[:, 1]  # keep signed zeros
    amps[~blank] = 0.0
    if draw(st.booleans()) and not blank.all():
        junk = rng.choice(np.flatnonzero(~blank), size=3)
        amps[junk] = rng.choice([1e-12, -1e-13j, -0.0, 1e-300], size=3)
    statistics = draw(st.sampled_from(["fermionic", "bosonic"]))
    return QuantumState(layout, amps), m, statistics


def _outcome(fn, state, m, statistics):
    try:
        out, counters = fn(state, [f"perm{i}" for i in range(m)],
                           [f"particle{i}" for i in range(m)], statistics)
    except (ValidationError, StructuralError) as err:
        return type(err)
    return out.amplitudes.tobytes(), counters


class TestAgainstDensePipeline:
    @settings(max_examples=120, deadline=None)
    @given(symmetrization_cases())
    def test_bitwise_equal_to_dense_pipeline(self, case):
        state, m, statistics = case
        got = _outcome(
            lambda s, *rest: antisymmetrize(SparseState.from_state(s), *rest),
            state, m, statistics)
        ref = _outcome(dense_antisymmetrize, state, m, statistics)
        assert got == ref


class TestOracle:
    def test_determinant_antisymmetry(self):
        bas = BasisSet([box_sine(1), box_sine(2), box_sine(3)])
        occ = OccupationVector((1, 0, 1))
        l = 2
        vec = slater_oracle(occ, bas, l).reshape(4, 4)  # [x1, x0]
        np.testing.assert_allclose(vec, -vec.T, atol=1e-12)

    def test_permanent_symmetry(self):
        bas = BasisSet([box_sine(1), box_sine(2)])
        occ = OccupationVector((1, 1), "bosonic")
        vec = slater_oracle(occ, bas, 2).reshape(4, 4)
        np.testing.assert_allclose(vec, vec.T, atol=1e-12)

    def test_oracle_normalized(self):
        bas = BasisSet([box_sine(1), box_sine(2), box_sine(3)])
        for n, stat in (((1, 1, 0), "fermionic"), ((2, 0, 1), "bosonic")):
            occ = OccupationVector(n, stat)
            v = slater_oracle(occ, bas, 3)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


class TestHartreeProduct:
    def test_register_count_mismatch(self):
        bas = BasisSet([box_sine(1), box_sine(2)])
        layout = RegisterLayout(particle_segments(1, 2))
        state = QuantumState.zero(layout)
        with pytest.raises(StructuralError):
            prepare_hartree_product(state, OccupationVector((1, 1)), bas,
                                    CDF, ["particle0"])

    def test_orbital_outside_basis(self):
        bas = BasisSet([box_sine(1)])
        layout = RegisterLayout(particle_segments(1, 2))
        state = QuantumState.zero(layout)
        with pytest.raises(ValidationError):
            prepare_hartree_product(state, OccupationVector((0, 1)), bas,
                                    CDF, ["particle0"])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 4))
    def test_pipeline_preserves_norm(self, mchoice):
        orbs = [box_sine(n) for n in range(1, mchoice + 1)]
        bas = BasisSet(orbs)
        occ = OccupationVector(tuple([1] * mchoice))
        state, _, _ = _pipeline(occ, bas, 3)
        assert state.norm == pytest.approx(1.0, abs=1e-10)
