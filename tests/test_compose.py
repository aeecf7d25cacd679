"""End-to-end preparation drivers and their oracles."""
import inspect
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridprep
from gridprep import compose
from gridprep.analysis import mixed_infidelity, pure_infidelity
from gridprep.basis import (
    BasisSet,
    IntegrationSpec,
    box_sine,
    ring_plane_wave,
)
from gridprep.assemble import OccupationVector, slater_oracle
from gridprep.analysis import angle_error_bound
from gridprep.compose import (
    FockSuperposition,
    MixedSpec,
    boson_counter_width,
    fock_encode,
    mixed_oracle,
    phase_estimation_error_bound,
    prepare_diagonal_mixed,
    prepare_mixed,
    prepare_orbital,
    prepare_slater,
    prepare_superposition,
    prepare_two_species,
    superposition_oracle,
)
from gridprep.discriminate import SymmetryOperator
from gridprep.errors import ResourceError, ValidationError
from gridprep.loader import load_error_bound
from helpers import purity, reference_prepare

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def dyadic_basis(count):
    return BasisSet([box_sine(n, energy=float(n - 1))
                     for n in range(1, count + 1)])


class TestFockEncoding:
    def test_fermion_bits(self):
        occ = OccupationVector((1, 0, 1, 1))
        assert fock_encode(occ) == 0b1101

    def test_boson_counters(self):
        occ = OccupationVector((2, 0, 3), "bosonic")
        assert fock_encode(occ, counter_width=2) == (2 | (3 << 4))

    def test_boson_counter_overflow(self):
        occ = OccupationVector((4, 0), "bosonic")
        with pytest.raises(ValidationError):
            fock_encode(occ, counter_width=2)

    def test_counter_width(self):
        assert boson_counter_width(1) == 1
        assert boson_counter_width(3) == 2
        assert boson_counter_width(4) == 3


class TestFockSuperposition:
    def test_normalizes(self):
        sup = FockSuperposition.from_strings([(3.0, "10"), (4.0, "01")])
        amps = sorted(abs(a) for a, _ in sup.terms)
        assert amps == pytest.approx([0.6, 0.8])

    def test_rejects_mixed_particle_number(self):
        with pytest.raises(ValidationError):
            FockSuperposition.from_strings([(0.6, "10"), (0.8, "11")])

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            FockSuperposition.from_strings([(0.6, "10"), (0.8, "10")])

    def test_rejects_mixed_multiplicity_bosons(self):
        with pytest.raises(ValidationError):
            FockSuperposition.from_strings([(0.6, "2,0"), (0.8, "1,1")],
                                           "bosonic")


class TestMixedSpec:
    def test_thermal_gibbs_weights(self):
        mix = MixedSpec.thermal(
            1.0, [(0.0, OccupationVector((1, 0))),
                  (1.0, OccupationVector((0, 1)))])
        probs = [p for p, _ in mix.components]
        assert probs[0] == pytest.approx(0.731059, abs=1e-6)
        assert probs[1] == pytest.approx(0.268941, abs=1e-6)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            MixedSpec.from_probabilities([(0.5, "10"), (0.3, "01")])


class TestPureDrivers:
    def test_prepare_orbital(self):
        prep = prepare_orbital(box_sine(2), 4, CDF)
        assert pure_infidelity(prep.vector,
                               box_sine(2).grid_values(4)) < 1e-12
        assert prep.report.counters["integral_requests"] == 15

    def test_prepare_slater_matches_oracle(self):
        bas = dyadic_basis(3)
        occ = OccupationVector((1, 1, 0))
        prep = prepare_slater(occ, bas, 3, CDF)
        assert pure_infidelity(prep.vector,
                               slater_oracle(occ, bas, 3)) < 1e-10

    def test_prepare_superposition_exact_phases(self):
        bas = dyadic_basis(4)
        sup = FockSuperposition.from_strings([(0.6, "1100"), (0.8, "1010")])
        prep = prepare_superposition(sup, bas, 3, CDF, t=2 * np.pi / 8,
                                     seed=0)
        assert pure_infidelity(prep.vector,
                               superposition_oracle(sup, bas, 3)) < 1e-10
        assert prep.report.retries == 0

    def test_vacuous_load_bound_with_inexact_phases(self):
        # (m + 1) l eps_i / 2 = 1.5 exceeds 1; composing it with the
        # phase-estimation term must still report a bound, not raise
        bas = dyadic_basis(3)
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])
        spec = IntegrationSpec(backend="analytic-cdf", epsilon_i=0.5)
        prep = prepare_superposition(sup, bas, 2, spec, t=2 * np.pi / 4,
                                     eps_pe=0.05, seed=0)
        assert prep.report.error_bound == 1.0

    def test_superposition_with_phases_in_amplitudes(self):
        bas = dyadic_basis(3)
        sup = FockSuperposition.from_terms(
            [(0.6j, OccupationVector((1, 1, 0))),
             (0.8, OccupationVector((0, 1, 1)))])
        prep = prepare_superposition(sup, bas, 3, CDF, t=2 * np.pi / 4,
                                     seed=1)
        assert pure_infidelity(prep.vector,
                               superposition_oracle(sup, bas, 3)) < 1e-10

    def test_bosonic_superposition(self):
        bas = dyadic_basis(2)
        sup = FockSuperposition.from_strings([(0.6, "2,0"), (0.8, "0,2")],
                                             "bosonic")
        prep = prepare_superposition(sup, bas, 2, CDF, t=2 * np.pi / 4,
                                     seed=2)
        assert pure_infidelity(prep.vector,
                               superposition_oracle(sup, bas, 2)) < 1e-10

    @pytest.mark.parametrize("statistics, terms", [
        ("fermionic", [(0.6, "110"), (0.8, "011")]),
        ("bosonic", [(0.6, "2,0,0"), (0.8, "0,2,0")]),
    ])
    def test_basis_wider_than_terms(self, statistics, terms):
        # three counters, four orbitals: readout mass in the window of the
        # orbital without a counter is ambiguous, not a decrement
        bas = dyadic_basis(4)
        sup = FockSuperposition.from_strings(terms, statistics)
        prep = prepare_superposition(sup, bas, 3, CDF, t=2 * np.pi / 8,
                                     seed=2)
        assert pure_infidelity(prep.vector, superposition_oracle(
            sup, bas, 3)) <= prep.report.error_bound

    def test_superposition_with_symmetry_readout(self):
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=1.0),
                         ring_plane_wave(-1, energy=1.0)])
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])
        prep = prepare_superposition(
            sup, ring, 3, CDF, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"), seed=3)
        assert pure_infidelity(prep.vector,
                               superposition_oracle(sup, ring, 3)) < 1e-10


class TestMixedDrivers:
    def test_purification_matches_direct_mixture(self):
        bas = dyadic_basis(3)
        mix = MixedSpec.from_probabilities([(0.7, "110"), (0.3, "101")])
        prep = prepare_mixed(mix, bas, 2, CDF)
        target = mixed_oracle(mix, bas, 2)
        np.testing.assert_allclose(prep.rho.matrix, target.matrix,
                                   atol=1e-8)
        assert mixed_infidelity(prep.rho, target) < 1e-8

    def test_thermal_state_eigenvalues(self):
        bas = dyadic_basis(2)
        mix = MixedSpec.thermal(1.0, [(0.0, OccupationVector((1, 0))),
                                      (1.0, OccupationVector((0, 1)))])
        prep = prepare_mixed(mix, bas, 3, CDF)
        evals = np.sort(prep.rho.eigenvalues())[::-1]
        assert evals[0] == pytest.approx(0.731059, abs=1e-6)
        assert evals[1] == pytest.approx(0.268941, abs=1e-6)

    def test_diagonal_mixture_from_superposition(self):
        bas = dyadic_basis(3)
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])
        prep = prepare_diagonal_mixed(sup, bas, 2, CDF)
        mix = MixedSpec.from_probabilities([(0.36, "110"), (0.64, "101")])
        target = mixed_oracle(mix, bas, 2)
        np.testing.assert_allclose(prep.rho.matrix, target.matrix,
                                   atol=1e-8)


class TestTwoSpecies:
    def test_product_state_purity(self):
        bas = dyadic_basis(3)
        prep = prepare_two_species(OccupationVector((1, 1, 0)),
                                   OccupationVector((1, 0, 1)),
                                   bas, bas, 2, CDF)
        from gridprep.statevec import partial_trace
        rho_a = partial_trace(prep.state, ["a_particle0", "a_particle1"])
        assert purity(rho_a) == pytest.approx(1.0, abs=1e-8)

    def test_species_product_structure(self):
        bas_a = dyadic_basis(3)
        bas_b = BasisSet([ring_plane_wave(k, energy=float(k * k))
                          for k in (0, 1, -1)])
        for a, stats_a, b, stats_b in [
                ("110", "fermionic", "011", "fermionic"),
                ("101", "fermionic", "2,0,0", "bosonic"),
                ("1,1,0", "bosonic", "0,1,1", "bosonic"),
                ("010", "fermionic", "1,0,1", "bosonic")]:
            occ_a = OccupationVector.parse(a, stats_a)
            occ_b = OccupationVector.parse(b, stats_b)
            prep = prepare_two_species(occ_a, occ_b, bas_a, bas_b, 2, CDF)
            # species a occupies the low bits of the returned vector
            target = np.kron(slater_oracle(occ_b, bas_b, 2),
                             slater_oracle(occ_a, bas_a, 2))
            assert pure_infidelity(prep.vector, target) < 1e-10

            report = prep.report
            assert report.m == occ_a.m + occ_b.m
            assert report.statistics == f"{stats_a}+{stats_b}"
            assert report.counters["comparators"] == sum(
                m * (m - 1) // 2 for m in (occ_a.m, occ_b.m))
            assert report.counters["swapped_qubits"] == \
                2 * report.counters["comparators"]
            assert report.error_bound == \
                report.m * load_error_bound(2, CDF.epsilon_i)
            assert "symmetrization_norm" not in report.counters


class TestRetryAndErrors:
    def test_orbital_outside_basis(self):
        bas = dyadic_basis(2)
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "011")])
        with pytest.raises(ValidationError):
            prepare_superposition(sup, bas, 2, CDF, seed=0)

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_max_attempts_below_one_rejected(self, max_attempts):
        bas = dyadic_basis(2)
        sup = FockSuperposition.from_strings([(0.6, "10"), (0.8, "01")])
        with pytest.raises(ValidationError, match="max_attempts"):
            prepare_superposition(sup, bas, 2, CDF, t=2 * np.pi / 4,
                                  seed=0, max_attempts=max_attempts)

    def test_report_counters_present(self):
        bas = dyadic_basis(2)
        sup = FockSuperposition.from_strings([(0.6, "10"), (0.8, "01")])
        prep = prepare_superposition(sup, bas, 2, CDF, t=2 * np.pi / 4,
                                     seed=0)
        for key in ("integral_requests", "rotation_applications",
                    "comparators", "max_ambiguous_mass"):
            assert key in prep.report.counters


    @pytest.mark.parametrize("l", [0, -1])
    @pytest.mark.parametrize("prepare", [
        lambda l: prepare_orbital(box_sine(1), l, CDF),
        lambda l: prepare_slater(FERMI_110, dyadic_basis(3), l, CDF),
        lambda l: prepare_two_species(FERMI_110, FERMI_110, dyadic_basis(3),
                                      dyadic_basis(3), l, CDF),
        lambda l: prepare_superposition(SUP_110_101, dyadic_basis(3), l, CDF,
                                        seed=0),
        lambda l: prepare_mixed(MixedSpec.from_probabilities(
            [(0.7, "110"), (0.3, "101")]), dyadic_basis(3), l, CDF),
        lambda l: prepare_diagonal_mixed(SUP_110_101, dyadic_basis(3), l,
                                         CDF),
    ], ids=["orbital", "slater", "two-species", "superposition", "mixed",
            "diagonal-mixed"])
    def test_grid_without_qubits_rejected(self, prepare, l):
        with pytest.raises(ValidationError,
                           match="grid needs at least one qubit"):
            prepare(l)

    def test_qubit_cap_counts_the_permutation_banks(self, monkeypatch):
        # 6 particle qubits load, but the layout with the banks needs 12
        monkeypatch.setenv("GRIDPREP_QUBIT_CAP", "11")
        with pytest.raises(ResourceError, match="12 qubits"):
            prepare_slater(OccupationVector((1, 1, 1)), dyadic_basis(3), 2,
                           CDF)


LOADED = {"integral_requests", "integral_evaluations",
          "rotation_applications", "empty_blocks"}
SYMMETRIZED = {"comparators", "swapped_qubits"}
FERMI_110 = OccupationVector((1, 1, 0))
SUP_110_101 = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])


@pytest.mark.parametrize(
    "prepare, kind, m, statistics, qubits, registers, keys, eps_pe", [
        # 2 particles x l=2, 2 one-qubit permutation registers
        (lambda: prepare_slater(FERMI_110, dyadic_basis(3), 2, CDF),
         "slater", 2, "fermionic", 6, 2, {"symmetrization_norm"}, None),
        # 3 particles x l=2, 3 two-qubit permutation registers
        (lambda: prepare_slater(OccupationVector.parse("2,0,1", "bosonic"),
                                dyadic_basis(3), 2, CDF),
         "permanent", 3, "bosonic", 12, 3, {"symmetrization_norm"}, None),
        # 2 + 2 particles, 1 + 1 permutation registers per species
        (lambda: prepare_two_species(
            FERMI_110, OccupationVector.parse("1,0,1", "bosonic"),
            dyadic_basis(3), dyadic_basis(3), 2, CDF),
         "two-species", 4, "fermionic+bosonic", 12, 4, set(), None),
        # one-qubit branch register, plus the banks
        (lambda: prepare_mixed(
            MixedSpec.from_probabilities([(0.7, "110"), (0.3, "101")]),
            dyadic_basis(3), 2, CDF),
         "mixed", 2, "fermionic", 7, 3, {"symmetrization_norm"}, None),
        # three-qubit occupation register, plus the banks
        (lambda: prepare_diagonal_mixed(SUP_110_101, dyadic_basis(3), 2, CDF),
         "diagonal-mixed", 2, "fermionic", 9, 3, {"symmetrization_norm"},
         None),
        # occupation register, banks, and one 2-qubit readout
        (lambda: prepare_superposition(SUP_110_101, dyadic_basis(3), 2, CDF,
                                       t=2 * np.pi / 4, seed=0),
         "superposition", 2, "fermionic", 11, 3,
         {"symmetrization_norm", "max_ambiguous_mass"}, None),
        # eps_pe widens the readout to 6 qubits
        (lambda: prepare_superposition(SUP_110_101, dyadic_basis(3), 2, CDF,
                                       t=2 * np.pi / 4, eps_pe=0.05, seed=0),
         "superposition", 2, "fermionic", 15, 3,
         {"symmetrization_norm", "max_ambiguous_mass"}, 0.05),
    ], ids=["slater", "permanent", "two-species", "mixed", "diagonal-mixed",
            "superposition", "superposition-eps-pe"])
def test_report_contract(prepare, kind, m, statistics, qubits, registers,
                         keys, eps_pe):
    """Every multi-particle driver reports the same fields: one load bound
    per loaded register (m particles, plus a branch or occupation table),
    composed with the phase-estimation term when phases are inexact.
    """
    report = prepare().report
    assert (report.kind, report.m, report.statistics, report.qubits,
            report.attempts, report.retries) == (kind, m, statistics, qubits,
                                                 1, 0)
    assert set(report.counters) == LOADED | SYMMETRIZED | keys
    bound = registers * load_error_bound(2, CDF.epsilon_i)
    if eps_pe is not None:
        bound = angle_error_bound([bound,
                                   phase_estimation_error_bound(m, eps_pe)])
    assert report.error_bound == bound


def test_package_exports_no_modules():
    assert not [name for name in gridprep.__all__
                if inspect.ismodule(getattr(gridprep, name))]


# -- the load without the permutation banks, against the full layout --------

def _patterns(draw, orbitals, statistics, m):
    """Distinct occupations of one count pattern (so bosonic terms share
    their multiplicities), one to three of them.
    """
    if statistics == "fermionic":
        base = (1,) * m + (0,) * (orbitals - m)
    else:
        counts = draw(st.lists(st.integers(0, orbitals - 1), min_size=m,
                               max_size=m))
        base = tuple(counts.count(i) for i in range(orbitals))
    occs = sorted({OccupationVector(n, statistics)
                   for n in permutations(base)}, key=lambda o: o.n)
    return draw(st.lists(st.sampled_from(occs), min_size=1, max_size=3,
                         unique=True))


def _grid_basis(draw, l, energies):
    """Box-sine or ring orbitals that stay orthogonal on the 2^l sites."""
    sites, size = 1 << l, len(energies)
    if draw(st.booleans()):
        family = box_sine
        numbers = st.integers(1, sites - 1)
    else:
        family = ring_plane_wave
        numbers = st.integers(1 - sites // 2, sites // 2)
    return BasisSet([family(n, energy=e) for n, e in zip(draw(st.lists(
        numbers, min_size=size, max_size=size, unique=True)), energies)])


@st.composite
def driver_calls(draw):
    """A driver call on small random inputs: Slater determinants and
    permanents with m = 1-3, two species, exact-phase, inexact-phase and
    symmetry superpositions with a random measurement seed, and thermal
    mixtures.
    """
    kind = draw(st.sampled_from(["slater", "two-species", "superposition",
                                 "symmetry", "mixed"]))
    statistics = draw(st.sampled_from(["fermionic", "bosonic"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "slater":
        l = draw(st.integers(2, 3))
        orbitals = (1 << l) - 1
        m = draw(st.integers(1, 3))
        occ = _patterns(draw, orbitals, statistics, m)[0]
        basis = _grid_basis(draw, l, [0.0] * orbitals)
        return lambda: prepare_slater(occ, basis, l, CDF)
    if kind == "two-species":
        occs = [_patterns(draw, 3, draw(st.sampled_from(
            ["fermionic", "bosonic"])), draw(st.integers(1, 2)))[0]
            for _ in range(2)]
        l = draw(st.integers(2, 3))
        bases = [_grid_basis(draw, l, [0.0] * 3) for _ in range(2)]
        return lambda: prepare_two_species(*occs, *bases, l, CDF)
    if kind == "mixed":
        l = draw(st.integers(2, 3))
        occs = _patterns(draw, 3, statistics, draw(st.integers(1, 2)))
        beta = draw(st.floats(0.3, 1.5))
        energies = draw(st.lists(st.floats(0.0, 3.0), min_size=len(occs),
                                 max_size=len(occs)))
        mixed = MixedSpec.thermal(beta, list(zip(energies, occs)))
        basis = _grid_basis(draw, l, [0.0] * 3)
        return lambda: prepare_mixed(mixed, basis, l, CDF)
    occs = _patterns(draw, 3, statistics, draw(st.integers(1, 2)))
    amps = draw(st.lists(st.complex_numbers(min_magnitude=0.1,
                                            max_magnitude=1.0),
                         min_size=len(occs), max_size=len(occs)))
    sup = FockSuperposition.from_terms(list(zip(amps, occs)))
    if kind == "symmetry":
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=1.0),
                         ring_plane_wave(-1, energy=1.0)])
        l = draw(st.integers(2, 3))
        return lambda: prepare_superposition(
            sup, ring, l, CDF, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"), seed=seed)
    if draw(st.booleans()):  # exact phases
        basis = _grid_basis(draw, 2, [0.0, 1.0, 2.0])
        return lambda: prepare_superposition(sup, basis, 2, CDF,
                                             t=2 * np.pi / 4, seed=seed)
    # phases off the dyadic grid, read with eps_pe
    basis = _grid_basis(draw, 2, [1.0, 4.0, 9.0])
    return lambda: prepare_superposition(sup, basis, 2, CDF, eps_pe=0.05,
                                         seed=seed)


def _artifacts(call):
    prep = call()
    report = prep.report
    return (None if prep.vector is None else prep.vector.tobytes(),
            None if prep.rho is None else prep.rho.matrix.tobytes(),
            prep.state.amplitudes.tobytes(), repr(report.counters),
            report.attempts, report.retries, report.error_bound.hex())


class TestAgainstFullLayoutLoad:
    @settings(max_examples=40, deadline=None)
    @given(driver_calls())
    def test_bitwise_equal_to_full_layout_load(self, call):
        got = _artifacts(call)
        with mock.patch.object(compose, "_prepare", reference_prepare):
            ref = _artifacts(call)
        assert got == ref
