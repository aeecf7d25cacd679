"""End-to-end preparation drivers and their oracles."""
import inspect
import math
from collections import Counter
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gridprep
from gridprep import compose
from gridprep.analysis import BoundCheck, mixed_infidelity, pure_infidelity
from gridprep.basis import (
    FAMILIES,
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
    PreparedState,
    boson_counter_width,
    fock_encode,
    mixed_oracle,
    phase_estimation_error_bound,
    prepare_mixed,
    prepare_orbital,
    prepare_slater,
    prepare_superposition,
    prepare_two_species,
    superposition_oracle,
)
from gridprep.discriminate import PhaseEstimationConfig, SymmetryOperator, \
    identify_and_decrement
from gridprep.errors import DegeneracyError, ResourceError, \
    RetryBudgetError, ValidationError
from gridprep.loader import load_error_bound
from helpers import eigenvalues, outputs_under_blas_threads, purity, \
    reference_prepare, register_identify

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

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValidationError, match="norm (nan|inf)"):
            FockSuperposition.from_strings([(amplitude, "10"), (0.8, "01")])
        with pytest.raises(ValidationError, match="norm (nan|inf)"):
            FockSuperposition(((amplitude, OccupationVector((1, 0))),))


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

    @pytest.mark.parametrize("weights", [(np.nan, 1.0), (np.inf, -np.inf),
                                         (-0.5, 1.5)])
    def test_weights_must_be_nonnegative_numbers(self, weights):
        with pytest.raises(ValidationError, match="nonnegative"):
            MixedSpec.from_probabilities(zip(weights, ("10", "01")))

    def test_infinite_beta_rejected(self):
        # exp(-inf * 0) is NaN, so no weight is a number
        with pytest.raises(ValidationError, match="nonnegative"):
            MixedSpec.thermal(np.inf, [(0.0, "10"), (1.0, "01")])


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
        evals = np.sort(eigenvalues(prep.rho))[::-1]
        assert evals[0] == pytest.approx(0.731059, abs=1e-6)
        assert evals[1] == pytest.approx(0.268941, abs=1e-6)

    def test_diagonal_mixture_from_superposition(self):
        bas = dyadic_basis(3)
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])
        # the superposition dephased: its |alpha_w|^2 ensemble
        prep = prepare_mixed(MixedSpec.from_probabilities(
            [(abs(a) ** 2, occ) for a, occ in sup.terms]), bas, 2, CDF)
        target = mixed_oracle(
            MixedSpec.from_probabilities([(0.36, "110"), (0.64, "101")]),
            bas, 2)
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


    # a fraction, a float and a bool are no qubit count either; each of
    # them raised TypeError from a shift, or ran at l = 1, before the
    # drivers checked l
    @pytest.mark.parametrize("l", [0, -1, 3.5, 2.0, True])
    @pytest.mark.parametrize("prepare", [
        lambda l: prepare_orbital(box_sine(1), l, CDF),
        lambda l: prepare_slater(FERMI_110, dyadic_basis(3), l, CDF),
        lambda l: prepare_two_species(FERMI_110, FERMI_110, dyadic_basis(3),
                                      dyadic_basis(3), l, CDF),
        lambda l: prepare_superposition(SUP_110_101, dyadic_basis(3), l, CDF,
                                        seed=0),
        lambda l: prepare_mixed(MixedSpec.from_probabilities(
            [(0.7, "110"), (0.3, "101")]), dyadic_basis(3), l, CDF),
    ], ids=["orbital", "slater", "two-species", "superposition", "mixed"])
    def test_grid_without_qubits_rejected(self, prepare, l):
        with pytest.raises(ValidationError,
                           match="^l: .*grid needs at least one qubit"):
            prepare(l)

    # each call raised AttributeError before the drivers checked their
    # arguments
    @pytest.mark.parametrize("prepare, name", [
        pytest.param(lambda: prepare_slater("111", dyadic_basis(3), 2, CDF),
                     "occupation", id="slater-occupation-string"),
        pytest.param(lambda: prepare_two_species(
            "11", "11", dyadic_basis(2), dyadic_basis(2), 2, CDF),
            "occupation_a", id="two-species-occupation-string"),
        pytest.param(lambda: prepare_two_species(
            FERMI_110, "11", dyadic_basis(3), dyadic_basis(2), 2, CDF),
            "occupation_b", id="two-species-occupation-b-string"),
        pytest.param(lambda: prepare_superposition(
            "110", dyadic_basis(3), 2, CDF, seed=0),
            "sup", id="superposition-string"),
        pytest.param(lambda: prepare_mixed("10", dyadic_basis(2), 2, CDF),
                     "mixed", id="mixed-string"),
        pytest.param(lambda: prepare_orbital(box_sine(1), 3, None),
                     "spec", id="orbital-no-spec"),
        pytest.param(lambda: prepare_slater(FERMI_110, dyadic_basis(3), 2,
                                            None),
                     "spec", id="slater-no-spec"),
    ])
    def test_misused_argument_named(self, prepare, name):
        with pytest.raises(ValidationError, match=f"^{name}: "):
            prepare()

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
        # occupation register, banks, and one 2-qubit readout
        (lambda: prepare_superposition(SUP_110_101, dyadic_basis(3), 2, CDF,
                                       t=2 * np.pi / 4, seed=0),
         "superposition", 2, "fermionic", 11, 3,
         {"symmetrization_norm", "max_ambiguous_mass"}, None),
        # the exact 2-bit phases take no extra readout qubits with eps_pe
        (lambda: prepare_superposition(SUP_110_101, dyadic_basis(3), 2, CDF,
                                       t=2 * np.pi / 4, eps_pe=0.05, seed=0),
         "superposition", 2, "fermionic", 11, 3,
         {"symmetrization_norm", "max_ambiguous_mass"}, 0.05),
    ], ids=["slater", "permanent", "two-species", "mixed", "superposition",
            "superposition-eps-pe"])
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


def _artifacts(prep):
    report = prep.report
    return (None if prep.vector is None else prep.vector.tobytes(),
            None if prep.rho is None else prep.rho.matrix.tobytes(),
            repr(report.counters), report.attempts, report.retries,
            report.error_bound.hex(), report.qubits)


def _bank_slab(state):
    """The amplitudes of `state` at permutation-bank value 0, and the
    (above, nonzero bank value, below) table of the rest; the banks are
    the "perm" segments, which lie next to each other.
    """
    banks = [seg for seg in state.layout if "perm" in seg.name]
    below = 1 << banks[0].offset
    table = state.amplitudes.reshape(
        -1, 1 << sum(seg.width for seg in banks), below)
    return table[:, 0, :].ravel(), table[:, 1:, :]


class TestAgainstFullLayoutLoad:
    @settings(max_examples=40, deadline=None)
    @given(driver_calls())
    def test_bitwise_equal_to_full_layout_load(self, call):
        with mock.patch.object(compose, "_prepare",
                               wraps=compose._prepare) as skeleton:
            prep = call()
        with mock.patch.object(compose, "_prepare", reference_prepare):
            ref = call()
        assert _artifacts(prep) == _artifacts(ref)
        slab, rest = _bank_slab(ref.state)
        assert prep.state.amplitudes.tobytes() == slab.tobytes()
        assert not rest.any()  # the banks left out held nothing
        # the returned layout has neither the banks nor the readouts a
        # Kraus map stands in for, and report.qubits counts both
        layout = prep.state.layout
        assert not any("perm" in seg.name for seg in layout)
        blank = skeleton.call_args.kwargs.get("blank", ())
        assert not {name for name, _ in blank} & {seg.name for seg in layout}
        species = Counter(seg.name.split("particle")[0] for seg in layout
                          if "particle" in seg.name)
        assert prep.report.qubits == layout.n_total + sum(
            m * math.ceil(math.log2(m)) for m in species.values()) + sum(
            width for _, width in blank)



# -- the readouts as a Kraus map against their registers --------------------

IRRATIONAL_LEVELS = [0.0, math.sqrt(2), math.sqrt(5)]


@st.composite
def readout_calls(draw):
    """`prepare_superposition` keyword arguments: an energy readout alone,
    with exact phases (levels 0, 1, 2 at t = 2 pi / 4) or irrational ones
    (levels 0, sqrt 2, sqrt 5 at a random t, read with eps_pe), or split by
    a symmetry readout (ring plane waves 0, 1, -1 at levels 0, 1, 1 and a
    cyclic shift of step 1 or 3, or box sines 1, 2, 3 at levels 0, 0, 1 and
    a reflection); fermionic or bosonic terms with m = 1 or 2, and a random
    measurement seed.
    """
    statistics = draw(st.sampled_from(["fermionic", "bosonic"]))
    occs = _patterns(draw, 3, statistics, draw(st.integers(1, 2)))
    amps = draw(st.lists(st.complex_numbers(min_magnitude=0.1,
                                            max_magnitude=1.0),
                         min_size=len(occs), max_size=len(occs)))
    l = draw(st.integers(2, 3))
    call = dict(sup=FockSuperposition.from_terms(list(zip(amps, occs))),
                l=l, spec=CDF, seed=draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["exact", "irrational", "shift",
                                 "reflection"]))
    if kind == "exact":
        return dict(call, basis=_grid_basis(draw, l, [0.0, 1.0, 2.0]),
                    t=2 * np.pi / 4)
    if kind == "irrational":
        return dict(call, basis=_grid_basis(draw, l, IRRATIONAL_LEVELS),
                    t=draw(st.floats(0.3, 3.0)),
                    eps_pe=draw(st.sampled_from([0.3, 0.1, 0.05])))
    if kind == "shift":
        basis = BasisSet([ring_plane_wave(k, energy=e)
                          for k, e in [(0, 0.0), (1, 1.0), (-1, 1.0)]])
        symmetry = SymmetryOperator("cyclic-shift", draw(st.sampled_from(
            [1, 3])))
    else:
        basis = BasisSet([box_sine(n, energy=e)
                          for n, e in [(1, 0.0), (2, 0.0), (3, 1.0)]])
        symmetry = SymmetryOperator("reflection")
    return dict(call, basis=basis, t=2 * np.pi / 4, symmetry=symmetry)


def _run_recorded(call, identify):
    """The preparation (or the exception it raised) and every
    identification record, with `identify` as the identification pass.
    """
    records = []

    def recorded(*args, **kwargs):
        state, record = identify(*args, **kwargs)
        records.append(record)
        return state, record

    with mock.patch.object(compose, "identify_and_decrement", recorded):
        try:
            return prepare_superposition(**call), records
        except RetryBudgetError as exc:
            return type(exc), records


class TestKrausAgainstRegister:
    @settings(max_examples=40, deadline=None)
    @given(readout_calls())
    def test_equal_to_the_register_path(self, call):
        try:
            config = PhaseEstimationConfig.build(
                call["basis"], call["l"], t=call["t"],
                eps_pe=call.get("eps_pe"), symmetry=call.get("symmetry"))
        except DegeneracyError:  # a random t can make two phases collide
            assume(False)
        # keeps the register small
        assume(sum(width for _, width in config.readouts) <= 8)
        prep, records = _run_recorded(call, identify_and_decrement)
        ref, ref_records = _run_recorded(call, register_identify)
        assert len(records) == len(ref_records)
        for record, ref_record in zip(records, ref_records):
            assert record.readout_outcomes == ref_record.readout_outcomes
            np.testing.assert_allclose(record.orbital_mass,
                                       ref_record.orbital_mass, rtol=0,
                                       atol=1e-12)
            assert record.ambiguous_mass == pytest.approx(
                ref_record.ambiguous_mass, rel=0, abs=1e-12)
        if not isinstance(prep, PreparedState):
            assert prep is ref
            return
        assert prep.report.attempts == ref.report.attempts
        assert prep.report.qubits == ref.report.qubits
        np.testing.assert_allclose(prep.vector, ref.vector, rtol=0,
                                   atol=1e-12)
        assert not {name for name, _ in config.readouts} \
            & {seg.name for seg in prep.state.layout}


class TestReadoutLayout:
    #: (terms, statistics, levels, l, keywords) per energy-only kind
    CASES = {
        "exact": ([(0.6, "110"), (0.8, "101")], "fermionic",
                  [0.0, 1.0, 2.0], 2, {"t": 2 * np.pi / 4}),
        "irrational": ([(0.6, "110"), (0.8, "101")], "fermionic",
                       IRRATIONAL_LEVELS, 2,
                       {"t": 2 * np.pi * 0.3 / math.sqrt(2), "eps_pe": 0.05}),
        "bosonic": ([(0.6, "2,0,0"), (0.8, "0,2,0")], "bosonic",
                    [0.0, 1.0, 2.0], 3, {"t": 2 * np.pi / 4}),
    }

    # the qubit counts are those reported while the state held the readout
    @pytest.mark.parametrize("kind, qubits", [
        ("exact", 11), ("irrational", 15), ("bosonic", 16)])
    def test_energy_readout_left_out(self, kind, qubits):
        terms, statistics, levels, l, keywords = self.CASES[kind]
        sup = FockSuperposition.from_strings(terms, statistics)
        basis = BasisSet([box_sine(n + 1, energy=e)
                          for n, e in enumerate(levels)])
        prep = prepare_superposition(sup, basis, l, CDF, seed=1, **keywords)
        assert [seg.name for seg in prep.state.layout] == \
            ["fock", "particle0", "particle1"]
        assert prep.report.qubits == qubits
        assert pure_infidelity(prep.vector, superposition_oracle(
            sup, basis, l)) <= prep.report.error_bound

    def test_symmetry_readouts_left_out(self):
        # the report still counts the readout (2) and symread (3) qubits
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=1.0),
                         ring_plane_wave(-1, energy=1.0)])
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])
        prep = prepare_superposition(
            sup, ring, 3, CDF, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"), seed=1)
        assert [seg.name for seg in prep.state.layout] == \
            ["fock", "particle0", "particle1"]
        assert prep.state.layout.n_total == 9
        assert prep.report.qubits == 16
        assert pure_infidelity(prep.vector, superposition_oracle(
            sup, ring, 3)) <= prep.report.error_bound


class TestEdgePhases:
    def test_within_bound_over_50_seeds(self):
        # orbital n = 3 has theta 2^5 = 20.4985, near the edge of its key's
        # window: the energy readout widens from 9 to 10 qubits so that
        # every orbital reads right with probability 1 - eps_pe
        basis = BasisSet([box_sine(n, energy=float(np.sqrt(1.7 * n)))
                          for n in (7, 5, 4, 3)])
        sup = FockSuperposition.from_strings([(0.6, "1100"), (0.8, "0011")])
        target = superposition_oracle(sup, basis, 3)
        for seed in range(50):
            prep = prepare_superposition(sup, basis, 3, CDF, t=1.0,
                                         eps_pe=0.05, seed=seed)
            assert pure_infidelity(prep.vector, target) \
                <= prep.report.error_bound, seed


# -- the readouts and the loaded state shared across seeds ------------------

#: `prepare_superposition` keywords but the seed: criterion 5 part B
#: (irrational phases, eps_pe = 0.05), an exact-phase superposition, and a
#: degenerate ring pair split by a cyclic-shift readout.
SHARED_CONFIGS = {
    "irrational": dict(
        sup=SUP_110_101,
        basis=BasisSet([box_sine(n + 1, energy=e)
                        for n, e in enumerate(IRRATIONAL_LEVELS)]),
        l=2, spec=CDF, t=2 * np.pi * 0.3 / math.sqrt(2), eps_pe=0.05),
    "exact": dict(
        sup=FockSuperposition.from_strings([(0.6, "1100"), (0.8, "1010")]),
        basis=dyadic_basis(4), l=3, spec=CDF, t=2 * np.pi / 8),
    "cyclic-shift": dict(
        sup=SUP_110_101,
        basis=BasisSet([ring_plane_wave(k, energy=e)
                        for k, e in [(0, 0.0), (1, 1.0), (-1, 1.0)]]),
        l=3, spec=CDF, t=2 * np.pi / 4,
        symmetry=SymmetryOperator("cyclic-shift")),
}


class TestSharedCache:
    # seed 82 of part B retries, and seed 98 returns a leaked state
    @pytest.mark.parametrize("kind, seeds", [
        ("irrational", range(80, 100)), ("exact", range(3)),
        ("cyclic-shift", range(3))])
    def test_warm_cache_matches_no_cache(self, kind, seeds):
        call = SHARED_CONFIGS[kind]
        cache = {}
        prepare_superposition(**call, seed=0, cache=cache)
        attempts = []
        for seed in seeds:
            warm = prepare_superposition(**call, seed=seed, cache=cache)
            cold = prepare_superposition(**call, seed=seed)
            assert warm.vector.tobytes() == cold.vector.tobytes(), seed
            assert warm.report.attempts == cold.report.attempts, seed
            assert cold.report.counters["integral_evaluations"] > 0
            assert warm.report.counters == {
                **cold.report.counters, "integral_evaluations": 0}, seed
            attempts.append(warm.report.attempts)
        if kind == "irrational":
            assert attempts[82 - 80] == 2

    def test_build_and_load_run_once_per_configuration(self, monkeypatch):
        calls = Counter()
        build, load = PhaseEstimationConfig.build.__func__, \
            compose._load_branches

        def counted_build(cls, *args, **kwargs):
            calls["build"] += 1
            return build(cls, *args, **kwargs)

        def counted_load(*args, **kwargs):
            calls["load"] += 1
            return load(*args, **kwargs)

        monkeypatch.setattr(PhaseEstimationConfig, "build",
                            classmethod(counted_build))
        monkeypatch.setattr(compose, "_load_branches", counted_load)
        cache = {}
        preps = [prepare_superposition(**SHARED_CONFIGS["irrational"],
                                       seed=seed, cache=cache)
                 for seed in range(80, 90)]
        assert calls == {"build": 1, "load": 1}
        assert sum(prep.report.attempts for prep in preps) == 11  # seed 82
        (config,) = [v for k, v in cache.items() if k[0] == "readouts"]
        ((state, _),) = [v for k, v in cache.items() if k[0] == "loaded"]
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            config.instrument[0][...] = 0.0


# -- every driver within its proved bound -----------------------------------

#: Keyword strategies per continuum or delta family of basis.FAMILIES; some
#: draws vanish on every site of a coarse grid.
ORBITAL_KEYS = {
    "uniform": {},
    "box-sine": {"n": st.integers(1, 8)},
    "ring-plane-wave": {"k": st.integers(-8, 8)},
    "harmonic-hermite": {"n": st.integers(0, 4),
                         "width": st.floats(0.05, 0.3)},
    "kronecker-delta": {"x0": st.floats(0.0, 0.99)},
}


def _aliasing_basis(draw, l, energies):
    """Box-sine or ring orbitals with quantum numbers up to twice the sites,
    so that some alias (n and 2^(l+1) - n, k and k + 2^l) or vanish on the
    grid; the test assumes them independent.
    """
    sites = 1 << l
    family, numbers = draw(st.sampled_from([
        (box_sine, st.integers(1, 2 * sites - 1)),
        (ring_plane_wave, st.integers(-sites, sites))]))
    return BasisSet([family(n, energy=e) for n, e in zip(draw(st.lists(
        numbers, min_size=len(energies), max_size=len(energies),
        unique=True)), energies)])


def _independent(basis, l):
    try:
        basis.grid_matrix(l)
    except ValidationError:
        return False
    return True


@st.composite
def bound_cases(draw):
    """(bases, l, driver call, oracle call) for every driver with no open
    fault: one orbital of any continuum or delta family, Slater
    determinants and permanents, two species, thermal mixtures, and
    superpositions with exact dyadic phases (distinct levels, or a +-k
    ring pair split by a cyclic-shift readout), fermionic or bosonic.  l is
    2-4; the orbital and Slater loads take a +-epsilon_i perturbation of
    every split ratio, its sign drawn per (level, pair).
    """
    kind = draw(st.sampled_from(["orbital", "slater", "two-species",
                                 "mixed", "superposition", "symmetry"]))
    l = draw(st.integers(2, 4))
    eps = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.05]))
    spec = IntegrationSpec(backend="analytic-cdf", epsilon_i=eps)
    signs = draw(st.integers(0, 2**32 - 1))

    def perturb(i, k, ratio):
        return ratio + eps * (1 - 2 * (hash((signs, i, k)) & 1))

    statistics = draw(st.sampled_from(["fermionic", "bosonic"]))
    if kind == "orbital":
        family = draw(st.sampled_from(sorted(ORBITAL_KEYS)))
        orbital = FAMILIES[family](**{key: draw(keys) for key, keys
                                      in ORBITAL_KEYS[family].items()})
        return ([BasisSet([orbital])], l,
                lambda: prepare_orbital(orbital, l, spec,
                                        ratio_perturb=perturb),
                lambda: orbital.grid_values(l))
    if kind == "slater":
        occ = _patterns(draw, 3, statistics, draw(st.integers(1, 3)))[0]
        basis = _aliasing_basis(draw, l, [0.0] * 3)
        return ([basis], l,
                lambda: prepare_slater(occ, basis, l, spec,
                                       ratio_perturb=perturb),
                lambda: slater_oracle(occ, basis, l))
    if kind == "two-species":
        occs = [_patterns(draw, 3, draw(st.sampled_from(
            ["fermionic", "bosonic"])), draw(st.integers(1, 2)))[0]
            for _ in range(2)]
        bases = [_aliasing_basis(draw, l, [0.0] * 3) for _ in range(2)]
        return (bases, l,
                lambda: prepare_two_species(*occs, *bases, l, spec),
                lambda: np.kron(slater_oracle(occs[1], bases[1], l),
                                slater_oracle(occs[0], bases[0], l)))
    occs = _patterns(draw, 3, statistics, draw(st.integers(1, 2)))
    if kind == "mixed":
        energies = draw(st.lists(st.floats(0.0, 3.0), min_size=len(occs),
                                 max_size=len(occs)))
        mixed = MixedSpec.thermal(draw(st.floats(0.3, 1.5)),
                                  list(zip(energies, occs)))
        basis = _aliasing_basis(draw, l, [0.0] * 3)
        return ([basis], l, lambda: prepare_mixed(mixed, basis, l, spec),
                lambda: mixed_oracle(mixed, basis, l))
    amps = draw(st.lists(st.complex_numbers(min_magnitude=0.1,
                                            max_magnitude=1.0),
                         min_size=len(occs), max_size=len(occs)))
    sup = FockSuperposition.from_terms(list(zip(amps, occs)))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "symmetry":
        k = draw(st.integers(1, (1 << (l - 1)) - 1))
        basis = BasisSet([ring_plane_wave(0, energy=0.0),
                          ring_plane_wave(k, energy=1.0),
                          ring_plane_wave(-k, energy=1.0)])
        pe = {"symmetry": SymmetryOperator("cyclic-shift")}
    else:  # distinct levels at t = 2 pi / 4: the phases 0, 3/4, 1/2, 1/4
        basis = _aliasing_basis(
            draw, l, draw(st.permutations([0.0, 1.0, 2.0, 3.0]))[:3])
        pe = {}
    return ([basis], l,
            lambda: prepare_superposition(sup, basis, l, spec,
                                          t=2 * np.pi / 4, seed=seed, **pe),
            lambda: superposition_oracle(sup, basis, l))


class TestWithinErrorBound:
    @settings(max_examples=60, deadline=None)
    @given(bound_cases())
    def test_infidelity_within_error_bound(self, case):
        bases, l, call, oracle = case
        assume(all(_independent(basis, l) for basis in bases))
        prep, reference = call(), oracle()
        measured = (pure_infidelity(prep.vector, reference)
                    if prep.rho is None
                    else mixed_infidelity(prep.rho, reference))
        check = BoundCheck("infidelity", measured, prep.report.error_bound)
        assert check.satisfied, check.row()


#: Prints a SHA-256 of the vector and the symmetrization norm of prepare_slater
#: for three fermions at each grid size given on the command line.
SLATER_BYTES = """
import hashlib, sys
from gridprep import BasisSet, IntegrationSpec, OccupationVector, box_sine, \\
    prepare_slater
basis = BasisSet([box_sine(1), box_sine(2), box_sine(3)])
spec = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)
for l in map(int, sys.argv[1:]):
    prep = prepare_slater(OccupationVector.parse("111"), basis, l, spec)
    print(l, hashlib.sha256(prep.vector.tobytes()).hexdigest(),
          repr(prep.report.counters["symmetrization_norm"]))
"""


def test_slater_bytes_do_not_depend_on_blas_threads():
    outputs = outputs_under_blas_threads(["-c", SLATER_BYTES, "5", "6"])
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


#: Prints a SHA-256 of the vector of prepare_orbital for box_sine(3) and its
#: infidelity against the grid values, at each grid size on the command line.
ORBITAL_BYTES = """
import hashlib, sys
from gridprep import IntegrationSpec, box_sine, prepare_orbital, \\
    pure_infidelity
spec = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)
for l in map(int, sys.argv[1:]):
    prep = prepare_orbital(box_sine(3), l, spec)
    print(l, hashlib.sha256(prep.vector.tobytes()).hexdigest(),
          repr(pure_infidelity(prep.vector, box_sine(3).grid_values(l))))
"""


def test_orbital_bytes_do_not_depend_on_blas_threads():
    # at l = 18 and 19 the norms and overlaps are long enough for a
    # threaded BLAS to split them
    outputs = outputs_under_blas_threads(["-c", ORBITAL_BYTES, "18", "19"])
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
