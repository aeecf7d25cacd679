"""Acceptance suite: one test per release criterion, at the stated
tolerances and runtime budgets.  Run with `pytest -v` to get one pass/fail
line per criterion; `-s` additionally shows the measured numbers.
"""
import itertools
import time

import numpy as np
import pytest

from gridprep.analysis import (
    fit_exponent,
    mixed_infidelity,
    pure_infidelity,
)
from gridprep.assemble import OccupationVector, slater_oracle
from gridprep.basis import (
    BasisSet,
    IntegrationSpec,
    box_sine,
    harmonic_hermite,
    mc_sample_count,
    ring_plane_wave,
    uniform,
)
from gridprep.compose import (
    FockSuperposition,
    MixedSpec,
    mixed_oracle,
    prepare_mixed,
    prepare_slater,
    prepare_superposition,
    prepare_two_species,
    superposition_oracle,
)
from gridprep.discriminate import SymmetryOperator, extra_qubits_for
from gridprep.errors import DegeneracyError
from gridprep.loader import _mc_grid_ratio, load_error_bound, load_orbital
from gridprep.statevec import DensityMatrix, QuantumState, RegisterLayout, \
    partial_trace
from helpers import delta_at_site, eigenvalues, grid_prob, perturbed, \
    purity

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)
QUAD = IntegrationSpec(backend="adaptive-quadrature", epsilon_i=1e-9)


def fresh(l):
    return QuantumState.zero(RegisterLayout([("x", l)]))


def infidelity(vec, target):
    return pure_infidelity(vec, target)


def ring_basis():
    # distinct wave numbers mod 4, so the set stays orthogonal down to l=2
    return BasisSet([ring_plane_wave(k, energy=float(i))
                     for i, k in enumerate((0, 1, -1, 2))])


def all_occupations(num_orbitals, max_m, statistics):
    combine = (itertools.combinations if statistics == "fermionic"
               else itertools.combinations_with_replacement)
    for m in range(1, max_m + 1):
        for chosen in combine(range(num_orbitals), m):
            n = [0] * num_orbitals
            for i in chosen:
                n[i] += 1
            yield OccupationVector(tuple(n), statistics)


def swap_first_two(vector, m, l):
    """Exchange particle registers 0 and 1 of an m-particle grid vector."""
    dims = [1 << l] * m
    cube = vector.reshape(dims[::-1])  # axis order: particle m-1 .. 0
    return np.swapaxes(cube, m - 1, m - 2).reshape(-1)


class TestAcceptance:
    def test_criterion_1_single_orbital_loading(self):
        start = time.perf_counter()
        cases = (
            [(uniform(), CDF)]
            + [(box_sine(n), CDF) for n in (1, 2, 3)]
            + [(ring_plane_wave(k), CDF) for k in (0, 1, 2, 3)]
            + [(harmonic_hermite(n), QUAD) for n in (0, 1, 2)]
        )
        worst = 0.0
        for l in range(2, 11):
            for orb, spec in cases + [(delta_at_site(1, l), CDF)]:
                state, _ = load_orbital(fresh(l), "x", orb, spec)
                worst = max(worst,
                            infidelity(state.amplitudes, orb.grid_values(l)))
        elapsed = time.perf_counter() - start
        print(f"\ncriterion 1: worst infidelity {worst:.3g}, {elapsed:.2f}s")
        assert worst <= 1e-9
        assert elapsed < 5.0

    def test_criterion_2_adversarial_noise_bound(self):
        start = time.perf_counter()
        for l in (4, 6, 8):
            for eps in (1e-2, 1e-3):
                for sign in (+1, -1):
                    for orb in (box_sine(1), box_sine(2)):
                        state, _ = load_orbital(
                            fresh(l), "x", orb, CDF,
                            ratio_perturb=lambda i, k, r: r + sign * eps)
                        measured = infidelity(state.amplitudes,
                                              orb.grid_values(l))
                        assert measured <= load_error_bound(l, eps), \
                            (l, eps, sign, measured)
        elapsed = time.perf_counter() - start
        print(f"\ncriterion 2: all cells within l*eps/2, {elapsed:.2f}s")
        assert elapsed < 10.0

    def test_criterion_3_monte_carlo_confidence(self):
        start = time.perf_counter()
        # box-sine n=1 on 16 sites, level 2, block pair 0: sites [0, 8),
        # left half [0, 4); truth is the exact grid ratio (0.14090...)
        prob = grid_prob(box_sine(1), 4)
        truth = prob[:4].sum() / prob[:8].sum()
        hits = 0
        for seed in range(200):
            spec = IntegrationSpec(backend="monte-carlo", epsilon_i=0.02,
                                   delta=0.1, bounds=(0.0, 1.0), seed=seed)
            estimate = _mc_grid_ratio(prob, 0, 4, 8, spec, level=2, block=0)
            if abs(estimate - truth) <= 0.02:
                hits += 1
        elapsed = time.perf_counter() - start
        print(f"\ncriterion 3: {hits}/200 trials within epsilon, "
              f"{elapsed:.2f}s")
        assert hits >= 170  # >= 85%
        assert elapsed < 30.0

    def test_criterion_4_antisymmetrization(self):
        start = time.perf_counter()
        bas = ring_basis()
        worst = {"fermionic": 0.0, "bosonic": 0.0}
        worst_swap = 0.0
        for statistics, expected_sign in (("fermionic", -1.0),
                                          ("bosonic", +1.0)):
            for l in (2, 3, 4):
                for occ in all_occupations(4, 3, statistics):
                    prep = prepare_slater(occ, bas, l, CDF)
                    inf = infidelity(prep.vector, slater_oracle(occ, bas, l))
                    worst[statistics] = max(worst[statistics], inf)
                    if occ.m >= 2:
                        overlap = np.vdot(
                            prep.vector, swap_first_two(prep.vector, occ.m, l))
                        worst_swap = max(worst_swap,
                                         abs(overlap - expected_sign))
        elapsed = time.perf_counter() - start
        print(f"\ncriterion 4: worst infidelity {max(worst.values()):.3g}, "
              f"worst swap deviation {worst_swap:.3g}, {elapsed:.2f}s")
        assert worst["fermionic"] <= 1e-9
        assert worst["bosonic"] <= 1e-9
        assert worst_swap <= 1e-10
        assert elapsed < 60.0

    def test_criterion_5_disentanglement(self):
        # part A: exactly representable energy phases -> deterministic
        # uncomputation (no ambiguous readout mass, no retries) and
        # amplitude-faithful superpositions
        bas = BasisSet([box_sine(n, energy=float(n - 1))
                        for n in (1, 2, 3, 4)])
        t = 2 * np.pi / 8
        sups = [
            FockSuperposition.from_strings([(0.6, "1100"), (0.8, "1010")]),
            FockSuperposition.from_strings(
                [(0.5, "1100"), (0.5, "1010"), (np.sqrt(0.5), "1001")]),
            FockSuperposition.from_strings(
                [(0.5, "1100"), (0.5, "1010"), (0.5, "1001"),
                 (0.5, "0110")]),
        ]
        cache = {}
        for sup in sups:
            for seed in range(5):
                prep = prepare_superposition(sup, bas, 3, CDF, t=t,
                                             seed=seed, cache=cache)
                assert prep.report.attempts == 1
                assert prep.report.retries == 0
                assert prep.report.counters["max_ambiguous_mass"] <= 1e-10
                assert infidelity(
                    prep.vector, superposition_oracle(sup, bas, 3)) <= 1e-8

        # part B: irrational phases, success-probability headroom from
        # p = extra_qubits_for(0.05) extra readout qubits
        assert extra_qubits_for(0.05) == 4
        irr = BasisSet([box_sine(1, energy=0.0),
                        box_sine(2, energy=np.sqrt(2.0)),
                        box_sine(3, energy=np.sqrt(5.0))])
        t_irr = 2 * np.pi * 0.3 / np.sqrt(2.0)
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])
        cache = {}
        attempts = retries = 0
        for seed in range(500):
            prep = prepare_superposition(sup, irr, 2, CDF, t=t_irr,
                                         eps_pe=0.05, seed=seed, cache=cache)
            attempts += prep.report.attempts
            retries += prep.report.retries
        rate = retries / attempts
        print(f"\ncriterion 5: retry rate {rate:.4f} over 500 seeds")
        assert rate <= 0.05 + 0.03

    def test_criterion_6_degeneracy_handling(self):
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=1.0),
                         ring_plane_wave(-1, energy=1.0)])
        sup = FockSuperposition.from_strings([(0.6, "110"), (0.8, "101")])

        # run 1: energy-only readout cannot separate the +-k pair
        with pytest.raises(DegeneracyError, match="1.0"):
            prepare_superposition(sup, ring, 3, CDF, t=2 * np.pi / 4, seed=0)

        # run 2: cyclic-shift symmetry readout separates them exactly
        prep = prepare_superposition(
            sup, ring, 3, CDF, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"), seed=1)
        assert prep.report.retries == 0
        assert infidelity(prep.vector,
                          superposition_oracle(sup, ring, 3)) <= 1e-8

        # run 3: a gap-restoring energy perturbation also resolves the pair
        pert = perturbed(ring, 2, 0.125)
        prep = prepare_superposition(sup, pert, 3, CDF, t=2 * np.pi / 16,
                                     seed=2)
        assert prep.report.retries == 0
        assert infidelity(prep.vector,
                          superposition_oracle(sup, pert, 3)) <= 1e-8
        print("\ncriterion 6: collision detected, symmetry and perturbation "
              "runs both exact")

    def test_criterion_7_mixed_states(self):
        bas = BasisSet([box_sine(n, energy=float(n - 1)) for n in (1, 2)])
        # two-level thermal occupations at beta = 1
        mix = MixedSpec.thermal(1.0, [(0.0, OccupationVector((1, 0))),
                                      (1.0, OccupationVector((0, 1)))])
        probs = [p for p, _ in mix.components]
        assert probs[0] == pytest.approx(0.731059, abs=1e-6)
        assert probs[1] == pytest.approx(0.268941, abs=1e-6)

        # purification then partial trace equals the direct mixture
        prep = prepare_mixed(mix, bas, 3, CDF)
        target = mixed_oracle(mix, bas, 3)
        assert np.max(np.abs(prep.rho.matrix - target.matrix)) <= 1e-8
        evals = np.sort(eigenvalues(prep.rho))[::-1]
        assert evals[0] == pytest.approx(probs[0], abs=1e-6)
        assert evals[1] == pytest.approx(probs[1], abs=1e-6)

        # dephasing cannot worsen the error: eps_rho <= eps_psi under the
        # same adversarial integral noise
        bas3 = BasisSet([box_sine(n, energy=float(n - 1)) for n in (1, 2, 3)])
        mix3 = MixedSpec.from_probabilities([(0.7, "110"), (0.3, "101")])
        for l in (3, 4):
            for eps in (1e-2, 1e-3):
                perturb = lambda i, k, r: r - eps
                eps_psi = 0.0
                columns = []
                for p, occ in mix3.components:
                    noisy = prepare_slater(occ, bas3, l, CDF,
                                           ratio_perturb=perturb).vector
                    eps_psi = max(eps_psi, infidelity(
                        noisy, slater_oracle(occ, bas3, l)))
                    columns.append(np.sqrt(p) * noisy)
                rho_noisy = DensityMatrix(np.column_stack(columns))
                eps_rho = mixed_infidelity(rho_noisy,
                                           mixed_oracle(mix3, bas3, l))
                assert eps_rho <= eps_psi + 1e-12, (l, eps, eps_rho, eps_psi)
        print("\ncriterion 7: thermal weights, purification trace, and "
              "eps_rho <= eps_psi all hold")

    def test_criterion_8_cost_accounting(self):
        # rotation stages: exactly l per orbital
        for l in (3, 5, 7):
            for orb in (uniform(), box_sine(2), delta_at_site(1, l)):
                _, plan = load_orbital(fresh(l), "x", orb, CDF)
                assert plan.l == l
                assert plan.integral_requests == (1 << l) - 1
                assert plan.rotation_applications <= (1 << l) - 1

        # Monte Carlo sample count scales as epsilon^-2
        eps_grid = [10.0 ** e for e in np.linspace(-1, -3, 6)]
        counts = [mc_sample_count(
            IntegrationSpec(backend="monte-carlo", epsilon_i=e, delta=0.05,
                            bounds=(0.0, 1.0)), bounded=True)
            for e in eps_grid]
        slope, _ = fit_exponent(eps_grid, counts)
        assert slope == pytest.approx(-2.0, abs=0.15)

        # comparator count matches the odd-even transposition network and
        # the loader counters stay within m(2^l - 1) requests over ml stages
        bas = ring_basis()
        for m in (2, 3, 4):
            occ = OccupationVector(tuple([1] * m + [0] * (4 - m)))
            prep = prepare_slater(occ, bas, 3, CDF)
            c = prep.report.counters
            assert c["comparators"] == m * (m - 1) // 2
            assert c["integral_requests"] == m * ((1 << 3) - 1)
            assert c["rotation_applications"] <= m * ((1 << 3) - 1)
        print(f"\ncriterion 8: stages = l, sample-count exponent "
              f"{slope:.3f}, comparator and request counters exact")

    def test_criterion_9_two_species(self):
        bas = ring_basis()
        l = 2
        # rank-one product of species: reduced state of either species pure
        prep = prepare_two_species(OccupationVector((1, 1, 0, 0)),
                                   OccupationVector((1, 0, 1, 0)),
                                   bas, bas, l, CDF)
        rho_a = partial_trace(prep.state, ["a_particle0", "a_particle1"])
        rho_b = partial_trace(prep.state, ["b_particle0", "b_particle1"])
        assert purity(rho_a) == pytest.approx(1.0, abs=1e-8)
        assert purity(rho_b) == pytest.approx(1.0, abs=1e-8)

        # entangled two-branch state: reduced purity 1/2
        p1 = prepare_two_species(OccupationVector((1, 1, 0, 0)),
                                 OccupationVector((1, 1, 0, 0)),
                                 bas, bas, l, CDF)
        p2 = prepare_two_species(OccupationVector((1, 0, 1, 0)),
                                 OccupationVector((0, 1, 1, 0)),
                                 bas, bas, l, CDF)
        theta = (p1.vector + p2.vector) / np.sqrt(2.0)
        dim_a = 1 << (2 * l)
        m_ab = theta.reshape(-1, dim_a)  # rows: species b, cols: species a
        rho_a = m_ab.T @ m_ab.conj()
        mixed = float(np.real(np.trace(rho_a @ rho_a)))
        assert mixed == pytest.approx(0.5, abs=1e-8)
        print(f"\ncriterion 9: product purity 1, entangled purity "
              f"{mixed:.10f}")
