"""Phase estimation, lookup windows, symmetry readouts, uncomputation."""
from dataclasses import replace
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gridprep import discriminate
from gridprep.basis import BasisSet, IntegrationSpec, box_sine, \
    ring_plane_wave
from gridprep.discriminate import (
    PhaseEstimationConfig,
    SymmetryOperator,
    _decrement_fock,
    _instrument,
    energy_phases,
    extra_qubits_for,
    identify_and_decrement,
    phase_estimate,
    verify_uncomputation,
)
from gridprep.errors import DegeneracyError, StructuralError, ValidationError
from gridprep.loader import load_orbital
from gridprep.statevec import QuantumState, RegisterLayout, vector_norm
from helpers import fock_matrix, from_basis_index, qft_matrix, \
    reference_decrement_fock, reference_lookup, segment_probabilities, \
    symmetry_unitary, textbook_phase_estimate

CDF = IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def misidentification_probability(p):
    """Bound on readout mass beyond the resolving width, p extra qubits."""
    return 1.0 / (2.0 * (2**p - 2))


class TestReadoutSizing:
    def test_extra_qubits_reference_values(self):
        assert extra_qubits_for(0.25) == 2
        assert extra_qubits_for(0.05) == 4

    def test_extra_qubits_monotone(self):
        widths = [extra_qubits_for(e) for e in (0.3, 0.1, 0.03, 0.01)]
        assert widths == sorted(widths)

    def test_sizing_meets_target(self):
        for eps in (0.25, 0.1, 0.05, 0.01):
            p = extra_qubits_for(eps)
            assert misidentification_probability(p) <= eps


class TestSymmetryOperator:
    def test_unitaries_are_permutations(self):
        for op in (SymmetryOperator("reflection"),
                   SymmetryOperator("cyclic-shift"),
                   SymmetryOperator("cyclic-shift", step=3)):
            sites = op.sites(3)
            assert np.array_equal(np.sort(sites), np.arange(8))
            assert np.array_equal(np.argmax(symmetry_unitary(op, 3), axis=0),
                                  sites)

    def test_plane_wave_shift_eigenphase(self):
        op = SymmetryOperator("cyclic-shift")
        for k in (0, 1, -1, 3):
            v = ring_plane_wave(k).grid_values(3)
            assert op.eigenphase(v) == pytest.approx((k / 8) % 1.0,
                                                     abs=1e-10)

    def test_reflection_eigenphases(self):
        op = SymmetryOperator("reflection")
        phi = BasisSet([box_sine(1), box_sine(2)]).grid_matrix(3)
        assert op.eigenphase(phi[:, 0]) == pytest.approx(0.0, abs=1e-10)
        assert op.eigenphase(phi[:, 1]) == pytest.approx(0.5, abs=1e-10)

    def test_non_eigenstate_rejected(self):
        op = SymmetryOperator("cyclic-shift")
        v = np.zeros(8)
        v[0] = 1.0
        with pytest.raises(ValidationError):
            op.eigenphase(v)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SymmetryOperator("rotation-please")


class TestConfigBuild:
    def test_distinct_dyadic_energies(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0),
                        box_sine(3, energy=2.0)])
        cfg = PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4)
        # thetas 0, 3/4, 1/2 are exact at 2 bits
        (_, width, (_, thetas)), = cfg.readouts
        assert width == 2
        np.testing.assert_allclose(thetas, [0.0, 0.75, 0.5])

    def test_collision_raises_with_energies_in_message(self):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=1.0)])
        with pytest.raises(DegeneracyError, match="1.0"):
            PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4)

    def test_symmetry_resolves_collision(self):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=1.0)])
        cfg = PhaseEstimationConfig.build(
            bas, 3, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"))
        table = cfg.lookup
        # each orbital owns at least one readout cell, none overlap
        owners = {int(v) for v in np.unique(table) if v >= 0}
        assert owners == {0, 1, 2}

    def test_inexact_symmetry_phases_need_eps_pe(self):
        # a shift by 3 of 2^17 sites gives k = +-1 the phases +-3 / 2^17,
        # which 15 bits separate but no readout of at most MAX_PHASE_BITS =
        # 16 bits reads exactly; the energy phases 0, 3/4, 3/4 are exact
        bas = BasisSet([ring_plane_wave(k, energy=float(k * k))
                        for k in (0, 1, -1)])
        with pytest.raises(ValidationError, match="^eps_pe: "):
            PhaseEstimationConfig.build(
                bas, 17, t=2 * np.pi / 4,
                symmetry=SymmetryOperator("cyclic-shift", 3))

    def test_inexact_energy_phases_need_eps_pe(self):
        energies = np.array([0.0, np.sqrt(2)])  # phases 0 and 1 - sqrt(2)/4
        with pytest.raises(ValidationError, match="^eps_pe: "):
            energy_phases(energies, 2 * np.pi / 4)
        assert energy_phases(energies, 2 * np.pi / 4, 0.05)[0] == 0.0

    def test_inexact_colliding_phases_need_eps_pe(self):
        # exactness is tested before separation, so without eps_pe phases
        # that are both inexact and colliding name eps_pe
        bas = BasisSet([box_sine(1, energy=np.sqrt(2)),
                        box_sine(2, energy=np.sqrt(2))])
        with pytest.raises(ValidationError, match="^eps_pe: "):
            PhaseEstimationConfig.build(bas, 3, t=1.0)
        with pytest.raises(DegeneracyError, match="collide"):
            PhaseEstimationConfig.build(bas, 3, t=1.0, eps_pe=0.05)

    @pytest.mark.parametrize("symmetry, tests", [
        (None, 1), (SymmetryOperator("cyclic-shift"), 2)])
    def test_each_readout_tested_for_exactness_once(self, symmetry, tests):
        bas = BasisSet([ring_plane_wave(0, energy=0.0),
                        ring_plane_wave(1, energy=1.0),
                        ring_plane_wave(-1, energy=np.sqrt(2))])
        with mock.patch.object(discriminate, "_exact_bits",
                               wraps=discriminate._exact_bits) as exact:
            PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4,
                                        eps_pe=0.05, symmetry=symmetry)
        assert exact.call_count == tests

    def test_noncommuting_symmetry_rejected(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=0.0)])
        with pytest.raises(ValidationError):
            PhaseEstimationConfig.build(
                bas, 3, symmetry=SymmetryOperator("cyclic-shift"))

    def test_extra_qubits_included(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0)])
        widths = [PhaseEstimationConfig.build(
            bas, 3, t=2 * np.pi / 4, eps_pe=eps).readouts[0][1]
            for eps in (None, 0.05)]
        assert widths[1] == widths[0] + 4


@st.composite
def lookup_cases(draw):
    """Energy phases at random levels (a + j sqrt(2) / 64) / 256, a an
    8-bit integer and j in [-20, 20] (0 gives an exact dyadic), so 8 bits
    resolve distinct levels; p <= 4 extra bits.  Box sines on distinct
    levels have one readout; ring plane waves, which may share a level, a
    cyclic shift (odd step) as the second.  The last item says whether
    every orbital's level is exact.
    """
    count = draw(st.integers(1, 4))
    levels = [((a + j * np.sqrt(2) / 64) / 256, j == 0) for a, j in zip(
        draw(st.lists(st.integers(0, 255), min_size=count, max_size=count,
                      unique=True)),
        draw(st.lists(st.integers(-20, 20), min_size=count,
                      max_size=count)))]
    eps_pe = draw(st.sampled_from([None, 0.3, 0.1, 0.05]))
    if not draw(st.booleans()):
        return BasisSet([box_sine(n + 1, energy=-ph) for n, (ph, _)
                         in enumerate(levels)]), 3, eps_pe, None, all(
            exact for _, exact in levels)
    l = draw(st.integers(3, 4))
    ks = draw(st.lists(st.integers(-(1 << (l - 1)), (1 << (l - 1)) - 1),
                       min_size=count, max_size=count, unique=True))
    phases = [draw(st.sampled_from(levels)) for _ in ks]
    symmetry = SymmetryOperator("cyclic-shift",
                                draw(st.sampled_from([1, 3, 5])))
    return BasisSet([ring_plane_wave(k, energy=-ph) for k, (ph, _)
                     in zip(ks, phases)]), l, eps_pe, symmetry, all(
        exact for _, exact in phases)


class TestLookupAgainstWindows:
    @settings(max_examples=200, deadline=None)
    @given(lookup_cases())
    def test_lookup_matches_window_definition(self, case):
        bas, l, eps_pe, symmetry, exact = case
        build = partial(PhaseEstimationConfig.build, bas, l, t=2 * np.pi,
                        eps_pe=eps_pe, symmetry=symmetry)
        if eps_pe is None and not exact:
            # no bound covers a misread of an inexact phase
            with pytest.raises(ValidationError, match="eps_pe"):
                build()
            return
        cfg = build()
        p = 0 if eps_pe is None else extra_qubits_for(eps_pe)
        phases = [cfg.readouts[0][2][1]]
        if symmetry is not None:
            phi = bas.grid_matrix(l)
            phases.append([symmetry.eigenphase(phi[:, j])
                           for j in range(bas.size)])
        bits = [width - p for _, width, _ in cfg.readouts]
        assert len(bits) == 1 + (symmetry is not None)
        assert max(bits) <= 8
        assert np.array_equal(cfg.lookup, reference_lookup(phases, bits, p))


def _pe_distribution(theta, q):
    """Readout distribution for phase estimation of diag(1, e^{2 pi i th})
    applied to the |1> eigenstate.
    """
    layout = RegisterLayout([("t", "particle", 1), ("r", "readout", q)])
    amps = np.zeros(layout.dim, dtype=complex)
    amps[1] = 1.0  # target |1>, readout |0>
    state = QuantumState(layout, amps)
    # u = diag(1, e^{2 pi i theta})
    state = phase_estimate(state, "r", "t", (np.eye(2)[:, 1:], [theta]))
    return segment_probabilities(state, "r"), state


class TestPhaseEstimate:
    def test_exact_dyadic_phase_is_deterministic(self):
        probs, _ = _pe_distribution(5 / 16, 4)
        assert probs[5] == pytest.approx(1.0, abs=1e-12)

    def test_accuracy_bound_with_extra_qubits(self):
        # n=3 resolving bits, p=4 extras: mass farther than 2^-3 from theta
        # is at most 1/(2(2^4-2))
        n, p = 3, 4
        theta = 0.3
        probs, _ = _pe_distribution(theta, n + p)
        grid = np.arange(1 << (n + p)) / (1 << (n + p))
        d = np.abs(grid - theta)
        d = np.minimum(d, 1 - d)
        outside = probs[d > 2.0**-n].sum()
        assert outside <= misidentification_probability(p) + 0.01

    def test_adjoint_round_trip(self):
        layout = RegisterLayout([("t", "particle", 2), ("r", "readout", 3)])
        rng = np.random.default_rng(2)
        amps = np.zeros(layout.dim, dtype=complex)
        amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = QuantumState(layout, amps)
        h = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        grid, _ = np.linalg.qr(h)
        for u in ((grid, rng.uniform(size=2)), rng.permutation(4)):
            forward = phase_estimate(state, "r", "t", u)
            back = phase_estimate(forward, "r", "t", u, adjoint=True)
            np.testing.assert_allclose(back.amplitudes, amps, atol=1e-10)

    def test_symmetry_discriminate_separates_conjugate_pair(self):
        layout = RegisterLayout([("x", "particle", 3), ("r", "readout", 3)])
        for k, expected in ((1, 1), (-1, 7)):
            state = QuantumState.zero(layout)
            state, _ = load_orbital(state, "x", ring_plane_wave(k), CDF)
            state = phase_estimate(state, "r", "x",
                                   SymmetryOperator("cyclic-shift").sites(3))
            probs = segment_probabilities(state, "r")
            assert probs[expected] == pytest.approx(1.0, abs=1e-10)


def _test_unitary(kind, l, rng):
    """A readout's u on 2^l sites, in the form `phase_estimate` takes, and
    its dense matrix: a propagator exp(-i F t) of up to 3 orbitals, so the
    complement is a large eigenspace of phase 0, or a grid symmetry.
    """
    if kind == "energy":
        k = int(rng.integers(1, min(3, (1 << l) - 1) + 1))
        bas = BasisSet([box_sine(n + 1, energy=float(rng.uniform(-2, 2)))
                        for n in range(k)])
        t = float(rng.uniform(0.1, 3.0))
        thetas = (-bas.energies * t / (2 * np.pi)) % 1.0
        return (bas.grid_matrix(l), thetas), expm(-1j * t * fock_matrix(bas, l))
    step = int(rng.integers(1, 1 << l))
    op = SymmetryOperator(kind, step=step)
    return op.sites(l), symmetry_unitary(op, l)


class TestClosedForm:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["energy", "cyclic-shift", "reflection"]),
           st.integers(1, 3), st.integers(1, 7), st.booleans(),
           st.booleans(), st.integers(0, 2**31 - 1))
    def test_matches_textbook_circuit(self, kind, l, q, readout_first,
                                      adjoint, seed):
        pair = [("t", "particle", l), ("r", "readout", q)]
        if readout_first:
            pair.reverse()
        layout = RegisterLayout([("lo", "scratch", 1), pair[0],
                                 ("mid", "scratch", 1), pair[1]])
        rng = np.random.default_rng(seed)
        # every register, the readout included, carries amplitude, and the
        # target carries mass outside the orbitals' span
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = QuantumState(layout, amps / np.linalg.norm(amps))
        u, dense = _test_unitary(kind, l, rng)
        got = phase_estimate(state, "r", "t", u, adjoint=adjoint)
        want = textbook_phase_estimate(state, "r", "t", dense,
                                       adjoint=adjoint)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("matrix", [
        [[1], [1]],                 # a column of norm sqrt 2
        [[1, 1e-6], [0, 1]],        # unit columns, not orthogonal
        [[1, 0, 0], [0, 1, 0]],     # more columns than target values
    ])
    def test_non_unitary_rejected(self, matrix):
        # u = I + grid diag(e^{2 pi i phases} - 1) grid^dagger is unitary
        # only for orthonormal columns
        layout = RegisterLayout([("t", "particle", 1), ("r", "readout", 2)])
        grid = np.array(matrix, dtype=complex)
        with pytest.raises(ValidationError, match="orthonormal"):
            phase_estimate(QuantumState.zero(layout), "r", "t",
                           (grid, np.full(grid.shape[1], 0.25)))

    def test_segments_and_phases_checked(self):
        layout = RegisterLayout([("t", "particle", 2), ("r", "readout", 2)])
        state = QuantumState.zero(layout)
        for u in ((np.eye(4)[:, :2], [0.5]), np.arange(8),
                  np.array([0, 0, 1, 2])):
            with pytest.raises(StructuralError):
                phase_estimate(state, "r", "t", u)
        with pytest.raises(StructuralError):
            phase_estimate(state, "t", "t", np.arange(4))


def _loaded_state(bas, orbital_index, cfg, extra_fock=None):
    segments = [("fock", "fock", bas.size), ("particle0", "particle", 3),
                *cfg.segments()]
    layout = RegisterLayout(segments)
    fock_value = (1 << orbital_index) if extra_fock is None else extra_fock
    state = from_basis_index(layout, fock_value)
    state, _ = load_orbital(state, "particle0",
                            bas.orbitals[orbital_index], CDF)
    return state


class TestIdentifyAndDecrement:
    def setup_method(self):
        self.bas = BasisSet([box_sine(1, energy=0.0),
                             box_sine(2, energy=1.0),
                             box_sine(3, energy=2.0)])
        self.cfg = PhaseEstimationConfig.build(self.bas, 3, t=2 * np.pi / 4)

    def test_clears_fock_bit_and_readout(self):
        for j in range(3):
            state = _loaded_state(self.bas, j, self.cfg)
            state, record = identify_and_decrement(
                state, self.cfg, "fock", "particle0",
                rng=np.random.default_rng(0))
            assert record.orbital_mass[j] == pytest.approx(1.0, abs=1e-10)
            assert record.ambiguous_mass == pytest.approx(0.0, abs=1e-10)
            assert not record.leaked
            ok, outcome, state = verify_uncomputation(
                state, "fock", np.random.default_rng(0))
            assert ok and outcome == 0

    def test_particle_state_survives(self):
        state = _loaded_state(self.bas, 1, self.cfg)
        state, _ = identify_and_decrement(
            state, self.cfg, "fock", "particle0", rng=np.random.default_rng(0))
        from gridprep.statevec import extract_segment_vector
        vec = extract_segment_vector(state, ["particle0"])
        target = self.bas.orbitals[1].grid_values(3)
        assert abs(np.vdot(vec, target)) == pytest.approx(1.0, abs=1e-10)

    def test_superposed_fock_branches(self):
        # (0.6 |001>|phi0> + 0.8 |010>|phi1>) -> fock empty on both branches
        segments = [("fock", "fock", 3), ("particle0", "particle", 3),
                    *self.cfg.segments()]
        layout = RegisterLayout(segments)
        amps = np.zeros(layout.dim, dtype=complex)
        state = QuantumState(layout, amps)
        phi0 = self.bas.orbitals[0].grid_values(3)
        phi1 = self.bas.orbitals[1].grid_values(3)
        for x in range(8):
            amps[0b001 | (x << 3)] = 0.6 * phi0[x]
            amps[0b010 | (x << 3)] = 0.8 * phi1[x]
        state = QuantumState(layout, amps)
        state, record = identify_and_decrement(
            state, self.cfg, "fock", "particle0", rng=np.random.default_rng(0))
        assert record.orbital_mass[0] == pytest.approx(0.36, abs=1e-10)
        assert record.orbital_mass[1] == pytest.approx(0.64, abs=1e-10)
        ok, _, _ = verify_uncomputation(state, "fock",
                                        np.random.default_rng(0))
        assert ok

    def test_boson_counter_decrement(self):
        bas = BasisSet([box_sine(1, energy=0.0), box_sine(2, energy=1.0)])
        cfg = PhaseEstimationConfig.build(bas, 3, t=2 * np.pi / 4)
        layout = RegisterLayout([("fock", "fock", 4),
                                 ("particle0", "particle", 3),
                                 *cfg.segments()])
        # counters (2, 0): value 0b0010
        state = from_basis_index(layout, 0b0010)
        state, _ = load_orbital(state, "particle0", bas.orbitals[0], CDF)
        state, record = identify_and_decrement(
            state, cfg, "fock", "particle0",
            counter_width=2, rng=np.random.default_rng(0))
        vals = segment_probabilities(state, "fock")
        assert vals[0b0001] == pytest.approx(1.0, abs=1e-10)

    def test_wrong_readout_width_rejected(self):
        from gridprep.errors import StructuralError
        layout = RegisterLayout([("fock", "fock", 3),
                                 ("particle0", "particle", 3),
                                 ("readout", "readout",
                                  self.cfg.readouts[0][1] + 1)])
        state = QuantumState.zero(layout)
        with pytest.raises(StructuralError):
            identify_and_decrement(state, self.cfg, "fock", "particle0",
                                   rng=np.random.default_rng(0))


    def test_emulated_readout_must_not_be_held(self):
        # the Kraus map stands in for the energy readout, so a layout that
        # holds it, even at its width, is not one the map was made for
        (name, _, width), = self.cfg.segments(emulated=True)
        layout = RegisterLayout([("fock", "fock", 3),
                                 ("particle0", "particle", 3),
                                 (name, "readout", width)])
        with pytest.raises(StructuralError, match="stands in for"):
            identify_and_decrement(QuantumState.zero(layout), self.cfg,
                                   "fock", "particle0",
                                   rng=np.random.default_rng(0))

    def test_wrong_symmetry_readout_width_rejected(self):
        ring = BasisSet([ring_plane_wave(0, energy=0.0),
                         ring_plane_wave(1, energy=1.0),
                         ring_plane_wave(-1, energy=1.0)])
        cfg = PhaseEstimationConfig.build(
            ring, 3, t=2 * np.pi / 4,
            symmetry=SymmetryOperator("cyclic-shift"))
        segments = cfg.segments()
        name, role, width = segments[1]
        segments[1] = (name, role, width + 1)
        layout = RegisterLayout([("fock", "fock", 3),
                                 ("particle0", "particle", 3), *segments])
        with pytest.raises(StructuralError, match="symread"):
            identify_and_decrement(QuantumState.zero(layout), cfg, "fock",
                                   "particle0", rng=np.random.default_rng(0))


@st.composite
def instrument_cases(draw):
    """One to four random phases, a readout of 1-8 qubits and a lookup
    whose values name the orbitals or -1 (none), -1 always among them.
    """
    phases = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                    min_size=1, max_size=4)))
    q = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lookup = rng.integers(-1, phases.size, size=1 << q)
    lookup[rng.integers(1 << q)] = -1
    return phases, lookup


class TestKrausInstrument:
    @settings(max_examples=60, deadline=None)
    @given(instrument_cases())
    def test_complete_and_equal_to_its_definition(self, case):
        phases, lookup = case
        kraus, masses = _instrument(phases, lookup, phases.size)
        dim = lookup.size
        width = dim.bit_length() - 1
        cells = np.arange(phases.size + 1)[:, None] == lookup + 1
        for j, theta in enumerate(phases):
            # W_j = QFT^-1 diag(e^{2 pi i theta k}) QFT, as the estimator
            w = qft_matrix(width, inverse=True) @ np.diag(np.exp(
                2j * np.pi * theta * np.arange(dim))) @ qft_matrix(width)
            want = np.einsum("kr,k,ok->ro", w.conj(), w[:, 0], cells)
            np.testing.assert_allclose(kraus[j], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(masses[j],
                                       cells @ np.abs(w[:, 0]) ** 2,
                                       rtol=0, atol=1e-12)
            gram = kraus[j].conj().T @ kraus[j]
            np.testing.assert_allclose(gram, np.diag(masses[j]), rtol=0,
                                       atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(instrument_cases())
    def test_masses_are_the_textbook_readout_distribution(self, case):
        phases, lookup = case
        _, masses = _instrument(phases, lookup, phases.size)
        width = lookup.size.bit_length() - 1
        layout = RegisterLayout([("t", "particle", 1),
                                 ("r", "readout", width)])
        cells = np.arange(phases.size + 1)[:, None] == lookup + 1
        for j, theta in enumerate(phases):
            state = textbook_phase_estimate(
                from_basis_index(layout, 1), "r", "t",
                np.diag([1.0, np.exp(2j * np.pi * theta)]))
            np.testing.assert_allclose(
                masses[j], cells @ segment_probabilities(state, "r"),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phase", [np.nan, np.inf])
    def test_incomplete_instrument_rejected(self, phase):
        with pytest.raises(StructuralError, match="not complete"), \
                np.errstate(invalid="ignore"):
            _instrument(np.array([0.25, phase]), np.array([0, 1, -1, 0]), 2)


@st.composite
def kraus_cases(draw):
    """A random normalized state of (occupation register, particle
    register, spectator), with mass outside the orbitals' span, and an
    energy-only config: exact levels, or irrational ones read with eps_pe;
    the register may hold fewer counters than the basis has orbitals.
    """
    l = draw(st.integers(2, 3))
    size = draw(st.integers(2, 3))
    if draw(st.booleans()):
        energies, t, eps_pe = [0.0, 1.0, 2.0], 2 * np.pi / 4, None
    else:
        energies = [0.0, np.sqrt(2), np.sqrt(5)]
        t = 2 * np.pi * 0.3 / np.sqrt(2)
        eps_pe = draw(st.sampled_from([0.3, 0.1, 0.05]))
    bas = BasisSet([box_sine(n + 1, energy=e)
                    for n, e in enumerate(energies[:size])])
    cfg = PhaseEstimationConfig.build(bas, l, t=t, eps_pe=eps_pe)
    counter_width = draw(st.sampled_from([1, 2]))
    counters = draw(st.integers(1, size))
    layout = RegisterLayout([
        ("fock", "fock", counters * counter_width),
        ("particle0", "particle", l),
        ("spectator", "particle", draw(st.integers(0, 2)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return (QuantumState(layout, amps / np.linalg.norm(amps)), cfg,
            counter_width, draw(st.integers(0, 2**31 - 1)), draw(
                st.booleans()))


class FirstLeak:
    """A stand-in for the numpy Generator whose draw is the first readout
    value other than 0 with probability above 1e-6 (0 if none), so that the
    comparison sees the state a leaked readout leaves.
    """

    def choice(self, size, p):
        return next((r for r in range(1, size) if p[r] > 1e-6), 0)


class TestKrausAgainstRegister:
    @settings(max_examples=80, deadline=None)
    @given(kraus_cases())
    def test_equal_to_the_register_path(self, case):
        state, cfg, counter_width, seed, leak = case

        def rng():
            return FirstLeak() if leak else np.random.default_rng(seed)

        got, record = identify_and_decrement(
            state, cfg, "fock", "particle0", rng(), counter_width)
        # the register path on the state with the readout appended, blank
        (segment,) = cfg.segments(emulated=True)
        held = RegisterLayout([*((seg.name, seg.role, seg.width)
                                 for seg in state.layout), segment])
        amps = np.zeros(held.dim, dtype=complex)
        amps[:state.layout.dim] = state.amplitudes
        ref, ref_record = identify_and_decrement(
            QuantumState(held, amps), replace(cfg, kraus=None, masses=None),
            "fock", "particle0", rng(), counter_width)
        assert record.readout_outcomes == ref_record.readout_outcomes
        assert not np.any(ref.amplitudes[state.layout.dim:])
        np.testing.assert_allclose(got.amplitudes,
                                   ref.amplitudes[:state.layout.dim],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.orbital_mass,
                                   ref_record.orbital_mass, rtol=0,
                                   atol=1e-12)
        assert record.ambiguous_mass == pytest.approx(
            ref_record.ambiguous_mass, rel=0, abs=1e-12)


@st.composite
def decrement_cases(draw):
    """An occupation register of one- or two-bit counters, one or two
    readouts and a spectator, in any layout order; a lookup with ambiguous
    cells and orbitals beyond the register's counters; normalized
    amplitudes with signed zeros.
    """
    counter_width = draw(st.sampled_from([1, 2]))
    n_counters = draw(st.integers(1, 3))
    readouts = [(f"read{i}", draw(st.integers(1, 3)))
                for i in range(draw(st.integers(1, 2)))]
    segments = draw(st.permutations(
        [("fock", "fock", n_counters * counter_width),
         ("spectator", "particle", draw(st.integers(0, 2)))]
        + [(name, "readout", width) for name, width in readouts]))
    layout = RegisterLayout(segments)
    size = n_counters + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lookup = rng.integers(-1, size, size=[1 << w for _, w in readouts])
    parts = rng.choice([0.0, -0.0, 1.0, -0.5, 0.3], size=(layout.dim, 2))
    amps = np.empty(layout.dim, dtype=np.complex128)
    amps.real, amps.imag = parts[:, 0], parts[:, 1]  # keep signed zeros
    if np.any(amps):
        amps /= vector_norm(amps)
    config = SimpleNamespace(readouts=tuple(readouts), lookup=lookup,
                             basis=SimpleNamespace(size=size))
    return QuantumState(layout, amps), config, counter_width


class TestDecrementAgainstFullLength:
    @settings(max_examples=150, deadline=None)
    @given(decrement_cases())
    def test_bitwise_equal_to_full_length_reference(self, case):
        state, config, counter_width = case
        got, mass, ambiguous = _decrement_fock(state, config, "fock",
                                               counter_width)
        ref, ref_mass, ref_ambiguous = reference_decrement_fock(
            state, config, "fock", counter_width)
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
        np.testing.assert_allclose(mass, ref_mass, rtol=0, atol=1e-12)
        assert ambiguous == pytest.approx(ref_ambiguous, rel=0, abs=1e-12)
